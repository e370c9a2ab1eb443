"""Command line interface.

    chrcp run <prog.chrcp> [--store f] [--engine op|abs] [--max-steps N]
              [--seed N] [--trace out.json]
    chrcp analyze <prog.chrcp> [--json]
    chrcp check <prog.chrcp> [--store f] [--max-steps N] [--trace out.json]
    chrcp fuzz --seeds A..B [--max-steps N]

The goal-stack machine (the default `--engine op`) takes the least maximal
match at each firing, so `run` makes the run that `check` checks. `--seed`
picks the steps of `--engine abs` only.

`run` and `check` stop after --max-steps steps (an integer >= 0, default
10000); `fuzz` stops each random program after --max-steps steps (default
300) or once its store holds more than 64 constraints.

Exit codes of `run` and `check`: 0 the run finished with no violation, 1 an
error (usage errors too) or a violation, 2 a limit stopped the run (stderr
names it). `fuzz` exits 0 when every seed is OK and 1 otherwise.
CHRCP_COLOR=0|1 overrides color auto-detection.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import Iterable

from .errors import ChrcpError
from .fuzz import STORE_CAP, generate_random
from .machine import annotate, run_operational
from .monotone import predicate_report, residual_non_unifiable
from .parse import load_program, load_store, pretty_pattern, pretty_store
from .rewrite import MAX_STEPS, run_abstract
from .rules import Atom, Comprehension, Rule
from .soundness import check_soundness, correspondence, trace_record, trace_records


def _use_color(stream) -> bool:
    env = os.environ.get("CHRCP_COLOR")
    if env == "0":
        return False
    if env == "1":
        return True
    return hasattr(stream, "isatty") and stream.isatty()


def _paint(text: str, code: str, stream=sys.stdout) -> str:
    if _use_color(stream):
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _ok(text: str) -> str:
    return _paint(text, "32")


def _bad(text: str) -> str:
    return _paint(text, "31")


def _note_truncated(limit: str) -> None:
    """Name on stderr the limit (such as "step budget 40") that stopped a run."""
    print(_bad(f"truncated: {limit} reached before the run finished"), file=sys.stderr)


def _write_trace(path: str, records: Iterable[dict]) -> None:
    """Write `records` as `json.dump(list(records), fh, indent=2)` would,
    byte for byte, one record as soon as it is rendered, so no list of
    them is ever held. A record's own newlines are indented one level:
    JSON text holds a newline only between tokens."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            sep = "[\n  "
            for rec in records:
                fh.write(sep + json.dumps(rec, indent=2).replace("\n", "\n  "))
                sep = ",\n  "
            fh.write("[]" if sep == "[\n  " else "\n]")
    except OSError as exc:
        raise ChrcpError(f"{path}: cannot write trace: {exc.strerror}") from None


def _refires(rule: Rule) -> bool:
    """Can the rule fire without removing a constraint, and so again and
    again under the abstract relation, which keeps no propagation history?
    A `==>` rule can. So can a rule that removes only comprehensions and
    adds an atom: with empty blocks it still adds that atom, so each firing
    changes the store and the run never settles."""
    if rule.is_propagation:
        return True
    return all(isinstance(h, Comprehension) for h in rule.simplified) and any(isinstance(p, Atom) for p in rule.body)


def cmd_run(args) -> int:
    program = load_program(args.program)
    store = load_store(args.store) if args.store else ()
    if args.engine == "abs":
        refiring = ", ".join(r.name for r in program.rules if _refires(r))
        if refiring:
            print(
                f"warning: --engine abs keeps no propagation history: rules ({refiring}) can fire "
                "without removing a constraint and may fire until --max-steps",
                file=sys.stderr,
            )
        run = run_abstract(program, store, max_steps=args.max_steps, seed=args.seed)
        final = run.final
        records = (trace_record(i, "apply", rule=step.rule) for i, step in enumerate(run.steps))
    else:
        pw = annotate(program)
        run = run_operational(pw, store, max_steps=args.max_steps)
        final = correspondence(run.state)
        records = (trace_record(i, kind, digest=digest) for i, (kind, digest) in enumerate(run.trace))
    if args.trace:  # `records` is a generator: without --trace none is built
        _write_trace(args.trace, records)
    print(pretty_store(final))
    if run.truncated:
        _note_truncated(run.truncated)
        return 2
    return 0


def cmd_analyze(args) -> int:
    program = load_program(args.program)
    patterns = []
    owners = []
    for rule in program.rules:
        for p in rule.body:
            patterns.append(p)
            owners.append(rule.name)
    report = residual_non_unifiable(program, patterns)
    preds = predicate_report(program)
    if args.json:
        payload = {
            "patterns": [
                {
                    "rule": owner,
                    "pattern": pretty_pattern(v.pattern),
                    "monotone": v.monotone,
                    "witnessRule": v.witness_rule,
                    "witnessHead": pretty_pattern(v.witness_head) if v.witness_head else None,
                }
                for owner, v in zip(owners, report.verdicts)
            ],
            "predicates": {
                f"{pred}/{arity}": mono for (pred, arity), mono in sorted(preds.items())
            },
        }
        print(json.dumps(payload, indent=2))
        return 0
    print("body patterns:")
    if not report.verdicts:
        print("  (none)")
    for owner, v in zip(owners, report.verdicts):
        if v.monotone:
            print(f"  {owner}: {pretty_pattern(v.pattern)}: {_ok('monotone')}")
        else:
            why = f"unifies with {pretty_pattern(v.witness_head)} in rule {v.witness_rule}"
            print(f"  {owner}: {pretty_pattern(v.pattern)}: {_bad('non-monotone')} ({why})")
    print("predicates:")
    for (pred, arity), mono in sorted(preds.items()):
        verdict = _ok("monotone") if mono else _bad("non-monotone")
        print(f"  {pred}/{arity}: {verdict}")
    return 0


def cmd_check(args) -> int:
    program = load_program(args.program)
    store = load_store(args.store) if args.store else ()
    report = check_soundness(program, store, max_steps=args.max_steps)
    counts = report.counts()
    print(
        f"steps={report.steps} silent={counts['silent']} "
        f"abstract={counts['abstract']} violations={counts['violation']}"
    )
    for index, kind, cls in report.violations:
        print(_bad(f"violation at step {index} ({kind}):"))
        print(f"  before: {pretty_store(cls.before or ())}")
        print(f"  after:  {pretty_store(cls.after or ())}")
    if args.trace:
        _write_trace(args.trace, trace_records(report))
    if report.truncated:
        _note_truncated(report.truncated)
    if not report.ok:
        print(_bad("FAIL"))
        return 1
    if report.truncated:
        print(_bad(f"TRUNCATED: no violation in the {report.steps} steps checked"))
        return 2
    print(_ok("OK"))
    return 0


def _parse_seed_range(text: str) -> tuple[int, int]:
    a, dots, b = text.partition("..")
    try:
        lo, hi = int(a), int(b if dots else a)
    except ValueError:
        raise ChrcpError(f"bad seed range {text!r}: expected A..B or N") from None
    if lo > hi:
        raise ChrcpError(f"bad seed range {text!r}: A is greater than B")
    return lo, hi


def cmd_fuzz(args) -> int:
    lo, hi = _parse_seed_range(args.seeds)
    failures = []
    truncated: Counter[str] = Counter()
    total_steps = 0
    for seed in range(lo, hi + 1):
        program, init = generate_random(seed)
        report = check_soundness(program, init, max_steps=args.max_steps, max_store=STORE_CAP)
        total_steps += report.steps
        if report.truncated:
            truncated[report.truncated] += 1
        if not report.ok:
            failures.append(seed)
            print(_bad(f"seed {seed}: {len(report.violations)} violation(s)"))
    n = hi - lo + 1
    by_limit = ", ".join(f"{k} at the {limit}" for limit, k in sorted(truncated.items()))
    by_limit = f" ({by_limit})" if by_limit else ""
    print(
        f"seeds {lo}..{hi}: {n - len(failures)}/{n} OK, "
        f"{sum(truncated.values())} truncated{by_limit}, {total_steps} machine steps"
    )
    print(_ok("OK") if not failures else _bad("FAIL"))
    return 0 if not failures else 1


def _step_count(text: str) -> int:
    """argparse type of --max-steps: an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chrcp", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a program on a store")
    run.add_argument("program")
    run.add_argument("--store")
    run.add_argument("--engine", choices=("op", "abs"), default="op")
    run.add_argument("--max-steps", type=_step_count, default=MAX_STEPS)
    run.add_argument("--seed", type=int, default=0, help="step choice of --engine abs")
    run.add_argument("--trace")
    run.set_defaults(func=cmd_run)

    an = sub.add_parser("analyze", help="monotonicity report")
    an.add_argument("program")
    an.add_argument("--json", action="store_true")
    an.set_defaults(func=cmd_analyze)

    ck = sub.add_parser("check", help="differential soundness check")
    ck.add_argument("program")
    ck.add_argument("--store")
    ck.add_argument("--max-steps", type=_step_count, default=MAX_STEPS)
    ck.add_argument("--trace")
    ck.set_defaults(func=cmd_check)

    fz = sub.add_parser("fuzz", help="soundness-check random programs")
    fz.add_argument("--seeds", required=True, help="inclusive range A..B")
    fz.add_argument("--max-steps", type=_step_count, default=300)
    fz.set_defaults(func=cmd_fuzz)
    return ap


def main(argv=None) -> int:
    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; here 2 means a limit was hit.
        return 1 if exc.code == 2 else exc.code
    try:
        return args.func(args)
    except ChrcpError as exc:
        error = str(exc)
    print(_bad(error), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
