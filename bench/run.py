"""The chrcp benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, in turn

Run from the root of a checkout; chrcp is imported from `src/` there. One
run is one fresh, single-threaded process. It sets up the workload's inputs
from the seed, then runs rounds of the workload's cases back to back (a
closed loop) while less than `--seconds` have passed (at least three), and checks
every output. `--trace 0` reports the end-to-end metrics, from each case's
fastest time over the rounds; `--trace 1` runs a warm-up round, then
alternates traced and untraced rounds, and reports the per-layer metrics.
The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("pivot-large", "atom-chains", "many-matches", "soundness-sweep")
SETUP_SAMPLES = 7  # fresh processes timed for setup_s; the fastest is reported
MIN_ROUNDS = 3
TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("steps_per_s", "1/s"),
    ("cases_per_s", "1/s"),
    ("case_p50_ms", "ms"),
    ("case_tail_ms", "ms"),
    ("size_exponent", "log2"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Round:
    times: list[float] = field(default_factory=list)  # seconds per case
    steps: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.times)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest of p99.9, p99, p95 and p90 (nearest
    rank) with at least ten samples beyond it, else the maximum."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[-1], 100.0


def import_chrcp() -> None:
    """Import chrcp from this checkout's src/, never from anywhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import chrcp

    if Path(chrcp.__file__).resolve().parent != SRC / "chrcp":
        sys.exit(f"error: imported chrcp from {chrcp.__file__}, not from {SRC}")


def build_cases(workload: str, seed: int, tiny: bool, workdir: Path):
    import workloads

    sizes = workloads.TINY if tiny else workloads.FULL
    return workloads.WORKLOADS[workload](seed, sizes, workdir)


def setup_probe(args) -> None:
    """Time the set-up: importing chrcp and everything before the first
    timed operation."""
    start = time.perf_counter()
    import_chrcp()
    build_cases(args.workload, args.seed, args.tiny, Path(args.setup_probe))
    print(time.perf_counter() - start)


def time_setup(args, workdir: Path) -> float:
    """Set-up time of a fresh process, as a user pays it on every command."""
    probe_dir = Path(tempfile.mkdtemp(dir=workdir))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", str(probe_dir)]
    if args.tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_round(cases, counter, tracer=None, first_case: int = 0) -> Round:
    rnd = Round()
    for i, case in enumerate(cases):
        steps_before = counter.steps
        with tracer.case(first_case + i) if tracer else nullcontext():
            start = time.perf_counter()
            try:
                result = case.run()
                error = None
            except Exception as exc:  # a crash is a failed case, reported below
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            rnd.times.append(time.perf_counter() - start)
        if error is None:
            error = case.check(result)
        if error is not None:
            rnd.errors.append(f"{case.name}: {error}")
        rnd.steps += counter.steps - steps_before
    return rnd


def run_rounds(cases, counter, seconds: float, before_round) -> list[Round]:
    """Closed loop: rounds start while less than `seconds` have passed, and
    at least MIN_ROUNDS run, so that every case has a fastest time of several."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        before_round()
        rounds.append(run_round(cases, counter))
    return rounds


def fastest(rounds: list[Round]) -> list[float]:
    """Each case's fastest time over the rounds: the machine may be shared,
    and load from elsewhere only ever adds time."""
    return [min(times) for times in zip(*(r.times for r in rounds))]


def end_to_end(cases, rounds: list[Round], setup: list[float]) -> tuple[dict, list[str]]:
    best = fastest(rounds)
    wall = sum(best)
    steps = statistics.median(r.steps for r in rounds)

    def size_median(tag: str) -> float:
        times = [t for case, t in zip(cases, best) if case.size == tag]
        return statistics.median(times) if times else math.nan

    growth = size_median("2n") / size_median("n")  # nan when a size has no case
    tail_value, tail_pct = tail(best)
    values = {
        "setup_s": min(setup),
        "wall_s": wall,
        "steps_per_s": steps / wall,
        "cases_per_s": len(cases) / wall,
        "case_p50_ms": 1000 * statistics.median(best),
        "case_tail_ms": 1000 * tail_value,
        "size_exponent": math.log2(growth) if growth > 0 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"{len(rounds)} round(s) of {len(cases)} cases; {steps:g} machine steps per round",
        f"round walls (s): {', '.join(f'{r.wall:.3f}' for r in rounds)}",
        f"fastest case times (s): {', '.join(f'{c.name} {t:.3f}' for c, t in zip(cases, best) if len(cases) < 10)}",
        f"case_tail_ms is p{tail_pct:g} of {len(cases)} cases",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}",
    ]
    return values, notes


def traced_run(cases, counter, seconds: float, workload: str, seed: int, tracer) -> tuple[list[Round], dict, list[str]]:
    """A warm-up round lets caches fill, then traced and untraced rounds
    alternate; the overhead compares their cases' fastest times. Set-up was
    traced already: its totals count once, the traced rounds' per round."""
    import layers

    set_up_totals = tracer.totals()
    warm_up = run_round(cases, counter)
    traced: list[Round] = []
    plain: list[Round] = []
    start = time.perf_counter()
    while True:
        tracer.install()
        try:
            traced.append(run_round(cases, counter, tracer, len(traced) * len(cases)))
        finally:
            tracer.uninstall()
        plain.append(run_round(cases, counter))
        if time.perf_counter() - start >= seconds:
            break
    traced_wall = sum(fastest(traced))
    plain_wall = sum(fastest([warm_up, *plain]))
    totals = tracer.totals()
    in_rounds = {k: v - set_up_totals.get(k, 0) for k, v in totals.items()}
    values = layers.layer_metrics(set_up_totals, in_rounds, len(traced), tracer.peaks)
    values["trace.overhead_share"] = traced_wall / plain_wall - 1
    out_dir = BENCH / "_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-{seed}.bin"
    tracer.write_spans(spans_path)
    notes = [
        f"{len(traced)} traced and {len(plain)} untraced round(s) after a warm-up; wall "
        f"{traced_wall:.4f} s traced vs {plain_wall:.4f} s untraced (overhead {100 * values['trace.overhead_share']:.1f}%)",
        f"{len(tracer.span_start)} spans written to {spans_path.relative_to(ROOT)}",
    ]
    return [warm_up, *traced, *plain], values, notes


def run_workload(args) -> int:
    if not (SRC / "chrcp" / "__init__.py").is_file():
        print(f"error: no chrcp sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0
    workdir = BENCH / "_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        import_chrcp()
        import layers
        import workloads

        counter = workloads.StepCounter()
        if args.trace:
            tracer = layers.Tracer()
            tracer.install()
            cases = build_cases(args.workload, args.seed, args.tiny, workdir)
            tracer.uninstall()
            rounds, values, notes = traced_run(cases, counter, args.seconds, args.workload, args.seed, tracer)
            metrics = {name: (values[name], unit) for name, unit, _ in layers.PER_LAYER}
        else:
            cases = build_cases(args.workload, args.seed, args.tiny, workdir)
            # Set-up is timed between rounds, at several moments of the run.
            setup: list[float] = []

            def probe() -> None:
                if len(setup) < SETUP_SAMPLES:
                    setup.append(time_setup(args, workdir))

            rounds = run_rounds(cases, counter, args.seconds, probe)
            while len(setup) < SETUP_SAMPLES:
                probe()
            values, notes = end_to_end(cases, rounds, setup)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        counter.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [e for r in rounds for e in r.errors]
    attempted = sum(len(r.times) for r in rounds)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<34} {len(errors) / attempted:>14.6g} ({len(errors)} of {attempted} cases failed)")
    for error in errors[:10]:
        print(f"  FAILED {error}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=3 * TIMEOUT_S)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]) if out.returncode == 0 else out.stdout + out.stderr)
        if out.returncode != 0 or not json.loads(lines[-1])["correct"]:
            code = 1
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="chrcp benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the benchmark's self-test")
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
