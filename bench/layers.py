"""Outside-in tracing of chrcp's modules, for the benchmark's traced run.

`Tracer.install` rebinds public functions of the package in every chrcp
module that binds them by name, so calls between modules pass through a
wrapper that records a span (name, start, end, parent, case) and counts at
that boundary. Nothing under `src/` is edited. A layer's self time is its
spans' time minus the time of their child spans. Spans stay in memory and
`write_spans` saves them when the run ends.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable

# Mirrors chrcp.machine.STEP_KINDS; a kind missing here still counts in
# machine.steps.
STEP_KINDS = (
    "init",
    "lazy-act",
    "eager-act",
    "eager-drop",
    "act-simpa-1",
    "act-simpa-2",
    "act-next",
    "act-drop",
    "act-prop",
    "prop-prop",
    "prop-sat",
)
# Machine transitions that apply exactly one of the matches they searched.
FIRING_KINDS = ("act-simpa-1", "act-simpa-2", "prop-prop")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("cli.self_s", "s", "lower"),
    ("parse.self_s", "s", "lower"),
    ("parse.atoms_per_s", "1/s", "higher"),
    ("fuzz.generate_random.self_s", "s", "lower"),
    ("rules.normalize_rule.calls", "count", "lower"),
    ("rules.normalize_rule.self_s", "s", "lower"),
    ("match.enumerate.calls", "count", "lower"),
    ("match.enumerate.self_s", "s", "lower"),
    ("match.enumerate.results", "count", "lower"),
    ("match.enumerate.used_share", "share", "higher"),
    ("match.items_scanned", "count", "lower"),
    ("match.items_per_call", "count", "lower"),
    ("match.matches_exactly.calls", "count", "lower"),
    ("match.matches_exactly.self_s", "s", "lower"),
    ("match.residual_non_match.calls", "count", "lower"),
    ("match.residual_non_match.self_s", "s", "lower"),
    ("rewrite.unfold_body.calls", "count", "lower"),
    ("rewrite.unfold_body.self_s", "s", "lower"),
    ("rewrite.run_abstract.self_s", "s", "lower"),
    ("rewrite.abstract_steps.calls", "count", "lower"),
    ("rewrite.abstract_steps.yielded", "count", "lower"),
    ("rewrite.abstract_steps.self_s", "s", "lower"),
    ("monotone.is_monotone.calls", "count", "lower"),
    ("monotone.is_monotone.self_s", "s", "lower"),
    ("monotone.lookups", "count", "lower"),
    ("monotone.cache_hit_share", "share", "higher"),
    ("machine.steps", "count", "lower"),
    *((f"machine.steps.{kind}", "count", "lower") for kind in STEP_KINDS),
    ("machine.step.self_s", "s", "lower"),
    ("machine.run_operational.self_s", "s", "lower"),
    ("machine.validate_state.calls", "count", "lower"),
    ("machine.validate_state.self_s", "s", "lower"),
    ("machine.state_digest.self_s", "s", "lower"),
    ("machine.store_peak", "count", "lower"),
    ("machine.goal_stack_peak", "count", "lower"),
    ("machine.prop_history_peak", "count", "lower"),
    ("soundness.check_soundness.self_s", "s", "lower"),
    ("soundness.classify_step.calls", "count", "lower"),
    ("soundness.classify_step.self_s", "s", "lower"),
    ("soundness.correspondence.calls", "count", "lower"),
    ("soundness.correspondence.self_s", "s", "lower"),
    ("soundness.silent", "count", "lower"),
    ("soundness.abstract", "count", "lower"),
    ("soundness.violation", "count", "lower"),
    ("soundness.candidates_examined", "count", "lower"),
    ("soundness.hit_share", "share", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "share", "lower"),
)

PEAKS = ("machine.store_peak", "machine.goal_stack_peak", "machine.prop_history_peak")


def rebind(old, new) -> Callable[[], None]:
    """Point every chrcp module attribute bound to `old` at `new`, and
    return the function that undoes it."""
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "chrcp" or name.startswith("chrcp.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
                undo.append((module, attr))

    def restore() -> None:
        for module, attr in undo:
            setattr(module, attr, old)

    return restore


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One entry per span, in start order; parent and case are indices.
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_case = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[list] = []  # [name id, start, child seconds, span index]
        self.self_s: defaultdict[int, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self.case_index = -1
        self.lookups = 0  # OccurrenceProgram.monotone calls, the hottest count
        self._in_lookup = False
        self._undo: list[Callable[[], None]] = []

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> None:
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1][3] if self._open else -1)
        self.span_case.append(self.case_index)
        self.span_end.append(0.0)
        start = perf_counter()
        self.span_start.append(start)
        self._open.append([nid, start, 0.0, index])

    def _end(self) -> None:
        end = perf_counter()
        nid, start, child, index = self._open.pop()
        self.span_end[index] = end
        self.self_s[nid] += end - start - child
        self.calls[nid] += 1
        if self._open:
            self._open[-1][2] += end - start

    @contextmanager
    def case(self, index: int):
        """Root span of one benchmark case; every span inside shares its index."""
        self.case_index = index
        self._begin(self._id("case"))
        try:
            yield
        finally:
            self._end()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str, after=None):
        nid = self._id(name)

        def traced(*args, **kwargs):
            self._begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        """Spans cover each resumption of the generator, so its matching is
        charged to it and not to the caller consuming it."""
        nid = self._id(name)
        classify = self._id("soundness.classify_step")

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            self.counts[f"{name}.calls"] += 1
            while True:
                self._begin(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._end()
                self.counts[f"{name}.yielded"] += 1
                if self._open and self._open[-1][0] == classify:
                    self.counts["soundness.candidates_examined"] += 1
                yield item

        return traced

    def install(self) -> None:
        from chrcp import cli, fuzz, machine, match, monotone, parse, rewrite, rules, soundness

        targets = (
            (cli, "main", "cli", None),
            (parse, "load_program", "parse", self._after_load_program),
            (parse, "load_store", "parse", self._after_load_store),
            (fuzz, "generate_random", "fuzz.generate_random", None),
            (rules, "normalize_rule", "rules.normalize_rule", None),
            (match, "enumerate_matches", "match.enumerate", self._after_enumerate),
            (match, "matches_exactly", "match.matches_exactly", None),
            (match, "residual_non_match", "match.residual_non_match", None),
            (rewrite, "unfold_body", "rewrite.unfold_body", None),
            (rewrite, "run_abstract", "rewrite.run_abstract", self._after_run_abstract),
            (monotone, "is_monotone", "monotone.is_monotone", self._after_is_monotone),
            (machine, "run_operational", "machine.run_operational", None),
            (machine, "step", "machine.step", self._after_step),
            (machine, "validate_state", "machine.validate_state", None),
            (machine, "state_digest", "machine.state_digest", None),
            (soundness, "check_soundness", "soundness.check_soundness", None),
            (soundness, "classify_step", "soundness.classify_step", self._after_classify),
            (soundness, "correspondence", "soundness.correspondence", None),
        )
        for module, attr, name, after in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"trace: {module.__name__}.{attr} not found, not traced", file=sys.stderr)
                continue
            self._undo.append(rebind(fn, self._wrap(fn, name, after)))
        gen = getattr(rewrite, "abstract_steps", None)
        if gen is not None:
            self._undo.append(rebind(gen, self._wrap_generator(gen, "rewrite.abstract_steps")))
        lookup = getattr(machine.OccurrenceProgram, "monotone", None)
        if lookup is not None:
            self._undo.append(self._count_lookups(machine.OccurrenceProgram, lookup))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _count_lookups(self, cls, lookup) -> Callable[[], None]:
        def counted(program, pattern):
            self.lookups += 1
            self._in_lookup = True
            try:
                return lookup(program, pattern)
            finally:
                self._in_lookup = False

        cls.monotone = counted

        def restore() -> None:
            cls.monotone = lookup

        return restore

    # -- counts at the boundaries --------------------------------------------

    def _after_load_program(self, args, kwargs, program) -> None:
        self.counts["parse.atoms"] += sum(len(r.heads) + len(r.body) for r in program.rules)

    def _after_load_store(self, args, kwargs, store) -> None:
        self.counts["parse.atoms"] += len(store)

    def _after_enumerate(self, args, kwargs, matches) -> None:
        items = args[1] if len(args) > 1 else kwargs["items"]
        self.counts["match.enumerate.results"] += len(matches)
        self.counts["match.items_scanned"] += len(items)

    def _after_run_abstract(self, args, kwargs, run) -> None:
        self.counts["match.used"] += len(run.steps)

    def _after_is_monotone(self, args, kwargs, verdict) -> None:
        if self._in_lookup:
            self.counts["monotone.misses"] += 1

    def _after_step(self, args, kwargs, out) -> None:
        if out is None:
            return
        state, kind = out
        self.counts["machine.steps"] += 1
        self.counts[f"machine.steps.{kind}"] += 1
        if kind in FIRING_KINDS:
            self.counts["match.used"] += 1
        peaks = self.peaks
        peaks["machine.store_peak"] = max(peaks["machine.store_peak"], len(state.store.items()))
        peaks["machine.goal_stack_peak"] = max(peaks["machine.goal_stack_peak"], len(state.goals))
        # A propagation history only grows in a goal pushed on top.
        for goal in state.goals[:2]:
            history = getattr(goal, "history", None)
            if history is not None:
                peaks["machine.prop_history_peak"] = max(peaks["machine.prop_history_peak"], len(history))

    def _after_classify(self, args, kwargs, cls) -> None:
        self.counts[f"soundness.{cls.kind}"] += 1
        if cls.kind == "abstract":
            self.counts["match.used"] += 1

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Additive totals so far: self time and calls per span name, counts."""
        out: dict[str, float] = dict(self.counts)
        out["monotone.lookups"] = self.lookups
        for nid, name in enumerate(self.names):
            out[f"{name}.self_s"] = self.self_s[nid]
            out.setdefault(f"{name}.calls", self.calls[nid])
        out["trace.spans"] = len(self.span_start)
        return out

    def write_spans(self, path) -> None:
        """A JSON header line, then the span arrays in header order."""
        arrays = (
            ("name", self.span_name),
            ("parent", self.span_parent),
            ("case", self.span_case),
            ("start", self.span_start),
            ("end", self.span_end),
        )
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "arrays": [[field, arr.typecode] for field, arr in arrays],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in arrays:
                arr.tofile(fh)


def read_spans(path) -> tuple[list[str], dict[str, array]]:
    """Inverse of `Tracer.write_spans`: (span names, field -> array)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        fields = {}
        for field, typecode in header["arrays"]:
            arr = array(typecode)
            arr.fromfile(fh, header["count"])
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            fields[field] = arr
    return header["names"], fields


def layer_metrics(setup: dict[str, float], rounds: dict[str, float], n_rounds: int, peaks: Counter) -> dict[str, float]:
    """Per-layer values: set-up totals plus the per-round mean of the
    traced rounds' totals, with the ratios taken over those values."""
    keys = set(setup) | set(rounds)
    t = {k: setup.get(k, 0) + rounds.get(k, 0) / n_rounds for k in keys}

    def ratio(num: str, den: str) -> float:
        return t.get(num, 0) / t[den] if t.get(den) else 0.0

    derived = {
        "parse.atoms_per_s": ratio("parse.atoms", "parse.self_s"),
        "match.enumerate.used_share": ratio("match.used", "match.enumerate.results"),
        "match.items_per_call": ratio("match.items_scanned", "match.enumerate.calls"),
        "monotone.cache_hit_share": (
            1.0 - ratio("monotone.misses", "monotone.lookups") if t.get("monotone.lookups") else 0.0
        ),
        "soundness.hit_share": ratio("soundness.abstract", "soundness.candidates_examined"),
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name in PEAKS:
            out[name] = peaks[name]
        else:
            out[name] = t.get(name, 0)
    return out
