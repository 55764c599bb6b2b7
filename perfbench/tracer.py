"""Per-layer spans recorded from outside the program.

The tracer wraps the public entry point of each layer, in the benchmark's
own process, and keeps the spans of the current query in memory:

========================  ==================================================
layer                     entry points wrapped
========================  ==================================================
``vm``                    ``EvalStats.start`` .. ``EvalStats.stop``
``smt.encode``            ``SmtSolver.add_assertion``
``analysis.sanitize``     ``sanitize_assertion`` as called by
                          ``repro.smt.solver``
``smt.check``             ``SmtSolver.check``
``solver.sat``            ``SatSolver.solve``
``solver.certify``        ``check_proof`` / ``check_model`` /
                          ``recheck_unsat`` as called by ``repro.smt.solver``
``queries``               the driver call itself (the root span)
========================  ==================================================

A layer's self time is its spans' time minus the time of the spans
nested in them (:func:`self_times`). Counts are read at the same
boundaries from what the program already exposes: ``CheckStats`` after
each check, ``SatSolver`` counters around each solve and
``SatSolver.num_clauses``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Dict, List, Sequence, Tuple

LAYERS = ("queries", "vm", "smt.encode", "analysis.sanitize", "smt.check",
          "solver.sat", "solver.certify")

Span = Tuple[str, float, float]


class NestingError(ValueError):
    """Two spans overlap without one containing the other."""


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time per layer of properly nested spans.

    Each span's self time is its duration minus the durations of its
    direct children. Raises :class:`NestingError` when spans overlap
    partially or a span ends before it starts.
    """
    out = {layer: 0.0 for layer in LAYERS}
    # Parents sort before their children: by start, then longest first.
    ordered = sorted(spans, key=lambda span: (span[1], -span[2]))
    stack: List[list] = []          # [layer, start, end, child_time]

    def close(entry):
        layer, start, end, child = entry
        out[layer] = out.get(layer, 0.0) + (end - start) - child
        if stack:
            stack[-1][3] += end - start

    for layer, start, end in ordered:
        if end < start:
            raise NestingError(f"{layer} ends before it starts")
        while stack and stack[-1][2] <= start:
            close(stack.pop())
        if stack and end > stack[-1][2]:
            raise NestingError(
                f"{layer} [{start}, {end}] overlaps {stack[-1][0]} "
                f"[{stack[-1][1]}, {stack[-1][2]}]")
        stack.append([layer, start, end, 0.0])
    while stack:
        close(stack.pop())
    return out


class Tracer:
    """Records spans and counts for one query at a time."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._open: List[Tuple[str, float]] = []
        self._clauses: Dict[object, int] = {}
        self._undo: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def begin(self, layer: str) -> None:
        self._open.append((layer, time.perf_counter()))

    def end(self, layer: str) -> None:
        now = time.perf_counter()
        opened, start = self._open.pop()
        if opened != layer:
            raise NestingError(f"{layer} ended while {opened} was open")
        self.spans.append((layer, start, now))

    def take(self) -> Tuple[List[Span], Dict[str, int]]:
        """Return and clear the current query's spans and counts."""
        self.counts["smt.cnf_clauses"] = sum(self._clauses.values())
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts, self._clauses = [], Counter(), {}
        return spans, counts

    # -- wrapping ------------------------------------------------------
    def _patch(self, owner, name: str, wrapper) -> None:
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(wrapper(original)))

    def _spanned(self, layer: str, after=None):
        def wrap(original):
            def call(*args, **kwargs):
                self.begin(layer)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.end(layer)
                    if after is not None:
                        after(*args)
            return call
        return wrap

    def install(self) -> None:
        from repro.smt import solver as smt_solver
        from repro.solver.sat import SatSolver
        from repro.vm.stats import EvalStats

        def start(original):
            def call(stats):
                self.begin("vm")
                original(stats)
            return call

        def stop(original):
            def call(stats):
                try:
                    original(stats)
                finally:
                    self.end("vm")
            return call

        def after_check(solver, *_):
            last = solver.last_check
            self.counts["queries.checks"] += last.checks
            self.counts["smt.encode.hits"] += last.encode_hits
            self.counts["smt.encode.misses"] += last.encode_misses
            self.counts["analysis.sanitize.rewrites"] += \
                last.sanitize_rewrites
            # Persistent solvers grow: keep each one's latest clause count.
            self._clauses[solver] = solver.sat.num_clauses

        def solve(original):
            def call(sat, *args, **kwargs):
                before = (sat.num_conflicts, sat.num_decisions,
                          sat.num_propagations, sat.num_learned)
                self.begin("solver.sat")
                try:
                    return original(sat, *args, **kwargs)
                finally:
                    self.end("solver.sat")
                    for key, old, new in zip(
                            ("conflicts", "decisions", "propagations",
                             "learned"), before,
                            (sat.num_conflicts, sat.num_decisions,
                             sat.num_propagations, sat.num_learned)):
                        self.counts[f"solver.sat.{key}"] += new - old
            return call

        def certify(original):
            inner = self._spanned("solver.certify")(original)

            def call(*args, **kwargs):
                self.counts["solver.certify.checks"] += 1
                return inner(*args, **kwargs)
            return call

        self._patch(EvalStats, "start", start)
        self._patch(EvalStats, "stop", stop)
        self._patch(smt_solver.SmtSolver, "add_assertion",
                    self._spanned("smt.encode"))
        self._patch(smt_solver.SmtSolver, "check",
                    self._spanned("smt.check", after_check))
        self._patch(SatSolver, "solve", solve)
        self._patch(smt_solver, "sanitize_assertion",
                    self._spanned("analysis.sanitize"))
        for name in ("check_proof", "check_model", "recheck_unsat"):
            self._patch(smt_solver, name, certify)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
