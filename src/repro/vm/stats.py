"""Evaluation statistics: the measurements behind Table 4 and Figure 10.

The paper instruments the SVM to report, per benchmark, the number of
control-flow joins, the number of symbolic unions created, the sum of their
cardinalities, the maximum cardinality, and evaluation/solving times. This
module holds those counters; union counts are sourced from the counter
embedded in :mod:`repro.sym.values` so that unions created outside an active
VM are also visible.

Queries additionally accumulate every solver check's
:class:`~repro.smt.solver.CheckStats` delta into :attr:`EvalStats.solver`:
SAT conflicts/decisions/propagations, clauses learned, and bit-blasting
encode-cache hits/misses. These are the measurements that make
incremental-solving wins visible — an iterative query that reuses its
solver shows encode-cache hits instead of repeated misses, and falling
per-check conflict counts as learned clauses accumulate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.smt.solver import CheckStats
from repro.sym.values import UNION_COUNTERS


@dataclass
class EvalStats:
    """Counters gathered during one symbolic evaluation."""

    joins: int = 0
    unions_created: int = 0
    union_cardinality_sum: int = 0
    max_union_cardinality: int = 0
    svm_seconds: float = 0.0
    solver_seconds: float = 0.0
    # The sum of the CheckStats deltas of every check the queries issued.
    solver: CheckStats = field(default_factory=CheckStats)
    _union_base: tuple = field(default=(0, 0), repr=False)
    _max_base: int = field(default=0, repr=False)
    _start: float = field(default=0.0, repr=False)

    def start(self) -> None:
        self._union_base = (UNION_COUNTERS.created,
                            UNION_COUNTERS.cardinality_sum)
        # The global max is windowed: save the surrounding evaluation's
        # peak and zero the counter so this window measures only its own
        # unions. stop() restores the combined peak, so nested/interleaved
        # evaluations (a query run from inside another evaluation) do not
        # clobber the outer window's `max` column.
        self._max_base = UNION_COUNTERS.max_cardinality
        UNION_COUNTERS.max_cardinality = 0
        self._start = time.perf_counter()

    def stop(self) -> None:
        self.svm_seconds += time.perf_counter() - self._start
        base_created, base_sum = self._union_base
        self.unions_created += UNION_COUNTERS.created - base_created
        self.union_cardinality_sum += \
            UNION_COUNTERS.cardinality_sum - base_sum
        observed = UNION_COUNTERS.max_cardinality
        self.max_union_cardinality = max(self.max_union_cardinality, observed)
        UNION_COUNTERS.max_cardinality = max(self._max_base, observed)

    def row(self) -> dict:
        """A Table 4-shaped row."""
        return {
            "joins": self.joins,
            "count": self.unions_created,
            "sum": self.union_cardinality_sum,
            "max": self.max_union_cardinality,
            "svm_sec": self.svm_seconds,
            "solver_sec": self.solver_seconds,
        }
