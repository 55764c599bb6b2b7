"""Solver-aided queries: solve, verify, synthesize, debug (§2.2).

These are the four first-class constructs a solver-aided host language
exposes. All of them consume the assertion store produced by evaluating a
thunk under the SVM and differ only in the formula they hand to the solver
(rule SQ1 and its variants, §4.3).
"""

from repro.queries.outcome import Model, QueryOutcome
from repro.queries.queries import solve, synthesize, verify
from repro.queries.debug import DebugSession, debug, relax
from repro.smt.solver import SolveOptions
from repro.solver.budget import Budget, CancellationToken, ResourceReport

__all__ = [
    "Model", "QueryOutcome",
    "solve", "synthesize", "verify",
    "DebugSession", "debug", "relax",
    "SolveOptions", "Budget", "CancellationToken", "ResourceReport",
]
