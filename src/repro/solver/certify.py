"""Trust-but-verify: DRUP proofs and independent result certification.

The CDCL solver and the bit-blaster above it are written from scratch, so
every answer the reproduction produces ultimately rests on unreviewed
search code. This module makes those answers *certifiable*:

- :class:`ProofLog` is a DRUP-style proof trace. The solver records every
  original clause (``i``), every learned clause (``a``), and every
  deleted learned clause (``d``) as it runs; the log is an in-memory list
  of steps and serializes to JSONL or standard DRUP text.
- :func:`check_proof` is an independent *reverse unit propagation* (RUP)
  checker: it replays the proof against its own two-watched-literal
  propagator — sharing no code with the solver's search — verifying that
  each learned clause is RUP with respect to the clause database at the
  time it was learned, and that the claimed conclusion (the empty clause,
  or a conflict under a claimed unsat core of assumptions) follows. The
  solver's hints (which clauses it resolved) let most lemmas be checked
  by propagating a handful of database clauses; they are untrusted, and
  any lemma they do not settle gets the full RUP check.
- :func:`check_model` is an independent CNF evaluator: a claimed SAT
  model must satisfy every original clause, clause by clause, plus every
  assumption literal.
- :func:`recheck_unsat` re-proves a claimed unsat core from scratch: a
  fresh one-shot solver gets the original clauses and the core as
  assumptions, must answer UNSAT, and its own proof is checked too.

All certifiers raise :class:`CertificationError` on rejection — a failed
certification means a solver or encoder bug (or an injected fault; see
:mod:`repro.solver.chaos`), never a property of the user's formula.

This module deliberately imports nothing from the solving stack at import
time, so the SAT core can depend on :class:`ProofLog` without a cycle.

Checker soundness notes:

- Deleted clauses that are the *reason* for a root-level assignment are
  kept (the drat-trim rule): removing them could retract a derived unit
  and unsoundly accept later steps.
- Tautological clauses are logged but never indexed — they are satisfied
  under every assignment, so they can neither aid propagation nor be
  falsified by a model.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Proof step kinds.
STEP_INPUT = "i"
STEP_LEARN = "a"
STEP_DELETE = "d"

_UNASSIGNED = -1


class CertificationError(Exception):
    """An independent checker rejected a solver answer.

    Carries which certifier fired (``kind``: ``"proof"``, ``"model"``,
    ``"core"``) and a human-readable reason. Reaching this exception on a
    genuine run means the solving stack produced a wrong or unsupported
    answer; it is also the signal the chaos harness asserts on.
    """

    def __init__(self, kind: str, reason: str):
        super().__init__(f"certification failed [{kind}]: {reason}")
        self.kind = kind
        self.reason = reason


class ProofLog:
    """An in-memory DRUP proof: input, learned, and deleted clauses.

    Steps are ``(kind, lits)`` tuples with external DIMACS-style literals.
    Appending is the only hot-path operation — the solver logs a learned
    clause with one tuple allocation — so the log stays cheap enough to
    leave on for whole query sweeps.

    A learned step may also carry *hints* (LRAT-style): the step indices
    of the clauses the solver resolved to derive it, in propagation
    order. They live in the side table :attr:`hints`, keyed by step
    index, so :attr:`steps` stays plain DRUP. Hints are untrusted: the
    checker only uses them to pick which clauses to propagate first.
    """

    __slots__ = ("steps", "hints")

    def __init__(self, steps: Optional[List[Tuple[str, Tuple[int, ...]]]] = None,
                 hints: Optional[Dict[int, Tuple[int, ...]]] = None):
        self.steps: List[Tuple[str, Tuple[int, ...]]] = \
            list(steps) if steps is not None else []
        self.hints: Dict[int, Tuple[int, ...]] = \
            dict(hints) if hints is not None else {}

    # -- recording -----------------------------------------------------

    def input(self, lits: Iterable[int]) -> int:
        """Log an original clause; returns its step index."""
        self.steps.append((STEP_INPUT, tuple(lits)))
        return len(self.steps) - 1

    def learn(self, lits: Iterable[int],
              hints: Optional[Sequence[int]] = None) -> int:
        """Log a learned clause; returns its step index.

        `hints` lists the antecedent step indices in resolution
        (reverse-propagation) order, as conflict analysis visits them;
        they are stored reversed, in the order a checker propagates them.
        """
        self.steps.append((STEP_LEARN, tuple(lits)))
        index = len(self.steps) - 1
        if hints:
            self.hints[index] = tuple(dict.fromkeys(reversed(hints)))
        return index

    def delete(self, lits: Iterable[int]) -> None:
        self.steps.append((STEP_DELETE, tuple(lits)))

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def input_clauses(self) -> List[Tuple[int, ...]]:
        """The original formula: every ``i`` step, in order."""
        return [lits for kind, lits in self.steps if kind == STEP_INPUT]

    def counts(self) -> Dict[str, int]:
        out = {STEP_INPUT: 0, STEP_LEARN: 0, STEP_DELETE: 0}
        for kind, _ in self.steps:
            out[kind] += 1
        return out

    # -- serialization -------------------------------------------------

    def to_jsonl(self, path) -> None:
        """One ``{"op": kind, "lits": [...]}`` object per line; learned
        steps with hints add ``"hints": [...]``."""
        hints = self.hints
        with open(path, "w", encoding="utf-8") as handle:
            for index, (kind, lits) in enumerate(self.steps):
                row = {"op": kind, "lits": list(lits)}
                if index in hints:
                    row["hints"] = list(hints[index])
                handle.write(json.dumps(row))
                handle.write("\n")

    @classmethod
    def from_jsonl(cls, path) -> "ProofLog":
        steps: List[Tuple[str, Tuple[int, ...]]] = []
        hints: Dict[int, Tuple[int, ...]] = {}
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                if "hints" in row:
                    hints[len(steps)] = tuple(int(h) for h in row["hints"])
                steps.append((row["op"], tuple(row["lits"])))
        return cls(steps, hints)

    def to_drup(self) -> str:
        """Standard DRUP text: learned and deleted clauses only
        (original clauses live in the DIMACS file, not the proof).
        Hints are not part of DRUP and are left out."""
        lines = []
        for kind, lits in self.steps:
            if kind == STEP_LEARN:
                lines.append(" ".join(map(str, lits)) + " 0")
            elif kind == STEP_DELETE:
                lines.append("d " + " ".join(map(str, lits)) + " 0")
        return "\n".join(lines) + ("\n" if lines else "")


class _CClause:
    """A checker-side clause (external signed literals, deduplicated)."""

    __slots__ = ("lits",)

    def __init__(self, lits: Tuple[int, ...]):
        self.lits = list(lits)


class RupChecker:
    """Reverse-unit-propagation proof replay, independent of the solver.

    Maintains its own clause database, watch lists, and a persistent
    *root* assignment (the fixpoint of unit propagation over the clauses
    added so far). :meth:`check_rup` and :meth:`check_conflict` make
    temporary assumptions on top of the root state and undo them.

    The implementation intentionally shares nothing with
    :class:`repro.solver.sat.SatSolver` beyond the two-watched-literal
    idea — no conflict analysis, no heuristics, no backjumping — so a bug
    in the search cannot hide in its own certifier. The search's hints
    only choose which of the checker's own clauses
    :meth:`check_hinted` propagates.
    """

    def __init__(self):
        self._assign: List[int] = [_UNASSIGNED]   # 1-indexed by variable
        # watches[l] = clauses currently watching literal l (their lits[0]
        # or lits[1] is l); examined when l becomes false. Both literals
        # of every known variable have an entry.
        self._watches: Dict[int, List[_CClause]] = {}
        self._trail: List[int] = []
        self._by_key: Dict[Tuple[int, ...], List[_CClause]] = {}
        self._root_reasons: set = set()           # id() of root-reason clauses
        self._deleted: set = set()                # deleted clauses
        self._at_root = False                     # recording root reasons?
        #: True once the empty clause is derivable at root level.
        self.contradiction = False

    # -- assignment plumbing -------------------------------------------

    def _ensure_var(self, var: int) -> None:
        assign = self._assign
        while len(assign) <= var:
            new = len(assign)
            self._watches[new] = []
            self._watches[-new] = []
            assign.append(_UNASSIGNED)

    def _set(self, lit: int) -> None:
        self._assign[abs(lit)] = 1 if lit > 0 else 0
        self._trail.append(lit)

    @staticmethod
    def _key(lits: Iterable[int]) -> Tuple[int, ...]:
        return tuple(sorted(set(lits)))

    # -- clause database -----------------------------------------------

    def add_clause(self, lits: Sequence[int]) -> Optional[_CClause]:
        """Add a clause and propagate any unit consequence at root.

        Root assignments are permanent (the checker never retracts them;
        temporary assumptions are layered on top and undone), so a clause
        satisfied or unit at root needs no movable watches. Returns the
        stored clause (None for a tautology, which is not stored).
        """
        lit_set = set(lits)
        for lit in lit_set:
            if -lit in lit_set:
                return None  # tautology: inert under every assignment
        unique = tuple(sorted(lit_set))
        if unique:
            self._ensure_var(max(unique[-1], -unique[0]))
        clause = _CClause(unique)
        self._by_key.setdefault(unique, []).append(clause)
        assign = self._assign
        nonfalse = []
        for lit in unique:
            value = assign[lit] if lit > 0 else assign[-lit]
            if value == _UNASSIGNED:
                nonfalse.append(lit)
            elif (value == 1) == (lit > 0):
                return clause  # permanently satisfied at root
        if not nonfalse:
            self.contradiction = True
            return clause
        if len(nonfalse) == 1:
            # Unit at root: extend the permanent assignment.
            start = len(self._trail)
            self._set(nonfalse[0])
            self._root_reasons.add(id(clause))
            self._at_root = True
            try:
                if self._propagate_from(start) is not None:
                    self.contradiction = True
            finally:
                self._at_root = False
            return clause
        # Two non-false literals exist: put them first and watch them.
        first, second = nonfalse[0], nonfalse[1]
        clause.lits = [first, second] + [lit for lit in unique
                                         if lit != first and lit != second]
        self._watches[first].append(clause)
        self._watches[second].append(clause)
        return clause

    def delete_clause(self, lits: Sequence[int]) -> None:
        """Remove one copy of a clause (drat-trim reason-guard applied)."""
        key = self._key(lits)
        bucket = self._by_key.get(key)
        if not bucket:
            return  # unknown deletion target: ignore (tautology or dup)
        clause = bucket[-1]
        if id(clause) in self._root_reasons:
            return  # the clause forced a root literal: keep it sound
        bucket.pop()
        self._deleted.add(clause)
        if not bucket:
            del self._by_key[key]
        for watched in clause.lits[:2]:
            watchlist = self._watches[watched]
            if clause in watchlist:
                watchlist.remove(clause)

    # -- propagation ---------------------------------------------------

    def _propagate_from(self, start: int) -> Optional[_CClause]:
        """Unit propagation over trail literals from index `start` on;
        returns the first falsified clause, or None at fixpoint.

        A literal is true when its variable's value equals ``lit > 0``
        (1 or 0) and false when it equals ``lit < 0``; an unassigned
        variable (-1) equals neither. Each watch list is compacted in
        place, keeping the order of the clauses that stay.
        """
        trail = self._trail
        watches = self._watches
        assign = self._assign
        at_root = self._at_root
        qhead = start
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watchlist = watches[false_lit]
            i = j = 0
            n = len(watchlist)
            while i < n:
                clause = watchlist[i]
                i += 1
                lits = clause.lits
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], false_lit
                first = lits[0]
                value = assign[first if first > 0 else -first]
                if value == (first > 0):
                    watchlist[j] = clause    # satisfied via the other watch
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    other = lits[k]
                    if assign[other if other > 0 else -other] != (other < 0):
                        lits[1], lits[k] = other, false_lit
                        watches[other].append(clause)
                        break
                else:
                    watchlist[j] = clause
                    j += 1
                    if value == (first < 0):
                        del watchlist[j:i]
                        return clause          # all literals false: conflict
                    self._set(first)           # unit
                    if at_root:
                        self._root_reasons.add(id(clause))
            del watchlist[j:]
        return None

    # -- checks --------------------------------------------------------

    def _assume_and_propagate(self, lits: Sequence[int]) -> bool:
        """Push `lits` on top of the root state; True iff a conflict arises.

        Always undoes back to the root assignment before returning.
        """
        if self.contradiction:
            return True
        start = len(self._trail)
        conflict = False
        try:
            for lit in lits:
                var = -lit if lit < 0 else lit
                self._ensure_var(var)
                value = self._assign[var]
                if value == (lit < 0):     # lit is false
                    conflict = True
                    break
                if value == _UNASSIGNED:
                    self._set(lit)
            if not conflict:
                conflict = self._propagate_from(start) is not None
            return conflict
        finally:
            while len(self._trail) > start:
                self._assign[abs(self._trail.pop())] = _UNASSIGNED

    def check_rup(self, lits: Sequence[int]) -> bool:
        """Is the clause a reverse-unit-propagation consequence?"""
        return self._assume_and_propagate([-lit for lit in self._key(lits)])

    def check_conflict(self, assumptions: Sequence[int] = ()) -> bool:
        """Does asserting `assumptions` yield a conflict by propagation?"""
        return self._assume_and_propagate(list(assumptions))

    def check_hinted(self, lits: Sequence[int],
                     hints: Sequence[Optional[_CClause]]) -> bool:
        """Is the clause RUP using only the `hints` clauses?

        Assigns the clause's negation on top of the root state, then
        unit-propagates over the hint clauses alone — in the given order,
        sweeping again over the ones not yet unit while a sweep makes
        progress — until one is falsified. True means the clause is RUP
        (a conflict reached by propagating genuine database clauses).
        False means only that the hints did not suffice: a missing (None)
        or deleted hint clause fails at once, and the caller falls back
        to :meth:`check_rup`.
        """
        if self.contradiction:
            return True
        deleted = self._deleted
        for clause in hints:
            if clause is None or clause in deleted:
                return False
        assign = self._assign
        trail = self._trail
        start = len(trail)
        try:
            for lit in lits:
                var = -lit if lit < 0 else lit
                self._ensure_var(var)
                value = assign[var]
                if value == _UNASSIGNED:
                    # Assign the negation: lit becomes false.
                    assign[var] = 0 if lit > 0 else 1
                    trail.append(-lit)
                elif (value == 1) == (lit > 0):
                    return True    # lit true at root: the negation conflicts
            pending = hints
            while pending:
                deferred = []
                for clause in pending:
                    unit = 0
                    for lit in clause.lits:
                        if lit > 0:
                            value = assign[lit]
                            if value == 1:
                                break          # satisfied
                            if value == 0:
                                continue
                        else:
                            value = assign[-lit]
                            if value == 0:
                                break          # satisfied
                            if value == 1:
                                continue
                        if unit:
                            deferred.append(clause)   # two open literals
                            break
                        unit = lit
                    else:
                        if not unit:
                            return True        # every literal false
                        var = -unit if unit < 0 else unit
                        assign[var] = 1 if unit > 0 else 0
                        trail.append(unit)
                if len(deferred) == len(pending):
                    return False               # a sweep made no progress
                pending = deferred
            return False
        finally:
            while len(trail) > start:
                assign[abs(trail.pop())] = _UNASSIGNED


def check_proof(proof: ProofLog, core: Sequence[int] = ()) -> Dict[str, int]:
    """Validate an UNSAT answer against its DRUP proof.

    Replays `proof`: every learned clause must be RUP w.r.t. the clause
    database at its point in the trace (inputs plus surviving learned
    clauses), and the conclusion — a conflict under the claimed `core` of
    assumption literals, or the empty clause when `core` is empty — must
    follow by unit propagation from the final database.

    A learned step with hints is first checked by propagating only its
    hint clauses (:meth:`RupChecker.check_hinted`); when the hints are
    missing, stale or insufficient the step falls back to the full RUP
    check. Both accept only RUP clauses, so hints change the cost of a
    replay, never its verdict.

    Returns replay statistics (``hinted`` and ``fallback`` count the
    lemmas each check accepted); raises
    :class:`CertificationError` on the first invalid step.
    """
    checker = RupChecker()
    hints = proof.hints
    # The checker's clause for every step index (None: deletion or
    # tautology), so a hint resolves to the clause it names.
    by_step: List[Optional[_CClause]] = []
    checked = hinted = fallback = 0
    for index, (kind, lits) in enumerate(proof.steps):
        if kind == STEP_INPUT:
            by_step.append(checker.add_clause(lits))
        elif kind == STEP_LEARN:
            hint = hints.get(index)
            if checker.contradiction:
                pass    # everything follows from a root contradiction
            elif hint is not None and checker.check_hinted(
                    lits, [by_step[h] if 0 <= h < index else None
                           for h in hint]):
                hinted += 1
            elif checker.check_rup(lits):
                fallback += 1
            else:
                raise CertificationError(
                    "proof",
                    f"step {index}: learned clause {list(lits)} is not a "
                    "reverse-unit-propagation consequence")
            by_step.append(checker.add_clause(lits))
            checked += 1
        elif kind == STEP_DELETE:
            checker.delete_clause(lits)
            by_step.append(None)
        else:
            raise CertificationError("proof",
                                     f"step {index}: unknown kind {kind!r}")
    if not checker.check_conflict(core):
        claim = (f"assumption core {list(core)}" if core
                 else "the empty clause")
        raise CertificationError(
            "proof", f"conclusion unsupported: propagation under {claim} "
            "does not conflict")
    return {"steps": len(proof.steps), "rup_checked": checked,
            "hinted": hinted, "fallback": fallback,
            "core": len(core)}


def check_model(proof: ProofLog, model: Dict[int, bool],
                assumptions: Sequence[int] = ()) -> Dict[str, int]:
    """Validate a SAT answer: the model must satisfy every input clause.

    `model` maps external variables to booleans (missing variables count
    as False, matching :meth:`repro.solver.sat.SatSolver.model`); every
    `assumptions` literal must additionally hold. This is a pure CNF
    evaluation — no solver state is consulted.
    """
    def _true(lit: int) -> bool:
        value = model.get(abs(lit), False)
        return value if lit > 0 else not value

    for lit in assumptions:
        if not _true(lit):
            raise CertificationError(
                "model", f"assumption literal {lit} is false in the model")
    clauses = 0
    # Hot loop: certify-on overhead is dominated by this scan (every
    # input clause, every check), so the literal test is inlined rather
    # than routed through `_true`.
    get = model.get
    for kind, lits in proof.steps:
        if kind != STEP_INPUT:
            continue
        clauses += 1
        for lit in lits:
            if get(lit, False) if lit > 0 else not get(-lit, False):
                break
        else:
            raise CertificationError(
                "model", f"input clause {list(lits)} is falsified")
    return {"clauses": clauses, "assumptions": len(assumptions)}


def recheck_unsat(clauses: Iterable[Sequence[int]],
                  assumptions: Sequence[int] = ()) -> Dict[str, int]:
    """Re-prove unsatisfiability from scratch with a fresh one-shot solver.

    Used to certify *cores* (failed-assumption sets and
    ``minimize_core`` outputs): the original `clauses` plus the core
    `assumptions` are handed to a brand-new :class:`SatSolver` with proof
    logging on; it must answer UNSAT, and its proof is then independently
    checked. A SAT answer means the claimed core is not actually a core.
    """
    from repro.solver.sat import SatResult, SatSolver  # local: avoid cycle

    solver = SatSolver()
    proof = solver.enable_proof()
    for clause in clauses:
        solver.add_clause(list(clause))
    result = solver.solve(list(assumptions))
    if result is SatResult.SAT:
        raise CertificationError(
            "core", f"claimed core {list(assumptions)} is satisfiable "
            "with the original clauses")
    if result is not SatResult.UNSAT:
        raise CertificationError(
            "core", f"re-proving the core returned {result.value!r}")
    stats = check_proof(proof, core=list(assumptions))
    stats["conflicts"] = solver.num_conflicts
    return stats
