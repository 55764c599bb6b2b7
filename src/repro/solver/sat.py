"""A CDCL SAT solver.

The implementation follows the MiniSat architecture: two-watched-literal
propagation, first-UIP clause learning with recursive clause minimization,
VSIDS variable activities with phase saving, Luby restarts, and activity-based
learned-clause deletion. Solving under *assumptions* is supported, and when
the instance is unsatisfiable under assumptions the solver reports the subset
of assumptions used in the final conflict (an unsat core).

Variables are integers ``1..n`` externally (DIMACS convention) and literals
are signed ints. Internally literals are encoded as ``2*v`` (positive) and
``2*v + 1`` (negative) over zero-based variables, so negation is ``lit ^ 1``.
Assignments are stored per internal literal (``_vals``), so testing a
literal is one list read; variable ``v``'s value is ``_vals[2*v]``.

With :meth:`SatSolver.enable_proof` the solver additionally emits a DRUP
proof (original, learned, and deleted clauses) into a
:class:`~repro.solver.certify.ProofLog`, which the independent checker in
:mod:`repro.solver.certify` replays to certify UNSAT answers and against
which SAT models are evaluated clause-by-clause. Each learned clause is
logged with hints: the proof steps of the clauses conflict analysis
resolved, which let the checker replay it without a full propagation.
Logging off costs a few ``is None`` checks per conflict; logging on
costs one tuple per step plus the hint list, and never changes the
search.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs.events import BUS
from repro.solver.budget import Budget
from repro.solver.certify import ProofLog

# Cadence of `sat.conflicts` milestone events while tracing: one instant
# every _CONFLICT_MILESTONE conflicts (power of two — the check is a mask).
_CONFLICT_MILESTONE = 1024


class SatResult(enum.Enum):
    """Outcome of a :meth:`SatSolver.solve` call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class _Clause:
    """A disjunction of internal literals; the first two are watched."""

    __slots__ = ("lits", "learnt", "activity")

    def __init__(self, lits: List[int], learnt: bool):
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0


class _LoggedClause(_Clause):
    """A clause of a proof-logging solver, which also knows the proof step
    that introduced it; conflict analysis records that step as a hint.
    A separate class keeps solvers without a proof one slot smaller."""

    __slots__ = ("step",)

    def __init__(self, lits: List[int], learnt: bool, step: int):
        super().__init__(lits, learnt)
        self.step = step


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence.

    Follows the MiniSat formulation: find the finite subsequence containing
    index i and the position within it.
    """
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return 1 << seq


_UNASSIGNED = -1


class SatSolver:
    """Conflict-driven clause-learning SAT solver.

    Typical use::

        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a])
        assert solver.solve() is SatResult.SAT
        assert solver.model_value(b) is True
    """

    def __init__(self):
        self._num_vars = 0
        # Per-literal state (internal encoding).
        self._vals: List[int] = []         # _UNASSIGNED / 0 (false) / 1 (true)
        self._watches: List[List[_Clause]] = []
        # Per-variable state.
        self._level: List[int] = []        # decision level of assignment
        self._reason: List[Optional[_Clause]] = []
        self._activity: List[float] = []
        self._polarity: List[int] = []     # saved phase: 0 false, 1 true
        self._seen: List[int] = []         # scratch for conflict analysis
        # Trail.
        self._trail: List[int] = []        # internal literals, in order
        self._trail_lim: List[int] = []    # trail index at each decision level
        self._qhead = 0
        # Clause database.
        self._clauses: List[_Clause] = []
        self._learnts: List[_Clause] = []
        # Heuristics.
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._cla_inc = 1.0
        self._cla_decay = 1.0 / 0.999
        self._order: List[int] = []        # lazy max-activity queue (heap)
        self._order_pos: List[int] = []    # heap index per variable, -1 if out
        # Results.
        self._ok = True                    # False once a toplevel conflict
        self._model: Optional[List[int]] = None
        self._conflict_core: List[int] = []
        # Statistics.
        self.num_conflicts = 0
        self.num_decisions = 0
        self.num_propagations = 0
        self.num_learned = 0
        # Resource governance: when set, the search charges this budget
        # and returns UNKNOWN as soon as it trips; `interrupt_reason`
        # then names the limit (see repro.solver.budget).
        self.budget: Optional[Budget] = None
        self.interrupt_reason: Optional[str] = None
        # Certification: when a ProofLog is installed every original,
        # learned, and deleted clause is recorded so UNSAT answers can be
        # replayed by the independent RUP checker (repro.solver.certify).
        self.proof: Optional[ProofLog] = None
        self._hints: Optional[List[int]] = None   # set by _analyze

    def enable_proof(self, proof: Optional[ProofLog] = None) -> ProofLog:
        """Start DRUP proof logging; returns the (possibly given) log.

        Must be called before any clause is added: a proof that is missing
        input clauses would make the checker reject valid answers.
        """
        if self._clauses or self._learnts or self._trail or not self._ok:
            raise RuntimeError(
                "enable_proof() must be called on a solver with no clauses")
        self.proof = proof if proof is not None else ProofLog()
        return self.proof

    @property
    def num_clauses(self) -> int:
        """Stored problem clauses (excludes learnts and absorbed units)."""
        return len(self._clauses)

    @property
    def num_learnt_clauses(self) -> int:
        return len(self._learnts)

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its external (1-based) index."""
        var = self._num_vars
        self._num_vars += 1
        self._vals += (_UNASSIGNED, _UNASSIGNED)
        self._watches += ([], [])
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._polarity.append(0)
        self._seen.append(0)
        # Activity 0.0 is the least there is: the heap's last slot is right.
        self._order_pos.append(len(self._order))
        self._order.append(var)
        return self._num_vars

    @staticmethod
    def _to_external(int_lit: int) -> int:
        var = (int_lit >> 1) + 1
        return -var if int_lit & 1 else var

    def add_clause(self, ext_lits: Sequence[int]) -> bool:
        """Add a clause of external literals.

        Returns False if the solver is already in a toplevel-conflict state
        or the clause is trivially unsatisfiable at level 0.
        """
        step = -1
        if self.proof is not None:
            step = self.proof.input(ext_lits)
        if not self._ok:
            return False
        # Internal literals: 2*(v-1) for +v and 2*(v-1)+1 for -v.
        lits = {(lit << 1) - 2 if lit > 0 else -1 - (lit << 1)
                for lit in ext_lits}
        ordered = sorted(lits)
        top = (ordered[-1] >> 1) + 1 if ordered else 0
        while self._num_vars < top:
            self.new_var()
        vals = self._vals
        levels = self._level
        out: List[int] = []
        for lit in ordered:
            if lit ^ 1 in lits:
                return True  # tautology: x | ~x
            value = vals[lit]
            if value >= 0 and levels[lit >> 1] == 0:
                if value:
                    return True  # already satisfied at toplevel
                continue         # already falsified at toplevel: drop literal
            out.append(lit)
        if not out:
            self._ok = False
            return False
        if len(out) == 1:
            if self._trail_lim:
                raise RuntimeError("unit clauses must be added at level 0")
            if not self._enqueue(out[0], None):
                self._ok = False
                return False
            self._ok = self._propagate() is None
            return self._ok
        clause = (_Clause(out, learnt=False) if step < 0
                  else _LoggedClause(out, False, step))
        self._clauses.append(clause)
        self._attach(clause)
        return True

    # ------------------------------------------------------------------
    # Core machinery
    # ------------------------------------------------------------------

    def _attach(self, clause: _Clause) -> None:
        self._watches[clause.lits[0] ^ 1].append(clause)
        self._watches[clause.lits[1] ^ 1].append(clause)

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> bool:
        vals = self._vals
        value = vals[lit]
        if value != _UNASSIGNED:
            return value == 1
        vals[lit], vals[lit ^ 1] = 1, 0
        var = lit >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation; returns a conflicting clause or None.

        This is the solver's hot loop: instance attributes are cached in
        locals, the unit-assignment path of ``_enqueue`` is inlined, and
        each watch list is compacted in place (``i`` reads, ``j`` writes),
        keeping the order of the clauses that stay.
        """
        watches, vals, trail = self._watches, self._vals, self._trail
        levels, reasons = self._level, self._reason
        decision_level = len(self._trail_lim)
        qhead = start = self._qhead
        try:
            while qhead < len(trail):
                lit = trail[qhead]
                qhead += 1
                false_lit = lit ^ 1
                watchlist = watches[lit]
                i = j = 0
                n = len(watchlist)
                while i < n:
                    clause = watchlist[i]
                    i += 1
                    lits = clause.lits
                    # Normalize: make sure the false literal is lits[1].
                    first = lits[0]
                    if first == false_lit:
                        first = lits[0] = lits[1]
                        lits[1] = false_lit
                    # If the other watch is true, the clause is satisfied.
                    value = vals[first]
                    if value == 1:
                        watchlist[j] = clause
                        j += 1
                        continue
                    # Look for a new literal to watch: any non-false one.
                    # Most clauses are ternary Tseitin gates: one probe.
                    size = len(lits)
                    if size == 3:
                        other = lits[2]
                        if vals[other]:
                            lits[1], lits[2] = other, false_lit
                            watches[other ^ 1].append(clause)
                            continue
                    elif size > 3:
                        k = 2
                        while k < size and not vals[lits[k]]:
                            k += 1
                        if k < size:
                            other = lits[1] = lits[k]
                            lits[k] = false_lit
                            watches[other ^ 1].append(clause)
                            continue
                    # Clause is unit or conflicting under lits[0].
                    watchlist[j] = clause
                    j += 1
                    if value == 0:  # lits[0] is false: conflict
                        del watchlist[j:i]
                        return clause
                    # Inlined _enqueue of an unassigned literal.
                    vals[first], vals[first ^ 1] = 1, 0
                    var = first >> 1
                    levels[var] = decision_level
                    reasons[var] = clause
                    trail.append(first)
                del watchlist[j:]
            return None
        finally:
            # A conflict skips the rest of the queue: backjumping undoes it.
            self._qhead = len(trail)
            processed = qhead - start
            self.num_propagations += processed
            if self.budget is not None and processed:
                self.budget.charge_propagations(processed)

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _analyze(self, confl: _Clause) -> tuple[List[int], int]:
        """First-UIP analysis; returns (learnt clause, backtrack level).

        With proof logging on, the proof steps of every clause resolved
        (the conflict, each expanded reason, each reason minimization
        used) are collected in ``self._hints`` for :meth:`ProofLog.learn`.
        """
        seen, levels, reasons, trail = \
            self._seen, self._level, self._reason, self._trail
        bump_var = self._bump_var
        decision_level = len(self._trail_lim)
        learnt: List[int] = [0]  # placeholder for the asserting literal
        counter = 0
        lit = -1
        index = len(trail) - 1
        clause: _Clause = confl
        hints = self._hints = [] if self.proof is not None else None
        while True:
            if hints is not None:
                hints.append(clause.step)
            if clause.learnt:
                self._bump_clause(clause)
            # A reason clause stores the literal it implied first: skip it.
            lits = clause.lits
            for q in (lits if lit == -1 else lits[1:]):
                var = q >> 1
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    bump_var(var)
                    if levels[var] == decision_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Select the next trail literal to expand.
            while not seen[trail[index] >> 1]:
                index -= 1
            lit = trail[index]
            index -= 1
            var = lit >> 1
            clause = reasons[var]
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
        learnt[0] = lit ^ 1

        # Clause minimization: drop literals implied by the rest.
        abstract_levels = 0
        for q in learnt[1:]:
            abstract_levels |= 1 << (levels[q >> 1] & 31)
        min_clear: List[int] = []
        minimized = [learnt[0]]
        redundant: List[int] = []
        for q in learnt[1:]:
            if reasons[q >> 1] is None or \
                    not self._lit_redundant(q, abstract_levels, min_clear):
                minimized.append(q)
            elif hints is not None:
                redundant.append(q >> 1)
        if redundant:
            # Minimization expanded the reasons of the dropped literals
            # and of every variable it marked on the way.
            hints.extend(reversed(self._hint_order(redundant + min_clear)))
        for var in min_clear:
            seen[var] = 0
        for q in learnt:
            seen[q >> 1] = 0
        learnt = minimized

        # Compute backtrack level: second-highest level in the clause.
        if len(learnt) == 1:
            bt_level = 0
        else:
            max_i = 1
            bt_level = levels[learnt[1] >> 1]
            for k in range(2, len(learnt)):
                level = levels[learnt[k] >> 1]
                if level > bt_level:
                    max_i = k
                    bt_level = level
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, bt_level

    def _lit_redundant(self, lit: int, abstract_levels: int,
                       min_clear: List[int]) -> bool:
        """True if `lit` is implied by other literals in the learnt clause.

        Variables it marks are recorded in `min_clear`; on failure the
        marks of this call are undone and removed again.
        """
        seen, levels, reasons = self._seen, self._level, self._reason
        stack = [lit]
        top = len(min_clear)
        while stack:
            for q in reasons[stack.pop() >> 1].lits[1:]:
                var = q >> 1
                if seen[var] or levels[var] == 0:
                    continue
                if reasons[var] is None or \
                        not ((1 << (levels[var] & 31)) & abstract_levels):
                    for cleared in min_clear[top:]:
                        seen[cleared] = 0
                    del min_clear[top:]
                    return False
                seen[var] = 1
                min_clear.append(var)
                stack.append(q)
        # Marks set here persist so later redundancy checks can reuse them;
        # the caller clears everything recorded in min_clear afterwards.
        return True

    def _hint_order(self, variables: List[int]) -> List[int]:
        """Proof steps of the reasons of `variables`, antecedents first.

        A depth-first post-order over the implication graph restricted to
        `variables`: each reason comes after the reasons of its
        antecedents, which is the order a checker can propagate them in.
        """
        reasons = self._reason
        inside = set(variables)
        done = set()
        order: List[int] = []
        for root in variables:
            stack = [(root, False)]
            while stack:
                var, emit = stack.pop()
                if emit:
                    order.append(reasons[var].step)
                    continue
                if var in done:
                    continue
                done.add(var)
                stack.append((var, True))
                for q in reasons[var].lits[1:]:
                    antecedent = q >> 1
                    if antecedent in inside and antecedent not in done:
                        stack.append((antecedent, False))
        return order

    def _analyze_final(self, lit: int) -> List[int]:
        """Compute the assumptions responsible for the failing assumption `lit`.

        Called when assumption `lit` is found already falsified: walks the
        implication graph of ``~lit`` back to assumption decisions. Returns
        the unsat core as external literals, phrased as the assumptions were
        given (including `lit` itself).
        """
        core = [self._to_external(lit)]
        if not self._trail_lim:
            return core
        seen = self._seen
        seen[lit >> 1] = 1
        for index in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
            trail_lit = self._trail[index]
            var = trail_lit >> 1
            if not seen[var]:
                continue
            reason = self._reason[var]
            if reason is None:
                # A decision in the assumption prefix: part of the core.
                if trail_lit != lit:
                    core.append(self._to_external(trail_lit))
            else:
                for q in reason.lits[1:]:
                    if self._level[q >> 1] > 0:
                        seen[q >> 1] = 1
            seen[var] = 0
        seen[lit >> 1] = 0
        return core

    # ------------------------------------------------------------------
    # Activity heap
    # ------------------------------------------------------------------

    def _bump_var(self, var: int) -> None:
        activity = self._activity
        act = activity[var] + self._var_inc
        activity[var] = act
        if act > 1e100:
            activity[:] = [a * 1e-100 for a in activity]
            self._var_inc *= 1e-100
            act = activity[var]
        pos = self._order_pos[var]
        if pos > 0:
            # Sift up: the variable's activity only grew.
            order, order_pos = self._order, self._order_pos
            while pos > 0:
                parent = (pos - 1) >> 1
                pvar = order[parent]
                if activity[pvar] >= act:
                    break
                order[pos] = pvar
                order_pos[pvar] = pos
                pos = parent
            order[pos] = var
            order_pos[var] = pos

    def prefer(self, variables: Iterable[int]) -> None:
        """Give each variable one VSIDS bump at the current increment.

        On a solver whose activities are all equal the preferred variables
        are then decided first, until conflicts reorder them; this is the
        only way to seed the decision order. A variable assigned at level
        0 takes the bump too but is never decided. An index outside
        ``1..num_vars`` raises ValueError before any variable is bumped.
        """
        internal = []
        for ext_var in variables:
            if not 0 < ext_var <= self._num_vars:
                raise ValueError(f"prefer(): no variable {ext_var}")
            internal.append(ext_var - 1)
        for var in internal:
            self._bump_var(var)

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for learnt in self._learnts:
                learnt.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _heap_pop(self) -> Optional[int]:
        """Remove max-activity variables until an unassigned one is found."""
        order, order_pos, activity = self._order, self._order_pos, self._activity
        vals = self._vals
        while order:
            top = order[0]
            last = order.pop()
            order_pos[top] = -1
            size = len(order)
            if size:
                # Sift the last leaf down from the root.
                act = activity[last]
                pos = 0
                left = 1
                while left < size:
                    right = left + 1
                    best = right if right < size and \
                        activity[order[right]] > activity[order[left]] else left
                    bvar = order[best]
                    if activity[bvar] <= act:
                        break
                    order[pos] = bvar
                    order_pos[bvar] = pos
                    pos = best
                    left = 2 * pos + 1
                order[pos] = last
                order_pos[last] = pos
            if vals[top << 1] == _UNASSIGNED:
                return top
        return None

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _cancel_until(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail, vals = self._trail, self._vals
        polarity, reasons = self._polarity, self._reason
        order, order_pos, activity = self._order, self._order_pos, self._activity
        bound = trail_lim[level]
        for lit in reversed(trail[bound:]):
            var = lit >> 1
            polarity[var] = (lit & 1) ^ 1    # the phase it had: lit was true
            vals[lit] = vals[lit ^ 1] = _UNASSIGNED
            reasons[var] = None
            if order_pos[var] < 0:
                # Back into the heap: append, then sift up.
                pos = len(order)
                order.append(var)
                act = activity[var]
                while pos > 0:
                    parent = (pos - 1) >> 1
                    pvar = order[parent]
                    if activity[pvar] >= act:
                        break
                    order[pos] = pvar
                    order_pos[pvar] = pos
                    pos = parent
                order[pos] = var
                order_pos[var] = pos
        del trail[bound:]
        del trail_lim[level:]
        self._qhead = len(trail)

    def _reduce_db(self) -> None:
        """Drop the less active half of the learned clauses."""
        self._learnts.sort(key=lambda c: c.activity)
        keep_from = len(self._learnts) // 2
        # Reasons of assigned literals are locked; only those have one.
        reasons = self._reason
        locked = {reasons[lit >> 1] for lit in self._trail}
        kept: List[_Clause] = []
        for i, clause in enumerate(self._learnts):
            if i >= keep_from or clause in locked or len(clause.lits) == 2:
                kept.append(clause)
            else:
                self._detach(clause)
                if self.proof is not None:
                    self.proof.delete(
                        [self._to_external(lit) for lit in clause.lits])
        self._learnts = kept

    def _detach(self, clause: _Clause) -> None:
        for watch_lit in (clause.lits[0] ^ 1, clause.lits[1] ^ 1):
            watchlist = self._watches[watch_lit]
            for i, other in enumerate(watchlist):
                if other is clause:
                    watchlist[i] = watchlist[-1]
                    watchlist.pop()
                    break

    def solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        """Solve under the given external assumption literals.

        Returns UNKNOWN — never hangs — when :attr:`budget` trips;
        :attr:`interrupt_reason` records which budget limit was responsible.
        """
        bus = BUS
        if not bus.enabled:
            return self._solve(assumptions)
        bus.begin("sat.solve", "sat", assumptions=len(assumptions))
        conflicts_before = self.num_conflicts
        result = None
        try:
            result = self._solve(assumptions)
            return result
        finally:
            bus.end("sat.solve", "sat",
                    result=result.value if result is not None else "error",
                    conflicts=self.num_conflicts - conflicts_before,
                    reason=self.interrupt_reason)

    def _solve(self, assumptions: Sequence[int]) -> SatResult:
        self._model = None
        self._conflict_core = []
        self.interrupt_reason = None
        if not self._ok:
            return SatResult.UNSAT
        if self.budget is not None:
            self.budget.start()
            if self._budget_tripped():
                return SatResult.UNKNOWN
        top = max(map(abs, assumptions), default=0)
        while self._num_vars < top:
            self.new_var()
        internal_assumptions = [(lit << 1) - 2 if lit > 0 else -1 - (lit << 1)
                                for lit in assumptions]

        max_learnts = max(1000, len(self._clauses) // 3)
        restart_index = 0
        conflicts_at_start = self.num_conflicts

        while True:
            restart_index += 1
            restart_limit = 100 * _luby(restart_index)
            if restart_index > 1 and BUS.enabled:
                BUS.instant("sat.restart", "sat",
                            restarts=restart_index - 1,
                            conflicts=self.num_conflicts - conflicts_at_start,
                            limit=restart_limit)
            status = self._search(internal_assumptions, restart_limit,
                                  max_learnts)
            if status is not None:
                self._cancel_until(0)
                return status
            max_learnts = int(max_learnts * 1.1)
            self._cancel_until(0)

    def _budget_tripped(self) -> bool:
        """Ask the budget; on a trip record and announce which limit."""
        reason = self.budget.exceeded()
        if reason is None:
            return False
        self.interrupt_reason = reason
        if BUS.enabled:
            BUS.instant("sat.budget_trip", "sat", reason=reason,
                        phase="search")
        return True

    def _search(self, assumptions: List[int], restart_limit: int,
                max_learnts: int) -> Optional[SatResult]:
        budget = self.budget
        conflicts = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                self.num_conflicts += 1
                conflicts += 1
                if BUS.enabled and \
                        self.num_conflicts % _CONFLICT_MILESTONE == 0:
                    BUS.instant("sat.conflicts", "sat",
                                conflicts=self.num_conflicts,
                                learned=self.num_learned)
                if not self._trail_lim:
                    self._ok = False
                    return SatResult.UNSAT
                if budget is not None:
                    # Charge before analysis so a tripped budget skips the
                    # (possibly large) learning work for this conflict.
                    budget.charge_conflict()
                    if self._budget_tripped():
                        return SatResult.UNKNOWN
                learnt, bt_level = self._analyze(confl)
                self.num_learned += 1
                step = -1
                if self.proof is not None:
                    step = self.proof.learn(
                        [self._to_external(lit) for lit in learnt],
                        self._hints)
                if budget is not None:
                    budget.charge_learned()
                # Never backtrack past still-valid assumption decisions:
                # re-deciding them is handled below, so plain backjump works.
                self._cancel_until(bt_level)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self._ok = False
                        return SatResult.UNSAT
                else:
                    clause = (_Clause(learnt, learnt=True) if step < 0
                              else _LoggedClause(learnt, True, step))
                    self._learnts.append(clause)
                    self._attach(clause)
                    self._bump_clause(clause)
                    self._enqueue(learnt[0], clause)
                self._var_inc *= self._var_decay
                self._cla_inc *= self._cla_decay
                continue

            if conflicts >= restart_limit:
                return None  # restart
            if budget is not None:
                # Decision-loop checkpoint: catches deadline expiry and
                # cancellation on propagation-heavy runs with few conflicts.
                if self._budget_tripped():
                    return SatResult.UNKNOWN
            if len(self._learnts) >= max_learnts + len(self._trail):
                self._reduce_db()

            # Decide: assumptions first, then VSIDS.
            level = len(self._trail_lim)
            if level < len(assumptions):
                lit = assumptions[level]
                value = self._vals[lit]
                if value == 1:
                    # Already implied: open an empty decision level for it.
                    self._trail_lim.append(len(self._trail))
                    continue
                if value == 0:
                    self._conflict_core = self._analyze_final(lit)
                    return SatResult.UNSAT
                self.num_decisions += 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit, None)
                continue

            var = self._heap_pop()
            if var is None:
                self._model = self._vals[0::2]
                return SatResult.SAT
            self.num_decisions += 1
            lit = (var << 1) | (1 - self._polarity[var])
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, None)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def model_value(self, ext_var: int) -> Optional[bool]:
        """Truth value of a variable in the last satisfying assignment.

        None when there is no model, or the variable is unassigned in it
        or was created after it.
        """
        model = self._model
        if model is None or not 0 < ext_var <= len(model):
            return None
        value = model[ext_var - 1]
        return None if value == _UNASSIGNED else bool(value)

    def model(self) -> Dict[int, bool]:
        """The last satisfying assignment as a dict.

        Unassigned variables map to False; variables created after the
        model are absent.
        """
        return {
            var + 1: (value == 1)
            for var, value in enumerate(self._model or [])
        }

    def model_snapshot(self) -> Optional[List[int]]:
        """An opaque handle to the current satisfying assignment (or None).

        ``solve`` replaces — never mutates — the stored model, so the handle
        stays valid across later calls and can be given back to
        :meth:`restore_model` to make earlier model values retrievable again.
        """
        return self._model

    def restore_model(self, snapshot: Optional[List[int]]) -> None:
        """Reinstate a satisfying assignment saved by :meth:`model_snapshot`."""
        self._model = snapshot

    def unsat_core(self) -> List[int]:
        """Assumption literals involved in the last final conflict.

        Meaningful only after :meth:`solve` returned UNSAT under non-empty
        assumptions; empty if the problem is unsatisfiable regardless of
        assumptions.
        """
        return list(self._conflict_core)
