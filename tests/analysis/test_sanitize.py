"""The abstract interpreter and sanitizer against a brute-force oracle.

Random formulas over two 4-bit variables (the grammar of
``tests/solver/test_differential.py``, widened with division, shifts,
``ite`` and boolean structure) are small enough to evaluate under all
256 assignments, giving three exhaustive properties:

- *containment*: every node's concrete value lies in its abstraction;
- *equivalence*: the sanitized formula agrees with the original on
  every assignment (and certify mode re-proves it without raising);
- *preservation*: a sanitizing solver returns the same SAT/UNSAT answer
  as a non-sanitizing one.

Plus the deliberate-fault direction: a corrupted transfer function must
be caught by the certify cross-check (directly and via the chaos
harness), which is what distinguishes a sanitizer that is sound from
one that merely never fires.
"""

import random

import pytest

from repro.analysis import analyze_term, bool3_of, sanitize
from repro.analysis.domains import (
    BFALSE,
    BTRUE,
    AbsVal,
    chaos_wrong_transfer,
)
from repro.analysis.sanitize import (
    SanitizeStats,
    _all_assignments,
    sanitize_assertion,
)
from repro.smt import terms as T
from repro.smt.solver import SmtResult, SmtSolver, SolveOptions
from repro.solver.certify import CertificationError

WIDTH = 4


def _random_bv(rng, depth, x, y):
    if depth <= 0 or rng.random() < 0.3:
        choice = rng.randrange(3)
        if choice == 0:
            return x
        if choice == 1:
            return y
        return T.bv_const(rng.randrange(1 << WIDTH), WIDTH)
    op = rng.choice([T.mk_add, T.mk_sub, T.mk_mul, T.mk_bvand, T.mk_bvor,
                     T.mk_bvxor, T.mk_udiv, T.mk_urem, T.mk_shl, T.mk_lshr,
                     T.mk_ashr])
    return op(_random_bv(rng, depth - 1, x, y),
              _random_bv(rng, depth - 1, x, y))


def _random_formula(rng, x, y, depth=2):
    relation = rng.choice([T.mk_eq, T.mk_ult, T.mk_ule, T.mk_slt, T.mk_sle])
    formula = relation(_random_bv(rng, depth, x, y),
                       _random_bv(rng, depth, x, y))
    if rng.random() < 0.4:
        other = relation(_random_bv(rng, depth, x, y),
                         _random_bv(rng, depth, x, y))
        connect = rng.choice([T.mk_and, T.mk_or, T.mk_xor])
        formula = connect(formula, other)
    if rng.random() < 0.3:
        formula = T.mk_ite(formula,
                           _random_bv(rng, 1, x, y),
                           _random_bv(rng, 1, x, y))
        formula = T.mk_ule(formula, T.bv_const(rng.randrange(16), WIDTH))
    return T.mk_not(formula) if rng.random() < 0.5 else formula


def _assignments(x, y):
    for vx in range(1 << WIDTH):
        for vy in range(1 << WIDTH):
            yield {x: vx, y: vy}


@pytest.mark.parametrize("seed", range(30))
def test_abstraction_contains_every_concrete_value(seed):
    rng = random.Random(2000 + seed)
    x = T.bv_var(f"abs_x{seed}", WIDTH)
    y = T.bv_var(f"abs_y{seed}", WIDTH)
    formula = _random_formula(rng, x, y)
    abstraction = analyze_term(formula)
    for env in _assignments(x, y):
        for node, value in abstraction.items():
            concrete = T.evaluate(node, env)
            if isinstance(value, AbsVal):
                assert value.contains(concrete), (
                    f"{node!r} = {concrete} outside {value!r}")
            elif value is BTRUE:
                assert concrete is True
            elif value is BFALSE:
                assert concrete is False


@pytest.mark.parametrize("seed", range(30))
def test_sanitize_preserves_meaning_on_all_assignments(seed):
    rng = random.Random(3000 + seed)
    x = T.bv_var(f"san_x{seed}", WIDTH)
    y = T.bv_var(f"san_y{seed}", WIDTH)
    formula = _random_formula(rng, x, y)
    stats = SanitizeStats()
    rewritten = sanitize(formula, certify=True, stats=stats)
    assert stats.nodes > 0
    assert T.term_size(rewritten) <= T.term_size(formula)
    for env in _assignments(x, y):
        assert T.evaluate(formula, env) == T.evaluate(rewritten, env)


@pytest.mark.parametrize("seed", range(20))
def test_sanitizing_solver_matches_plain_solver(seed):
    rng = random.Random(4000 + seed)
    x = T.bv_var(f"pair_x{seed}", WIDTH)
    y = T.bv_var(f"pair_y{seed}", WIDTH)
    formulas = [_random_formula(rng, x, y) for _ in range(2)]

    plain = SmtSolver(SolveOptions(analyze=False))
    analyzed = SmtSolver(SolveOptions(analyze=True, certify=True))
    for formula in formulas:
        plain.add_assertion(formula)
        analyzed.add_assertion(formula)
    expected = plain.check()
    assert analyzed.check() is expected
    if expected is SmtResult.SAT:
        model = analyzed.model()
        env = {x: model[x], y: model[y]}
        for formula in formulas:
            assert T.evaluate(formula, env) is True


def test_statically_decided_ite_collapses():
    x = T.bv_var("ite_x", 8)
    # (x & 0x0F) < 0x10 is an interval/known-bits tautology.
    guard = T.mk_ult(T.mk_bvand(x, T.bv_const(0x0F, 8)), T.bv_const(0x10, 8))
    term = T.mk_ite(guard, T.mk_add(x, T.bv_const(1, 8)), T.bv_const(0, 8))
    stats = SanitizeStats()
    rewritten = sanitize(term, stats=stats)
    assert rewritten is T.mk_add(x, T.bv_const(1, 8))
    assert stats.rewrites >= 1


def test_provably_false_assertion_short_circuits_solver():
    x = T.bv_var("false_x", 8)
    solver = SmtSolver(SolveOptions(analyze=True))
    # x+2 == x+5 normalizes to 3 == 0 in the linear view; the sanitizer
    # proves it false so the solver answers UNSAT with zero search.
    solver.add_assertion(T.mk_eq(T.mk_add(x, T.bv_const(2, 8)),
                                 T.mk_add(x, T.bv_const(5, 8))))
    assert solver.check() is SmtResult.UNSAT
    assert solver.sanitize_stats.proved_false == 1
    assert solver.cumulative.conflicts == 0


def test_certified_proved_false_still_proof_backed():
    x = T.bv_var("cfalse_x", 8)
    solver = SmtSolver(SolveOptions(analyze=True, certify=True))
    solver.add_assertion(T.mk_eq(T.mk_add(x, T.bv_const(2, 8)),
                                 T.mk_add(x, T.bv_const(5, 8))))
    assert solver.check() is SmtResult.UNSAT
    assert solver.last_cert == "proof"


def test_proved_true_assertion_drops_to_nothing():
    x = T.bv_var("true_x", 8)
    solver = SmtSolver(SolveOptions(analyze=True))
    tautology = T.mk_ule(T.mk_bvand(x, T.bv_const(0x3F, 8)),
                         T.bv_const(0x3F, 8))
    solver.add_assertion(tautology)
    solver.add_assertion(T.mk_eq(x, T.bv_const(7, 8)))
    assert solver.check() is SmtResult.SAT
    assert solver.sanitize_stats.proved_true == 1
    assert solver.model()[x] == 7


def test_sanitize_stats_flow_into_check_stats():
    x = T.bv_var("stats_x", 8)
    solver = SmtSolver(SolveOptions(analyze=True))
    solver.add_assertion(T.mk_ule(T.mk_bvand(x, T.bv_const(0x3F, 8)),
                                  T.bv_const(0x3F, 8)))
    solver.add_assertion(T.mk_eq(x, T.bv_const(9, 8)))
    solver.check()
    assert solver.last_check.sanitize_rewrites >= 1
    # A second check with no new assertions attributes no new rewrites.
    solver.check()
    assert solver.last_check.sanitize_rewrites == 0


def test_analyze_knob_defaults_off_and_env_overrides(monkeypatch):
    assert SmtSolver().analyze is False
    monkeypatch.setenv("REPRO_ANALYZE", "1")
    assert SmtSolver().analyze is True
    monkeypatch.setenv("REPRO_ANALYZE", "0")
    assert SmtSolver().analyze is False
    assert SmtSolver(SolveOptions(analyze=True)).analyze is True


def test_corrupted_transfer_is_caught_by_certify():
    x = T.bv_var("chaos_t_x", 4)
    formula = T.mk_eq(T.mk_add(x, T.bv_const(1, 4)), T.bv_const(3, 4))
    with chaos_wrong_transfer(T.OP_ADD):
        # Without certification the unsound rewrite lands silently...
        assert sanitize(formula) is not formula
        # ...with certification it is rejected.
        with pytest.raises(CertificationError):
            sanitize(formula, certify=True)
    # The context manager restores soundness.
    assert sanitize(formula, certify=True) is formula


def test_cross_check_reports_the_first_differing_assignment():
    x = T.bv_var("chaos_first_x", 4)
    formula = T.mk_eq(T.mk_add(x, T.bv_const(1, 4)), T.bv_const(3, 4))
    with chaos_wrong_transfer(T.OP_ADD):
        rewritten = sanitize(formula)
        envs = list(_all_assignments([x]))
        first = next(i for i, env in enumerate(envs)
                     if T.evaluate(formula, env) != T.evaluate(rewritten, env))
        stats = SanitizeStats()
        with pytest.raises(CertificationError) as err:
            sanitize(formula, certify=True, stats=stats)
    assert repr(envs[first]) in err.value.reason
    assert stats.certified == first + 1


def test_cross_check_counts_every_assignment():
    # 13 variable bits: sampled, not exhaustive.
    x = T.bv_var("cc_count_x", 8)
    y = T.bv_var("cc_count_y", 5)
    # `x < 0` is decided false by the analysis, not by the constructors.
    formula = T.mk_or(T.mk_ult(x, T.bv_const(0, 8)),
                      T.mk_ult(y, T.bv_const(31, 5)))
    stats = SanitizeStats()
    assert sanitize(formula, certify=True, stats=stats) is not formula
    assert stats.certified == 32
    # A small space is enumerated exhaustively, in batches.
    z = T.bv_var("cc_count_z", 10)
    small = T.mk_or(T.mk_ult(z, T.bv_const(0, 10)),
                    T.mk_ult(T.bv_const(1000, 10), z))
    stats = SanitizeStats()
    assert sanitize(small, certify=True, stats=stats) is not small
    assert stats.certified == 1 << 10


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_chaos_corrupt_sanitizer_fault_is_caught(seed):
    from repro.solver.chaos import inject

    outcome = inject("corrupt-sanitizer", seed=seed)
    assert outcome.caught, outcome.detail


def test_sanitize_assertion_counts_and_events():
    from repro.obs.events import BUS
    from repro.obs.metrics import BusMetrics

    x = T.bv_var("ev_x", 8)
    metrics = BusMetrics()
    with metrics.subscribed():
        stats = SanitizeStats()
        sanitize_assertion(T.mk_eq(T.mk_add(x, T.bv_const(2, 8)),
                                   T.mk_add(x, T.bv_const(5, 8))),
                           stats=stats)
        assert stats.proved_false == 1
    snapshot = metrics.snapshot()
    assert snapshot["analysis.sanitize.passes"] == 1
    assert snapshot["analysis.sanitize.proved_false"] == 1
    assert not BUS.enabled
