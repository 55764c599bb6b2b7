"""Certified solving through solve/verify/synthesize/debug and the stats."""

from repro.obs.metrics import BusMetrics
from repro.queries import SolveOptions, solve, synthesize, verify
from repro.queries.debug import debug, relax
from repro.smt import terms as T
from repro.sym.values import SymInt
from repro.vm.context import assert_

CERTIFY = SolveOptions(certify=True)


def _sym(name, width=8):
    return SymInt(T.bv_var(name, width))


class _LazyInputs:
    def __init__(self, backing):
        self._backing = backing

    def __iter__(self):
        return iter(self._backing)


class TestCertifiedQueries:
    def test_solve_certified(self):
        outcome = solve(lambda: assert_(_sym("cq_a") + 1 == 5), options=CERTIFY)
        assert outcome.status == "sat"
        assert outcome.stats.solver.certified == 1
        assert outcome.model.evaluate(_sym("cq_a")) == 4

    def test_verify_certified(self):
        outcome = verify(lambda: assert_(_sym("cq_b") * 2 != 7), options=CERTIFY)
        assert outcome.status == "unsat"
        assert outcome.stats.solver.certified == 1

    def test_verify_counterexample_certified(self):
        outcome = verify(lambda: assert_(_sym("cq_c") != 3), options=CERTIFY)
        assert outcome.status == "sat"
        assert outcome.stats.solver.certified == 1
        assert outcome.model.evaluate(_sym("cq_c")) == 3

    def test_synthesize_certified(self):
        inputs = []

        def thunk():
            x = _sym("cq_x")
            hole = _sym("cq_h")
            inputs.append(x)
            assert_(x + hole == x + 3)

        outcome = synthesize(_LazyInputs(inputs), thunk, options=CERTIFY)
        assert outcome.status == "sat"
        # CEGIS runs at least one guess and one check, each certified.
        assert outcome.stats.solver.certified >= 2
        assert outcome.model.evaluate(_sym("cq_h")) == 3

    def test_debug_certified(self):
        def thunk():
            x = relax(_sym("cq_d"), "x")
            y = relax(x + 1, "x+1")
            assert_(y == 0)
            assert_(x == 7)

        outcome = debug(thunk, options=CERTIFY)
        assert outcome.status == "sat"
        assert outcome.core  # some relaxation is to blame
        assert outcome.stats.solver.certified >= 2

    def test_env_knob_reaches_queries(self, monkeypatch):
        monkeypatch.setenv("REPRO_CERTIFY", "1")
        outcome = solve(lambda: assert_(_sym("cq_e") == 9))
        assert outcome.status == "sat"
        assert outcome.stats.solver.certified == 1

    def test_certify_off_records_zero(self):
        outcome = solve(lambda: assert_(_sym("cq_f") == 1))
        assert outcome.status == "sat"
        assert outcome.stats.solver.certified == 0

    def test_cert_metrics_aggregate(self):
        metrics = BusMetrics()
        with metrics.subscribed():
            solve(lambda: assert_(_sym("cq_g") == 2), options=CERTIFY)
        snapshot = metrics.snapshot()
        assert snapshot["smt.certified"] == 1
        assert snapshot["cert.model.checks"] == 1
        assert "cert.model.rejected" not in snapshot
