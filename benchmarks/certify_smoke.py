#!/usr/bin/env python
"""CI certification smoke: certified queries per family, plus chaos.

Exercises trust-but-verify mode end to end the way a user would:

- a SYNTHCL CEGIS synthesis via the driver's ``options=`` path — every
  guess and every counterexample check is certified;
- an IFCL EENI check (the certified-verify row: the insecurity witness's
  model is re-evaluated at the term level);
- a certified UNSAT IFCL row (B1 at bound 3, 5-bit, ``secure``): every
  lemma of its DRUP proof must be accepted through the solver's hints,
  with no fallback to full reverse unit propagation, so a solver change
  that breaks hint recording fails here instead of only slowing down;
- a WEBSYNTH XPath synthesis certified via the ``REPRO_CERTIFY``
  environment variable (the zero-code-change path);
- a fault-localization ``debug`` query — the MaxSAT-style loop's UNSAT
  answers replay their DRUP proofs and the minimized core is re-proved on
  a fresh one-shot solver;
- the fault-injection suite: every chaos class must be caught.

Each query must report its expected status with at least one certified
check; a certifier that wrongly rejected a genuine answer would raise
``CertificationError`` and fail the script. Exits non-zero on any failure.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.queries import SolveOptions  # noqa: E402
from repro.sym import set_default_int_width  # noqa: E402

CERTIFY = SolveOptions(certify=True)


def _report(label, outcome, expect_status):
    stats = outcome.stats
    assert outcome.status == expect_status, \
        f"{label}: expected {expect_status}, got {outcome.status}"
    assert stats.solver.certified >= 1, \
        f"{label}: no certified checks recorded"
    assert stats.solver.certified == stats.solver.checks, \
        f"{label}: {stats.solver.checks} checks but only " \
        f"{stats.solver.certified} certified"
    print(f"  {label}: {outcome.status}, "
          f"{stats.solver.certified}/{stats.solver.checks} checks certified")


def smoke_synthcl_synthesize() -> None:
    from repro.sdsl.synthcl.bench import run_benchmark
    print("synthcl synthesis (FWT2s, options= path):")
    _report("FWT2s", run_benchmark("FWT2s", options=CERTIFY), "sat")


def smoke_ifcl_verify() -> None:
    from repro.sdsl.ifcl import BUGGY_MACHINES
    from repro.sdsl.ifcl.verify import eeni_check
    print("ifcl EENI check (B2, options= path):")
    result = eeni_check(BUGGY_MACHINES["B2"], 3, options=CERTIFY)
    assert result.status == "insecure", result.status
    stats = result.stats
    assert stats.solver.certified >= 1, "ifcl: no certified checks"
    print(f"  B2: insecure, "
          f"{stats.solver.certified}/{stats.solver.checks} checks certified")


def smoke_ifcl_hinted_unsat() -> None:
    from repro.sdsl.ifcl import BUGGY_MACHINES
    from repro.sdsl.ifcl.verify import eeni_check
    print("ifcl EENI proof replay (B1@3, 5-bit, options= path):")
    events = []
    set_default_int_width(5)
    try:
        result = eeni_check(BUGGY_MACHINES["B1"], 3, options=CERTIFY,
                            trace=events.append)
    finally:
        set_default_int_width(32)
    assert result.status == "secure", result.status
    proofs = [e.args for e in events
              if e.name == "cert.proof" and e.ph == "E"]
    assert proofs, "ifcl: no DRUP proof was replayed"
    hinted = sum(args["hinted"] for args in proofs)
    fallback = sum(args["fallback"] for args in proofs)
    assert all(args["ok"] for args in proofs)
    assert hinted > 0, "ifcl: no lemma was checked through its hints"
    assert fallback == 0, \
        f"ifcl: {fallback} lemma(s) fell back to full RUP replay"
    print(f"  B1: secure, {len(proofs)} proof(s), {hinted} lemmas hinted, "
          f"{fallback} fallback")


def smoke_websynth_env() -> None:
    from repro.sdsl.websynth import HtmlNode
    from repro.sdsl.websynth.synth import synthesize_xpath
    print("websynth synthesis (REPRO_CERTIFY environment knob):")
    page = HtmlNode("html", (
        HtmlNode("body", (
            HtmlNode("div", (HtmlNode("span", text="alpha"),
                             HtmlNode("span", text="beta"))),
            HtmlNode("div", (HtmlNode("p", text="noise"),
                             HtmlNode("span", text="gamma"))),
        )),
    ))
    set_default_int_width(16)
    os.environ["REPRO_CERTIFY"] = "1"
    try:
        result = synthesize_xpath(page, ["alpha", "beta", "gamma"])
    finally:
        del os.environ["REPRO_CERTIFY"]
        set_default_int_width(32)
    _report("xpath", result, "sat")


def smoke_debug_query() -> None:
    from repro.queries.debug import debug, relax
    from repro.smt import terms as T
    from repro.sym.values import SymInt
    from repro.vm.context import assert_
    print("debug query (options= path):")

    def thunk():
        x = relax(SymInt(T.bv_var("smoke_dbg", 8)), "x")
        y = relax(x + 1, "x+1")
        assert_(y == 0)
        assert_(x == 7)

    outcome = debug(thunk, options=CERTIFY)
    assert outcome.status == "sat", outcome.status
    assert outcome.core, "debug: empty blame core"
    assert outcome.stats.solver.certified >= 2, \
        "debug: expected the relaxation loop to certify several checks"
    print(f"  blame core {sorted(outcome.core)}, "
          f"{outcome.stats.solver.certified}/{outcome.stats.solver.checks} "
          f"checks certified")


def smoke_chaos(seed: int) -> None:
    from repro.solver.chaos import run_chaos
    print(f"fault injection (seed {seed}):")
    outcomes = run_chaos(seed=seed)
    for outcome in outcomes:
        status = "caught" if outcome.caught else "MISSED"
        print(f"  {outcome.fault:<24} {status}")
    missed = [o.fault for o in outcomes if not o.caught]
    assert not missed, f"certifiers accepted injected faults: {missed}"
    assert len(outcomes) >= 6, "chaos taxonomy shrank below six classes"


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    smoke_synthcl_synthesize()
    smoke_ifcl_verify()
    smoke_ifcl_hinted_unsat()
    smoke_websynth_env()
    smoke_debug_query()
    smoke_chaos(seed)
    print("certification smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
