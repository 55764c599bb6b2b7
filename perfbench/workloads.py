"""The four workloads: query sets, driver calls and verdict oracles.

Every query goes through a public SDSL driver (``eeni_check``,
``run_benchmark``, ``synthesize_xpath``) and every verdict is checked by
an oracle that does not ask the solver: IFCL attacks are replayed
concretely, IFCL ``secure`` verdicts are looked up in the measured
frontier table, XPaths are run concretely on their page, and SynthCL
statuses come from Table 1.

Importing this module imports no part of ``repro``; :func:`build` does,
so the import counts towards the set-up time of a worker process.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, List, Optional

#: Child-process environment per workload. Certification and analysis are
#: switched on through the environment, never through keyword arguments,
#: so that a change to how solver options are passed leaves this file as
#: it is.
ENV = {
    "ifcl-eeni": {},
    "synthcl-table1": {},
    "websynth-table2": {},
    "ifcl-certified": {"REPRO_CERTIFY": "1", "REPRO_ANALYZE": "1"},
}
WORKLOADS = tuple(ENV)

# Minimal counterexample bound per IFCL machine (EXPERIMENTS.md, Table 3
# and the measured secure/insecure frontiers); None: secure at every
# bound checked (through 4). A machine is insecure at bound k iff
# k >= its frontier.
IFCL_FRONTIER = {
    "B1": 5, "B2": 3, "B3": 7, "B4": 3, "J1": 5, "J2": 5,
    "CR1": 5, "CR2": 8, "CR3": 8, "CR4": 5,
    "basic": None, "jump": None, "cr": None,
}

SYNTHCL_VERIFY = ("MM1v", "MM2v", "SF1v", "SF2v", "SF3v", "SF4v", "SF5v",
                  "SF6v", "SF7v", "FWT1v", "FWT2v")
SYNTHCL_SYNTH = ("MM2s", "SF3s", "FWT1s", "FWT2s")

CERTIFIED_SET = ("B2", "B4", "B1", "basic", "J2", "CR1")

_CEGIS = re.compile(r"cegis converged in (\d+) iteration")
_INSTRUCTION = re.compile(r"^(\w+) (-?\d+)\|(-?\d+)@([HL])$")


@dataclass
class Query:
    """One query of a workload.

    `call` issues it through the public driver, whose result carries the
    query's :class:`~repro.vm.stats.EvalStats` as ``stats``; `check` is
    the oracle and returns None for a correct verdict or the reason it is
    wrong.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Workload:
    queries: List[Query]
    #: What the inputs depend on besides the code: two runs with equal
    #: keys ran identical queries, so their counts can be compared.
    inputs_key: str


def cegis_iterations(result) -> int:
    """CEGIS iterations, from a synthesis outcome's message (else 0)."""
    match = _CEGIS.search(getattr(result, "message", "") or "")
    return int(match.group(1)) if match else 0


# ---------------------------------------------------------------------------
# Oracles (pure functions of the driver's result, tested in test_perfbench)
# ---------------------------------------------------------------------------

def ifcl_expected(machine: str, bound: int) -> str:
    frontier = IFCL_FRONTIER[machine]
    return "insecure" if frontier is not None and bound >= frontier \
        else "secure"


def parse_attack(lines):
    """Parse rendered counterexample lines back into instructions."""
    from repro.sdsl.ifcl import OPCODES, DecodedInstruction

    codes = {mnemonic: code for code, mnemonic in OPCODES.items()}
    attack = []
    for line in lines:
        match = _INSTRUCTION.match(line)
        if match is None:
            raise ValueError(f"unparseable instruction {line!r}")
        mnemonic, value_a, value_b, label = match.groups()
        opcode = codes.get(mnemonic)
        if opcode is None:
            opcode = int(mnemonic[2:])  # rendered as op<n>
        attack.append(DecodedInstruction(opcode, int(value_a), int(value_b),
                                         label == "H"))
    return attack


def check_ifcl(semantics, machine: str, bound: int, result) -> Optional[str]:
    """IFCL oracle: insecure verdicts must replay, secure ones match the
    frontier table."""
    from repro.sdsl.ifcl import replay_attack

    expected = ifcl_expected(machine, bound)
    if result.status != expected:
        return f"{machine}@{bound}: {result.status}, expected {expected}"
    if expected == "insecure":
        try:
            replay = replay_attack(semantics,
                                   parse_attack(result.counterexample or []))
        except ValueError as error:
            return f"{machine}@{bound}: attack does not replay: {error}"
        if not replay.distinguishable:
            return f"{machine}@{bound}: replayed attack leaks nothing"
    return None


def check_synthcl(name: str, outcome) -> Optional[str]:
    """SynthCL oracle: Table 1 statuses, and 0 unions on verify rows."""
    if name in SYNTHCL_VERIFY:
        if outcome.status != "unsat":
            return f"{name}: {outcome.status}, expected unsat"
        if outcome.stats.unions_created != 0:
            return (f"{name}: {outcome.stats.unions_created} unions, "
                    f"expected 0")
        return None
    if outcome.status != "sat":
        return f"{name}: {outcome.status}, expected sat"
    return None


def check_xpath(site: str, root, examples, result) -> Optional[str]:
    """WebSynth oracle: the XPath, run concretely, selects every example."""
    from repro.sdsl.websynth import concrete_matches

    if result.status != "sat":
        return f"{site}: {result.status}, expected sat"
    selected = set(concrete_matches(root, result.xpath))
    missing = [example for example in examples if example not in selected]
    if missing:
        return f"{site}: XPath {'/'.join(result.xpath)} misses {missing}"
    return None


# ---------------------------------------------------------------------------
# Workload construction
# ---------------------------------------------------------------------------

def _ifcl_queries(pairs) -> List[Query]:
    from repro.sdsl.ifcl import BUGGY_MACHINES, CORRECT_MACHINES, eeni_check

    machines = {**BUGGY_MACHINES, **CORRECT_MACHINES}
    queries = []
    for machine, bound in pairs:
        semantics = machines[machine]
        queries.append(Query(
            f"{machine}@{bound}",
            call=lambda s=semantics, b=bound: eeni_check(s, b),
            check=lambda r, s=semantics, m=machine, b=bound:
                check_ifcl(s, m, b, r)))
    return queries


def build(name: str, seed: int) -> Workload:
    """Import the program and make the workload's inputs from `seed`.

    The query order is not fixed here: the closed loop shuffles it per
    pass from the same seed.
    """
    from repro.sym import set_default_int_width

    if name == "ifcl-eeni":
        from repro.sdsl.ifcl import BUGGY_MACHINES, CORRECT_MACHINES
        set_default_int_width(5)
        pairs = [(m, 3) for m in (*BUGGY_MACHINES, *CORRECT_MACHINES)]
        pairs += [("B2", 4), ("B4", 4)]
        return Workload(_ifcl_queries(pairs), inputs_key="fixed")
    if name == "ifcl-certified":
        set_default_int_width(5)
        return Workload(_ifcl_queries([(m, 3) for m in CERTIFIED_SET]),
                        inputs_key="fixed")
    if name == "synthcl-table1":
        from repro.sdsl.synthcl import run_benchmark
        set_default_int_width(16)
        queries = [Query(row, call=lambda row=row: run_benchmark(row),
                         check=lambda r, row=row: check_synthcl(row, r))
                   for row in SYNTHCL_VERIFY + SYNTHCL_SYNTH]
        return Workload(queries, inputs_key="fixed")
    if name == "websynth-table2":
        from repro.sdsl.websynth import (SITE_SPECS, generate_site,
                                         synthesize_xpath)
        set_default_int_width(16)
        queries = []
        for index, spec in enumerate(SITE_SPECS):
            root, _, examples = generate_site(spec, seed=seed * 10 + index)
            queries.append(Query(
                spec.name,
                call=lambda root=root, ex=examples: synthesize_xpath(root, ex),
                check=lambda r, s=spec.name, root=root, ex=examples:
                    check_xpath(s, root, ex, r)))
        return Workload(queries, inputs_key=f"seed={seed}")
    raise ValueError(f"unknown workload {name!r}")
