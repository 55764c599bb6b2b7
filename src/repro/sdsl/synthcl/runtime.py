"""An abstract model of the OpenCL runtime for SYNTHCL.

The model distinguishes *host* memory from (global) *device* memory
(buffers), runs kernels over an NDRange of work-items, and — as the paper
describes — "emits assertions to ensure that no two kernel instances ever
perform a conflicting memory access" (§5.1). Kernel instances execute
sequentially in the model (the memory-safety assertions are what make the
parallel semantics sound), each with its own global id.

Buffers are mutable :class:`~repro.vm.mutable.Vector` storage, so kernel
writes merge correctly at SVM joins, and symbolic indices turn into
conditional writes over every cell.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.analysis.races import RaceReport, classify_launch
from repro.vm import assert_
from repro.vm.errors import AssertionFailure
from repro.vm.mutable import Vector

#: Race-checking modes for :class:`CLRuntime`.
#:
#: - ``"off"``      — no checking at all (trusted kernels only).
#: - ``"assert"``   — static pre-detection, then *fail fast*: a pair the
#:   analysis proves overlapping raises :class:`KernelRace` at launch.
#: - ``"symbolic"`` — static pre-detection, then every non-discharged
#:   pair (including definite overlaps) becomes a path-guarded
#:   assertion, so hole-dependent races are *modeled* for the solver —
#:   a verify query finds the racy input, a synthesize query rules the
#:   racy candidate out — rather than aborting host execution.
RACE_MODES = ("off", "assert", "symbolic")


class KernelRace(AssertionFailure):
    """Raised when a definite conflicting access is detected at launch."""


class Buffer:
    """A global-memory buffer of (possibly symbolic) integers."""

    def __init__(self, name: str, contents: Sequence):
        self.name = name
        self.storage = Vector(list(contents), name=name)

    def __len__(self) -> int:
        return len(self.storage)

    def read(self, index):
        return self.storage.ref(index)

    def write(self, index, value) -> None:
        self.storage.set(index, value)

    def snapshot(self) -> tuple:
        return self.storage.snapshot()

    def __repr__(self):
        return f"Buffer({self.name}, {len(self.storage)})"


class WorkItemContext:
    """Execution context of one kernel instance."""

    def __init__(self, runtime: "CLRuntime", global_id: int):
        self.runtime = runtime
        self.global_id = global_id
        # Access log: (buffer name, index value, is_write)
        self.accesses: List[Tuple[str, object, bool]] = []

    def get_global_id(self, dim: int = 0) -> int:
        if dim != 0:
            raise ValueError("the model supports 1-D NDRanges; linearize ids")
        return self.global_id

    def read(self, buffer: Buffer, index):
        self.accesses.append((buffer.name, index, False))
        return buffer.read(index)

    def write(self, buffer: Buffer, index, value) -> None:
        self.accesses.append((buffer.name, index, True))
        buffer.write(index, value)


class CLRuntime:
    """Host-side runtime: buffer management and kernel launches."""

    def __init__(self, race_mode: str = "assert"):
        if race_mode not in RACE_MODES:
            raise ValueError(
                f"race_mode must be one of {RACE_MODES}, got {race_mode!r}")
        self.race_mode = race_mode
        self.buffers: Dict[str, Buffer] = {}
        #: Static race classifications, one :class:`RaceReport` per launch.
        self.race_reports: List[RaceReport] = []

    def buffer(self, name: str, contents: Sequence) -> Buffer:
        buf = Buffer(name, contents)
        self.buffers[name] = buf
        return buf

    def launch(self, kernel: Callable, global_size: int) -> None:
        """Run `kernel(item)` for every work item in the NDRange.

        After all instances run, the runtime checks that no write by one
        instance conflicts with a read or write of the same buffer cell by
        another instance — the implicit memory-safety obligations that the
        SYNTHCL verifier checks and the synthesizer enforces. The static
        pre-detector (:mod:`repro.analysis.races`) discharges the provably
        disjoint pairs first; only the residue reaches the solver. See
        :data:`RACE_MODES` for how definite overlaps are reported.
        """
        if global_size <= 0:
            raise ValueError("global_size must be positive")
        items = [WorkItemContext(self, gid) for gid in range(global_size)]
        for item in items:
            kernel(item)
        if self.race_mode != "off":
            self._check_races(items)

    def _check_races(self, items: Sequence[WorkItemContext]) -> None:
        report, residual = classify_launch(items)
        self.race_reports.append(report)
        overlap = report.first_overlap()
        if overlap is not None and self.race_mode == "assert":
            raise KernelRace(
                f"conflicting access to {overlap.buffer} by work items "
                f"{overlap.item_a} and {overlap.item_b} "
                f"(proven statically: {overlap.reason})")
        if overlap is not None:
            # Symbolic mode: a definite overlap becomes an unconditional
            # failed obligation on this path, like any other assert.
            assert_(False,
                    f"conflicting access to {overlap.buffer} by work items "
                    f"{overlap.item_a} and {overlap.item_b}")
        for check, distinct in residual:
            assert_(distinct,
                    f"conflicting access to {check.buffer} by work "
                    f"items {check.item_a} and {check.item_b}")
