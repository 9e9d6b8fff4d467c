"""Single-event fault injection into the engine's storage registers.

A fault pattern is a set of bit flips applied to one or more registers
(the 1600-bit state or one of the shadow parity registers) at a chosen
commit window inside a permutation: right after the detection unit
primes, right before the next group of rounds reads the register back and
the check compares it.  Those windows are the only ones covered.  The
168-cycle shift phases (absorb, zero fill, squeeze, SHAKE refresh) run
with the shadows invalidated, so an upset there goes unchecked and is not
modelled.  A flip latched with a round's output is committed with it and
primed into the shadows, so the next check does not see it.

Outcomes of an injected run, judged against the fault-free digest:

* ``detected``          error flag up, digest would have been wrong
* ``spurious-error``    error flag up, digest would have been right
* ``silent-corruption`` no error, wrong digest
* ``benign``            no error, digest unaffected

Faults reach the engine only through its commit-window hook, which takes
the read-only (25, 1) ``uint64`` column of lanes the permutation runs on
and returns the column the check reads.  ``flip_hook`` builds the one that
flips a pattern: it flips the shadow bits in the detection unit's
registers and, if the pattern has state bits, returns the column XORed
with a flip column built once from them.  Only for that new column does
the engine compute the window's sums again, for its check and its first
theta; a shadow-only pattern returns the column it was given, and the
check reads the sums the prime computed.  ``inject_and_run`` runs one
hash once from the start with that hook; given no fault-free digest, it
first takes the digest of a ``reference_run``.  A ``ReferenceRun`` is one
fault-free run with the detection unit attached, which must end with the
error flag down; it keeps the digest and the entry state of each
permutation as a (25, 1) column.  The engine-level campaigns take from it
the digest of their trials without state flips and the column the others
start from (see ``campaigns``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import Engine
from .fd import SHADOW_WIDTHS
from .keccak import NUM_ROUNDS

REGISTER_WIDTHS = {"state": 1600, **SHADOW_WIDTHS}


@dataclass(frozen=True, order=True, slots=True)
class FaultTarget:
    """One flippable bit: a register name and a bit index within it."""

    register: str
    bit: int

    def __post_init__(self):
        width = REGISTER_WIDTHS.get(self.register)
        if width is None:
            raise ValueError(f"unknown register {self.register!r}")
        if not 0 <= self.bit < width:
            raise ValueError(f"bit {self.bit} out of range for {self.register}")


@dataclass(frozen=True, slots=True)
class FaultPattern:
    """A set of distinct targets flipped together in one window."""

    targets: tuple[FaultTarget, ...]

    def __post_init__(self):
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("fault targets must be distinct")
        object.__setattr__(self, "targets", tuple(sorted(self.targets)))

    @classmethod
    def from_state_bits(cls, bits) -> "FaultPattern":
        return cls(tuple(FaultTarget("state", int(b)) for b in bits))

    @property
    def state_bits(self) -> tuple[int, ...]:
        return tuple(t.bit for t in self.targets if t.register == "state")


@dataclass(frozen=True, slots=True)
class InjectionSchedule:
    """Where the flips land: which permutation of the run, which commit.

    ``commit_slot`` counts the checked windows of one permutation: slot 0
    is right after the entry prime, slot j right after the j-th group's
    commit.  With ``unroll`` rounds per group there are 24/unroll slots,
    each covered by the following group's first-round check.
    """

    permutation_index: int = 0
    commit_slot: int = 0

    def __post_init__(self):
        if self.permutation_index < 0:
            raise ValueError("permutation index must be non-negative")
        if self.commit_slot < 0:
            raise ValueError("commit slot must be non-negative")

    def validate_for_unroll(self, unroll: int) -> None:
        slots = NUM_ROUNDS // unroll
        if self.commit_slot >= slots:
            raise ValueError(
                f"commit slot {self.commit_slot} out of range for unroll {unroll} "
                f"({slots} slots)")


@dataclass(frozen=True, slots=True)
class InjectionResult:
    outcome: str
    error_raised: bool
    digest: bytes           # ungated digest of the faulted run
    golden: bytes
    # what the engine output: zeros from the first byte squeezed after the
    # error flag went up
    emitted: bytes = field(repr=False, default=b"")


@dataclass(frozen=True, slots=True)
class ReferenceRun:
    """A fault-free run with the detection unit attached: the entry state
    of each permutation, in run order, as a (25, 1) ``uint64`` column, and
    the digest."""

    entries: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    digest: bytes


def flip_hook(pattern: FaultPattern, schedule: InjectionSchedule):
    """The engine hook that flips ``pattern`` at the scheduled commit
    window: state bits in a copy of the state the check reads, shadow bits
    in the detection unit's registers.  Without state bits it returns the
    column it was given."""
    window = (schedule.permutation_index, schedule.commit_slot)
    flips = None
    if pattern.state_bits:
        flips = np.zeros((25, 1), np.uint64)
        for bit in pattern.state_bits:
            flips[bit // 64] ^= 1 << bit % 64
    shadow = [t for t in pattern.targets if t.register != "state"]

    def hook(eng: Engine, slot: int, state: np.ndarray) -> np.ndarray:
        if (eng.permutation_index, slot) != window:
            return state
        if shadow and eng.fd is None:
            raise RuntimeError("shadow-register fault without detection attached")
        for t in shadow:
            eng.fd.flip(t.register, t.bit)
        return state if flips is None else state ^ flips
    return hook


def reference_run(mode: str, message: bytes, scheme: str = "z-sheet", unroll: int = 1,
                  out_len: int | None = None) -> ReferenceRun:
    """The fault-free run of one hash, with the entry state of each
    permutation, for batched trials to start from."""
    eng = Engine(mode, fd=scheme, unroll=unroll)
    n = eng.resolve_out_len(out_len)
    entries = []

    def keep(eng: Engine, slot: int, state: np.ndarray) -> np.ndarray:
        if slot == 0:
            entries.append(state)
        return state

    eng.hook = keep
    eng.absorb(message)
    eng.finish()
    digest = eng.squeeze(n)
    if eng.fd.error:
        raise RuntimeError("the fault-free reference run raised the error flag")
    return ReferenceRun(tuple(entries), digest)


def inject_and_run(mode: str, message: bytes, pattern: FaultPattern,
                   schedule: InjectionSchedule, scheme: str = "z-sheet",
                   unroll: int = 1, out_len: int | None = None,
                   golden: bytes | None = None) -> InjectionResult:
    """Run one hash from the start with the pattern injected at the
    scheduled window, and judge it against ``golden``, the fault-free
    digest (by default that of a ``reference_run`` of the same hash)."""
    schedule.validate_for_unroll(unroll)
    eng = Engine(mode, fd=scheme, unroll=unroll)
    n = eng.resolve_out_len(out_len)
    if golden is None:
        golden = reference_run(mode, message, scheme, unroll, n).digest
    eng.hook = flip_hook(pattern, schedule)
    eng.absorb(message)
    eng.finish()
    emitted = eng.squeeze(n)
    if schedule.permutation_index >= eng.permutation_index:
        raise ValueError("schedule never fired: the run has no permutation "
                         f"{schedule.permutation_index}")
    digest = bytes(eng.squeezed)

    error = eng.fd.error
    corrupted = digest != golden
    if error:
        outcome = "detected" if corrupted else "spurious-error"
    else:
        outcome = "silent-corruption" if corrupted else "benign"
    return InjectionResult(outcome=outcome, error_raised=error, digest=digest,
                           golden=golden, emitted=emitted)
