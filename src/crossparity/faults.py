"""Single-event fault injection into the engine's storage registers.

A fault pattern is a set of bit flips applied to one or more registers
(the 1600-bit state or one of the shadow parity registers) at a chosen
commit window: right after the detection unit primes, right before the
next group of rounds reads the register back.  That is the window a
transient upset has to land in to matter; anything flipped during a
round's combinational evaluation never reaches a register.

Outcomes of an injected run, judged against the fault-free digest:

* ``detected``          error flag up, digest would have been wrong
* ``spurious-error``    error flag up, digest would have been right
* ``silent-corruption`` no error, wrong digest
* ``benign``            no error, digest unaffected
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import Engine, hash_message
from .fd import SHADOW_WIDTHS
from .keccak import NUM_ROUNDS

REGISTER_WIDTHS = {"state": 1600, **SHADOW_WIDTHS}

OUTCOMES = ("detected", "silent-corruption", "benign", "spurious-error")


@dataclass(frozen=True, order=True)
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


@dataclass(frozen=True)
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
    def weight(self) -> int:
        return len(self.targets)

    @property
    def state_bits(self) -> tuple[int, ...]:
        return tuple(t.bit for t in self.targets if t.register == "state")

    @property
    def state_only(self) -> bool:
        return all(t.register == "state" for t in self.targets)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class InjectionResult:
    outcome: str
    error_raised: bool
    digest: bytes           # ungated digest of the faulted run
    golden: bytes
    # what the engine output: zeros from the first byte squeezed after the
    # error flag went up
    emitted: bytes = field(repr=False, default=b"")


def inject_and_run(mode: str, message: bytes, pattern: FaultPattern,
                   schedule: InjectionSchedule, scheme: str = "z-sheet",
                   unroll: int = 1, out_len: int | None = None,
                   golden: bytes | None = None) -> InjectionResult:
    """Run one hash with the pattern injected at the scheduled window."""
    schedule.validate_for_unroll(unroll)
    eng = Engine(mode, fd=scheme, unroll=unroll)
    n = eng.resolve_out_len(out_len)
    if golden is None:
        golden = hash_message(mode, message, out_len=out_len)

    fired = 0

    def injector(perm_index, slot):
        nonlocal fired
        if perm_index == schedule.permutation_index and slot == schedule.commit_slot:
            fired += 1
            return pattern.targets
        return None

    eng.injector = injector
    eng.absorb(message)
    eng.finish()
    emitted = eng.squeeze(n)
    digest = bytes(eng.squeezed)
    if fired == 0:
        raise ValueError(
            f"schedule never fired: run had {eng.permutation_index} permutations, "
            f"schedule wanted index {schedule.permutation_index}")

    error = eng.fd.error
    corrupted = digest != golden
    if error:
        outcome = "detected" if corrupted else "spurious-error"
    else:
        outcome = "silent-corruption" if corrupted else "benign"
    return InjectionResult(outcome=outcome, error_raised=error, digest=digest,
                           golden=golden, emitted=emitted)
