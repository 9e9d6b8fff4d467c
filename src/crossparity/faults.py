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

A faulted run is the fault-free run up to its window and its own run
after it, so it starts from a ``ReferenceRun``: one fault-free run with
the detection unit attached that keeps the engine's registers at its
commit windows and ends with the error flag down.  A trial restores the
registers of its window, primes the checker from the state committed
there, injects, and runs every remaining check, round, permutation and
squeeze through the engine, so a resumed trial is checked exactly as a
run from the start would be.  A campaign shares one reference run among
all its trials and its digest is the fault-free one; a lone
``inject_and_run`` makes its own, which stops at the window when the
fault-free digest is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import SHIFT_RATE_BYTES, Engine
from .fd import SHADOW_WIDTHS
from .keccak import NUM_ROUNDS, StateArray

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


@dataclass(frozen=True)
class Checkpoint:
    """The engine's registers at one commit window of a fault-free run."""

    state: StateArray       # committed at the window (the entry state at slot 0)
    cycles: int
    squeezed: bytes         # digest bytes shifted out before the window


@dataclass(frozen=True)
class ReferenceRun:
    """A fault-free run with the detection unit attached, and the
    checkpoints of its commit windows, keyed (permutation index, slot)."""

    mode: str
    message: bytes
    scheme: str
    unroll: int
    out_len: int
    digest: bytes | None    # None when the run stopped at its last wanted window
    checkpoints: dict = field(repr=False)


class _WindowReached(Exception):
    """Ends a reference run at the one window it keeps."""


class _CheckpointingEngine(Engine):
    """A run that injects nothing and keeps its registers at every commit
    window, or only at ``window``; with ``stop`` it ends there."""

    def __init__(self, mode, scheme, unroll, window, stop):
        super().__init__(mode, fd=scheme, unroll=unroll)
        self.injector = lambda perm, slot: None      # visit every window
        self.window = window
        self.stop = stop
        self.checkpoints = {}

    def _apply_injection(self, sa, slot):
        key = (self.permutation_index, slot)
        if self.window in (None, key):
            self.checkpoints[key] = Checkpoint(sa, self.cycles, bytes(self.squeezed))
            if self.stop:
                raise _WindowReached
        return sa


def _reference(mode, message, scheme, unroll, out_len, window=None,
               stop=False) -> ReferenceRun:
    eng = _CheckpointingEngine(mode, scheme, unroll, window, stop)
    n = eng.resolve_out_len(out_len)
    digest = None
    try:
        eng.absorb(message)
        eng.finish()
        digest = eng.squeeze(n)
    except _WindowReached:
        pass
    if eng.fd.error:
        raise RuntimeError("the fault-free reference run raised the error flag")
    return ReferenceRun(eng.mode.name, bytes(message), scheme, unroll, n, digest,
                        eng.checkpoints)


def reference_run(mode: str, message: bytes, scheme: str = "z-sheet", unroll: int = 1,
                  out_len: int | None = None) -> ReferenceRun:
    """The fault-free run of one hash, checkpointed at every commit window,
    for many ``inject_and_run`` trials to share."""
    return _reference(mode, message, scheme, unroll, out_len)


def inject_and_run(mode: str, message: bytes, pattern: FaultPattern,
                   schedule: InjectionSchedule, scheme: str = "z-sheet",
                   unroll: int = 1, out_len: int | None = None,
                   golden: bytes | None = None,
                   reference: ReferenceRun | None = None) -> InjectionResult:
    """Run one hash with the pattern injected at the scheduled window.

    The run resumes at the window from ``reference``, a ``reference_run``
    of the same hash, or else from a reference run made for this call.
    ``golden`` defaults to the reference run's digest.
    """
    schedule.validate_for_unroll(unroll)
    eng = Engine(mode, fd=scheme, unroll=unroll)
    n = eng.resolve_out_len(out_len)
    window = (schedule.permutation_index, schedule.commit_slot)
    if reference is None:
        reference = _reference(mode, message, scheme, unroll, n, window,
                               stop=golden is not None)
    elif (reference.mode, reference.message, reference.scheme, reference.unroll,
          reference.out_len) != (eng.mode.name, message, scheme, unroll, n):
        raise ValueError("the reference run is of a different hash")
    if golden is None:
        golden = reference.digest
    cp = reference.checkpoints.get(window)
    if cp is None:
        raise ValueError(f"schedule never fired: the run has no permutation "
                         f"{schedule.permutation_index}")

    # load the registers of the window; the permutations absorb runs come
    # first, and the engine squeezes after the pad block's
    perm = schedule.permutation_index
    eng.phase = "absorbing" if perm < len(message) // eng.mode.rate_bytes else "squeezing"
    eng.cycles = cp.cycles
    eng.permutation_index = perm
    eng.ratecount = SHIFT_RATE_BYTES
    eng.squeezed[:] = cp.squeezed
    eng.injector = lambda p, slot: pattern.targets if (p, slot) == window else None
    eng.run_permutation(schedule.commit_slot, cp.state)
    if eng.phase == "absorbing":
        eng.absorb(message[(perm + 1) * eng.mode.rate_bytes:])
        eng.finish()
    emitted = cp.squeezed + eng.squeeze(n - len(cp.squeezed))
    digest = bytes(eng.squeezed)

    error = eng.fd.error
    corrupted = digest != golden
    if error:
        outcome = "detected" if corrupted else "spurious-error"
    else:
        outcome = "silent-corruption" if corrupted else "benign"
    return InjectionResult(outcome=outcome, error_raised=error, digest=digest,
                           golden=golden, emitted=emitted)
