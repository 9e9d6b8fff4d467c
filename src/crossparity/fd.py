"""Cross-parity fault detection for the hash engine's state register.

Two protection levels over the 1600-bit state:

* ``c-plane``: a 320-bit shadow register C' holds the column parities of
  the last committed state.  At the next commit's first round the column
  sums that theta computes anyway are compared against C'.  Any flip set
  that leaves some column with odd parity is caught; flips that pair up
  within columns are not.

* ``z-sheet``: adds a 25-bit shadow F' of the lane parities and a 5-bit
  shadow C'_F guarding F' itself.  A flip set now also has to pair up
  within every lane to go unnoticed, which rules out everything up to
  weight 3 and leaves weight-4 rectangles (two lanes times two columns
  inside one sheet) as the smallest blind spot.

Every shadow is a plain int in the layout of the value it copies (see
``keccak``): C' has bit 64*x + z, F' bit x + 5*y and C'_F bit x, so a
fault target's bit index is the register bit it flips.  The engine taps
each commit window once: ``prime`` computes the (5, 1) column-sum lanes of
the committed state, the C plane they form and, under z-sheet only, the
lane sums, latches the two parities and returns all three.  The next check
compares those same parities and the window's first theta reads the same
lanes; ``sums`` computes them again only for a state the engine's hook has
replaced, and then the shadows keep what the prime latched.  The engine
primes at permutation entry and after every commit but the last, whose
sums no check would read: 24/unroll primes and checks per permutation.

The error flag is sticky until the engine is reset, and it is the
engine's output gate: every digest byte squeezed after the flag goes up
is emitted as zero.  Faults landing in the shadow registers alone can
only raise false alarms, never hide a corrupted state; flips in both the
state and the shadows of one window can cancel in the compare (see
``detectability_predicate``).
"""

from __future__ import annotations

from .keccak import as_column, column_lanes, lane_sums, plane_bits

SCHEMES = ("c-plane", "z-sheet")

# shadow register widths, used for fault-target validation
SHADOW_WIDTHS = {"c_prime": 320, "f_prime": 25, "cf_prime": 5}


def _f_column_parities(f: int) -> int:
    """5-bit column parity of a 25-bit lane-parity slice (bit x + 5y)."""
    return (f ^ f >> 5 ^ f >> 10 ^ f >> 15 ^ f >> 20) & 0x1F


class FdRegisters:
    """Shadow parity registers plus the sticky error flag.

    ``prime`` snapshots the parities of a freshly committed state;
    ``check`` compares them against the column and lane sums of the
    state actually read back from the register one commit later.  Between
    permutations the engine shifts bytes through the state without theta
    running, so the shadows go stale and must be invalidated until the
    next prime.
    """

    __slots__ = ("scheme", "c_prime", "f_prime", "cf_prime", "primed", "error")

    def __init__(self, scheme: str):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        self.scheme = scheme
        self.c_prime = 0
        self.f_prime = 0
        self.cf_prime = 0
        self.primed = False
        self.error = False

    def sums(self, state) -> tuple:
        """The (5, 1) column-sum lanes, the C plane and the F slice of a
        ``StateArray`` or (25, 1) column: the lanes theta reads, then the
        two parities ``check`` takes.  The F slice is 0 under c-plane."""
        a = as_column(state)
        lanes = column_lanes(a)
        return lanes, plane_bits(lanes), lane_sums(a) if self.scheme == "z-sheet" else 0

    def prime(self, committed) -> tuple:
        """Latch the parities of a committed state; return its ``sums``."""
        lanes, c, f = self.sums(committed)
        self.c_prime = c
        if self.scheme == "z-sheet":
            self.f_prime = f
            self.cf_prime = _f_column_parities(f)
        self.primed = True
        return lanes, c, f

    def invalidate(self) -> None:
        self.primed = False

    def check(self, c: int, f: int) -> bool:
        """Compare a C plane and an F slice against the shadows; returns
        this check's verdict.

        The sticky error flag is ORed with the result.  For z-sheet the
        lane parities and the F' guard parities are folded in as well;
        c-plane ignores ``f``.
        """
        if not self.primed:
            raise RuntimeError("check without a prior prime")
        mismatch = c != self.c_prime
        if self.scheme == "z-sheet":
            mismatch |= f != self.f_prime
            mismatch |= not self.check_fprime()
        if mismatch:
            self.error = True
        return mismatch

    def check_fprime(self) -> bool:
        """Guard check of the F' register itself: recompute its column
        parities and compare with C'_F.  True means consistent.  An even
        number of flips within one column of F' passes unnoticed here,
        but any F' corruption still trips the main lane-parity compare.
        """
        if self.scheme != "z-sheet":
            raise RuntimeError("the F' guard only exists under z-sheet")
        return _f_column_parities(self.f_prime) == self.cf_prime

    def flip(self, register: str, bit: int) -> None:
        """Inject a fault into one of the shadow registers."""
        width = SHADOW_WIDTHS.get(register)
        if width is None:
            raise ValueError(f"unknown shadow register {register!r}")
        if not 0 <= bit < width:
            raise ValueError(f"bit {bit} out of range for {register}")
        setattr(self, register, getattr(self, register) ^ 1 << bit)


def detectability_predicate(pattern, scheme: str) -> bool:
    """Closed-form verdict for a set of bit flips in one commit window.

    ``pattern`` is a ``FaultPattern`` over any registers, or an iterable
    whose items are (register, bit) targets or linear state bit indices.
    True means the flips raise the error flag at the next check.  Each
    flip toggles bits of the check's syndrome, in the checker's own
    layout:

    * state bit i: C-plane bit i % 320 and F-slice bit i // 64
    * ``c_prime`` bit u: C-plane bit u
    * ``f_prime`` bit l: F-slice bit l and guard bit l % 5
    * ``cf_prime`` bit x: guard bit x

    The flag rises iff the XOR of the toggles is non-zero; under c-plane
    only the C-plane part counts.  A state-only set thus escapes c-plane
    iff every column (x, z) receives an even number of flips, and z-sheet
    iff every lane (x, y) does too.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if hasattr(pattern, "targets"):
        targets = [(t.register, t.bit) for t in pattern.targets]
    else:
        targets = [t if isinstance(t, tuple) else ("state", int(t)) for t in pattern]
        if len(set(targets)) != len(targets):
            raise ValueError("flip positions must be distinct")
        for register, i in targets:
            width = 1600 if register == "state" else SHADOW_WIDTHS.get(register)
            if width is None:
                raise ValueError(f"unknown register {register!r}")
            if not 0 <= i < width:
                raise ValueError(f"bit index {i} out of range for {register}")
    columns = lanes = guard = 0
    for register, i in targets:
        if register == "state":
            columns ^= 1 << i % 320
            lanes ^= 1 << i // 64
        elif register == "c_prime":
            columns ^= 1 << i
        elif register == "f_prime":
            lanes ^= 1 << i
            guard ^= 1 << i % 5
        else:
            guard ^= 1 << i
    return bool(columns or scheme == "z-sheet" and (lanes or guard))
