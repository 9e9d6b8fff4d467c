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

The error flag is sticky until the engine is reset, and it is the
engine's output gate: every digest byte squeezed after the flag goes up
is emitted as zero.  Faults landing in the shadow registers themselves can
only raise false alarms, never hide a corrupted state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .keccak import CPlane, FSlice, StateArray, column_sums, lane_sums

SCHEMES = ("c-plane", "z-sheet")

# shadow register widths, used for fault-target validation
SHADOW_WIDTHS = {"c_prime": 320, "f_prime": 25, "cf_prime": 5}


@dataclass(frozen=True)
class FdConfig:
    """Protection scheme selector."""

    scheme: str

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")

    @property
    def has_lane_parity(self) -> bool:
        return self.scheme == "z-sheet"


def _f_column_parities(f_bits: int) -> int:
    """5-bit column parity of a 25-bit lane-parity slice (bit x + 5y)."""
    out = 0
    for x in range(5):
        p = 0
        for y in range(5):
            p ^= (f_bits >> (x + 5 * y)) & 1
        out |= p << x
    return out


class FdRegisters:
    """Shadow parity registers plus the sticky error flag.

    ``prime`` snapshots the parities of a freshly committed state;
    ``check`` compares them against the theta taps of the state actually
    read back from the register one commit later.  Between permutations
    the engine shifts bytes through the state without theta running, so
    the shadows go stale and must be invalidated until the next prime.
    """

    __slots__ = ("config", "c_prime", "f_prime", "cf_prime", "primed", "error")

    def __init__(self, config: FdConfig | str):
        self.config = FdConfig(config) if isinstance(config, str) else config
        self.c_prime = [0] * 5
        self.f_prime = 0
        self.cf_prime = 0
        self.primed = False
        self.error = False

    def prime(self, committed: StateArray) -> None:
        self.c_prime = list(column_sums(committed).cols)
        if self.config.has_lane_parity:
            self.f_prime = lane_sums(committed).bits
            self.cf_prime = _f_column_parities(self.f_prime)
        self.primed = True

    def invalidate(self) -> None:
        self.primed = False

    def check(self, c: CPlane, f: FSlice) -> bool:
        """Compare theta taps against the shadows; returns this check's verdict.

        The sticky error flag is ORed with the result.  For z-sheet the
        lane parities and the F' guard parities are folded in as well.
        """
        if not self.primed:
            raise RuntimeError("check without a prior prime")
        mismatch = any(c.cols[x] != self.c_prime[x] for x in range(5))
        if self.config.has_lane_parity:
            mismatch |= f.bits != self.f_prime
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
        if not self.config.has_lane_parity:
            raise RuntimeError("the F' guard only exists under z-sheet")
        return _f_column_parities(self.f_prime) == self.cf_prime

    def flip(self, register: str, bit: int) -> None:
        """Inject a fault into one of the shadow registers."""
        width = SHADOW_WIDTHS.get(register)
        if width is None:
            raise ValueError(f"unknown shadow register {register!r}")
        if not 0 <= bit < width:
            raise ValueError(f"bit {bit} out of range for {register}")
        if register == "c_prime":
            self.c_prime[bit // 64] ^= 1 << (bit % 64)
        elif register == "f_prime":
            self.f_prime ^= 1 << bit
        else:
            self.cf_prime ^= 1 << bit


def detectability_predicate(pattern, scheme: str | FdConfig) -> bool:
    """Closed-form verdict for a set of state-register bit flips.

    ``pattern`` is an iterable of linear state bit indices, or a fault
    pattern restricted to the state register.  True means the flip set is
    caught at the next parity check.  A set escapes the c-plane compare
    iff every column (x, z) receives an even number of flips; z-sheet
    additionally requires an even count in every lane (x, y).
    """
    if isinstance(scheme, FdConfig):
        scheme = scheme.scheme
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if hasattr(pattern, "state_bits"):
        if not pattern.state_only:
            raise ValueError("the predicate covers state-register flips only")
        pattern = pattern.state_bits
    bits = list(pattern)
    if len(set(bits)) != len(bits):
        raise ValueError("flip positions must be distinct")
    columns: Counter = Counter()
    lanes: Counter = Counter()
    for i in bits:
        if not 0 <= i < 1600:
            raise ValueError(f"bit index {i} out of range")
        x, y, z = StateArray.bit_coords(i)
        columns[(x, z)] += 1
        lanes[(x, y)] += 1
    column_even = all(n % 2 == 0 for n in columns.values())
    if scheme == "c-plane":
        return not column_even
    lane_even = all(n % 2 == 0 for n in lanes.values())
    return not (column_even and lane_even)
