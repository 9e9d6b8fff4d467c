"""Keccak-f[1600] round function with column- and lane-parity tap points.

The state is 5x5 lanes of 64 bits.  Lane (x, y) sits at index x + 5*y of
the lane tuple and occupies bytes 8*(5y+x) .. 8*(5y+x)+7 of the 200-byte
state string (little-endian within the lane), so bit (x, y, z) has linear
index 64*(5y+x) + z.  All external bit positions (fault targets, test
vectors) use that linear index.

The detection logic taps two parity values, each a plain int whose bit
index is the index the rest of the package uses:

* the C plane, ``column_sums``: the column sums C[x][z] that theta
  computes anyway, 320 bits with bit 64*x + z (the ``c_prime`` fault
  target and the column id of a state bit i, which is i % 320);
* the F slice, ``lane_sums``: the lane parities F[x][y], 25 bits with
  bit x + 5*y (the ``f_prime`` fault target and the lane id i // 64).

The round function returns only the state.  The engine reads the taps
at check rounds, from the state it reads back out of the register.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
NUM_ROUNDS = 24


def _rotl64(v: int, n: int) -> int:
    n %= 64
    return ((v << n) | (v >> (64 - n))) & MASK64


def _compute_rho_offsets() -> tuple[int, ...]:
    # Walk (x, y) <- (y, 2x+3y) starting from (1, 0); offset t is the
    # triangular number (t+1)(t+2)/2 mod 64.
    offsets = [0] * 25
    x, y = 1, 0
    for t in range(24):
        offsets[x + 5 * y] = (t + 1) * (t + 2) // 2 % 64
        x, y = y, (2 * x + 3 * y) % 5
    return tuple(offsets)


def _compute_round_constants() -> tuple[int, ...]:
    # One pass of the degree-8 LFSR x^8 + x^6 + x^5 + x^4 + 1; bit t of the
    # output stream feeds bit 2^j - 1 of round constant i, t = j + 7i.
    stream = []
    reg = 1
    for _ in range(7 * NUM_ROUNDS):
        stream.append(reg & 1)
        reg <<= 1
        if reg & 0x100:
            reg ^= 0x171
    constants = []
    for i in range(NUM_ROUNDS):
        rc = 0
        for j in range(7):
            rc |= stream[j + 7 * i] << ((1 << j) - 1)
        constants.append(rc)
    return tuple(constants)


RHO_OFFSETS = _compute_rho_offsets()
ROUND_CONSTANTS = _compute_round_constants()


class StateArray:
    """Immutable 1600-bit Keccak state."""

    __slots__ = ("lanes",)

    def __init__(self, lanes: tuple[int, ...]):
        if len(lanes) != 25 or any(l >> 64 for l in lanes):
            raise ValueError("state is 25 lanes of 64 bits")
        object.__setattr__(self, "lanes", tuple(lanes))

    def __setattr__(self, name, value):
        raise AttributeError("StateArray is immutable")

    @classmethod
    def zeros(cls) -> "StateArray":
        return cls((0,) * 25)

    @classmethod
    def from_bytes(cls, b: bytes) -> "StateArray":
        if len(b) != 200:
            raise ValueError("state string is 200 bytes")
        return cls(tuple(int.from_bytes(b[8 * i:8 * i + 8], "little")
                         for i in range(25)))

    def to_bytes(self) -> bytes:
        return b"".join(l.to_bytes(8, "little") for l in self.lanes)

    def with_flips(self, indices) -> "StateArray":
        """Return a copy with the given linear bit positions flipped."""
        lanes = list(self.lanes)
        for i in indices:
            if not 0 <= i < 1600:
                raise ValueError(f"bit index {i} out of range")
            lanes[i // 64] ^= 1 << (i % 64)
        return StateArray(tuple(lanes))

    def __eq__(self, other):
        return isinstance(other, StateArray) and self.lanes == other.lanes

    def __hash__(self):
        return hash(self.lanes)

    def __repr__(self):
        return f"StateArray({self.to_bytes().hex()})"


def _columns(lanes) -> list[int]:
    """The five 64-bit column-sum lanes: bit z of entry x is C[x][z]."""
    return [lanes[x] ^ lanes[x + 5] ^ lanes[x + 10] ^ lanes[x + 15] ^ lanes[x + 20]
            for x in range(5)]


def column_sums(state: StateArray) -> int:
    """The C plane: bit 64*x + z is the parity of column (x, z)."""
    return sum(c << 64 * x for x, c in enumerate(_columns(state.lanes)))


def lane_sums(state: StateArray) -> int:
    """The F slice: bit x + 5*y is the parity of lane (x, y)."""
    return sum((lane.bit_count() & 1) << i for i, lane in enumerate(state.lanes))


def theta(state: StateArray) -> StateArray:
    """Theta layer: D[x][z] = C[x-1][z] xor C[x+1][z-1], z index mod 64."""
    l = state.lanes
    c = _columns(l)
    d = [c[(x - 1) % 5] ^ _rotl64(c[(x + 1) % 5], 1) for x in range(5)]
    return StateArray(tuple(l[i] ^ d[i % 5] for i in range(25)))


def rho_pi(state: StateArray) -> StateArray:
    """Combined lane rotation and lane permutation: (x, y) -> (y, 2x+3y)."""
    l = state.lanes
    out = [0] * 25
    for x in range(5):
        for y in range(5):
            src = x + 5 * y
            out[y + 5 * ((2 * x + 3 * y) % 5)] = _rotl64(l[src], RHO_OFFSETS[src])
    return StateArray(tuple(out))


def chi(state: StateArray) -> StateArray:
    """Row-wise nonlinear layer: a[x] ^= ~a[x+1] & a[x+2]."""
    l = state.lanes
    out = []
    for y in range(0, 25, 5):
        row = l[y:y + 5]
        out.extend(row[x] ^ (~row[(x + 1) % 5] & row[(x + 2) % 5]) & MASK64
                   for x in range(5))
    return StateArray(tuple(out))


def iota(state: StateArray, round_index: int) -> StateArray:
    if not 0 <= round_index < NUM_ROUNDS:
        raise ValueError(f"round index {round_index} out of range")
    lanes = list(state.lanes)
    lanes[0] ^= ROUND_CONSTANTS[round_index]
    return StateArray(tuple(lanes))


def round_step(state: StateArray, round_index: int) -> StateArray:
    """One full round."""
    return iota(chi(rho_pi(theta(state))), round_index)


def permute(state: StateArray) -> StateArray:
    for i in range(NUM_ROUNDS):
        state = round_step(state, i)
    return state
