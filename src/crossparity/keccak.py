"""Keccak-f[1600] round function with column- and lane-parity tap points.

The state is 5x5 lanes of 64 bits.  Lane (x, y) sits at index x + 5*y of
the lane tuple and occupies bytes 8*(5y+x) .. 8*(5y+x)+7 of the 200-byte
state string (little-endian within the lane), so bit (x, y, z) has linear
index 64*(5y+x) + z.  All external bit positions (fault targets, test
vectors) use that linear index.

The round is written once, on a (25, N) ``uint64`` array of N states, one
per column, lane x + 5*y in row x + 5*y: ``round_rows`` composes
``theta_rows``, ``rho_pi_rows``, ``chi_rows`` and ``iota_rows``.  The engine
runs it on one column and the batched fault trials on many.  ``theta``,
``rho_pi``, ``chi``, ``iota``, ``round_step`` and ``permute`` run it on a
``StateArray`` as one column and return a ``StateArray``.

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

import struct
from functools import reduce

import numpy as np

NUM_ROUNDS = 24


def _compute_round_constants() -> tuple[int, ...]:
    # One pass of the degree-8 LFSR x^8 + x^6 + x^5 + x^4 + 1; bit t of the
    # output stream feeds bit 2^j - 1 of round constant i, t = j + 7i.
    stream, reg = [], 1
    for _ in range(7 * NUM_ROUNDS):
        stream.append(reg & 1)
        reg = reg << 1 ^ (0x171 if reg & 0x80 else 0)
    return tuple(sum(stream[j + 7 * i] << (1 << j) - 1 for j in range(7))
                 for i in range(NUM_ROUNDS))


ROUND_CONSTANTS = _compute_round_constants()
_LANES = struct.Struct("<25Q")       # the state string as 25 little-endian lanes


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
        return cls(_LANES.unpack(b))

    def to_bytes(self) -> bytes:
        return _LANES.pack(*self.lanes)

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


# ----------------------------------------------------------------------
# the round, on a (25, N) uint64 array of N states, one per column

def _rho_pi_tables():
    """Rho's rotation of each lane, and rho-pi's source of each output lane.

    Pi moves lane (x, y) to (y, 2x+3y).  Walked from (1, 0), that map visits
    the other 24 lanes, and rho rotates the t-th by (t+1)(t+2)/2 mod 64.
    """
    offsets, src = [0] * 25, [0] * 25
    x, y = 1, 0
    for t in range(24):
        offsets[x + 5 * y] = (t + 1) * (t + 2) // 2 % 64
        src[y + 5 * ((2 * x + 3 * y) % 5)] = x + 5 * y
        x, y = y, (2 * x + 3 * y) % 5
    return tuple(offsets), np.array(src)


RHO_OFFSETS, _PI_SRC = _rho_pi_tables()
_PI_LEFT = np.array(RHO_OFFSETS, dtype=np.uint64)[_PI_SRC, None]
_PI_RIGHT = (64 - _PI_LEFT) % 64
_NEXT = np.array([1, 2, 3, 4, 0])          # x + 1
_PREV = np.array([4, 0, 1, 2, 3])          # x - 1
_NEXT2 = np.array([2, 3, 4, 0, 1])         # x + 2
_RC = np.array(ROUND_CONSTANTS, dtype=np.uint64)


def _columns(a):
    """The (5, N) column-sum lanes: bit z of entry x is C[x][z]."""
    return np.bitwise_xor.reduce(a.reshape(5, 5, -1), axis=0)


def theta_rows(a):
    """Theta layer: D[x][z] = C[x-1][z] xor C[x+1][z-1], z index mod 64."""
    c = _columns(a)
    c_next = c.take(_NEXT, 0)
    d = c.take(_PREV, 0) ^ (c_next << 1 | c_next >> 63)
    return (a.reshape(5, 5, -1) ^ d).reshape(25, -1)


def rho_pi_rows(a):
    """Combined lane rotation and lane permutation: (x, y) -> (y, 2x+3y)."""
    b = a.take(_PI_SRC, 0)
    return b << _PI_LEFT | b >> _PI_RIGHT


def chi_rows(a):
    """Row-wise nonlinear layer: a[x] ^= ~a[x+1] & a[x+2]."""
    b = a.reshape(5, 5, -1)
    return (b ^ ~b.take(_NEXT, 1) & b.take(_NEXT2, 1)).reshape(25, -1)


def iota_rows(a, round_index: int):
    """XOR round constant ``round_index`` into lane 0 of every column."""
    if not 0 <= round_index < NUM_ROUNDS:
        raise ValueError(f"round index {round_index} out of range")
    out = a.copy()
    out[0] ^= _RC[round_index]
    return out


def round_rows(a, round_index: int):
    """One full round on every column."""
    return iota_rows(chi_rows(rho_pi_rows(theta_rows(a))), round_index)


# ----------------------------------------------------------------------
# the same steps on one StateArray, as a batch of one column

def _one_column(step, state: StateArray, *args) -> StateArray:
    a = step(np.array(state.lanes, np.uint64)[:, None], *args)
    return StateArray(tuple(a[:, 0].tolist()))


def column_sums(state: StateArray) -> int:
    """The C plane: bit 64*x + z is the parity of column (x, z)."""
    c = _columns(np.array(state.lanes, np.uint64))
    return int.from_bytes(c.astype("<u8").tobytes(), "little")


def lane_sums(state: StateArray) -> int:
    """The F slice: bit x + 5*y is the parity of lane (x, y)."""
    return sum((lane.bit_count() & 1) << i for i, lane in enumerate(state.lanes))


def theta(state: StateArray) -> StateArray:
    return _one_column(theta_rows, state)


def rho_pi(state: StateArray) -> StateArray:
    return _one_column(rho_pi_rows, state)


def chi(state: StateArray) -> StateArray:
    return _one_column(chi_rows, state)


def iota(state: StateArray, round_index: int) -> StateArray:
    return _one_column(iota_rows, state, round_index)


def round_step(state: StateArray, round_index: int) -> StateArray:
    return _one_column(round_rows, state, round_index)


def permute(state: StateArray) -> StateArray:
    return _one_column(lambda a: reduce(round_rows, range(NUM_ROUNDS), a), state)
