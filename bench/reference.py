"""References the benchmark checks crossparity against; none calls the package.

Digests come from ``hashlib``.  Faulted digests come from a plain
Keccak-f[1600] sponge written here from the FIPS 202 tables, which flips
the given state bits before a chosen round of a chosen permutation.  Cycle
counts, escape verdicts and census counts are closed forms.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from math import comb

RATE = {"sha3-224": 144, "sha3-256": 136, "sha3-384": 104, "sha3-512": 72,
        "shake128": 168, "shake256": 136}
DIGEST = {"sha3-224": 28, "sha3-256": 32, "sha3-384": 48, "sha3-512": 64}
SHIFT_BYTES = 168
ROUNDS = 24
MASK = (1 << 64) - 1

# FIPS 202 round constants and rho offsets (lane x + 5y)
RC = (0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
      0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
      0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
      0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
      0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
      0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008)
ROT = (0, 1, 62, 28, 27, 36, 44, 6, 55, 20, 3, 10, 43, 25, 39,
       41, 45, 15, 21, 8, 18, 2, 61, 56, 14)
# rho-pi: lane (x, y) moves to (y, 2x + 3y)
PI = tuple(y + 5 * ((2 * x + 3 * y) % 5) for y in range(5) for x in range(5))


def is_shake(mode: str) -> bool:
    return mode.startswith("shake")


def reference_digest(mode: str, msg: bytes, out_len: int) -> bytes:
    h = hashlib.new(mode.replace("-", "_"), msg)
    return h.digest(out_len) if is_shake(mode) else h.digest()


def permutations_run(mode: str, msg_len: int, out_len: int) -> tuple[int, int]:
    """(absorbed blocks including the pad block, squeeze refreshes)."""
    rate = RATE[mode]
    return msg_len // rate + 1, -(-out_len // rate) - 1


def expected_cycles(mode: str, msg_len: int, out_len: int, unroll: int) -> int:
    """Shift schedule: 168 + 24/unroll per block, 1 per squeezed byte,
    (168 - rate) + 24/unroll per refresh."""
    perm = ROUNDS // unroll
    blocks, refreshes = permutations_run(mode, msg_len, out_len)
    return (blocks * (SHIFT_BYTES + perm) + out_len
            + refreshes * (SHIFT_BYTES - RATE[mode] + perm))


def _rounds(a: list, first: int, last: int) -> None:
    for r in range(first, last):
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20] for x in range(5)]
        d = [c[(x - 1) % 5] ^ (((c[(x + 1) % 5] << 1) | (c[(x + 1) % 5] >> 63)) & MASK)
             for x in range(5)]
        b = [0] * 25
        for i in range(25):
            v, n = a[i] ^ d[i % 5], ROT[i]
            b[PI[i]] = ((v << n) | (v >> (64 - n))) & MASK if n else v
        for y in range(0, 25, 5):
            row = b[y:y + 5]
            for x in range(5):
                a[y + x] = row[x] ^ (~row[(x + 1) % 5] & row[(x + 2) % 5])
        a[0] ^= RC[r]


def reference_permutation() -> None:
    """One Keccak-f[1600] of this sponge on a fixed state: pure-Python
    integer work of the kind the package does, which ``run.py`` times to
    measure the host's speed for such code."""
    _rounds(list(range(25)), 0, ROUNDS)


def faulted_digest(mode: str, msg: bytes, out_len: int, flips=(),
                   permutation: int = -1, before_round: int = 0) -> bytes:
    """Sponge output with ``flips`` (linear state bits 64*(x+5y)+z) applied
    before round ``before_round`` of the ``permutation``-th permutation."""
    rate = RATE[mode]
    pad = bytearray(rate - len(msg) % rate)
    pad[0] = 0x1F if is_shake(mode) else 0x06
    pad[-1] |= 0x80
    data = msg + bytes(pad)
    a = [0] * 25
    count = 0

    def permute():
        nonlocal count
        if count == permutation:
            _rounds(a, 0, before_round)
            for bit in flips:
                a[bit // 64] ^= 1 << (bit % 64)
            _rounds(a, before_round, ROUNDS)
        else:
            _rounds(a, 0, ROUNDS)
        count += 1

    for off in range(0, len(data), rate):
        block = data[off:off + rate]
        for i in range(rate // 8):
            a[i] ^= int.from_bytes(block[8 * i:8 * i + 8], "little")
        permute()
    out = bytearray()
    while True:
        out += b"".join(lane.to_bytes(8, "little") for lane in a)[:rate]
        if len(out) >= out_len:
            return bytes(out[:out_len])
        permute()


def outcome(error: bool, corrupted: bool) -> str:
    if error:
        return "detected" if corrupted else "spurious-error"
    return "silent-corruption" if corrupted else "benign"


def escapes(bits, scheme: str) -> bool:
    """True if the state flips leave every column (x, z) even, and for
    z-sheet every lane (x, y) too: the closed form the checkers implement."""
    columns: Counter = Counter()
    lanes: Counter = Counter()
    for b in bits:
        lane, z = divmod(b, 64)
        columns[(lane % 5, z)] += 1
        lanes[lane] += 1
    even = all(n % 2 == 0 for n in columns.values())
    if scheme == "z-sheet":
        even = even and all(n % 2 == 0 for n in lanes.values())
    return even


def census_reference(k: int, scheme: str) -> int:
    """Weight-k state flip sets a scheme cannot see, counted by hand.

    c-plane: columns are independent 5-cell groups, each holding 0, 2 or 4
    flips.  z-sheet: an escaping set splits into escaping sets of single
    sheets; inside a sheet weight 4 is a lane-pair x column-pair rectangle
    and weight 6 a triangle of three lanes over three columns.
    """
    if k % 2:
        return 0
    if scheme == "c-plane":
        return {2: 320 * 10,
                4: 320 * 5 + comb(320, 2) * 10 * 10,
                6: comb(320, 3) * 10 ** 3 + 320 * 319 * 5 * 10}[k]
    return {2: 0,
            4: 5 * comb(5, 2) * comb(64, 2),
            6: 5 * comb(5, 3) * comb(64, 3) * 6}[k]


def witnesses_escape(witnesses, scheme: str) -> bool:
    for w in witnesses:
        regs = {reg for reg, _ in w}
        if regs != {"state"} or not escapes([bit for _, bit in w], scheme):
            return False
    return True


def remask_signature(digest: bytes, golden: bytes, rate: int) -> bool:
    """The known squeeze defect: the sticky flag re-masks the output at a
    refresh, so the digest matches up to a rate-block boundary and is zero
    from there on."""
    return any(digest[:b] == golden[:b] and not any(digest[b:])
               for b in range(rate, len(digest), rate))
