"""Reference SHA-3/SHAKE oracle, transcribed directly from FIPS 202.

This module is the independent check for the package under test.  It is
deliberately naive: the state is a dict keyed by (x, y), rho and pi are
separate passes, the rho offsets come from the (t+1)(t+2)/2 walk, and the
round constants come from the rc(t) LFSR of Algorithm 5.  Nothing here is
shared with src/ and nothing is optimised, except that each round
constant is computed by Algorithm 5 once and then remembered.

Conventions (FIPS 202 section 3.1.2): lane (x, y) occupies bytes
8*(5y+x) .. 8*(5y+x)+7 of the 200-byte state string, little-endian, so
bit (x, y, z) has linear index 64*(5y+x) + z.
"""

from functools import lru_cache

MASK64 = (1 << 64) - 1


def bit_coords(i):
    """(x, y, z) of linear state bit i."""
    lane, z = divmod(i, 64)
    y, x = divmod(lane, 5)
    return x, y, z


def linear_index(x, y, z):
    """Linear index of state bit (x, y, z)."""
    return 64 * (5 * y + x) + z


def lane_bit(lanes, x, y, z):
    """Bit (x, y, z) of a state given as 25 lanes indexed 5y + x."""
    return (lanes[5 * y + x] >> z) & 1


def _rotl(lane, n):
    n %= 64
    return ((lane << n) | (lane >> (64 - n))) & MASK64


def state_from_bytes(b):
    assert len(b) == 200
    return {
        (x, y): int.from_bytes(b[8 * (5 * y + x):8 * (5 * y + x) + 8], "little")
        for x in range(5)
        for y in range(5)
    }


def state_to_bytes(a):
    out = bytearray(200)
    for x in range(5):
        for y in range(5):
            out[8 * (5 * y + x):8 * (5 * y + x) + 8] = a[(x, y)].to_bytes(8, "little")
    return bytes(out)


def theta(a):
    c = {x: a[(x, 0)] ^ a[(x, 1)] ^ a[(x, 2)] ^ a[(x, 3)] ^ a[(x, 4)] for x in range(5)}
    d = {x: c[(x - 1) % 5] ^ _rotl(c[(x + 1) % 5], 1) for x in range(5)}
    return {(x, y): a[(x, y)] ^ d[x] for x in range(5) for y in range(5)}


def rho(a):
    out = {(0, 0): a[(0, 0)]}
    x, y = 1, 0
    for t in range(24):
        out[(x, y)] = _rotl(a[(x, y)], (t + 1) * (t + 2) // 2)
        x, y = y, (2 * x + 3 * y) % 5
    return out


def pi(a):
    return {(x, y): a[((x + 3 * y) % 5, x)] for x in range(5) for y in range(5)}


def chi(a):
    return {
        (x, y): a[(x, y)] ^ (~a[((x + 1) % 5, y)] & a[((x + 2) % 5, y)]) & MASK64
        for x in range(5)
        for y in range(5)
    }


def _rc_bit(t):
    # Algorithm 5: linear feedback shift register over GF(2).
    if t % 255 == 0:
        return 1
    r = 0x80  # represents the bit string 10000000, r[0] on the left
    for _ in range(t % 255):
        b = r & 1
        r >>= 1
        if b:
            r ^= 0x8E  # taps into positions 0, 4, 5, 6 after the shift
    return (r >> 7) & 1


@lru_cache(maxsize=None)
def round_constant(ir):
    rc = 0
    for j in range(7):
        rc |= _rc_bit(j + 7 * ir) << ((1 << j) - 1)
    return rc


def iota(a, ir):
    out = dict(a)
    out[(0, 0)] ^= round_constant(ir)
    return out


def keccak_round(a, ir):
    return iota(chi(pi(rho(theta(a)))), ir)


def keccak_f1600(b, flip_round=None, flip_bits=()):
    """Keccak-f[1600] on a 200-byte state.  Before round ``flip_round`` the
    bits ``flip_bits`` (linear indices 64*(5y+x) + z) are flipped."""
    a = state_from_bytes(b)
    for ir in range(24):
        if ir == flip_round:
            for i in flip_bits:
                a[(i // 64 % 5, i // 320)] ^= 1 << i % 64
        a = keccak_round(a, ir)
    return state_to_bytes(a)


def pad10x1_with_suffix(suffix_bits, n_suffix, rate_bytes, msg_len):
    """Suffix bits then pad10*1, merged into whole bytes (LSB-first bit order).

    Returns the byte string that must be absorbed after the message.
    """
    n_pad = rate_bytes - (msg_len % rate_bytes)
    pad = bytearray(n_pad)
    pad[0] = (suffix_bits | (1 << n_suffix)) & 0xFF
    pad[-1] |= 0x80
    return bytes(pad)


def sponge(rate_bytes, msg, suffix_bits, n_suffix, out_len, fault=None):
    """The sponge over the padded message.  ``fault`` = (p, r, bits) flips
    the state bits ``bits`` before round r of permutation p, counting the
    absorb permutations from 0 and then the squeeze ones."""
    p_fault, r_fault, bits = fault if fault is not None else (None, None, ())
    perms = 0

    def f(state):
        nonlocal perms
        perms += 1
        return keccak_f1600(state, r_fault if perms - 1 == p_fault else None, bits)

    state = bytes(200)
    padded = msg + pad10x1_with_suffix(suffix_bits, n_suffix, rate_bytes, len(msg))
    for i in range(0, len(padded), rate_bytes):
        block = padded[i:i + rate_bytes]
        state = bytes(s ^ m for s, m in zip(state, block.ljust(200, b"\x00")))
        state = f(state)
    out = b""
    while len(out) < out_len:
        out += state[:rate_bytes]
        if len(out) < out_len:
            state = f(state)
    return out[:out_len]


# digest length (bytes) and rate (bytes) per mode
_SHA3 = {"sha3-224": (28, 144), "sha3-256": (32, 136),
         "sha3-384": (48, 104), "sha3-512": (64, 72)}
_SHAKE = {"shake128": 168, "shake256": 136}


def oracle_digest(mode, msg, out_len=None, fault=None):
    """Hash msg under the named mode; out_len (bytes) is required for SHAKE.
    ``fault`` is passed to ``sponge``."""
    if mode in _SHA3:
        d, rate = _SHA3[mode]
        if out_len is not None and out_len != d:
            raise ValueError("fixed-length mode")
        return sponge(rate, msg, 0b10, 2, d, fault)
    rate = _SHAKE[mode]
    return sponge(rate, msg, 0b1111, 4, out_len, fault)
