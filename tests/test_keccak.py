"""Unit tests for the permutation step functions.

Every step is checked differentially against a separately written FIPS 202
transcription (oracle_fips202) that shares no code with the package, plus
snapshot tests against the published rotation-offset and round-constant
tables.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_fips202 as oracle
from crossparity.keccak import (
    NUM_ROUNDS,
    RHO_OFFSETS,
    ROUND_CONSTANTS,
    StateArray,
    chi,
    column_lanes,
    column_sums,
    iota,
    lane_sums,
    permute,
    rho_pi,
    round_step,
    theta,
)

# Published rho offsets, keyed by (x, y).  FIPS 202 Table 2 modulo 64.
PUBLISHED_RHO = {
    (0, 0): 0, (1, 0): 1, (2, 0): 62, (3, 0): 28, (4, 0): 27,
    (0, 1): 36, (1, 1): 44, (2, 1): 6, (3, 1): 55, (4, 1): 20,
    (0, 2): 3, (1, 2): 10, (2, 2): 43, (3, 2): 25, (4, 2): 39,
    (0, 3): 41, (1, 3): 45, (2, 3): 15, (3, 3): 21, (4, 3): 8,
    (0, 4): 18, (1, 4): 2, (2, 4): 61, (3, 4): 56, (4, 4): 14,
}

# Published round constants for the 24 rounds of Keccak-f[1600].
PUBLISHED_RC = [
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
]

state_bytes_strategy = st.binary(min_size=200, max_size=200)


def random_state(seed):
    rng = random.Random(seed)
    return StateArray.from_bytes(bytes(rng.randrange(256) for _ in range(200)))


def oracle_state(sa: StateArray):
    return oracle.state_from_bytes(sa.to_bytes())


def from_oracle(a) -> StateArray:
    return StateArray.from_bytes(oracle.state_to_bytes(a))


def column(sa: StateArray):
    """The state as the (25, 1) column ``round_step`` runs on."""
    return np.array(sa.lanes, np.uint64)[:, None]


def from_column(a) -> StateArray:
    return StateArray(tuple(a[:, 0].tolist()))


# ----------------------------------------------------------------------
# constants

def test_rho_offsets_match_published_table():
    for (x, y), off in PUBLISHED_RHO.items():
        assert RHO_OFFSETS[5 * y + x] == off


def test_round_constants_match_published_table():
    assert list(ROUND_CONSTANTS) == PUBLISHED_RC
    assert len(ROUND_CONSTANTS) == NUM_ROUNDS == 24


# ----------------------------------------------------------------------
# state container and bit indexing

@given(state_bytes_strategy)
def test_state_bytes_round_trip(raw):
    assert StateArray.from_bytes(raw).to_bytes() == raw


def test_linear_index_is_a_bijection():
    seen = set()
    for x in range(5):
        for y in range(5):
            for z in range(64):
                i = oracle.linear_index(x, y, z)
                assert i == 64 * (5 * y + x) + z
                assert oracle.bit_coords(i) == (x, y, z)
                # the library flips bit z of lane x + 5y for index i
                lanes = StateArray.zeros().with_flips([i]).lanes
                assert lanes == tuple(1 << z if l == x + 5 * y else 0 for l in range(25))
                seen.add(i)
    assert seen == set(range(1600))


def test_bit_to_byte_mapping():
    # Lane (x, y) occupies bytes 8*(5y+x) .. +7, little-endian.
    raw = bytearray(200)
    raw[8 * (5 * 3 + 2)] = 0x01
    sa = StateArray.from_bytes(bytes(raw))
    assert sa.lanes[5 * 3 + 2] == 1
    assert oracle.lane_bit(sa.lanes, 2, 3, 0) == 1
    assert sum(sa.lanes) == 1


def test_named_bit_position():
    sa = StateArray.zeros().with_flips([oracle.linear_index(2, 3, 17)])
    assert oracle.lane_bit(sa.lanes, 2, 3, 17) == 1
    assert oracle.linear_index(2, 3, 17) == 1105


@given(state_bytes_strategy, st.sets(st.integers(0, 1599), min_size=1, max_size=20))
def test_with_flips_is_an_involution(raw, idxs):
    sa = StateArray.from_bytes(raw)
    assert sa.with_flips(idxs).with_flips(idxs) == sa
    assert sa.with_flips(idxs) != sa


def test_state_equality_and_hash():
    a = random_state(7)
    b = StateArray.from_bytes(a.to_bytes())
    assert a == b and hash(a) == hash(b)
    assert a != a.with_flips([3])


# ----------------------------------------------------------------------
# parity taps

def test_column_sums_single_bit():
    # Column (x, z) is bit 64*x + z of the C plane.
    sa = StateArray.zeros().with_flips([oracle.linear_index(2, 3, 17)])
    assert column_sums(sa) == 1 << (64 * 2 + 17)


def test_column_sums_three_in_one_column():
    idx = [oracle.linear_index(1, y, 40) for y in (0, 2, 4)]
    assert column_sums(StateArray.zeros().with_flips(idx)) == 1 << (64 * 1 + 40)


def test_lane_sums_examples():
    # Lane (x, y) is bit x + 5*y of the F slice.
    sa = StateArray.zeros().with_flips([oracle.linear_index(4, 4, 63)])
    assert lane_sums(sa) == 1 << (4 + 5 * 4)

    # Eight set bits in one lane: even parity.
    raw = bytearray(200)
    raw[8 * (5 * 1 + 0)] = 0xFF
    assert lane_sums(StateArray.from_bytes(bytes(raw))) == 0


def test_all_ones_state_parities():
    sa = StateArray.from_bytes(b"\xff" * 200)
    assert column_sums(sa) == (1 << 320) - 1
    assert lane_sums(sa) == 0


@given(state_bytes_strategy)
def test_parity_taps_match_brute_force(raw):
    sa = StateArray.from_bytes(raw)
    c = column_sums(sa)
    f = lane_sums(sa)
    assert (column_sums(column(sa)), lane_sums(column(sa))) == (c, f)
    rng = random.Random(len(raw))
    for _ in range(25):
        x, z = rng.randrange(5), rng.randrange(64)
        want = 0
        for y in range(5):
            want ^= oracle.lane_bit(sa.lanes, x, y, z)
        assert c >> (64 * x + z) & 1 == want
    for x in range(5):
        for y in range(5):
            assert f >> (x + 5 * y) & 1 == bin(sa.lanes[5 * y + x]).count("1") % 2


# ----------------------------------------------------------------------
# theta

@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_theta_matches_oracle(seed):
    sa = random_state(seed)
    assert theta(sa) == from_oracle(oracle.theta(oracle_state(sa)))


def test_theta_single_bit_taps():
    sa = StateArray.zeros().with_flips([oracle.linear_index(2, 3, 17)])
    out = theta(sa)
    assert column_sums(sa) == 1 << (64 * 2 + 17)
    # D[3] picks up C[2] at z=17; D[1] picks up rotl(C[2], 1) at z=18.
    for y in range(5):
        assert oracle.lane_bit(out.lanes, 3, y, 17) == 1
        assert oracle.lane_bit(out.lanes, 1, y, 18) == 1
    assert oracle.lane_bit(out.lanes, 2, 3, 17) == 1


def test_theta_is_identity_when_columns_are_even():
    # Any state whose every column has even parity is a fixed point.
    rng = random.Random(99)
    idx = []
    for _ in range(30):
        x, z = rng.randrange(5), rng.randrange(64)
        y1, y2 = rng.sample(range(5), 2)
        idx.append(oracle.linear_index(x, y1, z))
        idx.append(oracle.linear_index(x, y2, z))
    # Duplicate picks cancel; reduce to the odd-multiplicity set.
    odd = {i for i in idx if idx.count(i) % 2 == 1}
    sa = StateArray.zeros().with_flips(odd)
    assert column_sums(sa) == 0
    assert theta(sa) == sa


def test_theta_all_ones_fixed_point():
    sa = StateArray.from_bytes(b"\xff" * 200)
    assert theta(sa) == sa


# ----------------------------------------------------------------------
# rho and pi

@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_rho_pi_matches_oracle(seed):
    sa = random_state(seed)
    assert rho_pi(sa) == from_oracle(oracle.pi(oracle.rho(oracle_state(sa))))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_rho_pi_preserves_popcount(seed):
    sa = random_state(seed)
    before = sum(bin(v).count("1") for v in sa.lanes)
    after = sum(bin(v).count("1") for v in rho_pi(sa).lanes)
    assert before == after


def test_rho_pi_origin_lane_unrotated_unmoved():
    raw = bytearray(200)
    raw[0] = 0xB7
    sa = StateArray.from_bytes(bytes(raw))
    out = rho_pi(sa)
    assert out.lanes[0] == 0xB7


def test_pi_destination_example():
    # Lane (1, 0) rotates by 1 and lands at (0, 2) under (x,y) -> (y, 2x+3y).
    raw = bytearray(200)
    raw[8 * 1] = 0x01
    out = rho_pi(StateArray.from_bytes(bytes(raw)))
    assert out.lanes[5 * 2 + 0] == 2
    assert sum(out.lanes) == 2


# ----------------------------------------------------------------------
# chi

@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_chi_matches_oracle(seed):
    sa = random_state(seed)
    assert chi(sa) == from_oracle(oracle.chi(oracle_state(sa)))


def chi_row_reference(bits):
    return tuple(bits[x] ^ ((bits[(x + 1) % 5] ^ 1) & bits[(x + 2) % 5])
                 for x in range(5))


def test_chi_all_32_rows():
    # Exhaustive check of the row substitution at (y, z) = (0, 0), compared
    # bit by bit against the row formula and the oracle.
    table = {}
    for m in range(32):
        bits = tuple((m >> x) & 1 for x in range(5))
        idx = [oracle.linear_index(x, 0, 0) for x in range(5) if bits[x]]
        sa = StateArray.zeros().with_flips(idx)
        out = chi(sa)
        got = tuple(oracle.lane_bit(out.lanes, x, 0, 0) for x in range(5))
        assert got == chi_row_reference(bits)
        assert out == from_oracle(oracle.chi(oracle_state(sa)))
        key = "".join(map(str, bits))
        table[key] = "".join(map(str, got))
    assert table["00000"] == "00000"
    assert table["10000"] == "10010"
    assert table["11111"] == "11111"


def test_chi_is_row_local():
    # Bits outside row (0, 0) stay untouched when only that row is set.
    sa = StateArray.zeros().with_flips([oracle.linear_index(0, 0, 0)])
    out = chi(sa)
    for y in range(5):
        for z in range(64):
            if (y, z) == (0, 0):
                continue
            for x in range(5):
                assert oracle.lane_bit(out.lanes, x, y, z) == 0


# ----------------------------------------------------------------------
# iota

def test_iota_only_touches_origin_lane():
    sa = random_state(3)
    for rnd in (0, 11, 23):
        out = iota(sa, rnd)
        assert out.lanes[0] == sa.lanes[0] ^ PUBLISHED_RC[rnd]
        assert out.lanes[1:] == sa.lanes[1:]


def test_iota_round_zero_flips_bit_zero():
    out = iota(StateArray.zeros(), 0)
    assert oracle.lane_bit(out.lanes, 0, 0, 0) == 1
    assert sum(out.lanes) == 1


def test_iota_rejects_bad_round():
    # numpy would read round -1 as the last constant, so the kernel checks
    zeros = StateArray.zeros()
    for rnd in (-1, NUM_ROUNDS):
        for step in (lambda: iota(zeros, rnd), lambda: round_step(column(zeros), rnd),
                     lambda: round_step(np.zeros((25, 3), np.uint64), rnd)):
            with pytest.raises(ValueError, match=f"round index {rnd} out of range"):
                step()


# ----------------------------------------------------------------------
# full rounds and the permutation

@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_round_step_matches_oracle_round(seed):
    sa = random_state(seed)
    for rnd in (0, 7, 23):
        got = from_column(round_step(column(sa), rnd))
        assert got == from_oracle(oracle.keccak_round(oracle_state(sa), rnd))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_permute_matches_chained_rounds_and_oracle(seed):
    sa = random_state(seed)
    cur = column(sa)
    for rnd in range(NUM_ROUNDS):
        cur = round_step(cur, rnd)
    out = permute(sa)
    assert out == from_column(cur)
    assert out.to_bytes() == oracle.keccak_f1600(sa.to_bytes())


def test_round_step_matches_oracle_per_column():
    # Each column of a batch is its own state: it must match the oracle's
    # round and the same state run as a batch of one column.
    rng = random.Random(31)
    states = [StateArray.zeros(), StateArray((oracle.MASK64,) * 25),
              StateArray.zeros().with_flips([rng.randrange(1600)])]
    states += [StateArray(tuple(rng.getrandbits(64) for _ in range(25))) for _ in range(8)]
    batch = np.array([s.lanes for s in states], dtype=np.uint64).T
    before = batch.copy()
    for rnd in range(NUM_ROUNDS):
        got = round_step(batch, rnd)
        assert got.shape == batch.shape
        for col, sa in enumerate(states):
            want = from_oracle(oracle.keccak_round(oracle_state(sa), rnd))
            assert from_column(got[:, col:col + 1]) == want, (rnd, col)
            assert np.array_equal(round_step(batch[:, col:col + 1], rnd)[:, 0], got[:, col])
    assert np.array_equal(batch, before)


@pytest.mark.parametrize("n", [1, 40, 1024])
def test_round_step_on_given_column_lanes_matches_oracle(n):
    # The engine hands a window's first theta the column-sum lanes its
    # prime computed; the round must be the one that computes them itself.
    # The batch is read-only, so neither path may write into its input.
    rng = random.Random(f"lanes/{n}")
    a = np.frombuffer(rng.randbytes(200 * n), "<u8").reshape(n, 25).T
    for rnd in (0, 7, 23):
        got = round_step(a, rnd, column_lanes(a))
        assert np.array_equal(got, round_step(a, rnd)), rnd
        for col in range(n):
            sa = StateArray(tuple(a[:, col].tolist()))
            want = from_oracle(oracle.keccak_round(oracle_state(sa), rnd))
            assert from_column(got[:, col:col + 1]) == want, (rnd, col)


def test_permutation_of_zero_state_known_lanes():
    # First two lanes of Keccak-f[1600] applied to the all-zero state,
    # as published with the reference implementation's test vectors.
    out = permute(StateArray.zeros())
    assert out.lanes[0] == 0xF1258F7940E1DDE7
    assert out.lanes[5 * 0 + 1] == 0x84D5CCF933C0478A
