"""Tests for the shadow parity registers and the detectability predicate.

The predicate (pure counting) and the register-level check (parity
arithmetic on real states) are exercised as two independent routes to the
same verdicts.
"""

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossparity.fd import (
    SCHEMES,
    SHADOW_WIDTHS,
    FdRegisters,
    detectability_predicate,
)
from crossparity.campaigns import _classes
from crossparity.engine import Engine
from crossparity.faults import FaultPattern, FaultTarget, InjectionSchedule, flip_hook
from crossparity.keccak import StateArray, column_sums, lane_sums
from oracle_fips202 import linear_index as idx


def random_state(seed):
    rng = random.Random(seed)
    return StateArray.from_bytes(bytes(rng.randrange(256) for _ in range(200)))


def taps(sa):
    return column_sums(sa), lane_sums(sa)


# ----------------------------------------------------------------------
# configuration

def test_scheme_validation():
    assert FdRegisters("z-sheet").scheme == "z-sheet"
    with pytest.raises(ValueError):
        FdRegisters("row-parity")
    assert SCHEMES == ("c-plane", "z-sheet")


def test_shadow_widths():
    assert SHADOW_WIDTHS == {"c_prime": 320, "f_prime": 25, "cf_prime": 5}


# ----------------------------------------------------------------------
# priming

def test_prime_snapshots_parities():
    sa = random_state(1)
    fd = FdRegisters("z-sheet")
    assert not fd.primed
    fd.prime(sa)
    assert fd.primed
    assert fd.c_prime == column_sums(sa)
    assert fd.f_prime == lane_sums(sa)


def test_prime_single_bit_state():
    sa = StateArray.zeros().with_flips([idx(1, 2, 9)])
    fd = FdRegisters("z-sheet")
    fd.prime(sa)
    assert fd.c_prime == 1 << (64 * 1 + 9)
    assert fd.f_prime == 1 << (1 + 5 * 2)
    assert fd.cf_prime == 1 << 1


def test_one_parity_format():
    # The taps, the shadows, the fault targets and the campaign classes share
    # one index: a state bit's column id is its C-plane bit and its c_prime
    # target, its lane id is its F-slice bit and its f_prime target.
    (col, _), (lane, _) = _classes("z-sheet", 1600)
    for p in range(1600):
        single = StateArray.zeros().with_flips([p])
        assert column_sums(single) == 1 << int(col[p])
        assert lane_sums(single) == 1 << int(lane[p])
        want = FdRegisters("z-sheet")
        want.prime(single)
        for register, bit in (("c_prime", col[p]), ("f_prime", lane[p])):
            got = FdRegisters("z-sheet")
            got.prime(StateArray.zeros())
            got.flip(register, int(bit))
            assert getattr(got, register) == getattr(want, register)


def test_cplane_prime_skips_lane_parity():
    sa = random_state(2)
    fd = FdRegisters("c-plane")
    fd.prime(sa)
    assert fd.f_prime == 0 and fd.cf_prime == 0


# ----------------------------------------------------------------------
# check

def test_check_requires_prime():
    fd = FdRegisters("z-sheet")
    c, f = taps(random_state(3))
    with pytest.raises(RuntimeError):
        fd.check(c, f)
    fd.prime(random_state(3))
    fd.invalidate()
    with pytest.raises(RuntimeError):
        fd.check(c, f)


def test_clean_check_passes():
    sa = random_state(4)
    for scheme in SCHEMES:
        fd = FdRegisters(scheme)
        fd.prime(sa)
        assert fd.check(*taps(sa)) is False
        assert fd.error is False


def test_every_single_flip_caught_at_check_level():
    sa = random_state(5)
    for scheme in SCHEMES:
        fd = FdRegisters(scheme)
        caught = 0
        for i in range(1600):
            fd.prime(sa)
            fd.error = False
            caught += fd.check(*taps(sa.with_flips([i])))
        assert caught == 1600


def test_same_column_pair_splits_the_schemes():
    sa = random_state(6)
    flips = [idx(3, 0, 20), idx(3, 4, 20)]
    cp = FdRegisters("c-plane")
    cp.prime(sa)
    assert cp.check(*taps(sa.with_flips(flips))) is False
    zs = FdRegisters("z-sheet")
    zs.prime(sa)
    assert zs.check(*taps(sa.with_flips(flips))) is True


def test_all_same_column_pairs_caught_by_z_sheet():
    sa = random_state(7)
    fd = FdRegisters("z-sheet")
    count = 0
    for x in range(5):
        for z in range(0, 64, 4):
            for y1, y2 in combinations(range(5), 2):
                fd.prime(sa)
                fd.error = False
                count += fd.check(*taps(sa.with_flips([idx(x, y1, z), idx(x, y2, z)])))
    assert count == 5 * 16 * 10


def test_rectangle_escapes_z_sheet_check():
    sa = random_state(8)
    flips = [idx(2, 1, 5), idx(2, 1, 9), idx(2, 3, 5), idx(2, 3, 9)]
    fd = FdRegisters("z-sheet")
    fd.prime(sa)
    assert fd.check(*taps(sa.with_flips(flips))) is False
    assert fd.error is False


def test_error_flag_is_sticky():
    sa = random_state(9)
    fd = FdRegisters("z-sheet")
    fd.prime(sa)
    assert fd.check(*taps(sa.with_flips([0]))) is True
    assert fd.error is True
    fd.prime(sa)
    assert fd.check(*taps(sa)) is False
    assert fd.error is True


# ----------------------------------------------------------------------
# the F' guard

def test_fprime_guard_under_c_plane_rejected():
    fd = FdRegisters("c-plane")
    fd.prime(random_state(10))
    with pytest.raises(RuntimeError):
        fd.check_fprime()


def test_fprime_guard_all_pairs():
    # Flip every pair of F' bits: pairs within one column of the 5x5
    # slice slip past the 5-bit guard, every other pair trips it.
    sa = random_state(11)
    undetected = []
    for b1, b2 in combinations(range(25), 2):
        fd = FdRegisters("z-sheet")
        fd.prime(sa)
        fd.flip("f_prime", b1)
        fd.flip("f_prime", b2)
        if fd.check_fprime():
            undetected.append((b1, b2))
    assert len(undetected) == 5 * 10  # C(5,2) row pairs in each of 5 columns
    assert all(b1 % 5 == b2 % 5 for b1, b2 in undetected)


def test_fprime_single_flip_always_trips_guard():
    sa = random_state(12)
    for b in range(25):
        fd = FdRegisters("z-sheet")
        fd.prime(sa)
        fd.flip("f_prime", b)
        assert fd.check_fprime() is False


def test_shadow_corruption_raises_spurious_error():
    # Any shadow flip makes the next check fire even though the state is
    # untouched; the guarded pair case is covered by the main compare.
    sa = random_state(13)
    for register, width in SHADOW_WIDTHS.items():
        fd = FdRegisters("z-sheet")
        fd.prime(sa)
        fd.flip(register, width // 2)
        assert fd.check(*taps(sa)) is True


def test_flip_validation():
    fd = FdRegisters("z-sheet")
    with pytest.raises(ValueError):
        fd.flip("state", 0)
    with pytest.raises(ValueError):
        fd.flip("c_prime", 320)
    with pytest.raises(ValueError):
        fd.flip("cf_prime", -1)


# ----------------------------------------------------------------------
# output masking

def test_error_flag_gates_output_until_reset(monkeypatch):
    # A c_prime flip at the pad permutation's first window raises the flag.
    # The checks after it pass, through two SHAKE refreshes, and the gate
    # stays shut; reset() opens it again.
    verdicts = []
    real_check = FdRegisters.check

    def check(self, c, f):
        verdicts.append(real_check(self, c, f))
        return verdicts[-1]

    monkeypatch.setattr(FdRegisters, "check", check)
    eng = Engine("shake128", fd="z-sheet")
    assert eng.masked is False
    eng.hook = flip_hook(FaultPattern((FaultTarget("c_prime", 3),)), InjectionSchedule(0, 0))
    eng.absorb(b"gate")
    eng.finish()
    assert eng.masked is True
    assert eng.squeeze(3 * 168) == bytes(3 * 168)
    assert eng.permutation_index == 3
    assert verdicts == [True] + [False] * (3 * 24 - 1)
    assert eng.fd.error is True and eng.masked is True
    assert bytes(eng.squeezed) == hashlib.shake_128(b"gate").digest(3 * 168)

    eng.reset()
    assert eng.masked is False and eng.squeezed == b""
    eng.hook = None
    eng.absorb(b"gate")
    eng.finish()
    assert eng.squeeze(200) == hashlib.shake_128(b"gate").digest(200)


# ----------------------------------------------------------------------
# detectability predicate

def test_predicate_single_flips():
    for scheme in SCHEMES:
        assert all(detectability_predicate([i], scheme) for i in range(0, 1600, 7))


def test_predicate_same_column_pair():
    pair = [idx(0, 0, 0), idx(0, 1, 0)]
    assert detectability_predicate(pair, "c-plane") is False
    assert detectability_predicate(pair, "z-sheet") is True


def test_predicate_rectangle():
    rect = [idx(4, 0, 1), idx(4, 0, 60), idx(4, 2, 1), idx(4, 2, 60)]
    assert detectability_predicate(rect, "z-sheet") is False
    assert detectability_predicate(rect, "c-plane") is False


def test_predicate_cross_sheet_column_pairs():
    quad = [idx(0, 1, 7), idx(0, 2, 7), idx(3, 0, 40), idx(3, 4, 40)]
    assert detectability_predicate(quad, "c-plane") is False
    assert detectability_predicate(quad, "z-sheet") is True


def test_predicate_validation():
    with pytest.raises(ValueError):
        detectability_predicate([1, 1], "z-sheet")
    with pytest.raises(ValueError):
        detectability_predicate([1600], "z-sheet")
    with pytest.raises(ValueError):
        detectability_predicate([0], "parity")
    with pytest.raises(ValueError, match="distinct"):
        detectability_predicate([("state", 1), 1], "z-sheet")
    with pytest.raises(ValueError, match="out of range for c_prime"):
        detectability_predicate([("c_prime", 320)], "z-sheet")
    with pytest.raises(ValueError, match="unknown register"):
        detectability_predicate([("d_prime", 0)], "z-sheet")


_SHADOW_TARGETS = [FaultTarget(reg, bit) for reg, width in SHADOW_WIDTHS.items()
                   for bit in range(width)]


@given(st.sets(st.integers(0, 1599), max_size=6),
       st.sets(st.sampled_from(_SHADOW_TARGETS), max_size=4),
       st.sampled_from(SCHEMES), st.integers(0, 2**30), st.booleans())
@settings(max_examples=120, deadline=None)
def test_predicate_agrees_with_register_check(bits, shadows, scheme, seed, cancel):
    # Dual route: the syndrome table and the parity arithmetic on a random
    # committed state must reach the same verdict, for flips in the state
    # and in the shadows.  ``cancel`` adds, for one state flip, the shadow
    # flips that undo its syndrome, so mixed patterns escape too.
    shadows = set(shadows)
    if cancel and bits:
        i = min(bits)
        shadows ^= {FaultTarget("c_prime", i % 320), FaultTarget("f_prime", i // 64),
                    FaultTarget("cf_prime", i // 64 % 5)}
    if scheme == "c-plane":
        shadows = {t for t in shadows if t.register == "c_prime"}
    pattern = FaultPattern(tuple(shadows | {FaultTarget("state", b) for b in bits}))
    sa = random_state(seed)
    fd = FdRegisters(scheme)
    fd.prime(sa)
    for t in shadows:
        fd.flip(t.register, t.bit)
    got = fd.check(*taps(sa.with_flips(bits)))
    assert got == detectability_predicate(pattern, scheme)
    assert got == detectability_predicate([(t.register, t.bit) for t in pattern.targets],
                                          scheme)
    if not shadows:
        assert got == detectability_predicate(bits, scheme)


def test_predicate_syndrome_table():
    # one row per register; c-plane counts only the C-plane part
    def one(reg, bit):
        return FaultPattern((FaultTarget(reg, bit),))

    for scheme in SCHEMES:
        assert all(detectability_predicate(one("c_prime", u), scheme) for u in range(320))
        assert not detectability_predicate(FaultPattern(()), scheme)
    for reg, width in (("f_prime", 25), ("cf_prime", 5)):
        for bit in range(width):
            assert detectability_predicate(one(reg, bit), "z-sheet")
            assert not detectability_predicate(one(reg, bit), "c-plane")
    # an f_prime flip and the guard bit it toggles cancel in the guard,
    # but not in the lane compare
    both = FaultPattern((FaultTarget("f_prime", 7), FaultTarget("cf_prime", 2)))
    assert detectability_predicate(both, "z-sheet")
    # a state flip and its three shadow partners cancel everywhere
    i = idx(3, 2, 17)
    assert not detectability_predicate(FaultPattern((
        FaultTarget("state", i), FaultTarget("c_prime", 64 * 3 + 17),
        FaultTarget("f_prime", 3 + 5 * 2), FaultTarget("cf_prime", 3))), "z-sheet")
    assert not detectability_predicate(FaultPattern((
        FaultTarget("state", i), FaultTarget("c_prime", 64 * 3 + 17))), "c-plane")


# two lanes and two columns in each of two sheets, where escaping sets are
# common; the column pairs in it leave the columns even whatever their union
_BOX = [idx(x, y, z) for x in (0, 3) for y in (1, 4) for z in (5, 60)]
_COLUMN_PAIRS = [(idx(x, 1, z), idx(x, 4, z)) for x in (0, 3) for z in (5, 60)]


@given(st.one_of(st.sets(st.integers(0, 1599), max_size=12),
                 st.sets(st.sampled_from(_BOX)),
                 st.sets(st.sampled_from(_COLUMN_PAIRS)).map(
                     lambda pairs: {bit for pair in pairs for bit in pair})),
       st.sampled_from(SCHEMES))
@settings(max_examples=200, deadline=None)
def test_predicate_is_the_parity_of_the_flipped_state(bits, scheme):
    # the syndromes of the flips alone are the column and lane sums of a
    # zero state with those flips
    flipped = StateArray.zeros().with_flips(bits)
    caught = column_sums(flipped) != 0 or (scheme == "z-sheet" and lane_sums(flipped) != 0)
    assert detectability_predicate(bits, scheme) is caught


def test_z_sheet_detects_everything_c_plane_does():
    rng = random.Random(14)
    for _ in range(200):
        k = rng.randrange(1, 7)
        bits = rng.sample(range(1600), k)
        if detectability_predicate(bits, "c-plane"):
            assert detectability_predicate(bits, "z-sheet")
