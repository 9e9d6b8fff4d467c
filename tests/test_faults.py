"""Tests for the fault-injection harness.

Each test runs real hashes with bit flips applied at commit windows and
checks the outcome classification against the fault-free digest.
"""

import hashlib
import random

import numpy as np
import pytest

from crossparity.campaigns import _run_batch
from crossparity.engine import Engine
from crossparity.fd import SCHEMES, SHADOW_WIDTHS, FdRegisters, detectability_predicate
from crossparity.faults import (
    REGISTER_WIDTHS,
    FaultPattern,
    FaultTarget,
    InjectionSchedule,
    flip_hook,
    inject_and_run,
    reference_run,
)
from oracle_fips202 import linear_index as idx, oracle_digest
MSG = b"fault harness message"


def state_pattern(*bits):
    return FaultPattern.from_state_bits(bits)


# ----------------------------------------------------------------------
# data types

def test_fault_target_validation():
    FaultTarget("state", 1599)
    FaultTarget("c_prime", 319)
    FaultTarget("f_prime", 24)
    FaultTarget("cf_prime", 4)
    with pytest.raises(ValueError):
        FaultTarget("state", 1600)
    with pytest.raises(ValueError):
        FaultTarget("rounds", 0)
    with pytest.raises(ValueError):
        FaultTarget("f_prime", -1)


def test_register_widths():
    assert REGISTER_WIDTHS == {"state": 1600, "c_prime": 320,
                               "f_prime": 25, "cf_prime": 5}


def test_pattern_sorted_and_distinct():
    p = FaultPattern((FaultTarget("state", 9), FaultTarget("c_prime", 2),
                      FaultTarget("state", 3)))
    assert p.targets == (FaultTarget("c_prime", 2), FaultTarget("state", 3),
                         FaultTarget("state", 9))
    assert len(p.targets) == 3
    assert p.state_bits == (3, 9)
    with pytest.raises(ValueError):
        FaultPattern((FaultTarget("state", 1), FaultTarget("state", 1)))


def test_pattern_from_state_bits():
    p = state_pattern(5, 2, 900)
    assert p.state_bits == (2, 5, 900)


def test_schedule_validation():
    InjectionSchedule(0, 23).validate_for_unroll(1)
    InjectionSchedule(0, 0).validate_for_unroll(24)
    with pytest.raises(ValueError):
        InjectionSchedule(0, 12).validate_for_unroll(24)
    with pytest.raises(ValueError):
        InjectionSchedule(0, 24).validate_for_unroll(1)
    with pytest.raises(ValueError):
        InjectionSchedule(-1, 0)
    with pytest.raises(ValueError):
        InjectionSchedule(0, -1)


def test_slot_zero_exists_at_every_unroll():
    for unroll in (1, 2, 4, 6, 8, 12, 24):
        InjectionSchedule(0, 0).validate_for_unroll(unroll)


# ----------------------------------------------------------------------
# outcome classification

def test_single_flip_detected():
    res = inject_and_run("sha3-256", MSG, state_pattern(777),
                         InjectionSchedule(0, 5))
    assert res.outcome == "detected"
    assert res.error_raised
    assert res.digest != res.golden
    assert res.emitted == bytes(32)


def test_rectangle_silent_under_z_sheet():
    rect = state_pattern(idx(2, 1, 5), idx(2, 1, 9), idx(2, 3, 5), idx(2, 3, 9))
    res = inject_and_run("sha3-256", MSG, rect, InjectionSchedule(0, 0))
    assert res.outcome == "silent-corruption"
    assert not res.error_raised
    assert res.digest != res.golden
    assert res.emitted == res.digest


def test_column_pair_splits_schemes():
    pair = state_pattern(idx(3, 0, 20), idx(3, 4, 20))
    silent = inject_and_run("sha3-256", MSG, pair, InjectionSchedule(0, 3),
                            scheme="c-plane")
    assert silent.outcome == "silent-corruption"
    caught = inject_and_run("sha3-256", MSG, pair, InjectionSchedule(0, 3),
                            scheme="z-sheet")
    assert caught.outcome == "detected"


def test_shadow_flip_is_spurious():
    for register in ("c_prime", "f_prime", "cf_prime"):
        p = FaultPattern((FaultTarget(register, 1),))
        res = inject_and_run("sha3-256", MSG, p, InjectionSchedule(0, 7))
        assert res.outcome == "spurious-error", register
        assert res.error_raised
        assert res.digest == res.golden
        assert res.emitted == bytes(32)


def test_only_state_bits_make_the_hook_return_a_new_column():
    # The engine computes a window's sums again only for a new column, so
    # a pattern without state bits hands back the one it was given.
    state = np.arange(25, dtype=np.uint64)[:, None]
    state.flags.writeable = False
    at = InjectionSchedule(0, 3)
    for targets, c_prime in (((FaultTarget("c_prime", 77),), 1 << 77), ((), 0)):
        eng = Engine("sha3-256", fd="z-sheet")
        assert flip_hook(FaultPattern(targets), at)(eng, 3, state) is state
        assert eng.fd.c_prime == c_prime
    eng = Engine("sha3-256", fd="z-sheet")
    pattern = FaultPattern((FaultTarget("state", 65), FaultTarget("f_prime", 1)))
    hook = flip_hook(pattern, at)
    assert hook(eng, 2, state) is state
    flipped = hook(eng, 3, state)
    assert flipped.tolist() == [[i ^ 2 if i == 1 else i] for i in range(25)]
    assert eng.fd.f_prime == 2


def test_empty_pattern_is_benign():
    res = inject_and_run("sha3-256", MSG, FaultPattern(()), InjectionSchedule(0, 0))
    assert res.outcome == "benign"
    assert res.emitted == res.golden


# ----------------------------------------------------------------------
# scheduling

def test_single_flip_detected_at_every_slot():
    for slot in range(24):
        res = inject_and_run("sha3-256", b"slots", state_pattern(40 * slot + 1),
                             InjectionSchedule(0, slot))
        assert res.outcome == "detected", slot


def test_unfired_schedule_raises():
    with pytest.raises(ValueError):
        inject_and_run("sha3-256", MSG, state_pattern(1), InjectionSchedule(9, 0))
    with pytest.raises(ValueError):
        inject_and_run("sha3-256", MSG, state_pattern(1), InjectionSchedule(0, 30))


def test_detect_verdict_independent_of_schedule():
    # Whether a state pattern trips the parity check is a property of the
    # flip set, not of where in the run it lands.  (The further split of
    # unflagged runs into corrupted vs benign does depend on how many
    # rounds remain to spread the damage into the truncated digest.)
    rng = random.Random(21)
    msg = bytes(rng.randrange(256) for _ in range(300))  # 3 sha3-256 blocks
    golden = None
    for _ in range(6):
        k = rng.randrange(1, 5)
        pattern = state_pattern(*rng.sample(range(1600), k))
        verdicts = set()
        for _ in range(3):
            sched = InjectionSchedule(rng.randrange(3), rng.randrange(24))
            res = inject_and_run("sha3-256", msg, pattern, sched)
            verdicts.add(res.error_raised)
            golden = res.golden
        assert len(verdicts) == 1, (pattern, verdicts)
    assert golden is not None


def test_outcome_independent_of_unroll():
    rng = random.Random(22)
    for _ in range(4):
        pattern = state_pattern(*rng.sample(range(1600), rng.randrange(1, 5)))
        outcomes = {inject_and_run("sha3-256", MSG, pattern,
                                   InjectionSchedule(0, 0), unroll=u).outcome
                    for u in (1, 4, 24)}
        assert len(outcomes) == 1


def test_explicit_golden_matches_derived():
    from crossparity.engine import hash_message
    golden = hash_message("sha3-256", MSG)
    a = inject_and_run("sha3-256", MSG, state_pattern(10), InjectionSchedule(0, 1))
    b = inject_and_run("sha3-256", MSG, state_pattern(10), InjectionSchedule(0, 1),
                       golden=golden)
    assert (a.outcome, a.digest, a.golden) == (b.outcome, b.digest, b.golden)


def test_xof_injection_needs_out_len():
    res = inject_and_run("shake128", MSG, state_pattern(4),
                         InjectionSchedule(0, 2), out_len=16)
    assert res.outcome == "detected"
    assert len(res.golden) == 16
    with pytest.raises(ValueError):
        inject_and_run("shake128", MSG, state_pattern(4), InjectionSchedule(0, 2))


# ----------------------------------------------------------------------
# the output gate on multi-block SHAKE outputs

XOF_RATE = {"shake128": 168, "shake256": 136}


def test_shadow_flip_before_squeeze_gates_the_whole_xof_output():
    golden = hashlib.shake_128(bytes(10)).digest(400)
    p = FaultPattern((FaultTarget("c_prime", 77),))
    res = inject_and_run("shake128", bytes(10), p, InjectionSchedule(0, 5),
                         out_len=400)
    assert res.outcome == "spurious-error"
    assert res.digest == res.golden == golden
    assert res.emitted == bytes(400)


def test_shadow_flip_in_a_refresh_gates_from_the_next_block():
    golden = hashlib.shake_128(bytes(10)).digest(400)
    p = FaultPattern((FaultTarget("c_prime", 77),))
    res = inject_and_run("shake128", bytes(10), p, InjectionSchedule(1, 5),
                         out_len=400)
    assert res.outcome == "spurious-error"
    assert res.error_raised
    assert res.digest == golden
    assert res.emitted[:168] == golden[:168]
    assert res.emitted[168:] == bytes(400 - 168)


@pytest.mark.parametrize("scheme", ["c-plane", "z-sheet"])
@pytest.mark.parametrize("mode", ["shake128", "shake256"])
def test_shadow_faults_across_multi_block_xof_runs(mode, scheme):
    # A shadow-only fault at any permutation of the run, absorb or squeeze,
    # is a false alarm: the digest is right, and the gate shuts at the
    # first rate block squeezed after the permutation that caught it.
    rng = random.Random(f"{mode}/{scheme}")
    rate = XOF_RATE[mode]
    shadows = [FaultTarget(reg, bit) for reg, width in SHADOW_WIDTHS.items()
               if scheme == "z-sheet" or reg == "c_prime" for bit in range(width)]
    for blocks in (2, 3):
        msg = rng.randbytes(rng.randrange(rate, 2 * rate))
        out_len = rng.randrange((blocks - 1) * rate + 1, blocks * rate + 1)
        golden = getattr(hashlib, mode.replace("shake", "shake_"))(msg).digest(out_len)
        absorbs = len(msg) // rate + 1
        for perm in range(absorbs + blocks - 1):
            unroll = rng.choice((1, 2, 4, 6, 8, 12, 24))
            pattern = FaultPattern(tuple(rng.sample(shadows, rng.randint(1, 2))))
            schedule = InjectionSchedule(perm, rng.randrange(24 // unroll))
            res = inject_and_run(mode, msg, pattern, schedule, scheme=scheme,
                                 unroll=unroll, out_len=out_len)
            assert res.outcome == "spurious-error", (blocks, perm, pattern)
            assert res.digest == golden
            open_bytes = max(0, perm - absorbs + 1) * rate
            assert res.emitted == golden[:open_bytes] + bytes(out_len - open_bytes)


# batched trials from a shared reference run

def _batch(reference, scheme, unroll, patterns, slots):
    """(error flag, ungated digest) of each batched row."""
    flags, digests = _run_batch(reference, scheme, unroll,
                                [[(t.register, t.bit) for t in p.targets] for p in patterns],
                                slots)
    return [(bool(f), bytes(d)) for f, d in zip(flags, digests)]


def _trial_patterns(rng, scheme):
    """k = 1, 2, 4 over the full scope, a weight-4 rectangle (which both
    schemes miss) and a shadow-only pair (a false alarm)."""
    shadows = ("c_prime",) if scheme == "c-plane" else ("c_prime", "f_prime", "cf_prime")
    space = [FaultTarget("state", b) for b in range(1600)] + [
        FaultTarget(reg, b) for reg in shadows for b in range(REGISTER_WIDTHS[reg])]
    x, (y1, y2), (z1, z2) = rng.randrange(5), rng.sample(range(5), 2), rng.sample(range(64), 2)
    rect = state_pattern(*(idx(x, y, z) for y in (y1, y2) for z in (z1, z2)))
    shadow = FaultPattern(tuple(rng.sample([t for t in space if t.register != "state"], 2)))
    return [FaultPattern(tuple(rng.sample(space, k))) for k in (1, 2, 4)] + [rect, shadow]


@pytest.mark.parametrize("scheme", ["c-plane", "z-sheet"])
@pytest.mark.parametrize("unroll", [1, 4, 24])
def test_shared_reference_matches_fresh_runs_trial_for_trial(scheme, unroll):
    # Rows of one batch share a reference run; each must match a fresh
    # run of its trial from the start, at the first, middle and last slot
    # of a sha3-256 and a shake128 hash of one permutation each.
    rng = random.Random(f"batch/{scheme}/{unroll}")
    slots = sorted({0, 24 // unroll // 2, 24 // unroll - 1})
    patterns = _trial_patterns(rng, scheme)
    trials = [(pattern, slot) for pattern in patterns for slot in slots]
    outcomes = set()
    sha3_msg, shake_msg = rng.randbytes(100), rng.randbytes(150)
    for mode, msg, out_len, want in (
            ("sha3-256", sha3_msg, None, hashlib.sha3_256(sha3_msg).digest()),
            ("shake128", shake_msg, 168, hashlib.shake_128(shake_msg).digest(168))):
        ref = reference_run(mode, msg, scheme=scheme, unroll=unroll, out_len=out_len)
        assert ref.digest == want and len(ref.entries) == 1
        rows = _batch(ref, scheme, unroll, *zip(*trials))
        for (pattern, slot), row in zip(trials, rows):
            fresh = inject_and_run(mode, msg, pattern, InjectionSchedule(0, slot),
                                   scheme=scheme, unroll=unroll, out_len=out_len)
            assert row == (fresh.error_raised, fresh.digest), (mode, pattern, slot)
            outcomes.add(fresh.outcome)
    assert {"detected", "silent-corruption", "spurious-error"} <= outcomes


def test_reference_run_must_end_with_the_flag_down(monkeypatch):
    real_prime = FdRegisters.prime

    def bad_prime(self, committed):
        sums = real_prime(self, committed)
        self.c_prime ^= 1
        return sums

    monkeypatch.setattr(FdRegisters, "prime", bad_prime)
    with pytest.raises(RuntimeError, match="reference run raised the error flag"):
        reference_run("sha3-256", MSG)
    with pytest.raises(RuntimeError, match="reference run raised the error flag"):
        inject_and_run("sha3-256", MSG, state_pattern(1), InjectionSchedule(0, 3))


def test_batch_refuses_a_multi_permutation_reference():
    # a full sha3-256 block and the pad block: two permutation entries
    msg = bytes(range(136))
    ref = reference_run("sha3-256", msg)
    assert ref.digest == hashlib.sha3_256(msg).digest()
    assert len(ref.entries) == 2 and not np.array_equal(*ref.entries)
    assert all(e.shape == (25, 1) and e.dtype == np.uint64 for e in ref.entries)
    with pytest.raises(ValueError, match="one permutation, not 2"):
        _run_batch(ref, "z-sheet", 1, [[("state", 1)]], [0])


# ----------------------------------------------------------------------
# injected runs against the FIPS 202 oracle

ORACLE_RATE = {"sha3-224": 144, "sha3-256": 136, "sha3-384": 104, "sha3-512": 72,
               "shake128": 168, "shake256": 136}


def _oracle_patterns(rng, scheme):
    """State-only patterns (random weight 1-4, a sheet rectangle that both
    schemes miss, a column pair that only z-sheet sees), a shadow-only one
    (a false alarm) and two mixed ones: random state and shadow flips, and
    a state flip with the shadow flips that cancel its syndrome (an
    escape)."""
    x, (y1, y2), (z1, z2) = rng.randrange(5), rng.sample(range(5), 2), rng.sample(range(64), 2)
    shadows = [FaultTarget(reg, b) for reg, width in SHADOW_WIDTHS.items()
               if scheme == "z-sheet" or reg == "c_prime" for b in range(width)]
    i = rng.randrange(1600)
    cancel = [FaultTarget("state", i), FaultTarget("c_prime", i % 320)]
    if scheme == "z-sheet":
        cancel += [FaultTarget("f_prime", i // 64), FaultTarget("cf_prime", i // 64 % 5)]
    mixed = [FaultTarget("state", b) for b in rng.sample(range(1600), rng.randint(1, 2))]
    return [state_pattern(*rng.sample(range(1600), rng.randint(1, 4))),
            state_pattern(*(idx(x, y, z) for y in (y1, y2) for z in (z1, z2))),
            state_pattern(idx(x, y1, z1), idx(x, y2, z1)),
            FaultPattern(tuple(rng.sample(shadows, rng.randint(1, 2)))),
            FaultPattern(tuple(mixed + rng.sample(shadows, rng.randint(1, 2)))),
            FaultPattern(tuple(cancel))]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("unroll", [1, 4, 24])
def test_injected_runs_match_the_oracle(scheme, unroll):
    # Every mode absorbs a full block and then the pad block, and the SHAKEs
    # squeeze two refresh blocks more.  Each permutation of each run takes
    # one fault, at the first, middle or last slot in turn.  Then a batch
    # of one-permutation hashes of each mode takes every pattern.  The
    # oracle flips the state bits before the round the slot leads into;
    # shadow bits leave its digest fault-free.  The flag is the total
    # predicate's.
    rng = random.Random(f"oracle/{scheme}/{unroll}")
    slots = (0, 24 // unroll // 2, 24 // unroll - 1)
    trial = 0
    outcomes = set()
    for m, (mode, rate) in enumerate(ORACLE_RATE.items()):
        msg = rng.randbytes(rng.randrange(rate, 2 * rate))
        out_len = 2 * rate + 5 if mode.startswith("shake") else None
        golden = oracle_digest(mode, msg, out_len)
        n = len(golden)
        absorbs = len(msg) // rate + 1
        patterns = _oracle_patterns(rng, scheme)
        for perm in range(absorbs + (n - 1) // rate):
            slot = slots[(trial + trial // len(patterns)) % 3]
            pattern = patterns[trial % len(patterns)]
            trial += 1
            flag = detectability_predicate(pattern, scheme)
            digest = oracle_digest(mode, msg, out_len, (perm, slot * unroll, pattern.state_bits))
            open_bytes = min(n, max(0, perm - absorbs + 1) * rate) if flag else n
            emitted = digest[:open_bytes] + bytes(n - open_bytes)
            res = inject_and_run(mode, msg, pattern, InjectionSchedule(perm, slot),
                                 scheme=scheme, unroll=unroll, out_len=out_len, golden=golden)
            assert (res.error_raised, res.digest, res.emitted, res.golden) == \
                (flag, digest, emitted, golden), (mode, perm, slot, pattern)
            outcomes.add(res.outcome)

        msg = rng.randbytes(rng.randrange(rate))
        out_len = rng.randint(1, rate) if mode.startswith("shake") else None
        at = [slots[(j + m) % 3] for j in range(len(patterns))]
        rows = _batch(reference_run(mode, msg, scheme, unroll, out_len), scheme, unroll,
                      patterns, at)
        for pattern, slot, row in zip(patterns, at, rows):
            assert row == (detectability_predicate(pattern, scheme),
                           oracle_digest(mode, msg, out_len, (0, slot * unroll,
                                                              pattern.state_bits))), \
                (mode, slot, pattern)
    assert {"detected", "silent-corruption", "spurious-error"} <= outcomes


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("unroll", [1, 4, 24])
def test_only_the_check_of_the_injected_window_fires(monkeypatch, scheme, unroll):
    # Batched trials take their flag from the predicate instead of running
    # the compares.  That rests on the engine: each check compares the
    # state it reads with shadows primed from that same state one commit
    # earlier, so in a whole run only the check that reads the injected
    # window can return True, and it returns the predicate's verdict.  The
    # run absorbs two blocks and squeezes two, and every one of its
    # permutations takes each pattern at a drawn slot.
    verdicts = []
    real_check = FdRegisters.check

    def check(self, c, f):
        verdicts.append(real_check(self, c, f))
        return verdicts[-1]

    monkeypatch.setattr(FdRegisters, "check", check)
    rng = random.Random(f"window/{scheme}/{unroll}")
    rate = ORACLE_RATE["shake128"]
    msg = rng.randbytes(rng.randrange(rate, 2 * rate))
    out_len = rate + rng.randint(1, rate)
    golden = hashlib.shake_128(msg).digest(out_len)
    slots = 24 // unroll
    patterns = _oracle_patterns(rng, scheme)
    if scheme == "z-sheet":
        # the cancelling set without its cf_prime flip: only the guard sees it
        patterns.append(FaultPattern(tuple(t for t in patterns[-1].targets
                                           if t.register != "cf_prime")))
    for perm in range(3):
        for pattern in patterns:
            slot = rng.randrange(slots)
            verdicts.clear()
            res = inject_and_run("shake128", msg, pattern, InjectionSchedule(perm, slot),
                                 scheme=scheme, unroll=unroll, out_len=out_len,
                                 golden=golden)
            want = [False] * (3 * slots)
            want[perm * slots + slot] = detectability_predicate(pattern, scheme)
            assert verdicts == want, (perm, slot, pattern)
            assert res.error_raised == want[perm * slots + slot]
