"""Tests for the fault-injection harness.

Each test runs real hashes with bit flips applied at commit windows and
checks the outcome classification against the fault-free digest.
"""

import hashlib
import random

import pytest

from crossparity.fd import SCHEMES, SHADOW_WIDTHS, FdRegisters, detectability_predicate
from crossparity.faults import (
    OUTCOMES,
    REGISTER_WIDTHS,
    FaultPattern,
    FaultTarget,
    InjectionSchedule,
    inject_and_run,
    reference_run,
)
from crossparity.keccak import StateArray
from oracle_fips202 import oracle_digest

idx = StateArray.linear_index
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
    assert p.weight == 3
    assert p.state_bits == (3, 9)
    assert not p.state_only
    with pytest.raises(ValueError):
        FaultPattern((FaultTarget("state", 1), FaultTarget("state", 1)))


def test_pattern_from_state_bits():
    p = state_pattern(5, 2, 900)
    assert p.state_only
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


def test_empty_pattern_is_benign():
    res = inject_and_run("sha3-256", MSG, FaultPattern(()), InjectionSchedule(0, 0))
    assert res.outcome == "benign"
    assert res.emitted == res.golden


def test_outcomes_tuple():
    assert set(OUTCOMES) == {"detected", "silent-corruption", "benign",
                             "spurious-error"}


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


# ----------------------------------------------------------------------
# trials resumed from a shared reference run

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
    # Windows in absorb permutations, the finish permutation and SHAKE
    # refresh permutations, at the first, middle and last slot.
    rng = random.Random(f"resume/{scheme}/{unroll}")
    slots = 24 // unroll
    patterns = _trial_patterns(rng, scheme)
    trial = 0
    outcomes = set()
    # (mode, message, out_len, permutations): sha3-256 absorbs two blocks
    # and finishes; shake128 absorbs one, finishes and refreshes twice
    sha3_msg, shake_msg = rng.randbytes(300), rng.randbytes(250)
    for mode, msg, out_len, perms, want in (
            ("sha3-256", sha3_msg, None, 3, hashlib.sha3_256(sha3_msg).digest()),
            ("shake128", shake_msg, 2 * 168 + 5, 4,
             hashlib.shake_128(shake_msg).digest(2 * 168 + 5))):
        ref = reference_run(mode, msg, scheme=scheme, unroll=unroll, out_len=out_len)
        assert ref.digest == want
        # every window is kept, at the cycle count of the shift schedule
        assert {(p, s): cp.cycles for (p, s), cp in ref.checkpoints.items()} == \
            {(p, s): 168 * (p + 1) + slots * p + s for p in range(perms) for s in range(slots)}
        for perm in range(perms):
            for slot in sorted({0, slots // 2, slots - 1}):
                pattern = patterns[trial % len(patterns)]
                trial += 1
                schedule = InjectionSchedule(perm, slot)
                shared = inject_and_run(mode, msg, pattern, schedule, scheme=scheme,
                                        unroll=unroll, out_len=out_len, reference=ref)
                fresh = inject_and_run(mode, msg, pattern, schedule, scheme=scheme,
                                       unroll=unroll, out_len=out_len)
                stopped = inject_and_run(mode, msg, pattern, schedule, scheme=scheme,
                                         unroll=unroll, out_len=out_len, golden=ref.digest)
                for res in (fresh, stopped):
                    assert (res.outcome, res.error_raised, res.digest, res.emitted) == \
                        (shared.outcome, shared.error_raised, shared.digest, shared.emitted)
                outcomes.add(shared.outcome)
    assert {"detected", "silent-corruption", "spurious-error"} <= outcomes


def test_reference_run_must_end_with_the_flag_down(monkeypatch):
    real_prime = FdRegisters.prime

    def bad_prime(self, committed):
        real_prime(self, committed)
        self.c_prime ^= 1

    monkeypatch.setattr(FdRegisters, "prime", bad_prime)
    with pytest.raises(RuntimeError, match="reference run raised the error flag"):
        reference_run("sha3-256", MSG)
    with pytest.raises(RuntimeError, match="reference run raised the error flag"):
        inject_and_run("sha3-256", MSG, state_pattern(1), InjectionSchedule(0, 3))


def test_shared_reference_must_be_of_the_same_hash():
    ref = reference_run("sha3-256", MSG, scheme="z-sheet", unroll=4)
    pattern, schedule = state_pattern(1), InjectionSchedule(0, 2)
    for kwargs in (dict(message=MSG + b"!"), dict(scheme="c-plane"), dict(unroll=2),
                   dict(mode="sha3-224")):
        args = dict(mode="sha3-256", message=MSG, scheme="z-sheet", unroll=4) | kwargs
        with pytest.raises(ValueError, match="different hash"):
            inject_and_run(pattern=pattern, schedule=schedule, reference=ref, **args)
    with pytest.raises(ValueError, match="never fired"):
        inject_and_run("sha3-256", MSG, pattern, InjectionSchedule(1, 0), unroll=4,
                       reference=ref)
    res = inject_and_run("SHA3-256", MSG, pattern, schedule, unroll=4, reference=ref)
    assert res.golden == ref.digest == hashlib.sha3_256(MSG).digest()


# ----------------------------------------------------------------------
# injected runs against the FIPS 202 oracle

ORACLE_RATE = {"sha3-224": 144, "sha3-256": 136, "sha3-384": 104, "sha3-512": 72,
               "shake128": 168, "shake256": 136}


def _oracle_patterns(rng, scheme):
    """State-only patterns (random weight 1-4, a sheet rectangle that both
    schemes miss, a column pair that only z-sheet sees) and a shadow-only
    one (a false alarm)."""
    x, (y1, y2), (z1, z2) = rng.randrange(5), rng.sample(range(5), 2), rng.sample(range(64), 2)
    shadows = [FaultTarget(reg, b) for reg, width in SHADOW_WIDTHS.items()
               if scheme == "z-sheet" or reg == "c_prime" for b in range(width)]
    return [state_pattern(*rng.sample(range(1600), rng.randint(1, 4))),
            state_pattern(*(idx(x, y, z) for y in (y1, y2) for z in (z1, z2))),
            state_pattern(idx(x, y1, z1), idx(x, y2, z1)),
            FaultPattern(tuple(rng.sample(shadows, rng.randint(1, 2))))]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("unroll", [1, 4, 24])
def test_injected_runs_match_the_oracle(scheme, unroll):
    # Every mode absorbs a full block and then the pad block, and the SHAKEs
    # squeeze two refresh blocks more.  Each permutation of each run takes
    # one fault, at the first, middle or last slot in turn, on the path
    # that runs from the start (golden=) and on the resumed one
    # (reference=).  The oracle flips the state bits before the round the
    # slot leads into; shadow bits leave its digest fault-free.
    rng = random.Random(f"oracle/{scheme}/{unroll}")
    slots = 24 // unroll
    trial = 0
    outcomes = set()
    for mode, rate in ORACLE_RATE.items():
        msg = rng.randbytes(rng.randrange(rate, 2 * rate))
        out_len = 2 * rate + 5 if mode.startswith("shake") else None
        golden = oracle_digest(mode, msg, out_len)
        n = len(golden)
        ref = reference_run(mode, msg, scheme=scheme, unroll=unroll, out_len=out_len)
        assert ref.digest == golden
        absorbs = len(msg) // rate + 1
        for perm in range(absorbs + (n - 1) // rate):
            slot = (0, slots // 2, slots - 1)[trial % 3]
            pattern = _oracle_patterns(rng, scheme)[trial % 4]
            trial += 1
            bits = pattern.state_bits
            flag = detectability_predicate(bits, scheme) if pattern.state_only else True
            digest = oracle_digest(mode, msg, out_len, (perm, slot * unroll, bits))
            open_bytes = min(n, max(0, perm - absorbs + 1) * rate) if flag else n
            emitted = digest[:open_bytes] + bytes(n - open_bytes)
            schedule = InjectionSchedule(perm, slot)
            for res in (
                    inject_and_run(mode, msg, pattern, schedule, scheme=scheme,
                                   unroll=unroll, out_len=out_len, golden=golden),
                    inject_and_run(mode, msg, pattern, schedule, scheme=scheme,
                                   unroll=unroll, out_len=out_len, reference=ref)):
                assert (res.error_raised, res.digest, res.emitted, res.golden) == \
                    (flag, digest, emitted, golden), (mode, perm, slot, pattern)
                outcomes.add(res.outcome)
    assert {"detected", "silent-corruption", "spurious-error"} <= outcomes
