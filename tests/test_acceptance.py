"""Acceptance gate: the eight headline claims, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines
as they print; without ``-s`` pytest shows them for failing criteria and
under ``-rA``.
"""

import hashlib
import math
import os
import random

import oracle_fips202 as oracle
from conftest import VECTOR_DIR
from crossparity.campaigns import CampaignSpec, run_campaign, undetected_census
from crossparity.cli import parse_response_file
from crossparity.engine import (
    DESIGN_FREQ_MHZ,
    MODES,
    REFERENCE_THROUGHPUT_MBPS,
    UNROLL_FACTORS,
    Engine,
    hash_message,
    throughput_model,
)
from crossparity.faults import (
    FaultPattern,
    FaultTarget,
    InjectionSchedule,
    inject_and_run,
)
from crossparity.fd import FdRegisters, detectability_predicate
from crossparity.keccak import StateArray, column_sums, lane_sums

MODE_NAMES = tuple(MODES)


def verdict(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def reference_digest(mode, msg, out_len=None):
    h = {"sha3-224": hashlib.sha3_224, "sha3-256": hashlib.sha3_256,
         "sha3-384": hashlib.sha3_384, "sha3-512": hashlib.sha3_512}.get(mode)
    if h is not None:
        return h(msg).digest()
    xof = hashlib.shake_128 if mode == "shake128" else hashlib.shake_256
    return xof(msg).digest(out_len)


def test_criterion_1_fips202_conformance():
    """Every byte-aligned vector in the bundled response files, bit-exact."""
    passed = failed = 0
    for name in sorted(os.listdir(VECTOR_DIR)):
        text = open(os.path.join(VECTOR_DIR, name)).read()
        records, skipped = parse_response_file(text)
        assert records and skipped == 0, name
        for rec in records:
            eng = Engine(rec.mode)
            eng.absorb(rec.msg)
            eng.finish()
            if eng.squeeze(len(rec.expected)) == rec.expected:
                passed += 1
            else:
                failed += 1
    total = passed + failed
    verdict(1, failed == 0 and total >= 2000,
            f"{passed}/{total} known-answer vectors bit-exact across all six modes")


def test_criterion_2_shift_register_equivalence():
    """The byte-serial engine against the block-XOR sponge, 1000 pairs."""
    rng = random.Random(20260814)
    mismatches = 0
    runs = 0
    for i in range(1000):
        mode = MODE_NAMES[i % len(MODE_NAMES)]
        msg = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 360)))
        out_len = None
        if MODES[mode].digest_bits is None:
            out_len = rng.choice([1, 16, 32, MODES[mode].rate_bytes,
                                  MODES[mode].rate_bytes + 9, 200])
        got = hash_message(mode, msg, out_len=out_len)
        want = oracle.oracle_digest(mode, msg, out_len)
        runs += 1
        if got != want or got != reference_digest(mode, msg, out_len):
            mismatches += 1
    verdict(2, mismatches == 0 and runs == 1000,
            f"{runs - mismatches}/{runs} random (mode, message) pairs equal the "
            "direct-XOR sponge oracle")


def test_criterion_3_z_sheet_headline():
    """z-sheet catches every 1-, 2- and 3-bit state pattern."""
    ok = True
    detail = []
    expected_totals = {1: 320, 2: 51040, 3: 5410240}
    for k, want_total in expected_totals.items():
        for sheet in range(5):
            rep = run_campaign(CampaignSpec(scheme="z-sheet", k=k,
                                            strategy="exhaustive-sheet",
                                            sheet=sheet))
            ok &= rep.total == want_total and rep.undetected == 0 and rep.rate == 1.0
        detail.append(f"k={k}: 5x{want_total}")

    # Sheet decomposition: patterns spanning two or more sheets leave some
    # sheet with odd weight, so cross-sheet sampling closes the argument.
    rng = random.Random(3)
    cross_checked = 0
    undetected_cross = 0
    while cross_checked < 100_000:
        k = rng.choice((2, 3))
        bits = rng.sample(range(1600), k)
        if len({oracle.bit_coords(b)[0] for b in bits}) < 2:
            continue
        cross_checked += 1
        if not detectability_predicate(bits, "z-sheet"):
            undetected_cross += 1
    ok &= undetected_cross == 0

    # Spot confirmation through the parity registers and the full engine.
    sa = StateArray.from_bytes(bytes(rng.randrange(256) for _ in range(200)))
    for _ in range(200):
        bits = rng.sample(range(1600), rng.choice((1, 2, 3)))
        fd = FdRegisters("z-sheet")
        fd.prime(sa)
        ok &= fd.check(column_sums(sa.with_flips(bits)),
                       lane_sums(sa.with_flips(bits))) is True
    for _ in range(15):
        pattern = FaultPattern.from_state_bits(
            rng.sample(range(1600), rng.choice((1, 2, 3))))
        res = inject_and_run("sha3-256", b"headline", pattern,
                             InjectionSchedule(0, rng.randrange(24)))
        ok &= res.outcome == "detected"

    verdict(3, ok,
            "z-sheet exhaustive per sheet (" + ", ".join(detail) + ") all "
            f"detected; {cross_checked} cross-sheet samples all detected")


def test_criterion_4_c_plane_boundary():
    """c-plane: all singles caught, exactly 3200 blind 2-bit patterns."""
    singles = run_campaign(CampaignSpec(scheme="c-plane", k=1,
                                        strategy="exhaustive-global"))
    pairs = run_campaign(CampaignSpec(scheme="c-plane", k=2,
                                      strategy="exhaustive-global"))
    ok = singles.total == 1600 and singles.detected == 1600
    ok &= pairs.total == math.comb(1600, 2)
    ok &= pairs.undetected == 3200 == 320 * math.comb(5, 2)
    ok &= undetected_census(2, "c-plane").count == 3200
    for witness in pairs.witnesses:
        (x1, _, z1), (x2, _, z2) = [oracle.bit_coords(b) for _, b in witness]
        ok &= (x1, z1) == (x2, z2)

    # Sampled confirmation against the parity registers on a random
    # committed state, then through full engine runs.
    rng = random.Random(4)
    sa = StateArray.from_bytes(bytes(rng.randrange(256) for _ in range(200)))
    agreements = 0
    for _ in range(10_000):
        bits = rng.sample(range(1600), 2)
        fd = FdRegisters("c-plane")
        fd.prime(sa)
        flipped = sa.with_flips(bits)
        got = fd.check(column_sums(flipped), lane_sums(flipped))
        agreements += got == detectability_predicate(bits, "c-plane")
    ok &= agreements == 10_000

    silent = detected = 0
    for i in range(30):
        x, z = rng.randrange(5), rng.randrange(64)
        y1, y2 = rng.sample(range(5), 2)
        blind = FaultPattern.from_state_bits([oracle.linear_index(x, y1, z),
                                              oracle.linear_index(x, y2, z)])
        # Early slots leave enough rounds for the corruption to reach the
        # truncated digest; at the very last slot a blind pair can stay
        # outside the first 256 bits and read back as benign.
        res = inject_and_run("sha3-256", b"boundary", blind,
                             InjectionSchedule(0, i % 12), scheme="c-plane")
        silent += res.outcome == "silent-corruption"
        seen = FaultPattern.from_state_bits(rng.sample(range(1600), 2))
        while not detectability_predicate(seen.state_bits, "c-plane"):
            seen = FaultPattern.from_state_bits(rng.sample(range(1600), 2))
        res = inject_and_run("sha3-256", b"boundary", seen,
                             InjectionSchedule(0, i % 24), scheme="c-plane")
        detected += res.outcome == "detected"
    ok &= silent == 30 and detected == 30

    verdict(4, ok,
            f"c-plane {singles.detected}/1600 singles detected; "
            f"{pairs.undetected} undetected pairs (exact), 10^4 sampled "
            "register checks and 60 engine runs agree")


def test_criterion_5_near_100_percent_beyond_k3():
    """Exactly 100,800 blind 4-bit patterns; Monte Carlo k=4..8 >= 0.9999."""
    # Independent route first: brute-force enumeration of every 4-subset
    # of each sheet (the only place undetected quadruples can live, since
    # a sheet with odd local weight is always caught).
    brute = 0
    ok = True
    for sheet in range(5):
        rep = run_campaign(CampaignSpec(scheme="z-sheet", k=4,
                                        strategy="exhaustive-sheet", sheet=sheet))
        ok &= rep.total == math.comb(320, 4)
        brute += rep.undetected
    census = undetected_census(4, "z-sheet")
    ok &= brute == 100_800 == census.count
    ok &= census.count == 5 * math.comb(5, 2) * math.comb(64, 2)
    ok &= abs(census.fraction / 3.7e-7 - 1) < 0.02

    rates = {}
    for k in range(4, 9):
        mc = run_campaign(CampaignSpec(scheme="z-sheet", k=k, strategy="random",
                                       trials=10**6, seed=1000 + k))
        rates[k] = mc.rate
        ok &= mc.total == 10**6 and mc.rate >= 0.9999
    rate_txt = ", ".join(f"k={k}: {r:.6f}" for k, r in rates.items())
    verdict(5, ok,
            f"per-sheet brute force found {brute} undetected quadruples "
            f"(census {census.count}); Monte Carlo 10^6 trials {rate_txt}")


def test_criterion_6_throughput_model():
    """Modeled Mbps within 1% of the recorded design figures, 18 cells."""
    worst = 0.0
    cells = 0
    for scheme, freq in DESIGN_FREQ_MHZ.items():
        for mode, ref in REFERENCE_THROUGHPUT_MBPS[scheme].items():
            got = throughput_model(mode, freq)
            worst = max(worst, abs(got - ref) / ref)
            cells += 1
    verdict(6, cells == 18 and worst < 0.01,
            f"all {cells} mode/design cells within 1% "
            f"(worst deviation {worst:.4%})")


def test_criterion_7_unroll_invariance():
    """Same digests and same campaign verdicts at every unroll factor."""
    rng = random.Random(7)
    ok = True
    for _ in range(12):
        mode = MODE_NAMES[rng.randrange(len(MODE_NAMES))]
        msg = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 300)))
        out_len = 48 if MODES[mode].digest_bits is None else None
        digests = {hash_message(mode, msg, out_len=out_len, fd="z-sheet",
                                unroll=u) for u in UNROLL_FACTORS}
        ok &= len(digests) == 1

    suite = [FaultPattern.from_state_bits(rng.sample(range(1600), k))
             for k in (1, 1, 2, 2, 3, 3, 4, 4, 5, 5)]
    suite.append(FaultPattern.from_state_bits(
        [oracle.linear_index(1, 0, 3), oracle.linear_index(1, 0, 9),
         oracle.linear_index(1, 4, 3), oracle.linear_index(1, 4, 9)]))
    suite.append(FaultPattern((FaultTarget("c_prime", 17),)))
    suite.append(FaultPattern((FaultTarget("f_prime", 5),)))
    outcome_vectors = set()
    for u in UNROLL_FACTORS:
        vec = tuple(inject_and_run("sha3-256", b"invariance", p,
                                   InjectionSchedule(0, 0), unroll=u).outcome
                    for p in suite)
        outcome_vectors.add(vec)
    ok &= len(outcome_vectors) == 1
    vec = next(iter(outcome_vectors))
    ok &= vec[-3] == "silent-corruption"  # the in-sheet rectangle
    ok &= vec[-2] == vec[-1] == "spurious-error"

    def strip(rep):
        rec = rep.to_record()
        rec.pop("wall_time_s")
        rec.pop("unroll")
        return rec

    for u in (2, 24):
        a = strip(run_campaign(CampaignSpec(scheme="z-sheet", k=2,
                                            strategy="exhaustive-sheet")))
        b = strip(run_campaign(CampaignSpec(scheme="z-sheet", k=2,
                                            strategy="exhaustive-sheet", unroll=u)))
        ok &= a == b
    verdict(7, ok,
            f"digests and campaign outcomes identical across unroll factors "
            f"{UNROLL_FACTORS}")


def test_criterion_8_no_false_positives():
    """10^4 clean protected runs: no error raised, digests unmasked."""
    rng = random.Random(8)
    runs = 0
    clean = 0
    cases = []
    for i in range(10_000):
        mode = MODE_NAMES[i % len(MODE_NAMES)]
        scheme = ("c-plane", "z-sheet")[i % 2]
        unroll = UNROLL_FACTORS[i % len(UNROLL_FACTORS)]
        n = rng.randrange(0, 60)
        cases.append((mode, scheme, unroll, n))
    for mode, scheme, unroll, n in cases:
        msg = bytes(rng.randrange(256) for _ in range(n))
        out_len = 32 if MODES[mode].digest_bits is None else None
        eng = Engine(mode, fd=scheme, unroll=unroll)
        eng.absorb(msg)
        eng.finish()
        got = eng.squeeze(eng.resolve_out_len(out_len))
        runs += 1
        if (not eng.fd.error and not eng.masked
                and got == reference_digest(mode, msg, out_len)):
            clean += 1
    verdict(8, clean == runs == 10_000,
            f"{clean}/{runs} protected runs raised no error and matched the "
            "unprotected digests")
