"""Tests for campaign orchestration, the exact census and Monte Carlo.

The census numbers are cross-checked two independent ways: closed-form
counting of the undetected families, and (on a narrowed column window)
plain brute force over all subsets.
"""

import json
import math
import random
from concurrent.futures.process import BrokenProcessPool
from itertools import combinations
from multiprocessing.connection import wait
from pathlib import Path

import numpy as np
import pytest

from crossparity import campaigns
from crossparity.campaigns import (
    MAX_WITNESSES,
    STRATEGIES,
    WORKERS_ENV,
    CampaignSpec,
    _escapes,
    _pair_keys,
    _run_ends,
    _sheet_bit_to_state,
    _single_keys,
    run_campaign,
    undetected_census,
    worker_count,
)
from crossparity.faults import FaultPattern, FaultTarget, InjectionSchedule, inject_and_run
from crossparity.fd import SCHEMES, detectability_predicate
from oracle_fips202 import bit_coords, linear_index as idx


def record_without_timing(report):
    rec = report.to_record()
    rec.pop("wall_time_s")
    return rec


# ----------------------------------------------------------------------
# spec validation

def test_spec_defaults():
    spec = CampaignSpec(scheme="z-sheet", k=2, strategy="exhaustive-sheet")
    assert spec.seed == 0 and spec.unroll == 1 and spec.sheet == 0
    assert spec.scope == ("state",)
    assert STRATEGIES == ("exhaustive-sheet", "exhaustive-global", "random")


def test_spec_rejections():
    good = dict(scheme="z-sheet", k=1, strategy="random", trials=10)
    CampaignSpec(**good)
    with pytest.raises(ValueError):
        CampaignSpec(**{**good, "scheme": "parity"})
    with pytest.raises(ValueError):
        CampaignSpec(**{**good, "strategy": "dither"})
    with pytest.raises(ValueError):
        CampaignSpec(**{**good, "k": 0})
    with pytest.raises(ValueError):
        CampaignSpec(**{**good, "unroll": 5})
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        CampaignSpec(**{**good, "seed": -1})
    with pytest.raises(ValueError):
        CampaignSpec(scheme="z-sheet", k=1, strategy="random", trials=None)
    with pytest.raises(ValueError):
        CampaignSpec(scheme="z-sheet", k=1, strategy="exhaustive-sheet", trials=5)
    with pytest.raises(ValueError):
        CampaignSpec(scheme="z-sheet", k=1, strategy="exhaustive-sheet", sheet=5)
    with pytest.raises(ValueError):
        CampaignSpec(**{**good, "scope": ("state", "round_counter")})
    with pytest.raises(ValueError):
        CampaignSpec(**{**good, "scope": ()})
    with pytest.raises(ValueError):
        CampaignSpec(scheme="c-plane", k=1, strategy="random", trials=10,
                     scope=("f_prime",))
    with pytest.raises(ValueError):
        CampaignSpec(scheme="z-sheet", k=1, strategy="exhaustive-sheet",
                     scope=("state", "c_prime"))


def test_spec_rejects_k_above_scope_width():
    for scope, width in ((("state",), 1600), (("c_prime",), 320),
                         (("f_prime", "cf_prime"), 30),
                         (("state", "c_prime", "f_prime", "cf_prime"), 1950)):
        if scope == ("state",):     # Monte Carlo over the state stops at 64
            with pytest.raises(ValueError, match="k <= 64"):
                CampaignSpec(scheme="z-sheet", k=width, strategy="random", trials=1)
        else:
            CampaignSpec(scheme="z-sheet", k=width, strategy="random", trials=1,
                         scope=scope)
        with pytest.raises(ValueError, match=f"k = {width + 1} .* {width} bits"):
            CampaignSpec(scheme="z-sheet", k=width + 1, strategy="random", trials=1,
                         scope=scope)


@pytest.mark.parametrize("strategy, trials", [("random", 50), ("exhaustive-global", None)])
def test_spec_rejects_duplicate_scope(strategy, trials):
    # a repeated register would send a random campaign down the engine-level
    # path and give an exhaustive one a message about shadow registers
    with pytest.raises(ValueError, match="scope names register 'state' twice"):
        CampaignSpec(scheme="z-sheet", k=1, strategy=strategy, trials=trials,
                     scope=("state", "state"))


def test_spec_is_frozen():
    spec = CampaignSpec(scheme="z-sheet", k=1, strategy="exhaustive-global")
    with pytest.raises(AttributeError):
        spec.k = 2


def test_exhaustive_k_caps():
    # the spec refuses what no sweep covers, so a refused campaign never
    # starts; global k = 4 runs in test_global_quads_match_the_census
    for strategy in ("exhaustive-sheet", "exhaustive-global"):
        CampaignSpec(scheme="z-sheet", k=4, strategy=strategy)
        with pytest.raises(ValueError, match=f"{strategy} .* k <= 4"):
            CampaignSpec(scheme="z-sheet", k=5, strategy=strategy)


# ----------------------------------------------------------------------
# exhaustive enumeration

def test_sheet_singles_all_detected():
    for sheet in range(5):
        rep = run_campaign(CampaignSpec(scheme="z-sheet", k=1,
                                        strategy="exhaustive-sheet", sheet=sheet))
        assert rep.total == 320
        assert rep.detected == 320 and rep.undetected == 0
        assert rep.rate == 1.0 and rep.witnesses == []
        assert rep.sheet == sheet


def test_sheet_pairs_z_sheet_all_detected():
    rep = run_campaign(CampaignSpec(scheme="z-sheet", k=2,
                                    strategy="exhaustive-sheet"))
    assert rep.total == math.comb(320, 2) == 51040
    assert rep.undetected == 0 and rep.rate == 1.0


def test_sheet_pairs_c_plane_misses_column_pairs():
    rep = run_campaign(CampaignSpec(scheme="c-plane", k=2,
                                    strategy="exhaustive-sheet", sheet=1))
    assert rep.total == 51040
    assert rep.undetected == 64 * math.comb(5, 2)  # one column pair set per z
    assert rep.detected == rep.total - rep.undetected
    assert len(rep.witnesses) == MAX_WITNESSES
    for witness in rep.witnesses:
        bits = [bit for _, bit in witness]
        assert all(reg == "state" for reg, _ in witness)
        assert detectability_predicate(bits, "c-plane") is False
        xs = {bit_coords(b)[0] for b in bits}
        assert xs == {1}  # stays inside the requested sheet


def test_global_singles_both_schemes():
    for scheme in ("c-plane", "z-sheet"):
        rep = run_campaign(CampaignSpec(scheme=scheme, k=1,
                                        strategy="exhaustive-global"))
        assert rep.total == 1600 and rep.rate == 1.0
        assert rep.sheet is None


def test_global_pairs_c_plane_exact_count():
    rep = run_campaign(CampaignSpec(scheme="c-plane", k=2,
                                    strategy="exhaustive-global"))
    assert rep.total == math.comb(1600, 2)
    assert rep.undetected == 3200  # 320 columns times C(5,2) pairs
    first = rep.witnesses[0]
    assert first == (("state", 0), ("state", 320))


@pytest.mark.parametrize("scheme, undetected", [("z-sheet", 100_800),
                                                 ("c-plane", 5_105_600)])
def test_global_quads_match_the_census(scheme, undetected):
    rep = run_campaign(CampaignSpec(scheme=scheme, k=4, strategy="exhaustive-global"),
                       workers=1)
    assert rep.total == math.comb(1600, 4) == 272_043_839_600
    assert rep.undetected == undetected_census(4, scheme).count == undetected
    assert len(rep.witnesses) == MAX_WITNESSES
    for witness in rep.witnesses:
        assert detectability_predicate([bit for _, bit in witness], scheme) is False


def test_global_pairs_z_sheet_none_missed():
    rep = run_campaign(CampaignSpec(scheme="z-sheet", k=2,
                                    strategy="exhaustive-global"))
    assert rep.total == math.comb(1600, 2)
    assert rep.undetected == 0 and rep.rate == 1.0


def test_exhaustive_reports_are_deterministic():
    spec = CampaignSpec(scheme="c-plane", k=2, strategy="exhaustive-sheet")
    a = record_without_timing(run_campaign(spec))
    b = record_without_timing(run_campaign(spec))
    assert a == b


def test_worker_count_does_not_change_results():
    # only Monte Carlo uses the pool; 140 000 trials make three chunks
    spec = CampaignSpec(scheme="c-plane", k=2, strategy="random", trials=140_000,
                        seed=4)
    a = record_without_timing(run_campaign(spec, workers=1))
    b = record_without_timing(run_campaign(spec, workers=3))
    assert a == b


@pytest.mark.parametrize("workers", [1, 2])
def test_exhaustive_records_match_golden(workers):
    # Records of the earlier per-position mask-XOR implementation: counts
    # and witness lists, in enumeration order.
    golden = json.loads(Path(__file__).with_name("golden_exhaustive.json").read_text())
    for want in golden:
        spec = CampaignSpec(scheme=want["scheme"], k=want["k"],
                            strategy=want["strategy"], sheet=want["sheet"] or 0)
        assert record_without_timing(run_campaign(spec, workers=workers)) == want


GOLDEN_CAMPAIGNS = json.loads(
    Path(__file__).with_name("golden_campaigns.json").read_text())


def spec_of(record):
    """The spec a golden record was run from."""
    random_strategy = record["strategy"] == "random"
    return CampaignSpec(scheme=record["scheme"], k=record["k"],
                        strategy=record["strategy"],
                        trials=record["total"] if random_strategy else None,
                        seed=record["seed"], unroll=record["unroll"],
                        sheet=record["sheet"] or 0, scope=tuple(record["scope"]))


# The records in golden_campaigns.json were taken from the implementation
# that still swept in fixed chunks, returned Monte Carlo results in a type
# of their own and counted the c-plane census by a per-column polynomial.

def test_global_and_fullsim_records_match_golden():
    # global k = 3 of both schemes, and engine-level trials over state and
    # c_prime for k = 1, 2
    for want in GOLDEN_CAMPAIGNS["global"] + GOLDEN_CAMPAIGNS["fullsim"]:
        assert record_without_timing(run_campaign(spec_of(want), workers=1)) == want


@pytest.mark.parametrize("workers", [1, 2])
def test_monte_carlo_records_match_golden(workers):
    # 70 000 trials span two chunks
    for want in GOLDEN_CAMPAIGNS["monte_carlo"]:
        assert record_without_timing(run_campaign(spec_of(want), workers=workers)) == want


def test_census_matches_golden():
    for want in GOLDEN_CAMPAIGNS["census"]:
        res = undetected_census(want["k"], want["scheme"])
        got = {"scheme": res.scheme, "k": res.k, "count": res.count,
               "fraction": res.fraction,
               "witnesses": [[list(t) for t in w] for w in res.witnesses]}
        assert got == want


def _keys_equal(scheme, space, positions):
    """Verdict of the key tables: the keys of the two halves are equal
    (a single position against a pair for k = 3, the empty key 0 for k <= 2,
    which for k = 2 is the two positions sharing a key)."""
    single, _ = _single_keys(scheme, space)
    a, b, start, key, _ = _pair_keys(scheme, space)

    def pair(p, q):
        j = start[p] + q - p - 1
        assert (a[j], b[j]) == (p, q)
        return key[j]

    ps = sorted(positions)
    if len(ps) == 1:
        return single[ps[0]] == 0
    if len(ps) == 2:
        assert (pair(*ps) == 0) == (single[ps[0]] == single[ps[1]])
        return pair(*ps) == 0
    if len(ps) == 3:
        return single[ps[0]] == pair(*ps[1:])
    return pair(*ps[:2]) == pair(*ps[2:])


@pytest.mark.parametrize("scheme", ["c-plane", "z-sheet"])
@pytest.mark.parametrize("space, ks", [(320, (1, 2, 3, 4)), (1600, (1, 2, 3))])
def test_keys_agree_with_detectability_predicate(scheme, space, ks):
    rng = random.Random(f"keys/{scheme}/{space}")
    escapes = 0
    for k in ks:
        for trial in range(300):
            sheet = rng.randrange(5)
            if trial % 2:
                pool = range(space)
            else:  # a few lanes and columns, where escaping sets are common
                xs = rng.sample(range(5), 1 if space == 320 else 2)
                ys, zs = rng.sample(range(5), 2), rng.sample(range(64), 2)
                pool = [64 * (5 * y + x) + z if space == 1600 else 64 * y + z
                        for x in xs for y in ys for z in zs]
            positions = rng.sample(pool, k)
            bits = [_sheet_bit_to_state(sheet, p) for p in positions] \
                if space == 320 else positions
            escaped = _keys_equal(scheme, space, positions)
            assert escaped == (detectability_predicate(bits, scheme) is False), \
                (k, positions)
            escapes += bool(escaped)
    # z-sheet sees every flip set of weight <= 3
    assert (escapes > 0) == (scheme == "c-plane" or 4 in ks)


def test_global_singles_build_no_pair_table():
    # k = 2 reads only the single keys, in both spaces and both schemes
    _pair_keys.cache_clear()
    _single_keys.cache_clear()
    for strategy in ("exhaustive-sheet", "exhaustive-global"):
        for scheme in SCHEMES:
            for k in (1, 2):
                run_campaign(CampaignSpec(scheme=scheme, k=k, strategy=strategy),
                             workers=1)
    assert _pair_keys.cache_info().currsize == 0
    assert _single_keys.cache_info().currsize == 4


def _two_search_escapes(scheme, space):
    """Per pair head of a k = 4 sweep: the first escaping entry and the
    escape count, from two binary searches in the ranked pair table.  The
    sweep read them this way before the run-end table; kept as its oracle."""
    _, b, start, key, ranked = _pair_keys(scheme, space)
    base = key.astype(np.int64) * len(key)
    first = np.searchsorted(ranked, base + start[b + 1])
    return first, np.searchsorted(ranked, base + len(key)) - first


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("space", [320, 1600])
def test_quad_heads_match_two_searches(scheme, space):
    _, b, start, _, _ = _pair_keys(scheme, space)
    begin, first, counts = _escapes(scheme, space, 4)
    want_first, want_counts = _two_search_escapes(scheme, space)
    np.testing.assert_array_equal(begin, start[b + 1])
    np.testing.assert_array_equal(counts, want_counts)
    np.testing.assert_array_equal(first, want_first)
    # some heads search for their escapes and some do not; some escape
    *_, live = _run_ends(scheme, space)
    assert 0 < len(live) < len(counts) and counts.any()


def test_sweeps_below_quads_build_no_run_end_table():
    # the benchmark's global c-plane k = 2 sweep among them, which builds
    # neither this table nor the pair table
    _run_ends.cache_clear()
    for strategy in ("exhaustive-sheet", "exhaustive-global"):
        for scheme in SCHEMES:
            for k in (1, 2, 3):
                run_campaign(CampaignSpec(scheme=scheme, k=k, strategy=strategy),
                             workers=1)
    assert _run_ends.cache_info().currsize == 0
    run_campaign(CampaignSpec(scheme="z-sheet", k=4, strategy="exhaustive-sheet"),
                 workers=1)
    assert _run_ends.cache_info().currsize == 1


def test_worker_count_from_environment(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert worker_count() == 3
    assert worker_count(1) == 1
    for bad in ("two", "0", "-1", "1.5"):
        monkeypatch.setenv(WORKERS_ENV, bad)
        with pytest.raises(ValueError, match=f"{WORKERS_ENV}.*{bad!r}"):
            worker_count()


def test_worker_count_refuses_fewer_than_one_worker(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert worker_count(2) == 2
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"workers must be a positive integer, got {bad!r}"):
            worker_count(bad)
        with pytest.raises(ValueError, match="positive integer"):
            run_campaign(CampaignSpec(scheme="c-plane", k=1, strategy="exhaustive-sheet"),
                         workers=bad)


def test_both_schemes_share_one_pair_enumeration():
    # a, b, start and the k = 4 heads' first entries depend on the space
    # alone, so the two schemes' tables hold the same arrays
    c_plane, z_sheet = _pair_keys("c-plane", 320), _pair_keys("z-sheet", 320)
    assert all(c is z for c, z in zip(c_plane[:3], z_sheet[:3]))
    assert c_plane[3] is not z_sheet[3]
    assert _run_ends("c-plane", 320)[0] is _run_ends("z-sheet", 320)[0]


# ----------------------------------------------------------------------
# random strategy

def test_random_state_campaign_k2_z_sheet():
    rep = run_campaign(CampaignSpec(scheme="z-sheet", k=2, strategy="random",
                                    trials=20000, seed=42))
    assert rep.total == 20000
    assert rep.rate == 1.0 and rep.undetected == 0
    assert rep.ci_high == 1.0 and rep.ci_low > 0.999


def test_random_state_campaign_k2_c_plane_finds_misses():
    rep = run_campaign(CampaignSpec(scheme="c-plane", k=2, strategy="random",
                                    trials=60000, seed=7))
    # Same-column pairs are about 0.25% of all pairs, so some show up.
    assert rep.undetected > 0
    assert rep.detected + rep.undetected == rep.total
    assert rep.ci_low <= rep.rate <= rep.ci_high < 1.0
    for witness in rep.witnesses:
        bits = [bit for _, bit in witness]
        assert detectability_predicate(bits, "c-plane") is False


@pytest.fixture
def pool_starts(monkeypatch):
    """Counts the process pools the campaigns start, from no kept pool to
    none left behind."""
    campaigns._drop_pool()
    starts = []
    real = campaigns.ProcessPoolExecutor

    def counting(*args, **kwargs):
        starts.append(kwargs.get("max_workers"))
        return real(*args, **kwargs)

    monkeypatch.setattr(campaigns, "ProcessPoolExecutor", counting)
    yield starts
    campaigns._drop_pool()


def test_random_campaign_reproducible(pool_starts):
    # 70 000 trials are two chunks, so the second run goes through the pool
    spec = CampaignSpec(scheme="c-plane", k=2, strategy="random",
                        trials=70_000, seed=11)
    a = record_without_timing(run_campaign(spec, workers=1))
    assert pool_starts == []
    b = record_without_timing(run_campaign(spec, workers=2))
    assert pool_starts == [2]
    assert a == b and a["witnesses"]


# a full chunk and one trial more: the smallest campaign that goes through
# the pool
POOLED = CampaignSpec(scheme="z-sheet", k=4, strategy="random",
                      trials=campaigns._CHUNK_MC + 1, seed=4)


def test_pool_is_kept_across_calls(pool_starts):
    want = record_without_timing(run_campaign(POOLED, workers=1))
    for _ in range(2):
        assert record_without_timing(run_campaign(POOLED, workers=2)) == want
    assert pool_starts == [2]


def test_a_new_worker_count_replaces_the_pool(pool_starts):
    want = record_without_timing(run_campaign(POOLED, workers=1))
    run_campaign(POOLED, workers=2)
    first = campaigns._pool[1]
    assert record_without_timing(run_campaign(POOLED, workers=3)) == want
    assert pool_starts == [2, 3]
    # only the new pool is alive: the old one takes no more work
    assert campaigns._pool[1] is not first
    with pytest.raises(RuntimeError, match="shutdown"):
        first.submit(abs, -1)


def test_a_broken_pool_is_replaced(pool_starts):
    want = record_without_timing(run_campaign(POOLED, workers=1))
    run_campaign(POOLED, workers=2)
    for proc in list(campaigns._pool[1]._processes.values()):
        proc.kill()
        # The pool's own thread may reap the killed worker while this one
        # joins it, and ``is_alive`` then reads the dead worker as alive.
        # The sentinel is ready once the worker has exited, whoever reaps it.
        assert wait([proc.sentinel], timeout=10)
    with pytest.raises(BrokenProcessPool):
        run_campaign(POOLED, workers=2)
    assert campaigns._pool is None
    assert record_without_timing(run_campaign(POOLED, workers=2)) == want
    assert pool_starts == [2, 2]


def test_random_campaign_seed_matters():
    base = dict(scheme="c-plane", k=2, strategy="random", trials=30000)
    a = run_campaign(CampaignSpec(seed=1, **base))
    b = run_campaign(CampaignSpec(seed=2, **base))
    assert a.undetected != b.undetected or a.witnesses != b.witnesses


def test_mixed_scope_campaign_runs_the_engine():
    rep = run_campaign(CampaignSpec(scheme="z-sheet", k=1, strategy="random",
                                    trials=60, seed=3,
                                    scope=("state", "c_prime", "f_prime",
                                           "cf_prime")))
    assert rep.total == 60
    assert rep.detected + rep.spurious == 60
    assert rep.undetected == 0
    assert rep.spurious > 0  # some draws land in the shadows
    assert rep.scope == ("state", "c_prime", "f_prime", "cf_prime")


# ----------------------------------------------------------------------
# engine-level trials as numpy rows

def _outcome(flag, corrupted):
    if flag:
        return "detected" if corrupted else "spurious-error"
    return "silent-corruption" if corrupted else "benign"


def _pattern(targets):
    return FaultPattern(tuple(FaultTarget(reg, bit) for reg, bit in targets))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("unroll", [1, 4, 24])
def test_batched_campaigns_match_scalar_runs(monkeypatch, scheme, unroll):
    # Batches of 8, so each 20-trial campaign spans three.  Every batched
    # flag is the predicate's, a seeded subset of trials is re-run alone
    # from the start, and the report is tallied from the same trials.
    monkeypatch.setattr(campaigns, "_CHUNK_FULLSIM", 8)
    rng = random.Random(f"gate/{scheme}/{unroll}")
    reference = campaigns._fullsim_reference(scheme, unroll)
    golden = reference.digest

    def scalar(pattern, slot):
        res = inject_and_run(campaigns._FULLSIM_MODE, campaigns._FULLSIM_MESSAGE,
                             pattern, InjectionSchedule(0, slot), scheme=scheme,
                             unroll=unroll, golden=golden)
        return res.outcome, res.error_raised, res.digest

    scopes = [("state", "c_prime")]
    if scheme == "z-sheet":
        scopes.append(("state", "c_prime", "f_prime", "cf_prime"))
    outcomes = set()
    for k in (1, 2, 3, 4):
        scope = scopes[k % len(scopes)]
        spec = CampaignSpec(scheme=scheme, k=k, strategy="random", trials=20, seed=k,
                            unroll=unroll, scope=scope)
        batches = list(campaigns._fullsim_batches(spec))
        assert [len(b[0]) for b in batches] == [8, 8, 4]
        trials = [(targets, slot, bool(flag), bytes(digest))
                  for batch in batches for targets, slot, flag, digest in zip(*batch)]
        for targets, _, flag, _ in trials:
            assert flag == detectability_predicate(_pattern(targets), scheme), targets
        for targets, slot, flag, digest in rng.sample(trials, 4):
            want = (_outcome(flag, digest != golden), flag, digest)
            assert scalar(_pattern(targets), slot) == want, (targets, slot)
        rep = record_without_timing(run_campaign(spec))
        got = [_outcome(flag, digest != golden) for _, _, flag, digest in trials]
        outcomes.update(got)
        assert (rep["detected"], rep["undetected"], rep["spurious"]) == \
            (got.count("detected"), got.count("silent-corruption"), got.count("spurious-error"))
        assert rep["witnesses"] == [[list(t) for t in targets] for (targets, *_), o
                                    in zip(trials, got) if o == "silent-corruption"]

    # planted at every slot, and each re-run alone: two escapes, a sheet
    # rectangle and a state flip with the shadow flips that cancel its
    # syndrome, and under z-sheet the latter without its cf_prime flip,
    # which only the C'_F guard catches
    slots = 24 // unroll
    planted = []
    for slot in range(slots):
        x, (y1, y2), (z1, z2) = rng.randrange(5), rng.sample(range(5), 2), rng.sample(range(64), 2)
        planted.append(([("state", idx(x, y, z)) for y in (y1, y2) for z in (z1, z2)], slot, False))
        i = rng.randrange(1600)
        cancel = [("state", i), ("c_prime", i % 320)]
        if scheme == "z-sheet":
            cancel += [("f_prime", i // 64), ("cf_prime", i // 64 % 5)]
            planted.append((cancel[:-1], slot, True))
        planted.append((cancel, slot, False))
    flags, digests = campaigns._run_batch(reference, scheme, unroll,
                                          [t for t, _, _ in planted],
                                          [slot for _, slot, _ in planted])
    for (targets, slot, caught), flag, digest in zip(planted, flags, digests):
        want = (_outcome(flag, bytes(digest) != golden), flag, bytes(digest))
        assert flag == caught == detectability_predicate(_pattern(targets), scheme)
        assert scalar(_pattern(targets), slot) == want, (targets, slot)
        outcomes.add(want[0])
    assert {"detected", "silent-corruption", "spurious-error"} <= outcomes


def test_rows_without_state_flips_run_no_rounds(monkeypatch):
    # Shadow flips never reach the state, so a shadow-only campaign runs no
    # round and every trial is a false alarm; in a mixed batch only the
    # rows with state flips run, and the others keep the fault-free digest.
    real_round_step = campaigns.round_step

    def no_rounds(a, r):
        raise AssertionError("a row without state flips ran a round")

    monkeypatch.setattr(campaigns, "round_step", no_rounds)
    rep = run_campaign(CampaignSpec(scheme="z-sheet", k=2, strategy="random", trials=50,
                                    seed=4, unroll=2,
                                    scope=("c_prime", "f_prime", "cf_prime")))
    assert rep.spurious == rep.total == 50

    widths = []

    def counted(a, r):
        widths.append(a.shape[1])
        return real_round_step(a, r)

    monkeypatch.setattr(campaigns, "round_step", counted)
    reference = campaigns._fullsim_reference("z-sheet", 4)
    patterns = [[("c_prime", 3)], [("state", 9)], [("f_prime", 1), ("cf_prime", 4)],
                [("cf_prime", 0), ("state", 1500)], [("c_prime", 319), ("f_prime", 24)]]
    flags, digests = campaigns._run_batch(reference, "z-sheet", 4, patterns, [0, 1, 2, 3, 5])
    assert flags.all()
    assert widths == [2] * 24
    for targets, digest in zip(patterns, digests):
        shadow_only = all(reg != "state" for reg, _ in targets)
        assert (bytes(digest) == reference.digest) is shadow_only, targets


def test_state_only_campaigns_report_zero_spurious():
    rep = run_campaign(CampaignSpec(scheme="z-sheet", k=1,
                                    strategy="exhaustive-global"))
    assert rep.spurious == 0


def test_report_record_shape():
    rep = run_campaign(CampaignSpec(scheme="c-plane", k=2, strategy="random",
                                    trials=20000, seed=9))
    rec = rep.to_record()
    assert set(rec) == {"scheme", "unroll", "k", "strategy", "total", "detected",
                        "undetected", "spurious", "rate", "ci_low", "ci_high",
                        "seed", "witnesses", "sheet", "scope", "wall_time_s"}
    assert rec["strategy"] == "random" and rec["seed"] == 9
    assert rec["wall_time_s"] > 0
    for witness in rec["witnesses"]:
        for reg, bit in witness:
            assert reg == "state" and 0 <= bit < 1600


# ----------------------------------------------------------------------
# exact census

def test_census_values_z_sheet():
    counts = {k: undetected_census(k, "z-sheet").count for k in range(1, 7)}
    assert counts[1] == counts[2] == counts[3] == 0
    assert counts[4] == 100_800
    assert counts[5] == 0
    assert counts[6] == 12_499_200


def test_census_values_c_plane():
    counts = {k: undetected_census(k, "c-plane").count for k in range(1, 5)}
    assert counts[1] == counts[3] == 0
    assert counts[2] == 3200
    # Weight 4: two column-pairs in distinct columns, or one column
    # taken four deep.
    assert counts[4] == math.comb(320, 2) * 10 * 10 + 320 * 5


def test_census_closed_forms_z_sheet():
    # Rectangles: 5 sheets, C(5,2) lane pairs, C(64,2) column pairs.
    assert undetected_census(4, "z-sheet").count == 5 * 10 * math.comb(64, 2)
    # Weight 6: three columns of a sheet, three lanes in a 6-cycle; there
    # are 10 unordered lane triangles and 3! column assignments.
    assert undetected_census(6, "z-sheet").count == 5 * math.comb(64, 3) * 60


def census_witness_bits(witness):
    assert all(reg == "state" for reg, _ in witness)
    return [bit for _, bit in witness]


def test_census_fraction_and_witnesses():
    res = undetected_census(4, "z-sheet")
    assert res.fraction == pytest.approx(100_800 / math.comb(1600, 4))
    assert res.witnesses
    for witness in res.witnesses:
        assert detectability_predicate(census_witness_bits(witness),
                                       "z-sheet") is False
    res2 = undetected_census(2, "c-plane")
    for witness in res2.witnesses:
        assert detectability_predicate(census_witness_bits(witness),
                                       "c-plane") is False
    res3 = undetected_census(6, "z-sheet")
    for witness in res3.witnesses:
        assert detectability_predicate(census_witness_bits(witness),
                                       "z-sheet") is False
    assert undetected_census(3, "z-sheet").witnesses == []


def test_census_refuses_a_detected_witness(monkeypatch):
    # an explicit raise, so that python -O keeps the check
    monkeypatch.setattr(campaigns, "detectability_predicate", lambda bits, scheme: True)
    for k, scheme in ((2, "c-plane"), (4, "z-sheet"), (6, "z-sheet")):
        with pytest.raises(AssertionError, match=f"detected under {scheme}"):
            undetected_census(k, scheme)


def test_census_contract_bounds():
    with pytest.raises(ValueError):
        undetected_census(0, "z-sheet")
    with pytest.raises(ValueError):
        undetected_census(7, "z-sheet")
    with pytest.raises(ValueError):
        undetected_census(2, "checksum")


def test_census_agrees_with_brute_force_on_column_window():
    # Restrict to sheet 0, columns z < 8: any flip set confined to the
    # window is undetected iff its one-hot row/column masks XOR to zero.
    # Brute force over all C(40, w) subsets, w <= 4, and compare with the
    # same window's closed forms that the census is built from.
    items = [(y, z) for y in range(5) for z in range(8)]
    onehot = [(1 << y) | (1 << (5 + z)) for y, z in items]
    state_bits = [idx(0, y, z) for y, z in items]
    counts = {2: 0, 3: 0, 4: 0}
    for w in (2, 3, 4):
        for combo in combinations(range(40), w):
            acc = 0
            for i in combo:
                acc ^= onehot[i]
            if acc == 0:
                counts[w] += 1
                bits = [state_bits[i] for i in combo]
                assert detectability_predicate(bits, "z-sheet") is False
    assert counts[2] == 0 and counts[3] == 0
    assert counts[4] == math.comb(5, 2) * math.comb(8, 2)


# ----------------------------------------------------------------------
# Monte Carlo

def test_monte_carlo_refuses_k_above_64(monkeypatch):
    rep = run_campaign(CampaignSpec(scheme="z-sheet", k=64, strategy="random",
                                    trials=1000), workers=1)
    assert rep.total == 1000 and rep.detected + rep.undetected == 1000

    def no_draws(*args):
        raise AssertionError("a refused campaign must not sample")

    monkeypatch.setattr(campaigns, "_sample_distinct", no_draws)
    with pytest.raises(ValueError, match="k <= 64"):
        run_campaign(CampaignSpec(scheme="z-sheet", k=65, strategy="random",
                                  trials=1000), workers=1)


def test_monte_carlo_rates():
    res = run_campaign(CampaignSpec(scheme="z-sheet", k=4, strategy="random",
                                    trials=50_000, seed=1))
    assert res.total == 50_000
    assert res.rate >= 0.9999
    assert res.ci_low <= res.rate <= res.ci_high <= 1.0
    low = run_campaign(CampaignSpec(scheme="c-plane", k=2, strategy="random",
                                    trials=50_000, seed=1))
    assert low.undetected > 0
    assert res.rate > low.rate


def test_monte_carlo_witnesses_verify():
    res = run_campaign(CampaignSpec(scheme="c-plane", k=2, strategy="random",
                                    trials=200_000, seed=5))
    assert res.undetected > 0 and res.witnesses
    for witness in res.witnesses[:4]:
        bits = [bit for _, bit in witness]
        assert detectability_predicate(bits, "c-plane") is False


# The chunk kernel as it was before rows were fingerprinted and before
# repeats were found by column pairs: every pass sorts each row of the whole
# array, and every row gets the per-class sort verdict.  Kept as the oracle
# the library's kernel must match draw for draw, on both sides of
# ``_PAIRS_MAX_K``.

def _oracle_sample(rng, n_rows, k, space):
    arr = rng.integers(0, space, size=(n_rows, k), dtype=np.int32)
    while True:
        srt = np.sort(arr, axis=1)
        bad = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        if not bad.any():
            return arr
        arr[bad] = rng.integers(0, space, size=(int(bad.sum()), k), dtype=np.int32)


def _oracle_chunk(scheme, k, seed, chunk_index, n):
    arr = _oracle_sample(np.random.default_rng([seed, chunk_index]), n, k, 1600)
    und = np.full(n, k % 2 == 0)
    for cls, _ in campaigns._classes(scheme, 1600):
        if k % 2 == 0:
            s = np.sort(cls[arr], axis=1)
            und &= (s[:, 0::2] == s[:, 1::2]).all(axis=1)
    return int(und.sum()), arr[np.flatnonzero(und)[:MAX_WITNESSES]]


SAMPLED_KS = sorted({1, 2, 3, 4, 6, 8, 16, 17, 32, 64,
                     campaigns._PAIRS_MAX_K, campaigns._PAIRS_MAX_K + 1})


class _PlantedRepeats:
    """A generator whose first draw has a repeat planted in every other
    row, at each pair of columns in turn."""

    def __init__(self, seed, k):
        self.rng = np.random.default_rng(seed)
        self.pairs = list(combinations(range(k), 2))
        self.first = True

    def integers(self, *args, **kwargs):
        out = self.rng.integers(*args, **kwargs)
        if self.first and self.pairs:
            for row in range(0, len(out), 2):
                i, j = self.pairs[row // 2 % len(self.pairs)]
                out[row, j] = out[row, i]
        self.first = False
        return out


# chunk sizes that are not a whole number of row blocks, among them the
# 4464-trial tail chunk of a 70,000-trial campaign
PARTIAL_CHUNKS = (1, campaigns._BLOCK_MC - 1, campaigns._BLOCK_MC + 1,
                  70_000 % campaigns._CHUNK_MC)


@pytest.mark.parametrize("k", SAMPLED_KS)
def test_sampler_redraws_planted_repeats(k):
    for n in (4096, *PARTIAL_CHUNKS):
        ours, theirs = _PlantedRepeats(k, k), _PlantedRepeats(k, k)
        got = campaigns._sample_distinct(ours, n, k, 1600)
        assert np.array_equal(got, _oracle_sample(theirs, n, k, 1600)), n
        assert ours.rng.bit_generator.state == theirs.rng.bit_generator.state
        assert all(len(set(row)) == k for row in got.tolist())


@pytest.mark.parametrize("k", SAMPLED_KS)
def test_monte_carlo_chunks_match_the_oracle(k):
    full = campaigns._CHUNK_MC if k <= 8 else 4096
    for n in (full, *PARTIAL_CHUNKS):
        for seed, chunk_index in ((0, 0), (5, 3), (2**32 - 1, 17)):
            ours = np.random.default_rng([seed, chunk_index])
            theirs = np.random.default_rng([seed, chunk_index])
            got = campaigns._sample_distinct(ours, n, k, 1600)
            assert np.array_equal(got, _oracle_sample(theirs, n, k, 1600))
            # the same rng calls: both generators end in the same state
            assert ours.bit_generator.state == theirs.bit_generator.state
            for scheme in SCHEMES:
                count, witnesses = campaigns._mc_chunk((scheme, k, seed, chunk_index, n))
                want_count, want_witnesses = _oracle_chunk(scheme, k, seed, chunk_index, n)
                assert count == want_count, (scheme, seed, chunk_index, n)
                assert np.array_equal(witnesses, want_witnesses)
                if (scheme, k, n) == ("c-plane", 2, campaigns._CHUNK_MC):
                    assert count > 100      # about 170 escapes per chunk


def test_monte_carlo_verdicts_rest_on_the_exact_check(monkeypatch):
    # With every fingerprint zero every row folds to zero and goes through
    # the per-class check, and the golden records still come out: the
    # fingerprints only skip rows, they never decide a verdict.
    calls = []

    def zeros(scheme):
        calls.append(scheme)
        return np.zeros(1600, dtype=np.uint64)

    monkeypatch.setattr(campaigns, "_fingerprints", zeros)
    for want in GOLDEN_CAMPAIGNS["monte_carlo"]:
        assert record_without_timing(run_campaign(spec_of(want), workers=1)) == want
    assert calls


@pytest.mark.parametrize("scheme", SCHEMES)
def test_fingerprints_fold_escapes_to_zero(scheme):
    # one fingerprint per column under c-plane, per (column, lane) under z-sheet
    fp = campaigns._fingerprints(scheme)
    assert fp.dtype == np.uint64
    assert len(np.unique(fp)) == (320 if scheme == "c-plane" else 1600)
    for witness in undetected_census(4, scheme).witnesses:
        fold = np.bitwise_xor.reduce(fp[[bit for _, bit in witness]])
        assert fold == 0


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_rows_all_even_matches_counting(k):
    # A row is all-even iff each of its values occurs an even number of
    # times, which odd k never is: a row of one value repeated k times is
    # all-even for even k only.
    rng = np.random.default_rng(k)
    mat = rng.integers(0, 3, size=(200, k))
    mat[0] = 7
    mat[1, :] = np.arange(k) // 2
    want = [all(n % 2 == 0 for n in np.unique(row, return_counts=True)[1]) for row in mat]
    got = campaigns._rows_all_even(mat)
    assert got.shape == (200,) and got.tolist() == want
    assert got[0] == (k % 2 == 0) and got[1] == (k % 2 == 0)
    if k % 2 == 0:
        assert 0 < got.sum() < 200
