"""Fault-injection campaigns over the detection schemes.

Three strategies:

* ``exhaustive-sheet``: every weight-k flip set inside one 320-bit sheet
  (a fixed x; 5 lanes by 64 columns).  Detectability never couples
  distinct sheets, so per-sheet enumeration plus composition covers the
  global picture at a fraction of the cost.
* ``exhaustive-global``: every weight-k flip set over all 1600 state
  bits.  Supported for k <= 3; the triple space (681 million patterns)
  sits above the default pattern budget and needs it raised explicitly.
* ``random``: seeded uniform samples of weight-k flip sets, with a
  Wilson 95% interval on the detection rate.

Campaigns over the plain state register are evaluated through the parity
arithmetic of the shadows, which agrees with a full engine run by
construction and is cross-checked against one in the test suite.  The
exhaustive strategies give each position, and each pair of positions, a
key: the canonical id of its column mask (the XOR of the two masks for a
pair), combined under z-sheet with the id of its lane mask.  A flip set
escapes exactly when the keys of its two halves are equal, so one chunk
worker counts escapes for every k by binary search in a sorted key
table.  Monte Carlo sorts each sampled row instead.  Campaigns whose
scope includes shadow registers run each trial through the engine, since
only the full run can tell a false alarm from real corruption.

Work is split into fixed-size chunks processed in a deterministic order,
so results are identical for any worker count.  Monte Carlo chunks go to
a process pool; an exhaustive chunk is a few binary searches, cheaper
than handing it to a worker, so those run in the calling process.  The
worker count comes from the CROSSPARITY_WORKERS environment variable,
defaulting to the available parallelism.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb, prod

import numpy as np

from .engine import UNROLL_FACTORS, hash_message
from .faults import (REGISTER_WIDTHS, FaultPattern, FaultTarget, InjectionSchedule,
                     inject_and_run)
from .fd import SCHEMES, detectability_predicate
from .keccak import NUM_ROUNDS

WORKERS_ENV = "CROSSPARITY_WORKERS"
DEFAULT_PATTERN_BUDGET = 500_000_000
MAX_WITNESSES = 16

STRATEGIES = ("exhaustive-sheet", "exhaustive-global", "random")

# chunk widths; fixed so that chunk boundaries never depend on the worker
# count (determinism) while staying coarse enough to amortise overhead
_CHUNK_A_SHEET = 40        # first-index range per chunk, k = 3
_CHUNK_PAIRS_SHEET = 4096  # pair-prefix range per chunk, k = 4
_CHUNK_A_GLOBAL = 50
_CHUNK_MC = 1 << 16        # Monte Carlo trials per chunk

_FULLSIM_MODE = "sha3-256"
_FULLSIM_MESSAGE = b"engine-level fault campaign"


class BudgetExceededError(RuntimeError):
    """Raised when a campaign would evaluate more patterns than allowed."""

    def __init__(self, needed: int, budget: int):
        super().__init__(
            f"campaign needs {needed} patterns, budget is {budget}; "
            "raise max_patterns to run it anyway")
        self.needed = needed
        self.budget = budget


@dataclass(frozen=True)
class CampaignSpec:
    scheme: str
    k: int
    strategy: str
    trials: int | None = None
    seed: int = 0
    unroll: int = 1
    sheet: int = 0
    scope: tuple[str, ...] = ("state",)
    max_patterns: int = DEFAULT_PATTERN_BUDGET

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.unroll not in UNROLL_FACTORS:
            raise ValueError(f"unroll must be one of {UNROLL_FACTORS}")
        if self.strategy == "random":
            if self.trials is None or self.trials < 1:
                raise ValueError("random strategy needs a positive trial count")
        elif self.trials is not None:
            raise ValueError("trials only apply to the random strategy")
        if not 0 <= self.sheet < 5:
            raise ValueError("sheet index must be 0..4")
        for reg in self.scope:
            if reg not in REGISTER_WIDTHS:
                raise ValueError(f"unknown register {reg!r} in scope")
        if not self.scope:
            raise ValueError("scope must name at least one register")
        width = sum(REGISTER_WIDTHS[reg] for reg in set(self.scope))
        if self.k > width:
            raise ValueError(f"k = {self.k} exceeds the {width} bits in scope")
        if self.scheme == "c-plane" and set(self.scope) & {"f_prime", "cf_prime"}:
            raise ValueError("f_prime/cf_prime only exist under z-sheet")
        if self.scope != ("state",) and self.strategy != "random":
            raise ValueError("shadow-register scopes require the random strategy")


@dataclass
class CampaignReport:
    scheme: str
    unroll: int
    k: int
    strategy: str
    total: int
    detected: int
    undetected: int
    spurious: int
    rate: float
    ci_low: float
    ci_high: float
    seed: int
    witnesses: list = field(default_factory=list)
    sheet: int | None = None
    scope: tuple[str, ...] = ("state",)
    wall_time: float = 0.0

    def to_record(self) -> dict:
        return {
            "scheme": self.scheme,
            "unroll": self.unroll,
            "k": self.k,
            "strategy": self.strategy,
            "total": self.total,
            "detected": self.detected,
            "undetected": self.undetected,
            "spurious": self.spurious,
            "rate": self.rate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "seed": self.seed,
            "witnesses": [[[reg, int(bit)] for reg, bit in w] for w in self.witnesses],
            "sheet": self.sheet,
            "scope": list(self.scope),
            "wall_time_s": self.wall_time,
        }


@dataclass(frozen=True)
class CensusResult:
    k: int
    scheme: str
    count: int
    fraction: float
    witnesses: list


@dataclass(frozen=True)
class MonteCarloResult:
    total: int
    detected: int
    undetected: int
    rate: float
    ci_low: float
    ci_high: float
    witnesses: list


def _wilson_interval(successes: int, total: int, z: float = 1.959963984540054):
    if total == 0:
        return 0.0, 1.0
    p = successes / total
    denom = 1 + z * z / total
    centre = p + z * z / (2 * total)
    spread = z * ((p * (1 - p) + z * z / (4 * total)) / total) ** 0.5
    lo = max(0.0, (centre - spread) / denom)
    hi = min(1.0, (centre + spread) / denom)
    # The bounds are exact at the endpoints; keep them there despite
    # floating-point rounding.
    if successes == 0:
        lo = 0.0
    if successes == total:
        hi = 1.0
    return lo, hi


def _worker_count(workers: int | None = None) -> int:
    if workers is not None:
        return max(1, workers)
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            count = int(env)
        except ValueError:
            count = 0
        if count < 1:
            raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {env!r}")
        return count
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_chunks(fn, tasks, workers):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


# ----------------------------------------------------------------------
# detectability keys for the parity arithmetic
#
# A position's column mask, or the XOR of the masks of two positions, has a
# canonical id: 0 for the empty mask, 1 + u for the single column u, and
# 1 + n + triu_index(u, v) for two columns u < v of n.  Lanes get ids the
# same way; z-sheet folds both into one key (column id * lane radix + lane
# id).  A pattern escapes exactly when its two halves have equal keys.

def _classes(scheme: str, space: int):
    """(class of every position, class count) for each mask the scheme checks."""
    p = np.arange(space, dtype=np.int32)
    if space == 320:                  # one sheet: column z, lane y
        col, lane = (p % 64, 64), (p // 64, 5)
    else:                             # whole state: column (x, z), lane (x, y)
        col, lane = ((p // 64 % 5) * 64 + p % 64, 320), (p // 64, 25)
    return (col,) if scheme == "c-plane" else (col, lane)


def _key_table(scheme: str, space: int, pairs=None):
    """Key of every position, or of every (a, b) pair of positions."""
    classes = _classes(scheme, space)
    dtype = np.min_scalar_type(prod(1 + n + comb(n, 2) for _, n in classes) - 1)
    key = np.zeros(space if pairs is None else len(pairs[0]), dtype=dtype)
    for cls, n in classes:
        cls = cls.astype(dtype)
        if pairs is None:
            ids = 1 + cls
        else:
            xor_ids = np.zeros((n, n), dtype=dtype)
            u, v = np.triu_indices(n, 1)
            xor_ids[u, v] = xor_ids[v, u] = np.arange(1 + n, 1 + n + len(u))
            ids = xor_ids[cls[pairs[0]], cls[pairs[1]]]
        key = key * (1 + n + comb(n, 2)) + ids
    return key


def _ranked(key):
    """The key table and its entries sorted by (key, index), packed as
    key * len + index."""
    n = len(key)
    return key, np.sort(key.astype(np.int64) * n + np.arange(n))


@lru_cache(maxsize=None)
def _single_keys(scheme: str, space: int):
    return _ranked(_key_table(scheme, space))


@lru_cache(maxsize=None)
def _pair_keys(scheme: str, space: int):
    """(a, b, start, key, ranked): the pairs a < b in enumeration order, the
    index of the first pair whose a is each position, and the ranked keys."""
    a, b = np.triu_indices(space, 1)
    start = np.zeros(space + 1, dtype=np.int64)
    start[1:] = np.cumsum(space - 1 - np.arange(space))
    return (a.astype(np.int16), b.astype(np.int16), start,
            *_ranked(_key_table(scheme, space, (a, b))))


def _sheet_bit_to_state(sheet: int, pos: int) -> int:
    y, z = divmod(pos, 64)
    return 64 * (5 * y + sheet) + z


def _witness(bits) -> tuple:
    return tuple(("state", int(b)) for b in sorted(bits))


# ----------------------------------------------------------------------
# chunk workers (top level so they pickle)

def _chunk(args):
    """Evaluate one chunk of an exhaustive enumeration over ``space``
    positions: singles or pairs lo..hi-1 for k <= 2, first positions
    lo..hi-1 for k = 3, first pairs lo..hi-1 for k = 4.

    A pattern is a head (empty, a first position or a first pair) and one
    table entry after it, and escapes when the entry's key equals the
    head's (0 for the empty head).  A head's escaping entries are one run
    of the ranked table, found by binary search.

    Returns (patterns evaluated, undetected count, first undetected
    patterns as position tuples, in enumeration order).
    """
    scheme, space, k, lo, hi = args
    single, ranked = _single_keys(scheme, space)
    key = single
    if k > 1:
        a, b, start, key, ranked = _pair_keys(scheme, space)
    if k <= 2:
        target, begin, end = np.zeros(1, np.int64), np.array([lo]), hi
    else:
        heads = np.arange(lo, hi)
        if k == 3:
            target, begin = single[heads], start[heads + 1]
        else:
            target, begin = key[heads], start[b[heads] + 1]
        end = len(key)
    n = len(key)
    base = target.astype(np.int64) * n
    first = np.searchsorted(ranked, base + begin)
    counts = np.searchsorted(ranked, base + end) - first
    witnesses = []
    for i in np.flatnonzero(counts):
        room = MAX_WITNESSES - len(witnesses)
        if not room:
            break
        h = lo + int(i)
        head = () if k <= 2 else (h,) if k == 3 else (int(a[h]), int(b[h]))
        for q in ranked[first[i]:first[i] + min(counts[i], room)] % n:
            witnesses.append(head + ((int(q),) if k == 1 else (int(a[q]), int(b[q]))))
    return int(np.sum(end - begin)), int(counts.sum()), witnesses


def _sample_distinct(rng, n_rows, k, space):
    """(n_rows, k) arrays of distinct draws from range(space)."""
    arr = rng.integers(0, space, size=(n_rows, k), dtype=np.int32)
    while True:
        srt = np.sort(arr, axis=1)
        bad = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        if not bad.any():
            return arr
        arr[bad] = rng.integers(0, space, size=(int(bad.sum()), k), dtype=np.int32)


def _rows_all_even(mat):
    """Row verdicts: does every value in the row occur an even number of
    times?  With distinct draws this is exactly the column/lane parity
    test.  Sorting pairs equal values next to each other, so the row is
    all-even iff consecutive disjoint pairs match (impossible for odd k).
    """
    n, k = mat.shape
    if k % 2:
        return np.zeros(n, dtype=bool)
    s = np.sort(mat, axis=1)
    return (s[:, 0::2] == s[:, 1::2]).all(axis=1)


def _mc_chunk(args):
    scheme, k, seed, chunk_index, n = args
    rng = np.random.default_rng([seed, chunk_index])
    arr = _sample_distinct(rng, n, k, 1600)
    und = np.ones(n, dtype=bool)
    for cls, _ in _classes(scheme, 1600):
        und &= _rows_all_even(cls[arr])
    witnesses = [tuple(int(v) for v in sorted(arr[i]))
                 for i in np.nonzero(und)[0][:MAX_WITNESSES]]
    return n, int(und.sum()), witnesses


# ----------------------------------------------------------------------
# strategy drivers

def _chunk_ranges(total: int, width: int):
    return [(lo, min(lo + width, total)) for lo in range(0, total, width)]


def _run_exhaustive(spec: CampaignSpec) -> CampaignReport:
    per_sheet = spec.strategy == "exhaustive-sheet"
    space = 320 if per_sheet else 1600
    if per_sheet and spec.k > 4:
        raise ValueError("per-sheet enumeration supports k <= 4")
    if not per_sheet and spec.k > 3:
        raise ValueError("global enumeration supports k <= 3")
    total = comb(space, spec.k)
    if total > spec.max_patterns:
        raise BudgetExceededError(total, spec.max_patterns)

    if spec.k <= 2:
        ranges = [(0, total)]
    elif spec.k == 3:
        ranges = _chunk_ranges(space - 2, _CHUNK_A_SHEET if per_sheet else _CHUNK_A_GLOBAL)
    else:
        ranges = _chunk_ranges(comb(space, 2), _CHUNK_PAIRS_SHEET)
    tasks = [(spec.scheme, space, spec.k, lo, hi) for lo, hi in ranges]
    results = [_chunk(t) for t in tasks]

    evaluated = sum(r[0] for r in results)
    undetected = sum(r[1] for r in results)
    if evaluated != total:
        raise AssertionError(f"enumeration covered {evaluated} of {total} patterns")
    witnesses = []
    for r in results:
        for pat in r[2]:
            if len(witnesses) >= MAX_WITNESSES:
                break
            bits = [_sheet_bit_to_state(spec.sheet, p) for p in pat] if per_sheet \
                else list(pat)
            witnesses.append(_witness(bits))
    detected = total - undetected
    rate = detected / total
    return CampaignReport(
        scheme=spec.scheme, unroll=spec.unroll, k=spec.k, strategy=spec.strategy,
        total=total, detected=detected, undetected=undetected, spurious=0,
        rate=rate, ci_low=rate, ci_high=rate, seed=spec.seed,
        witnesses=witnesses, sheet=spec.sheet if per_sheet else None,
        scope=spec.scope)


def _run_random_state(spec: CampaignSpec, workers: int) -> CampaignReport:
    mc = _mc_rate(spec.k, spec.trials, spec.seed, spec.scheme, workers)
    return CampaignReport(
        scheme=spec.scheme, unroll=spec.unroll, k=spec.k, strategy="random",
        total=mc.total, detected=mc.detected, undetected=mc.undetected, spurious=0,
        rate=mc.rate, ci_low=mc.ci_low, ci_high=mc.ci_high, seed=spec.seed,
        witnesses=mc.witnesses, sheet=None, scope=spec.scope)


def _scope_space(scope) -> list:
    return [(reg, bit) for reg, width in REGISTER_WIDTHS.items() if reg in scope
            for bit in range(width)]


def _run_random_fullsim(spec: CampaignSpec) -> CampaignReport:
    """Engine-level campaign; needed once shadow registers are in scope.
    Trial counts here are small, so the runs stay in order in this process."""
    space = _scope_space(spec.scope)
    rng = np.random.default_rng([spec.seed, len(space)])
    slots = NUM_ROUNDS // spec.unroll
    golden = hash_message(_FULLSIM_MODE, _FULLSIM_MESSAGE)
    counts = {"detected": 0, "silent-corruption": 0, "benign": 0, "spurious-error": 0}
    witnesses = []
    for _ in range(spec.trials):
        picks = rng.choice(len(space), size=spec.k, replace=False)
        pattern = FaultPattern(tuple(FaultTarget(*space[i]) for i in sorted(picks)))
        schedule = InjectionSchedule(0, int(rng.integers(slots)))
        res = inject_and_run(_FULLSIM_MODE, _FULLSIM_MESSAGE, pattern, schedule,
                             scheme=spec.scheme, unroll=spec.unroll, golden=golden)
        counts[res.outcome] += 1
        if res.outcome == "silent-corruption" and len(witnesses) < MAX_WITNESSES:
            witnesses.append(tuple((t.register, t.bit) for t in pattern.targets))
    detected = counts["detected"]
    rate = detected / spec.trials
    lo, hi = _wilson_interval(detected, spec.trials)
    return CampaignReport(
        scheme=spec.scheme, unroll=spec.unroll, k=spec.k, strategy="random",
        total=spec.trials, detected=detected, undetected=counts["silent-corruption"],
        spurious=counts["spurious-error"], rate=rate, ci_low=lo, ci_high=hi,
        seed=spec.seed, witnesses=witnesses, sheet=None, scope=spec.scope)


def run_campaign(spec: CampaignSpec, workers: int | None = None) -> CampaignReport:
    """Run one campaign to completion and report the tallies.

    Shadow-register scopes run every trial through the engine against the
    digest of a fixed reference message; state-only campaigns evaluate
    the parity arithmetic directly.
    """
    w = _worker_count(workers)
    start = time.perf_counter()
    if spec.strategy in ("exhaustive-sheet", "exhaustive-global"):
        report = _run_exhaustive(spec)
    else:
        if spec.trials > spec.max_patterns:
            raise BudgetExceededError(spec.trials, spec.max_patterns)
        if spec.scope == ("state",):
            report = _run_random_state(spec, w)
        else:
            report = _run_random_fullsim(spec)
    report.wall_time = time.perf_counter() - start
    return report


# ----------------------------------------------------------------------
# exact census and Monte Carlo

def _sheet_undetected_by_weight(max_w: int) -> list[int]:
    """Count of weight-w flip sets inside one sheet with every lane and
    every column even, via a column-by-column transfer over the 2^5 lane
    parity states.  Exact integers.
    """
    even_subsets = [(bin(m).count("1"), m) for m in range(32)
                    if bin(m).count("1") % 2 == 0]
    dp = [[0] * 32 for _ in range(max_w + 1)]
    dp[0][0] = 1
    for _ in range(64):
        ndp = [[0] * 32 for _ in range(max_w + 1)]
        for w in range(max_w + 1):
            row = dp[w]
            for r in range(32):
                v = row[r]
                if not v:
                    continue
                for j, m in even_subsets:
                    if w + j <= max_w:
                        ndp[w + j][r ^ m] += v
        dp = ndp
    return [dp[w][0] for w in range(max_w + 1)]


def _poly_mul(a, b, trunc):
    out = [0] * trunc
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                if i + j < trunc and bv:
                    out[i + j] += av * bv
    return out


def _poly_pow(p, n, trunc):
    result = [1] + [0] * (trunc - 1)
    base = list(p[:trunc]) + [0] * max(0, trunc - len(p))
    while n:
        if n & 1:
            result = _poly_mul(result, base, trunc)
        base = _poly_mul(base, base, trunc)
        n >>= 1
    return result


def _census_witnesses(k: int, scheme: str, limit: int = MAX_WITNESSES) -> list:
    """Build example undetected patterns for the weights where they exist."""
    out = []
    if scheme == "c-plane":
        if k % 2 == 0:
            # pairs of flips sharing a column, one pair per column of sheet 0
            for cols in combinations(range(64), k // 2):
                bits = []
                for z in cols:
                    bits += [64 * 0 + z, 64 * 5 + z]   # lanes (0,0) and (0,1)
                out.append(bits)
                if len(out) >= limit:
                    break
    elif k == 4:
        for (y1, y2), (z1, z2) in (
                (ly, cz)
                for ly in combinations(range(5), 2)
                for cz in combinations(range(64), 2)):
            out.append([64 * 5 * y + z for y in (y1, y2) for z in (z1, z2)])
            if len(out) >= limit:
                break
    elif k == 6:
        for (y1, y2, y3), (z1, z2, z3) in (
                (ly, cz)
                for ly in combinations(range(5), 3)
                for cz in combinations(range(64), 3)):
            cells = [(y1, z1), (y2, z1), (y2, z2), (y3, z2), (y3, z3), (y1, z3)]
            out.append([64 * 5 * y + z for y, z in cells])
            if len(out) >= limit:
                break
    for bits in out:
        assert not detectability_predicate(bits, scheme)
    return [_witness(bits) for bits in out]


def undetected_census(k: int, scheme: str) -> CensusResult:
    """Exact number of weight-k state flip sets the scheme cannot see."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not 1 <= k <= 6:
        raise ValueError("census supports k = 1..6")
    trunc = k + 1
    if scheme == "c-plane":
        # per column: even-sized cell subsets, 1 + 10 t^2 + 5 t^4
        per_column = [1, 0, 10, 0, 5]
        counts = _poly_pow(per_column, 320, trunc)
    else:
        per_sheet = _sheet_undetected_by_weight(k)
        counts = _poly_pow(per_sheet, 5, trunc)
    count = counts[k]
    return CensusResult(k=k, scheme=scheme, count=count,
                        fraction=count / comb(1600, k),
                        witnesses=_census_witnesses(k, scheme) if count else [])


def _mc_rate(k: int, trials: int, seed: int, scheme: str,
             workers: int | None) -> MonteCarloResult:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if k < 1 or trials < 1:
        raise ValueError("k and trials must be positive")
    if k > 1600:
        raise ValueError(f"k = {k} exceeds the 1600 state bits")
    w = _worker_count(workers)
    tasks = [(scheme, k, seed, idx, min(_CHUNK_MC, trials - lo))
             for idx, lo in enumerate(range(0, trials, _CHUNK_MC))]
    results = _map_chunks(_mc_chunk, tasks, w)
    total = sum(r[0] for r in results)
    undetected = sum(r[1] for r in results)
    witnesses = []
    for r in results:
        for bits in r[2]:
            if len(witnesses) >= MAX_WITNESSES:
                break
            witnesses.append(_witness(bits))
    detected = total - undetected
    rate = detected / total
    lo, hi = _wilson_interval(detected, total)
    return MonteCarloResult(total=total, detected=detected, undetected=undetected,
                            rate=rate, ci_low=lo, ci_high=hi, witnesses=witnesses)


def monte_carlo_rate(k: int, trials: int, seed: int, scheme: str = "z-sheet",
                     workers: int | None = None) -> MonteCarloResult:
    """Detection rate over seeded uniform weight-k flip sets of the state.

    Meant for statistical estimates, so the trial count has a floor; small
    draws go through run_campaign with the random strategy instead.
    """
    if trials < 10_000:
        raise ValueError("monte_carlo_rate needs at least 10^4 trials")
    return _mc_rate(k, trials, seed, scheme, workers)
