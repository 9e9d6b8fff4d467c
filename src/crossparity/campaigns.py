"""Fault-injection campaigns over the detection schemes.

Three strategies:

* ``exhaustive-sheet``: every weight-k flip set inside one 320-bit sheet
  (a fixed x; 5 lanes by 64 columns).  Detectability never couples
  distinct sheets, so per-sheet enumeration plus composition covers the
  global picture at a fraction of the cost.
* ``exhaustive-global``: every weight-k flip set over all 1600 state
  bits.
* ``random``: seeded uniform samples of weight-k flip sets, with a
  Wilson 95% interval on the detection rate.

Over the state, an exhaustive sweep takes k <= 4 in either space (global
k = 4 is 272 billion patterns) and Monte Carlo k <= 64; ``CampaignSpec``
refuses anything above.

Campaigns over the plain state register are evaluated through the parity
arithmetic of the shadows, which agrees with a full engine run by
construction and is cross-checked against one in the test suite.  The
exhaustive strategies give each position, and each pair of positions, a
key: the canonical id of its column mask (the XOR of the two masks for a
pair), combined under z-sheet with the id of its lane mask.  A flip set
escapes exactly when the keys of its two halves are equal, so the
escapes of each head of an exhaustive sweep are one run of a sorted key
table, counted for every head at once.  A k <= 2 sweep reads only the
single-position table (a k = 2 pattern is one position after another),
so the pair table is built only for k >= 3.  A k = 4 head is itself an
entry of the pair table, so it reads where its run ends from a cached
table and searches for where its escapes start only when an entry of its
key follows it.  Monte Carlo instead XORs a 64-bit fingerprint of each
sampled position, which every escaping row folds to zero, and sorts only
the rows that fold to zero for the exact per-class check.  It finds the
samples with a repeated position by comparing every pair of columns up
to k = ``_PAIRS_MAX_K``, and by sorting each row past it.  Both the
repeat search and the fold run over fixed blocks of ``_BLOCK_MC`` rows,
so a chunk holds no array of its size beyond its draws and a row mask.
Campaigns whose scope includes shadow registers give each trial the
outcome of an engine run, since only the digest can tell a false alarm
from real corruption.  Every trial hashes the same fixed message, one
permutation long.  Its flag is the syndrome predicate's, which is what the engine's
checks compute, and only trials with state flips run the rounds, as
numpy rows that start from the entry state of one shared fault-free run;
a trial without them keeps that run's digest (see ``_run_batch`` for why
this is exact).

Each strategy returns its tallies and ``run_campaign`` builds the one
report from them.  Exhaustive sweeps run in one pass in the calling
process.  Engine-level trials run in the calling process in fixed-size
batches, so memory stays bounded for any trial count.  Monte Carlo over
the state is split into fixed-size chunks of trials, each drawn from its
own seeded generator, so results are identical for any worker count.  A
campaign of more than one chunk with more than one worker hands its
chunks to a process pool that is started by the first such call and kept
for the next ones; any other runs in the calling process.  The worker
count comes from the CROSSPARITY_WORKERS environment variable, defaulting
to the available parallelism.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb, prod

import numpy as np

from .engine import UNROLL_FACTORS
# inject_and_run runs one trial alone; the benchmark's tracer wraps it here
from .faults import REGISTER_WIDTHS, inject_and_run, reference_run  # noqa: F401
from .fd import SCHEMES, detectability_predicate
from .keccak import NUM_ROUNDS, round_step

WORKERS_ENV = "CROSSPARITY_WORKERS"
MAX_WITNESSES = 16

STRATEGIES = ("exhaustive-sheet", "exhaustive-global", "random")

# Monte Carlo trials per chunk; fixed so that the sampled patterns never
# depend on the worker count
_CHUNK_MC = 1 << 16

# largest k at which a Monte Carlo chunk finds repeats by comparing every
# pair of columns of a transposed row block.  Past it sorting each row is
# cheaper: a 2^16-row z-sheet chunk takes about 2.8 ms against 5.7 ms at
# k = 6, breaks even near k = 16 and takes 42 ms against 25 ms at k = 32
# (2 vCPUs)
_PAIRS_MAX_K = 16

# rows per block of a Monte Carlo chunk: each repeat search and fold runs
# over one block at a time, so its temporaries are bounded by the block
# (at most 1 MiB, the sorted block at k = 64) whatever the chunk size
_BLOCK_MC = 1 << 12

# engine-level trials per batch; fixed so that memory stays bounded for any
# trial count
_CHUNK_FULLSIM = 1 << 10

# largest k over the state: a sweep's heads and entries are at most pairs,
# and _sample_distinct redraws a whole row on any repeat.  At k = 64 about
# 72% of rows hold one and a chunk takes about 0.12 s (2 vCPUs); the share
# of distinct rows falls off as exp(-k(k - 1) / 3200), so the redraws grow
# fast past 64
_MAX_K = {"exhaustive-sheet": 4, "exhaustive-global": 4, "random": 64}

_FULLSIM_MODE = "sha3-256"
_FULLSIM_MESSAGE = b"engine-level fault campaign"


@dataclass(frozen=True, slots=True)
class CampaignSpec:
    scheme: str
    k: int
    strategy: str
    trials: int | None = None
    seed: int = 0
    unroll: int = 1
    sheet: int = 0
    scope: tuple[str, ...] = ("state",)

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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for i, reg in enumerate(self.scope):
            if reg not in REGISTER_WIDTHS:
                raise ValueError(f"unknown register {reg!r} in scope")
            if reg in self.scope[:i]:
                raise ValueError(f"scope names register {reg!r} twice")
        if not self.scope:
            raise ValueError("scope must name at least one register")
        width = sum(REGISTER_WIDTHS[reg] for reg in self.scope)
        if self.k > width:
            raise ValueError(f"k = {self.k} exceeds the {width} bits in scope")
        if self.scope == ("state",) and self.k > _MAX_K[self.strategy]:
            raise ValueError(f"{self.strategy} campaigns over the state support "
                             f"k <= {_MAX_K[self.strategy]}")
        if self.scheme == "c-plane" and set(self.scope) & {"f_prime", "cf_prime"}:
            raise ValueError("f_prime/cf_prime only exist under z-sheet")
        if self.scope != ("state",) and self.strategy != "random":
            raise ValueError("shadow-register scopes require the random strategy")


@dataclass(slots=True)
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


@dataclass(frozen=True, slots=True)
class CensusResult:
    k: int
    scheme: str
    count: int
    fraction: float
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


def worker_count(workers: int | None = None) -> int:
    """``workers``, else CROSSPARITY_WORKERS, else the available CPUs."""
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be a positive integer, got {workers!r}")
        return workers
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
def _pairs(space: int):
    """(a, b, start): the pairs a < b in enumeration order and the index of
    the first pair whose a is each position; one copy for both schemes."""
    a, b = np.triu_indices(space, 1)
    start = np.zeros(space + 1, dtype=np.int64)
    start[1:] = np.cumsum(space - 1 - np.arange(space))
    return a.astype(np.int16), b.astype(np.int16), start


@lru_cache(maxsize=None)
def _pair_keys(scheme: str, space: int):
    """(a, b, start, key, ranked): ``_pairs`` and the ranked pair keys."""
    a, b, start = _pairs(space)
    return a, b, start, *_ranked(_key_table(scheme, space, (a, b)))


@lru_cache(maxsize=None)
def _next_pairs(space: int):
    """The index of the first pair after each pair (int32), for both schemes."""
    _, b, start = _pairs(space)
    return start[b + 1].astype(np.int32)


@lru_cache(maxsize=None)
def _run_ends(scheme: str, space: int):
    """(begin, end, live) for the ranked pair table as the heads of a k = 4
    sweep: ``_next_pairs``, where each pair's key run ends in ``ranked``
    (int32), and the pairs that some later entry of their run follows, in
    index order.  Kept apart from ``_pair_keys``, so that only a k = 4
    sweep builds them."""
    ranked = _pair_keys(scheme, space)[4]
    n = len(ranked)
    pair, run_key = ranked % n, ranked // n
    same = run_key[1:] == run_key[:-1]          # ranks r and r + 1 share a key
    ends = np.append(np.flatnonzero(~same) + 1, n)
    end = np.empty(n, dtype=np.int32)
    end[pair] = np.repeat(ends, np.diff(ends, prepend=0))
    live = np.zeros(n, dtype=bool)
    live[pair[:-1][same]] = True
    return _next_pairs(space), end, np.flatnonzero(live)


def _sheet_bit_to_state(sheet: int, pos: int) -> int:
    y, z = divmod(pos, 64)
    return 64 * (5 * y + sheet) + z


def _witness(bits) -> tuple:
    return tuple(("state", int(b)) for b in sorted(bits))


# ----------------------------------------------------------------------
# sweep and sampling kernels

def _escapes(scheme: str, space: int, k: int):
    """Per head of a weight-k sweep: (first entry after it, first escaping
    entry in the ranked table of its entries, escaping entry count).

    A pattern is a head (empty for k = 1, a first position for k = 2 and
    3, a first pair for k = 4) and one table entry after it (a position for
    k <= 2, a pair past that), and escapes when the entry's key equals the
    head's (0 for the empty head).  So k <= 2 reads only the single-key
    table, and only k >= 3 builds the pair table.  A head's escaping
    entries are the entries of its key run from the first one after it on.
    For k <= 3 two binary searches find the run's two ends.  A k = 4 head
    is a pair, so its run is its own: it reads its first entry and the
    run's end from ``_run_ends``, and only a head that some entry of its
    run follows searches for the start.
    """
    single, ranked = _single_keys(scheme, space)
    if k == 1:
        target, begin = np.zeros(1, np.int64), np.zeros(1, np.int64)
    elif k == 2:
        target, begin = single[:space - 1], np.arange(1, space)
    else:
        _, _, start, key, ranked = _pair_keys(scheme, space)
        if k == 4:
            begin, end, live = _run_ends(scheme, space)
            first = end.copy()
            first[live] = np.searchsorted(
                ranked, key[live].astype(np.int64) * len(ranked) + begin[live])
            return begin, first, end - first
        target, begin = single[:space - 2], start[1:space - 1]
    n = len(ranked)
    base = target.astype(np.int64) * n
    first = np.searchsorted(ranked, base + begin)
    return begin, first, np.searchsorted(ranked, base + n) - first


def _sweep(scheme: str, space: int, k: int):
    """Count the escaping weight-k subsets of ``space`` positions.

    Returns (patterns evaluated, undetected count, first undetected
    patterns as position tuples, in enumeration order).
    """
    begin, first, counts = _escapes(scheme, space, k)
    if k <= 2:
        _, ranked = _single_keys(scheme, space)
    else:
        a, b, _, _, ranked = _pair_keys(scheme, space)
    n = len(ranked)
    patterns = []
    for h in np.flatnonzero(counts):
        room = MAX_WITNESSES - len(patterns)
        if not room:
            break
        head = () if k == 1 else (int(h),) if k <= 3 else (int(a[h]), int(b[h]))
        for q in ranked[first[h]:first[h] + min(counts[h], room)] % n:
            patterns.append(head + ((int(q),) if k <= 2 else (int(a[q]), int(b[q]))))
    # every head is followed by the n - begin entries from its first one on
    return n * len(begin) - int(begin.sum()), int(counts.sum()), patterns


def _has_repeat(rows):
    """Per row of an (m, k) array: does some value occur in it twice?

    Runs over blocks of ``_BLOCK_MC`` rows.  Up to ``_PAIRS_MAX_K`` every
    pair of columns of a block is compared, on one transposed copy of the
    block; past it the block's rows are sorted and each compared with
    itself shifted by one.
    """
    m, k = rows.shape
    bad = np.zeros(m, dtype=bool)
    if k > _PAIRS_MAX_K:
        for lo in range(0, m, _BLOCK_MC):
            srt = np.sort(rows[lo:lo + _BLOCK_MC], axis=1)
            np.any(srt[:, 1:] == srt[:, :-1], axis=1, out=bad[lo:lo + _BLOCK_MC])
        return bad
    cols = np.empty((k, min(m, _BLOCK_MC)), dtype=rows.dtype)
    for lo in range(0, m, _BLOCK_MC):
        out = bad[lo:lo + _BLOCK_MC]
        col = cols[:, :len(out)]
        np.copyto(col, rows[lo:lo + _BLOCK_MC].T)
        for i, j in combinations(range(k), 2):
            out |= col[i] == col[j]
    return bad


def _sample_distinct(rng, n_rows, k, space):
    """(n_rows, k) arrays of distinct draws from range(space).

    A row with a repeat is redrawn whole, in row order, until none is
    left.  Rows not redrawn stay distinct, so each pass after the first
    checks only the rows it redrew, reading the redraws themselves.
    ``_has_repeat`` reads in row blocks, so the only arrays of the chunk's
    size are the draws and one row mask.
    """
    arr = rng.integers(0, space, size=(n_rows, k), dtype=np.int32)
    rows = np.flatnonzero(_has_repeat(arr))
    while len(rows):
        redraw = rng.integers(0, space, size=(len(rows), k), dtype=np.int32)
        arr[rows] = redraw
        rows = rows[_has_repeat(redraw)]
    return arr


@lru_cache(maxsize=None)
def _fingerprints(scheme: str):
    """One uint64 per state position: the XOR of a fixed random key for
    each of its classes.  A row in which every class occurs an even number
    of times XORs to zero, so a row with a non-zero fold is detected."""
    rng = np.random.default_rng(0)
    fp = np.zeros(1600, dtype=np.uint64)
    for cls, n in _classes(scheme, 1600):
        fp ^= rng.integers(0, 1 << 64, size=n, dtype=np.uint64)[cls]
    return fp


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
    """One Monte Carlo chunk (top level so it pickles): the undetected
    count and the first undetected draws.

    The fingerprints are folded over blocks of ``_BLOCK_MC`` rows, column
    by column into one buffer, and each block's zero test goes into one
    row mask.  Only the rows whose fingerprints fold to zero, the escapes
    and the rare 64-bit collision, go through the exact per-class
    check."""
    scheme, k, seed, chunk_index, n = args
    rng = np.random.default_rng([seed, chunk_index])
    arr = _sample_distinct(rng, n, k, 1600)
    fp = _fingerprints(scheme)
    zero = np.empty(n, dtype=bool)
    fold, buf = np.empty((2, min(n, _BLOCK_MC)), dtype=np.uint64)
    for lo in range(0, n, _BLOCK_MC):
        block = arr[lo:lo + _BLOCK_MC]
        m = len(block)
        # every draw is in range(1600), so clipping never acts; it spares
        # ``take`` the buffered range check
        fp.take(block[:, 0], out=fold[:m], mode="clip")
        for j in range(1, k):
            fold[:m] ^= fp.take(block[:, j], out=buf[:m], mode="clip")
        np.equal(fold[:m], 0, out=zero[lo:lo + m])
    und = np.flatnonzero(zero)
    for cls, _ in _classes(scheme, 1600):
        und = und[_rows_all_even(cls[arr[und]])]
    return len(und), arr[und[:MAX_WITNESSES]]


# ----------------------------------------------------------------------
# engine-level trials as numpy rows
#
# A batch keeps the state of its rows as a (25, N) uint64 array, one
# column per trial, in the layout of ``StateArray.lanes``: state bit b is
# bit b % 64 of lane b // 64 (x + 5*y).  That is the array
# ``keccak.round_step`` runs on, and the engine's state is one such column,
# so the rows take the engine's own round.

def _run_batch(reference, scheme: str, unroll: int, patterns, slots):
    """Run one faulted copy of a single-permutation hash per pattern.

    ``patterns`` holds each row's (register, bit) targets and ``slots`` its
    commit slot.  Returns each row's sticky error flag and its ungated
    digest, an (N, digest length) uint8 array.

    Neither needs the engine's checks and primes.  A check compares the
    sums of the state it reads with shadows primed from that same state
    one commit earlier, so only the check of the row's own window can
    mismatch, and it does exactly when the flips' syndrome is non-zero:
    the flag is ``detectability_predicate``'s.  Shadow flips are
    overwritten by the next prime and never reach the state, so a row
    without state flips ends with the digest of ``reference``.  Only the
    rows with state flips run: from the reference's entry state, they take
    their flips at their slot and run the rounds.
    """
    if len(reference.entries) != 1:
        raise ValueError("batched trials need a hash of one permutation, "
                         f"not {len(reference.entries)}")
    flags = np.fromiter((detectability_predicate(t, scheme) for t in patterns),
                        bool, len(patterns))
    digests = np.tile(np.frombuffer(reference.digest, np.uint8), (len(patterns), 1))
    state = [[bit for reg, bit in targets if reg == "state"] for targets in patterns]
    hit = [row for row, bits in enumerate(state) if bits]
    if not hit:
        return flags, digests
    flips = np.zeros((25, len(hit)), np.uint64)
    for col, row in enumerate(hit):
        for bit in state[row]:
            flips[bit // 64, col] ^= 1 << bit % 64
    at = np.asarray(slots)[hit]
    a = np.repeat(reference.entries[0], len(hit), axis=1)
    for slot in range(NUM_ROUNDS // unroll):
        a ^= np.where(at == slot, flips, 0)
        for r in range(slot * unroll, (slot + 1) * unroll):
            a = round_step(a, r)
    out = digests.shape[1]
    lanes = np.ascontiguousarray(a[:-(-out // 8)].T).astype("<u8")
    digests[hit] = lanes.view(np.uint8)[:, :out]
    return flags, digests


# ----------------------------------------------------------------------
# strategy drivers: each returns (total, detected, undetected, spurious,
# witnesses)

def _run_exhaustive(spec: CampaignSpec):
    per_sheet = spec.strategy == "exhaustive-sheet"
    space = 320 if per_sheet else 1600
    total = comb(space, spec.k)
    evaluated, undetected, patterns = _sweep(spec.scheme, space, spec.k)
    if evaluated != total:
        raise AssertionError(f"enumeration covered {evaluated} of {total} patterns")
    if per_sheet:
        patterns = [[_sheet_bit_to_state(spec.sheet, p) for p in pat] for pat in patterns]
    return total, total - undetected, undetected, 0, [_witness(p) for p in patterns]


# the Monte Carlo process pool kept across calls, as ((pid, workers), pool)
_pool = None


def _mc_pool(workers: int) -> ProcessPoolExecutor:
    """The kept pool of ``workers`` processes, started on first use.

    The key holds the process id, so a forked child starts its own pool
    instead of using its parent's.  Only one pool is alive at a time; the
    workers exit at interpreter exit through ``concurrent.futures``' own
    exit hook.
    """
    global _pool
    key = (os.getpid(), workers)
    if _pool is not None and _pool[0] != key:
        _drop_pool()
    if _pool is None:
        _pool = key, ProcessPoolExecutor(max_workers=workers)
    return _pool[1]


def _drop_pool():
    """Forget the kept pool, shutting it down if this process started it."""
    global _pool
    if _pool is None:
        return
    (pid, _), pool = _pool
    _pool = None
    if pid == os.getpid():
        pool.shutdown(cancel_futures=True)


def _run_random_state(spec: CampaignSpec, workers: int):
    tasks = [(spec.scheme, spec.k, spec.seed, idx, min(_CHUNK_MC, spec.trials - lo))
             for idx, lo in enumerate(range(0, spec.trials, _CHUNK_MC))]
    if workers <= 1 or len(tasks) <= 1:
        results = [_mc_chunk(t) for t in tasks]
    else:
        try:
            results = list(_mc_pool(workers).map(_mc_chunk, tasks))
        except BrokenProcessPool:
            _drop_pool()
            raise
    undetected = sum(r[0] for r in results)
    witnesses = [_witness(bits) for r in results for bits in r[1]][:MAX_WITNESSES]
    return spec.trials, spec.trials - undetected, undetected, 0, witnesses


@lru_cache(maxsize=None)
def _scope_space(scope) -> tuple:
    return tuple((reg, bit) for reg, width in REGISTER_WIDTHS.items() if reg in scope
                 for bit in range(width))


@lru_cache(maxsize=None)
def _fullsim_reference(scheme: str, unroll: int):
    return reference_run(_FULLSIM_MODE, _FULLSIM_MESSAGE, scheme, unroll)


def _fullsim_batches(spec: CampaignSpec):
    """Draw an engine-level campaign's trials and run them in batches of
    ``_CHUNK_FULLSIM``.  Yields (patterns, slots, flags, digests) per
    batch: each trial's (register, bit) targets in ``FaultPattern`` order,
    its commit slot in the fixed hash's one permutation, its error flag
    and its ungated digest."""
    space = _scope_space(tuple(spec.scope))
    rng = np.random.default_rng([spec.seed, len(space)])
    slots = NUM_ROUNDS // spec.unroll
    reference = _fullsim_reference(spec.scheme, spec.unroll)
    for lo in range(0, spec.trials, _CHUNK_FULLSIM):
        draws = [(rng.choice(len(space), size=spec.k, replace=False), int(rng.integers(slots)))
                 for _ in range(min(_CHUNK_FULLSIM, spec.trials - lo))]
        patterns = [tuple(sorted(space[i] for i in picks)) for picks, _ in draws]
        at = [slot for _, slot in draws]
        yield (patterns, at,
               *_run_batch(reference, spec.scheme, spec.unroll, patterns, at))


def _run_random_fullsim(spec: CampaignSpec):
    """Engine-level campaign; needed once shadow registers are in scope.

    Every trial hashes the same fixed message, so one fault-free reference
    run per (scheme, unroll) gives the fault-free digest and the entry
    state that trials with state flips start from.
    """
    golden = np.frombuffer(_fullsim_reference(spec.scheme, spec.unroll).digest, np.uint8)
    detected = undetected = spurious = 0
    witnesses = []
    for patterns, _, flags, digests in _fullsim_batches(spec):
        corrupted = (digests != golden).any(axis=1)
        detected += int((flags & corrupted).sum())
        spurious += int((flags & ~corrupted).sum())
        silent = np.flatnonzero(~flags & corrupted)
        undetected += len(silent)
        witnesses += [patterns[i] for i in silent[:MAX_WITNESSES - len(witnesses)]]
    return spec.trials, detected, undetected, spurious, witnesses


def run_campaign(spec: CampaignSpec, workers: int | None = None) -> CampaignReport:
    """Run one campaign to completion and report the tallies.

    Shadow-register scopes give every trial the outcome of an engine run
    of one hash of a fixed message, computed in batches; state-only
    campaigns evaluate the parity arithmetic directly.  Exhaustive rates
    are exact (the interval is the rate itself); sampled rates carry a
    Wilson interval.
    """
    w = worker_count(workers)
    start = time.perf_counter()
    exhaustive = spec.strategy != "random"
    if exhaustive:
        tallies = _run_exhaustive(spec)
    elif spec.scope == ("state",):
        tallies = _run_random_state(spec, w)
    else:
        tallies = _run_random_fullsim(spec)
    total, detected, undetected, spurious, witnesses = tallies
    rate = detected / total
    lo, hi = (rate, rate) if exhaustive else _wilson_interval(detected, total)
    return CampaignReport(
        scheme=spec.scheme, unroll=spec.unroll, k=spec.k, strategy=spec.strategy,
        total=total, detected=detected, undetected=undetected, spurious=spurious,
        rate=rate, ci_low=lo, ci_high=hi, seed=spec.seed, witnesses=witnesses,
        sheet=spec.sheet if spec.strategy == "exhaustive-sheet" else None,
        scope=spec.scope, wall_time=time.perf_counter() - start)


# ----------------------------------------------------------------------
# exact census

def _sheet_undetected_by_weight(max_w: int, scheme: str) -> list[int]:
    """Count of weight-w flip sets inside one sheet that the scheme cannot
    see: every column even, and under z-sheet every lane even too.  A
    column-by-column transfer over the 2^5 lane parity states; c-plane
    sums the final states, z-sheet keeps the all-even one.  Exact integers.
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
    return [sum(row) if scheme == "c-plane" else row[0] for row in dp]


def _poly_mul(a, b, trunc):
    out = [0] * trunc
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                if i + j < trunc and bv:
                    out[i + j] += av * bv
    return out


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
        if detectability_predicate(bits, scheme):
            raise AssertionError(f"census witness {bits} is detected under {scheme}")
    return [_witness(bits) for bits in out]


def undetected_census(k: int, scheme: str) -> CensusResult:
    """Exact number of weight-k state flip sets the scheme cannot see.

    Every column and every lane lies inside one sheet, so the state's
    count is the five-fold product of the per-sheet counts.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not 1 <= k <= 6:
        raise ValueError("census supports k = 1..6")
    per_sheet = _sheet_undetected_by_weight(k, scheme)
    counts = [1]
    for _ in range(5):
        counts = _poly_mul(counts, per_sheet, k + 1)
    count = counts[k]
    return CensusResult(k=k, scheme=scheme, count=count,
                        fraction=count / comb(1600, k),
                        witnesses=_census_witnesses(k, scheme) if count else [])

