"""Benchmark phases: seeded requests, one timed call into crossparity each, reference checks.

A phase makes its requests from the seed alone, calls the package once per
request in a closed loop (one client that waits for each result) and checks
every result after the loop, outside the timed region, against the
references in ``reference.py``, none of which the package computes.

Mode rates, unroll factors and register widths are written out in the
benchmark rather than read from the package, so the inputs stay the same
whatever the package's internals look like.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from math import comb

from crossparity import campaigns, engine, faults

from reference import (DIGEST, RATE, ROUNDS, census_reference, escapes, expected_cycles,
                       faulted_digest, is_shake, outcome, permutations_run,
                       reference_digest, remask_signature, witnesses_escape)

MODES = tuple(RATE)
UNROLLS = (1, 2, 4, 6, 8, 12, 24)
CHECKERS = (None, "c-plane", "z-sheet")
SCHEMES = ("c-plane", "z-sheet")
SHADOWS = {"c-plane": {"c_prime": 320},
           "z-sheet": {"c_prime": 320, "f_prime": 25, "cf_prime": 5}}
FULL_SCOPE = ("state", "c_prime", "f_prime", "cf_prime")
SHAKE_SHORT_OUT = 32


@dataclass
class Sample:
    request: object
    result: object
    seconds: float


class Phase:
    """One kind of request.  Subclasses set ``name`` and ``cycle`` (the
    request count after which the mix has come round once; a time-bounded
    run ends on such a boundary) and implement the four methods."""

    name = ""
    cycle = 1

    def __init__(self, workers: int, main: bool):
        self.workers = workers
        self.main = main  # one of the workload's own phases, not a probe

    def requests(self, seed: int):
        raise NotImplementedError

    def call(self, req):
        raise NotImplementedError

    def check(self, req, res) -> str | None:
        """Failure cause, or None if the result matches its reference."""
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError


class Runner:
    """Closed loop over one phase's requests: one client, which waits for
    each result before it sends the next.  The loop can be advanced in
    slices, so several phases can share a run; checks run at the end."""

    def __init__(self, phase: Phase, seed: int, tracer=None):
        self.phase = phase
        self.requests = phase.requests(seed)
        self.samples: list[Sample] = []
        self.busy = 0.0           # seconds spent in timed calls so far
        self.tracer = tracer

    def step(self) -> None:
        req = next(self.requests)
        if self.tracer is not None:
            self.tracer.request = f"{self.phase.name}/{len(self.samples)}"
        t0 = time.perf_counter()
        res = self.phase.call(req)
        seconds = time.perf_counter() - t0
        self.samples.append(Sample(req, res, seconds))
        self.busy += seconds

    def run(self, count: int) -> None:
        for _ in range(count):
            self.step()

    def run_until(self, busy: float, count: int = 0) -> None:
        """Call until ``busy`` seconds are spent in calls and ``count``
        requests are done.  A call that overruns its share delays the
        phase's next call, so long calls keep to their share of a run."""
        while self.busy < busy or len(self.samples) < count:
            self.step()

    def complete(self, min_count: int) -> None:
        """Finish the current mix cycle and reach ``min_count`` requests."""
        while len(self.samples) % self.phase.cycle or len(self.samples) < min_count:
            self.step()

    def failures(self) -> Counter:
        out: Counter = Counter()
        for s in self.samples:
            cause = self.phase.check(s.request, s.result)
            if cause is not None:
                out[cause] += 1
        return out


# ----------------------------------------------------------------------
# digests

@dataclass(frozen=True)
class DigestRequest:
    mode: str
    checker: str | None
    unroll: int
    msg: bytes
    out_len: int


class DigestPhase(Phase):
    def call(self, req: DigestRequest):
        eng = engine.Engine(req.mode, fd=req.checker, unroll=req.unroll)
        eng.absorb(req.msg)
        eng.finish()
        out = eng.squeeze(req.out_len)
        return out, eng.cycles, eng.masked, eng.fd is not None and eng.fd.error

    def check(self, req: DigestRequest, res):
        out, cycles, masked, error = res
        if out != reference_digest(req.mode, req.msg, req.out_len):
            return "digest"
        if error:
            return "error-flag"
        if masked:
            return "masked"
        if cycles != expected_cycles(req.mode, len(req.msg), req.out_len, req.unroll):
            return "cycles"
        return None


class ShortDigests(DigestPhase):
    """Single-block messages over every mode x checker x unroll setting."""

    name = "short"
    cycle = len(MODES) * len(CHECKERS) * len(UNROLLS)

    def requests(self, seed):
        rng = random.Random(f"short/{seed}")
        combos = [(m, c, u) for m in MODES for c in CHECKERS for u in UNROLLS]
        while True:
            rng.shuffle(combos)
            for mode, checker, unroll in combos:
                msg = rng.randbytes(rng.randrange(RATE[mode]))
                out_len = SHAKE_SHORT_OUT if is_shake(mode) else DIGEST[mode]
                yield DigestRequest(mode, checker, unroll, msg, out_len)

    def warm_up(self):
        for mode in MODES:
            for checker in CHECKERS:
                self.call(DigestRequest(mode, checker, 1, b"warm", SHAKE_SHORT_OUT
                                        if is_shake(mode) else DIGEST[mode]))


class LongDigests(DigestPhase):
    """4-24 KiB messages without a checker; SHAKE squeezes 2-4 rate blocks.
    One size per cycle of the six modes, so every mode weighs the same in
    the absorb rate whatever the seed."""

    name = "long"
    cycle = len(MODES)

    def requests(self, seed):
        rng = random.Random(f"long/{seed}")
        modes = list(MODES)
        while True:
            rng.shuffle(modes)
            size = rng.randrange(4096, 24 * 1024 + 1)
            blocks = rng.randint(2, 4)
            for mode in modes:
                msg = rng.randbytes(size)
                out_len = blocks * RATE[mode] - 1 if is_shake(mode) else DIGEST[mode]
                yield DigestRequest(mode, None, rng.choice(UNROLLS), msg, out_len)

    def warm_up(self):
        for mode in MODES:
            self.call(DigestRequest(mode, None, 1, bytes(600), 400 if is_shake(mode)
                                    else DIGEST[mode]))


# ----------------------------------------------------------------------
# fault injection

@dataclass(frozen=True)
class InjectRequest:
    mode: str
    scheme: str
    unroll: int
    msg: bytes
    out_len: int
    targets: tuple            # ((register, bit), ...)
    pattern: object           # faults.FaultPattern of the targets
    schedule: object          # faults.InjectionSchedule
    golden: bytes             # hashlib digest of the fault-free run


def _shadow_space(scheme):
    return [(reg, bit) for reg, width in SHADOWS[scheme].items() for bit in range(width)]


class InjectTrials(Phase):
    """``inject_and_run`` over multi-block SHA-3/SHAKE runs.

    A mix cycle has one trial of every mode x scheme x unroll factor x
    absorbed-block count (2 or 3); a SHAKE trial squeezes 32 bytes or one
    or two more rate blocks, fixed by its unroll factor and block count.
    The run length sets a trial's cost, so every cycle has the same spread
    of costs and p95 does not hang on how many long runs a seed draws.  The permutation index is
    drawn over the whole run (absorb and squeeze permutations) and the
    commit slot uniformly.  Patterns are state-only or shadow-only.
    State-only ones are random (weight 1-4) or planted: a weight-4 sheet
    rectangle, which both checkers miss, or a pair sharing one column,
    which only z-sheet catches, so every verdict occurs.
    """

    name = "inject"
    cycle = len(MODES) * len(SCHEMES) * len(UNROLLS) * 2

    def requests(self, seed):
        rng = random.Random(f"inject/{seed}")
        shadow = {s: _shadow_space(s) for s in SCHEMES}
        # (mode, scheme, unroll, blocks, SHAKE squeeze refreshes)
        shapes = [(m, s, u, b, (i + b) % 3) for m in MODES for s in SCHEMES
                  for i, u in enumerate(UNROLLS) for b in (2, 3)]
        while True:
            rng.shuffle(shapes)
            for shape in shapes:
                yield self._request(rng, shadow, *shape)

    @staticmethod
    def _request(rng, shadow, mode, scheme, unroll, blocks, refreshes):
        rate = RATE[mode]
        msg = rng.randbytes(rng.randrange((blocks - 1) * rate, blocks * rate))
        if not is_shake(mode):
            out_len = DIGEST[mode]
        elif refreshes == 0:
            out_len = SHAKE_SHORT_OUT
        else:
            out_len = rng.randrange(refreshes * rate + 1, min(refreshes + 1, 3) * rate)
        blocks, refreshes = permutations_run(mode, len(msg), out_len)
        perm = rng.randrange(blocks + refreshes)
        slot = rng.randrange(ROUNDS // unroll)
        kind = rng.random()
        if kind < 0.4:
            targets = [("state", b) for b in rng.sample(range(1600), rng.randint(1, 4))]
        elif kind < 0.65:
            x = rng.randrange(5)
            ys = rng.sample(range(5), 2)
            zs = rng.sample(range(64), rng.choice((1, 2)))
            targets = [("state", 64 * (5 * y + x) + z) for y in ys for z in zs]
        else:
            targets = rng.sample(shadow[scheme], rng.randint(1, 2))
        pattern = faults.FaultPattern(tuple(faults.FaultTarget(r, b) for r, b in targets))
        return InjectRequest(mode, scheme, unroll, msg, out_len, tuple(targets), pattern,
                             faults.InjectionSchedule(perm, slot),
                             reference_digest(mode, msg, out_len))

    def call(self, req: InjectRequest):
        return faults.inject_and_run(
            req.mode, req.msg, req.pattern, req.schedule, scheme=req.scheme,
            unroll=req.unroll, out_len=req.out_len if is_shake(req.mode) else None,
            golden=req.golden)

    def check(self, req: InjectRequest, res):
        state_bits = [b for r, b in req.targets if r == "state"]
        if state_bits:
            slot_round = req.schedule.commit_slot * req.unroll
            faulted = faulted_digest(req.mode, req.msg, req.out_len, state_bits,
                                     req.schedule.permutation_index, slot_round)
            want = outcome(not escapes(state_bits, req.scheme), faulted != req.golden)
        else:
            want = outcome(True, False)
        if res.outcome == want:
            return None
        if (res.outcome == "detected" and want == "spurious-error"
                and remask_signature(res.digest, req.golden, RATE[req.mode])):
            return "squeeze-remask"
        return "outcome"

    def warm_up(self):
        gen = self.requests(-1)
        for _ in range(3):
            self.call(next(gen))


@dataclass(frozen=True)
class FullsimRequest:
    spec: object              # campaigns.CampaignSpec


class FullsimCampaign(Phase):
    """Engine-level ``run_campaign(strategy="random")`` calls over the state
    and all shadow registers, z-sheet, k = 2, unroll 1, each a request of
    its own.

    Under z-sheet every flip set of weight <= 2 raises the flag (one state
    flip breaks its column; two distinct flips cannot pair up in both a
    column and a lane; shadow flips break their own compare), so the
    tallies are detected + spurious = trials, with no silent corruption and
    no benign run.
    """

    name = "fullsim"
    cycle = 1

    def requests(self, seed):
        rng = random.Random(f"fullsim/{seed}")
        while True:
            yield FullsimRequest(campaigns.CampaignSpec(
                scheme="z-sheet", k=2, strategy="random", trials=40 if self.main else 20,
                seed=rng.randrange(2 ** 32), scope=FULL_SCOPE))

    def call(self, req: FullsimRequest):
        return campaigns.run_campaign(req.spec, workers=self.workers)

    def check(self, req: FullsimRequest, rep):
        trials = req.spec.trials
        if rep.total != trials or rep.undetected != 0 or rep.detected + rep.spurious != trials:
            return "tally"
        return None

    def warm_up(self):
        campaigns.run_campaign(campaigns.CampaignSpec(
            scheme="z-sheet", k=2, strategy="random", trials=2, scope=FULL_SCOPE),
            workers=self.workers)


# ----------------------------------------------------------------------
# numpy campaigns

@dataclass(frozen=True)
class CampaignRequest:
    kind: str                 # "exhaustive", "mc" or "census"
    spec: object = None       # campaigns.CampaignSpec, for "exhaustive" and "mc"
    k: int = 0                # census weight
    scheme: str = ""          # census scheme


def _exhaustive(scheme, k, strategy, sheet=0):
    return CampaignRequest("exhaustive", campaigns.CampaignSpec(
        scheme=scheme, k=k, strategy=strategy, sheet=sheet))


def _mc(scheme, k, trials, seed):
    return CampaignRequest("mc", campaigns.CampaignSpec(
        scheme=scheme, k=k, strategy="random", trials=trials, seed=seed))


class CampaignSweep(Phase):
    """The parity-arithmetic campaigns: exhaustive sweeps, Monte Carlo and
    the census.  A main round is z-sheet k=4 over all five sheets, c-plane
    k=2 global, Monte Carlo at k=4 and k=6 for both schemes and the census
    k=1..6 for both schemes.  The probe round has two z-sheet k=4 sheets,
    c-plane global k=1, Monte Carlo at k=4 for each scheme and two census
    calls, and builds no global pair table."""

    name = "campaigns"

    def __init__(self, workers, main):
        super().__init__(workers, main)
        self.cycle = len(self._round(random.Random(0)))

    def _round(self, rng):
        if not self.main:
            return [req for scheme, k in (("z-sheet", 4), ("c-plane", 2)) for req in (
                _exhaustive("z-sheet", 4, "exhaustive-sheet", rng.randrange(5)),
                _exhaustive("c-plane", 1, "exhaustive-global"),
                _mc(scheme, 4, 1 << 20, rng.randrange(2 ** 32)),
                CampaignRequest("census", k=k, scheme=scheme))]
        sheets = rng.sample(range(5), 5)
        return ([_exhaustive("z-sheet", 4, "exhaustive-sheet", s) for s in sheets]
                + [_exhaustive("c-plane", 2, "exhaustive-global")]
                + [_mc(s, k, 1 << 20, rng.randrange(2 ** 32))
                   for s in SCHEMES for k in (4, 6)]
                + [CampaignRequest("census", k=k, scheme=s)
                   for s in SCHEMES for k in range(1, 7)])

    def requests(self, seed):
        rng = random.Random(f"campaigns/{seed}")
        while True:
            yield from self._round(rng)

    def call(self, req: CampaignRequest):
        if req.kind == "census":
            return campaigns.undetected_census(req.k, req.scheme)
        return campaigns.run_campaign(req.spec, workers=self.workers)

    def check(self, req: CampaignRequest, res):
        if req.kind == "census":
            if res.count != census_reference(req.k, req.scheme):
                return "census"
            return None if witnesses_escape(res.witnesses, req.scheme) else "witness"
        spec = req.spec
        if req.kind == "exhaustive":
            per_sheet = spec.strategy == "exhaustive-sheet"
            total = comb(320 if per_sheet else 1600, spec.k)
            # z-sheet escaping sets lie inside one sheet, and the sheets are alike
            want = census_reference(spec.k, spec.scheme) // (5 if per_sheet else 1)
            if res.total != total or res.undetected != want:
                return "count"
        elif res.total != spec.trials or res.detected + res.undetected != res.total:
            return "count"
        if res.undetected and not res.witnesses:
            return "witness"
        return None if witnesses_escape(res.witnesses, spec.scheme) else "witness"

    def warm_up(self):
        """Builds the mask tables the round uses, with the work in-process."""
        campaigns.run_campaign(campaigns.CampaignSpec(
            scheme="z-sheet", k=2, strategy="exhaustive-sheet"), workers=1)
        campaigns.run_campaign(campaigns.CampaignSpec(
            scheme="c-plane", k=2 if self.main else 1,
            strategy="exhaustive-global"), workers=1)
        campaigns.run_campaign(campaigns.CampaignSpec(
            scheme="z-sheet", k=4, strategy="random", trials=1000), workers=1)
        for s in SCHEMES:
            campaigns.undetected_census(6, s)


PHASES = {p.name: p for p in (ShortDigests, LongDigests, InjectTrials,
                              FullsimCampaign, CampaignSweep)}
