"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Run from the root of a checkout.  Checks that planted wrong results count
as failures, that the same seed gives identical counts and inputs, that
another seed gives other inputs, that a stray CROSSPARITY_WORKERS cannot
break a run, that the references agree with hashlib, and that the result
line carries exactly the metrics BENCHMARK.json names.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src")]

from crossparity import campaigns, engine, faults  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
from phases import PHASES, Runner  # noqa: E402
from reference import DIGEST, RATE, faulted_digest, reference_digest  # noqa: E402
from tracer import Tracer, summarise  # noqa: E402

WORKERS = run.worker_count()


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        sys.exit(1)


def run_phase(name, count, seed=1, tracer=None):
    """A probe-sized phase run of ``count`` requests."""
    runner = Runner(PHASES[name](WORKERS, False), seed, tracer)
    runner.run(count)
    return runner


def planted(owner, attr, mutate, name, count):
    """Failures of a short phase run while ``owner.attr`` returns one
    wrong result (its first call goes through ``mutate``)."""
    original = getattr(owner, attr)
    calls = 0

    def wrong(*args, **kwargs):
        nonlocal calls
        result = original(*args, **kwargs)
        calls += 1
        return mutate(result) if calls == 1 else result

    setattr(owner, attr, wrong)
    try:
        return run_phase(name, count).failures()
    finally:
        setattr(owner, attr, original)


def test_planted_failures():
    flip = lambda out: bytes([out[0] ^ 1]) + out[1:]  # noqa: E731
    f = planted(engine.Engine, "squeeze", flip, "short", 6)
    expect(f["digest"] == 1, f"planted wrong digest counts as a failure {dict(f)}")

    def other_outcome(res):
        return dataclasses.replace(
            res, outcome="benign" if res.outcome != "benign" else "detected")
    f = planted(faults, "inject_and_run", other_outcome, "inject", 5)
    expect(f["outcome"] == 1, f"planted wrong outcome counts as a failure {dict(f)}")

    def one_more(rep):
        return dataclasses.replace(rep, undetected=rep.undetected + 1)
    f = planted(campaigns, "run_campaign", one_more, "campaigns", 6)
    expect(f["count"] == 1, f"planted wrong campaign count counts as a failure {dict(f)}")
    f = planted(campaigns, "run_campaign", one_more, "fullsim", 4)
    expect(f["tally"] == 1, f"planted wrong fullsim tally counts as a failure {dict(f)}")

    def census_more(res):
        return dataclasses.replace(res, count=res.count + 1)
    f = planted(campaigns, "undetected_census", census_more, "campaigns", 6)
    expect(f["census"] == 1, f"planted wrong census count counts as a failure {dict(f)}")


def test_known_defect_apart():
    _, failed, known = run.tally(Counter({"squeeze-remask": 3, "outcome": 1, "digest": 0}))
    expect((failed, known) == (1, 3),
           "squeeze-remask trials are counted apart; any other mismatch is a failure")


def signature(runner):
    """Deterministic outputs of a run: cycles, outcomes, tallies, counts."""
    out = []
    for s in runner.samples:
        r = s.result
        if isinstance(r, tuple):
            out.append(r[:2])
        elif hasattr(r, "outcome"):
            out.append((r.outcome, r.digest))
        elif hasattr(r, "spurious"):
            out.append((r.total, r.detected, r.undetected, r.spurious, r.witnesses))
        else:
            out.append((r.count, r.witnesses))
    return out


def test_same_seed_same_counts():
    for name in PHASES:
        runs = []
        for _ in range(2):
            tracer = Tracer()
            with tracer.installed():
                runner = run_phase(name, 6, seed=7, tracer=tracer)
            s = summarise(tracer.spans)
            runs.append((signature(runner), dict(s["calls"]), dict(s["cycles"]),
                         s["inject_rounds"], s["useful_rounds"]))
        expect(runs[0] == runs[1], f"{name}: same seed gives identical counts and results")


def test_seed_changes_inputs():
    for name, cls in PHASES.items():
        def first(seed):
            gen = cls(WORKERS, False).requests(seed)
            return [next(gen) for _ in range(8)]
        expect(first(3) == first(3), f"{name}: same seed gives the same inputs")
        expect(first(3) != first(4), f"{name}: another seed gives other inputs")


def test_stray_worker_setting():
    saved = os.environ.get("CROSSPARITY_WORKERS")
    os.environ["CROSSPARITY_WORKERS"] = "not-a-number"
    try:
        f = run_phase("campaigns", 6).failures() + \
            run_phase("fullsim", 1).failures()
    finally:
        if saved is None:
            del os.environ["CROSSPARITY_WORKERS"]
        else:
            os.environ["CROSSPARITY_WORKERS"] = saved
    expect(not f, "a non-integer CROSSPARITY_WORKERS does not break the campaigns")


def test_references():
    ok = all(faulted_digest(mode, bytes(range(n % 256)) * 3, out) ==
             reference_digest(mode, bytes(range(n % 256)) * 3, out)
             for mode in RATE for n in (0, 23, 48, 57, 170)
             for out in ([DIGEST[mode]] if mode in DIGEST else [32, 400]))
    expect(ok, "the fault-free reference sponge agrees with hashlib")
    phase = PHASES["inject"](WORKERS, False)
    req = next(phase.requests(0))
    pattern = faults.FaultPattern((faults.FaultTarget("c_prime", 5),))
    req = dataclasses.replace(
        req, mode="shake128", scheme="z-sheet", unroll=1, msg=bytes(10), out_len=400,
        targets=(("c_prime", 5),), pattern=pattern,
        schedule=faults.InjectionSchedule(0, 0),
        golden=reference_digest("shake128", bytes(10), 400))
    res = phase.call(req)
    cause = phase.check(req, res)
    expect(cause == ("squeeze-remask" if res.outcome == "detected" else None),
           f"shadow flip on a 400-byte shake128 output: {res.outcome}, check {cause}")


def test_absent_symbol():
    """A wrapped symbol a later change removes is reported absent."""
    saved = tracer.TARGETS
    tracer.TARGETS = tuple(
        (name, module, path + "_removed" if name == "keccak.round_step" else path, note)
        for name, module, path, note in saved)
    try:
        metrics, _, _, failures = run.traced(ROOT, "hash-short", 1, WORKERS, lambda line: None)
    finally:
        tracer.TARGETS = saved
    gone = {k for k, v in metrics.items() if v is None}
    expect(gone == {"keccak.round_step.calls", "keccak.round_step.self_s",
                    "faults.inject.rounds", "faults.rounds_per_trial",
                    "faults.useful_round_fraction"} and set(+failures) <= {"squeeze-remask"},
           f"a removed round_step is reported absent, not a crash: {sorted(gone)}")


def result_line(args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_result_lines():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    expect(names == set(run.WORKLOADS), "BENCHMARK.json names the workloads run.py runs")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = result_line(["--workload", "hash-short", "--seed", "1",
                              "--seconds", "1", "--trace", str(trace)])
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(got == want, f"--trace {trace} prints exactly the {key} metrics with their units")
        expect(res["attempted"] >= 1 and set(res) == {"correct", "attempted", "failed", "metrics"},
               f"--trace {trace} result line has the four keys")
    known = set(names) | {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    pred = json.loads((BENCH / "predictions.json").read_text())
    cited = {x for layer in pred["layers"] for pair in layer["moves"] + layer["flat"]
             for x in pair}
    cited |= {m for layer in pred["layers"] for m in layer["metrics"] +
              layer.get("exact_counts", [])}
    expect(cited <= known, f"predictions.json cites only known names {sorted(cited - known)}")


def test_bare_directory():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "hash-short",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the package the command fails and prints no result")


if __name__ == "__main__":
    test_references()
    test_seed_changes_inputs()
    test_planted_failures()
    test_known_defect_apart()
    test_same_seed_same_counts()
    test_stray_worker_setting()
    test_absent_symbol()
    test_bare_directory()
    test_result_lines()
    print("all self-tests passed")
