"""Per-call timings of single layers, taken by calling their public functions.

Each figure is the median over repetitions of (time for one pass over a
list of seeded inputs) / (inputs in the list).  A function that no longer
exists is reported as absent (None).
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path

from crossparity import cli, engine, fd, keccak

from phases import MODES, RATE, SCHEMES, reference_digest

REPS = 15


def per_call_us(fn, arg_lists, reps=REPS):
    if fn is None:
        return None
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for args in arg_lists:
            fn(*args)
        times.append((time.perf_counter() - t0) / len(arg_lists))
    return statistics.median(times) * 1e6


def _states(seed, n):
    rng = random.Random(f"layers/{seed}")
    return [keccak.StateArray(tuple(rng.getrandbits(64) for _ in range(25)))
            for _ in range(n)]


def keccak_layers(seed) -> dict:
    states = _states(seed, 64)
    one = [(s,) for s in states]
    get = lambda name: getattr(keccak, name, None)  # noqa: E731
    return {
        "keccak.theta_us": per_call_us(get("theta"), one),
        "keccak.rho_pi_us": per_call_us(get("rho_pi"), one),
        "keccak.chi_us": per_call_us(get("chi"), one),
        "keccak.iota_us": per_call_us(get("iota"), [(s, i % 24) for i, s in enumerate(states)]),
        "keccak.permute_us": per_call_us(get("permute"), one[:8], reps=7),
    }


def engine_layers() -> dict:
    modes = [(m,) for m in MODES] * 8
    return {
        "engine.ctor_us.none": per_call_us(engine.Engine, modes),
        "engine.ctor_us.z-sheet": per_call_us(
            lambda m: engine.Engine(m, fd="z-sheet"), modes),
    }


def fd_layers(seed) -> tuple[dict, int]:
    """Prime and check per scheme; check gets the taps of the primed state,
    so it must never raise the flag.  Returns (metrics, failed checks)."""
    states = _states(seed, 64)
    out, failed = {}, 0
    for scheme in SCHEMES:
        regs = [fd.FdRegisters(scheme) for _ in states]
        out[f"fd.prime_us.{scheme}"] = per_call_us(
            fd.FdRegisters.prime, list(zip(regs, states)))
        taps = [(r, keccak.column_sums(s), keccak.lane_sums(s)) for r, s in zip(regs, states)]
        out[f"fd.check_us.{scheme}"] = per_call_us(fd.FdRegisters.check, taps)
        failed += sum(r.error for r in regs)
    return out, failed


def parse_rsp(root: Path) -> tuple[dict, int, int]:
    """Time ``parse_response_file`` over the committed vectors, then check
    every parsed record: records + skipped equals the digest lines, and each
    expected digest equals hashlib's.  Returns (metrics, files, failed)."""
    texts = [p.read_text() for p in sorted((root / "tests" / "vectors").glob("*.rsp"))]
    if not texts:
        raise FileNotFoundError("no tests/vectors/*.rsp in the checkout")
    parse = cli.parse_response_file
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        parsed = [parse(t) for t in texts]
        times.append(time.perf_counter() - t0)
    failed = 0
    for text, (records, skipped) in zip(texts, parsed):
        digests = sum(1 for line in text.splitlines()
                      if line.split("=")[0].strip().lower() in ("md", "output"))
        ok = len(records) + skipped == digests and all(
            r.mode in RATE and r.expected == reference_digest(r.mode, r.msg, len(r.expected))
            for r in records)
        failed += not ok
    return {"cli.parse_rsp_ms": statistics.median(times) * 1e3}, len(texts), failed
