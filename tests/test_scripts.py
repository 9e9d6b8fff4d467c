"""Smoke test of the reproduction script, run the way a user runs it."""

import importlib.util
import json
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_results_quick(tmp_path, capsys):
    out = tmp_path / "records.json"
    assert _load("reproduce_results").main(["--quick", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "k=4: 2,143,807,600 patterns over 5 sheets, 100,800 undetected" in text
    assert "z-sheet  k=1: 0  k=2: 0  k=3: 0  k=4: 100,800  k=5: 0  k=6: 12,499,200" in text
    # the exhaustive global k = 4 sweeps agree with the census beside them
    assert "c-plane  k=4: 5,105,600 undetected, census 5,105,600   [" in text
    assert "z-sheet  k=4: 100,800 undetected, census 100,800   [" in text
    assert "k=8: rate 1.000000  CI95 [0.999962, 1.000000]  undetected 0" in text
    assert "silent corruption 0" in text
    # the five Monte Carlo lines and the two engine-level lines end in trials/s
    assert sum(line.endswith(" trials/s]") for line in text.splitlines()) == 7
    # the process's peak memory beside the wall time, where Linux reports it
    total = re.compile(r"total wall time: \d+\.\ds(, peak RSS \(VmHWM\) \d+\.\d MiB)?$")
    line, = [line for line in text.splitlines() if line.startswith("total wall time")]
    peak = total.fullmatch(line).group(1)
    assert (peak is not None) == Path("/proc/self/status").exists()
    records = json.loads(out.read_text())
    # five sheets at k = 1..4, c-plane global k = 1, 2, global k = 4 of both
    # schemes, Monte Carlo k = 4..8, then the engine-level z-sheet campaign
    # at k = 1, 2
    assert len(records) == 31
    assert [r["undetected"] for r in records[20:22]] == [0, 3200]
    assert [(r["scheme"], r["k"], r["strategy"], r["total"], r["undetected"])
            for r in records[22:24]] == [
        ("c-plane", 4, "exhaustive-global", 272_043_839_600, 5_105_600),
        ("z-sheet", 4, "exhaustive-global", 272_043_839_600, 100_800)]
    for k, rec in zip(range(4, 9), records[24:29]):
        assert (rec["k"], rec["strategy"], rec["seed"]) == (k, "random", 1000 + k)
        assert rec["total"] == rec["detected"] + rec["undetected"] == 10**5
    for k, rec in zip((1, 2), records[29:]):
        assert (rec["k"], rec["scope"]) == (k, ["state", "c_prime", "f_prime", "cf_prime"])
        assert rec["undetected"] == 0
        assert rec["detected"] + rec["spurious"] == rec["total"] == 200
        assert rec["spurious"] > 0
