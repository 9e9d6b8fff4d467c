"""Tests for the command-line interface and the response-file parser."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from textwrap import dedent

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossparity
from conftest import VECTOR_DIR
from crossparity.cli import FixtureError, main, parse_response_file

GOOD_SHA3 = dedent("""\
    # sample file
    [L = 256]

    Len = 0
    Msg = 00
    MD = a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a

    Len = 24
    Msg = 616263
    MD = 3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532
    """)

GOOD_SHAKE = dedent("""\
    [Tested = SHAKE128]
    [Outputlen = 128]

    COUNT = 0
    Len = 0
    Msg = 00
    Output = 7f9c2ba4e88f827d616045507605853e

    COUNT = 1
    Len = 32
    Msg = 9f685b28
    Output = {}
    """)


# ----------------------------------------------------------------------
# parser

def test_parse_sha3_fixture():
    records, skipped = parse_response_file(GOOD_SHA3)
    assert skipped == 0
    assert [r.mode for r in records] == ["sha3-256", "sha3-256"]
    assert records[0].msg == b"" and records[0].msg_bits == 0
    assert records[1].msg == b"abc"
    assert records[1].expected == hashlib.sha3_256(b"abc").digest()
    assert records[1].line == 10


def test_parse_shake_fixture():
    out = hashlib.shake_128(bytes.fromhex("9f685b28")).hexdigest(16)
    records, skipped = parse_response_file(GOOD_SHAKE.format(out))
    assert skipped == 0
    assert all(r.mode == "shake128" for r in records)
    assert len(records[0].expected) == 16


def test_parse_skips_non_byte_aligned_records():
    text = GOOD_SHA3 + dedent("""\

        Len = 5
        Msg = 13
        MD = 00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff
        """)
    records, skipped = parse_response_file(text)
    assert len(records) == 2
    assert skipped == 1


def test_parse_needs_some_mode_context():
    with pytest.raises(FixtureError):
        parse_response_file("Len = 0\nMsg = 00\nMD = aabb\n")
    records, _ = parse_response_file("Len = 0\nMsg = 00\nMD = aabb\n",
                                     mode_hint="sha3-224")
    assert records[0].mode == "sha3-224"


def test_parse_rejects_malformed_input():
    with pytest.raises(FixtureError):
        parse_response_file("[L = 256]\nLen = 8\nMsg = zz\nMD = aabb\n")
    with pytest.raises(FixtureError):
        parse_response_file("[L = 256]\njust words\n")
    with pytest.raises(FixtureError):
        parse_response_file("[L = 256]\nBogus = 1\n")
    with pytest.raises(FixtureError):
        # Msg length disagrees with Len
        parse_response_file("[L = 256]\nLen = 16\nMsg = ab\nMD = aabb\n")


_FIELD_LINES = st.one_of(
    st.tuples(st.sampled_from(["Len", "Msg", "MD", "Output", "COUNT", "Outputlen",
                               "Bogus", ""]),
              st.one_of(st.integers(-16, 64).map(str),
                        st.binary(max_size=4).map(bytes.hex),
                        st.text(max_size=6))).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.sampled_from(["[L = 256]", "[L = ]", "[Tested = SHAKE128]", "[", "]", "",
                     "# comment", "just words"]),
    st.text(max_size=12),
)


@given(st.lists(_FIELD_LINES, max_size=12), st.sampled_from([None, "sha3-256"]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_parse_malformed_files_raise_only_fixture_errors(lines, mode_hint):
    try:
        records, skipped = parse_response_file("\n".join(lines), mode_hint=mode_hint)
    except FixtureError:
        return
    assert skipped >= 0
    for rec in records:
        assert len(rec.msg) * 8 == rec.msg_bits and rec.line >= 1


@pytest.mark.parametrize("name", sorted(os.listdir(VECTOR_DIR)))
def test_bundled_fixtures_parse(name):
    records, skipped = parse_response_file(open(os.path.join(VECTOR_DIR, name)).read())
    assert records, name
    assert skipped == 0


# ----------------------------------------------------------------------
# hash subcommand

def test_hash_from_file(tmp_path, capsys):
    p = tmp_path / "msg.bin"
    p.write_bytes(b"abc")
    assert main(["hash", "--mode", "sha3-256", "--in", str(p)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == hashlib.sha3_256(b"abc").hexdigest()


def test_hash_empty_file(tmp_path, capsys):
    p = tmp_path / "empty.bin"
    p.write_bytes(b"")
    assert main(["hash", "--mode", "sha3-256", "--in", str(p)]) == 0
    assert capsys.readouterr().out.strip() == hashlib.sha3_256(b"").hexdigest()


def test_hash_from_stdin(capsys, monkeypatch):
    class Stdin:
        buffer = __import__("io").BytesIO(b"stream me")
    monkeypatch.setattr("sys.stdin", Stdin)
    assert main(["hash", "--mode", "shake256", "--out-len", "40"]) == 0
    want = hashlib.shake_256(b"stream me").hexdigest(40)
    assert capsys.readouterr().out.strip() == want


def test_hash_with_detection_attached(tmp_path, capsys):
    p = tmp_path / "m.bin"
    p.write_bytes(b"abc")
    assert main(["hash", "--mode", "sha3-512", "--in", str(p),
                 "--fd", "z-sheet", "--unroll", "8"]) == 0
    assert capsys.readouterr().out.strip() == hashlib.sha3_512(b"abc").hexdigest()


def test_hash_rejects_zero_out_len(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(b"")
    assert main(["hash", "--mode", "shake128", "--out-len", "0",
                 "--in", str(p)]) == 2


def test_hash_rejects_out_len_for_fixed_modes(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(b"")
    assert main(["hash", "--mode", "sha3-256", "--out-len", "16",
                 "--in", str(p)]) == 2


def test_hash_missing_file_is_a_usage_error():
    assert main(["hash", "--mode", "sha3-256", "--in", "/no/such/file"]) == 2


def test_hash_masked_output_exit_code(tmp_path, capsys, monkeypatch):
    # Force the detection unit to trip: corrupt a shadow register at the
    # first commit window so the digest gets masked.
    import crossparity.cli as cli
    from crossparity.faults import FaultPattern, FaultTarget, InjectionSchedule, flip_hook

    real_engine = cli.Engine

    class Sabotaged(real_engine):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            self.hook = flip_hook(FaultPattern((FaultTarget("c_prime", 0),)),
                                  InjectionSchedule(0, 0))

    monkeypatch.setattr(cli, "Engine", Sabotaged)
    p = tmp_path / "m.bin"
    p.write_bytes(b"abc")
    rc = main(["hash", "--mode", "sha3-256", "--in", str(p), "--fd", "z-sheet"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out.strip() == "00" * 32
    assert "masked" in captured.err


# ----------------------------------------------------------------------
# kat subcommand

def test_kat_passes_on_good_fixture(tmp_path, capsys):
    f = tmp_path / "good.rsp"
    f.write_text(GOOD_SHA3)
    assert main(["kat", "--fixture", str(f)]) == 0
    assert "2/2 records passed" in capsys.readouterr().out


def test_kat_detects_mismatch(tmp_path, capsys):
    f = tmp_path / "bad.rsp"
    f.write_text(GOOD_SHA3.replace("3a985da7", "deadbeef"))
    assert main(["kat", "--fixture", str(f)]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out
    assert "1/2 records passed" in out


def test_kat_empty_fixture(tmp_path):
    f = tmp_path / "empty.rsp"
    f.write_text("[L = 256]\n\n")
    assert main(["kat", "--fixture", str(f)]) == 2


def test_kat_missing_file():
    assert main(["kat", "--fixture", "/no/such.rsp"]) == 2


def test_kat_mode_filter(tmp_path, capsys):
    f = tmp_path / "good.rsp"
    f.write_text(GOOD_SHA3)
    assert main(["kat", "--fixture", str(f), "--mode", "sha3-512"]) == 2
    assert main(["kat", "--fixture", str(f), "--mode", "sha3-256"]) == 0


def test_kat_reports_skipped_records(tmp_path, capsys):
    f = tmp_path / "mixed.rsp"
    f.write_text(GOOD_SHA3 + "\nLen = 7\nMsg = 11\n"
                 "MD = " + "00" * 32 + "\n")
    assert main(["kat", "--fixture", str(f)]) == 0
    out = capsys.readouterr().out
    assert "skipped 1 record(s)" in out
    assert "2/2 records passed" in out


@pytest.mark.parametrize("digest, line", [
    (hashlib.sha3_256(b"abc").hexdigest()[:8], 10),   # a truncated MD
    ("", 10),                                           # an empty MD
])
def test_kat_rejects_wrong_length_sha3_digest(tmp_path, capsys, digest, line):
    f = tmp_path / "short.rsp"
    f.write_text(GOOD_SHA3.replace(hashlib.sha3_256(b"abc").hexdigest(), digest))
    assert main(["kat", "--fixture", str(f)]) == 2
    err = capsys.readouterr().err
    assert f"bad fixture: line {line}:" in err and "32 bytes" in err


def test_kat_rejects_a_record_left_open(tmp_path, capsys):
    # Len and Msg with no MD at the end of the file
    f = tmp_path / "truncated.rsp"
    f.write_text(GOOD_SHA3 + "\nLen = 8\nMsg = 61\n")
    assert main(["kat", "--fixture", str(f)]) == 2
    assert "bad fixture: line 12: record has no MD" in capsys.readouterr().err


def test_kat_rejects_empty_shake_output(tmp_path, capsys):
    f = tmp_path / "empty.rsp"
    f.write_text(GOOD_SHAKE.format(""))
    assert main(["kat", "--fixture", str(f)]) == 2
    assert "bad fixture: line 12:" in capsys.readouterr().err


def test_kat_rejects_a_fixture_that_is_not_utf8(tmp_path, capsys):
    f = tmp_path / "binary.rsp"
    f.write_bytes(GOOD_SHA3.encode().replace(b"Msg = 616263", b"Msg = \xff\xfe"))
    assert main(["kat", "--fixture", str(f)]) == 2
    assert "bad fixture: line 9: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["SHA3_512ShortMsg.rsp", "SHAKE128VariableOut.rsp"])
def test_kat_replays_bundled_fixture(name, capsys):
    assert main(["kat", "--fixture", os.path.join(VECTOR_DIR, name)]) == 0
    assert "records passed" in capsys.readouterr().out


def test_kat_replay_closes_the_fixture(tmp_path, capsys, monkeypatch):
    # An unclosed handle warns when it is collected, inside a destructor,
    # where the warning turned error is reported as unraisable.
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    f = tmp_path / "good.rsp"
    f.write_text(GOOD_SHA3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert main(["kat", "--fixture", str(f)]) == 0
        gc.collect()
    assert unraisable == []


# ----------------------------------------------------------------------
# campaign subcommand

def test_campaign_cli_exhaustive(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = main(["campaign", "--k", "1", "--strategy", "exhaustive-global",
               "--scheme", "z-sheet", "--report", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "patterns: 1600" in out
    assert "detection rate: 1.0000000" in out
    rec = json.loads(report.read_text())
    assert isinstance(rec, list) and len(rec) == 1
    assert rec[0]["total"] == 1600 and rec[0]["undetected"] == 0
    assert rec[0]["strategy"] == "exhaustive-global"


def test_campaign_cli_bad_report_path_fails_before_the_campaign(tmp_path, capsys,
                                                                  monkeypatch):
    import crossparity.cli as cli

    ran = []
    monkeypatch.setattr(cli, "run_campaign", lambda *args: ran.append(args))
    bad = tmp_path / "no-such-dir" / "r.json"
    rc = main(["campaign", "--k", "1", "--strategy", "exhaustive-global",
               "--report", str(bad)])
    assert rc == 2
    assert ran == []
    err = capsys.readouterr().err
    assert "No such file or directory" in err and str(bad) in err


def test_campaign_cli_with_a_pool_exits(tmp_path):
    # Two chunks on two workers start the kept pool.  The run must end
    # within the timeout, and it can only if no pool worker outlives the
    # command, since a live worker would hold its output pipe open.
    src = Path(crossparity.__file__).resolve().parents[1]
    env = {**os.environ, "CROSSPARITY_WORKERS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "crossparity", "campaign", "--k", "4",
         "--strategy", "random", "--trials", "70000", "--fd", "z-sheet"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "patterns: 70000" in proc.stdout


def test_campaign_cli_witness_line(capsys):
    rc = main(["campaign", "--k", "2", "--strategy", "exhaustive-sheet",
               "--fd", "c-plane", "--sheet", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "undetected: 640" in out
    assert "first undetected witness: state[" in out


def test_campaign_cli_global_triples(capsys):
    rc = main(["campaign", "--k", "3", "--strategy", "exhaustive-global",
               "--fd", "z-sheet"])
    assert rc == 0
    assert "patterns: 681387200  detected: 681387200  undetected: 0" in \
        capsys.readouterr().out


def test_campaign_cli_rejects_fd_none(capsys):
    assert main(["campaign", "--k", "1", "--strategy", "exhaustive-global",
                 "--fd", "none"]) == 2


def test_campaign_cli_rejects_bad_spec(capsys):
    assert main(["campaign", "--k", "1", "--strategy", "random"]) == 2  # no trials
    assert main(["campaign", "--k", "1", "--strategy", "random", "--trials", "10",
                 "--scope", "state,flux"]) == 2
    assert main(["campaign", "--k", "1", "--strategy", "random", "--trials", "10",
                 "--scope", "state,state"]) == 2
    assert "twice" in capsys.readouterr().err
    assert main(["campaign", "--k", "65", "--strategy", "random", "--trials", "10"]) == 2
    assert "k <= 64" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["two", "0", "-3"])
def test_campaign_cli_rejects_bad_worker_count(value, capsys, monkeypatch):
    monkeypatch.setenv("CROSSPARITY_WORKERS", value)
    assert main(["campaign", "--k", "2", "--strategy", "exhaustive-sheet"]) == 2
    err = capsys.readouterr().err
    assert "CROSSPARITY_WORKERS" in err and repr(value) in err


@pytest.mark.parametrize("args, workers", [
    (["--k", "5", "--strategy", "exhaustive-sheet"], None),
    (["--k", "65", "--strategy", "random", "--trials", "10"], None),
    (["--k", "2", "--strategy", "exhaustive-sheet"], "abc"),
    (["--k", "2", "--strategy", "random", "--trials", "10", "--seed", "-1"], None),
])
def test_campaign_cli_refusal_keeps_an_earlier_report(args, workers, tmp_path, capsys,
                                                      monkeypatch):
    if workers is not None:
        monkeypatch.setenv("CROSSPARITY_WORKERS", workers)
    old = tmp_path / "old.json"
    old.write_bytes(b'[{"earlier": "report"}]\n')
    assert main(["campaign", *args, "--report", str(old)]) == 2
    assert old.read_bytes() == b'[{"earlier": "report"}]\n'
    assert capsys.readouterr().err


@pytest.mark.parametrize("scope, width", [("state", 1600), ("c_prime", 320)])
def test_campaign_cli_rejects_k_above_scope_width(scope, width, capsys):
    # Rejection sampling of k distinct bits from fewer than k never ends.
    assert main(["campaign", "--k", "2000", "--strategy", "random", "--trials", "1",
                 "--scope", scope]) == 2
    err = capsys.readouterr().err
    assert "2000" in err and str(width) in err


def test_campaign_cli_shadow_scope(capsys):
    rc = main(["campaign", "--k", "1", "--strategy", "random", "--trials", "40",
               "--seed", "2", "--scope", "state,c_prime,f_prime,cf_prime"])
    assert rc == 0
    assert "spurious" in capsys.readouterr().out


# ----------------------------------------------------------------------
# throughput subcommand

def test_throughput_table_all_modes(capsys):
    assert main(["throughput", "--fd", "z-sheet"]) == 0
    out = capsys.readouterr().out
    assert "frequency: 588.24 MHz" in out
    lines = [l for l in out.splitlines() if "Mbit/s" in l]
    assert len(lines) == 6
    assert any("shake128" in l and "4116.71" in l for l in lines)
    assert all("deviation" in l for l in lines)


def test_throughput_single_mode_custom_freq(capsys):
    assert main(["throughput", "--mode", "sha3-384", "--freq", "714.29"]) == 0
    out = capsys.readouterr().out
    assert "sha3-384" in out
    # r/(168+24) * f = 832/192 * 714.29
    assert "3095.2" in out
    assert "3094.00" in out  # recorded design figure for comparison


def test_throughput_off_design_freq_has_no_reference(capsys):
    assert main(["throughput", "--mode", "sha3-256", "--freq", "123.0"]) == 0
    out = capsys.readouterr().out
    assert "deviation" not in out


def test_throughput_unroll_column(capsys):
    assert main(["throughput", "--mode", "shake128", "--freq", "169.0",
                 "--unroll", "24"]) == 0
    assert "1344.00" in capsys.readouterr().out


@pytest.mark.parametrize("freq", ["0", "-5", "nan", "inf"])
def test_throughput_bad_frequency_is_a_usage_error(freq, capsys):
    assert main(["throughput", "--mode", "sha3-256", f"--freq={freq}"]) == 2
    captured = capsys.readouterr()
    assert "Mbit/s" not in captured.out
    assert "frequency must be a positive finite number" in captured.err


# ----------------------------------------------------------------------
# argparse-level errors

def test_unknown_mode_is_a_usage_error(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(b"")
    with pytest.raises(SystemExit) as exc:
        main(["hash", "--mode", "sha1", "--in", str(p)])
    assert exc.value.code == 2


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
