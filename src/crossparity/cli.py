"""Command-line front end: hashing, vector replay, campaigns, throughput.

Exit codes: 0 success, 1 known-answer mismatch, 2 bad arguments or an
empty/unusable fixture, 3 output masked by the detection unit.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from .campaigns import STRATEGIES, CampaignSpec, run_campaign, worker_count
from .engine import (
    DESIGN_FREQ_MHZ,
    Engine,
    MODES,
    REFERENCE_THROUGHPUT_MBPS,
    UNROLL_FACTORS,
    throughput_model,
)
from .fd import SCHEMES

MODE_NAMES = tuple(MODES)
SCHEME_CHOICES = ("none",) + SCHEMES


# ----------------------------------------------------------------------
# response-file handling

@dataclass
class KatRecord:
    mode: str
    msg: bytes
    msg_bits: int
    expected: bytes
    line: int


class FixtureError(ValueError):
    pass


def parse_response_file(text: str, mode_hint: str | None = None):
    """Parse NIST-style response-file lines into KAT records.

    Returns (records, skipped) where skipped counts records whose bit
    length is not byte-aligned; this model only absorbs whole bytes.
    """
    records: list[KatRecord] = []
    skipped = 0
    ctx_mode = mode_hint
    cur: dict = {}

    def finish_record(line_no):
        nonlocal skipped
        msg_bits = cur.get("len", len(cur.get("msg", b"")) * 8)
        if msg_bits % 8:
            skipped += 1
            return
        if ctx_mode is None:
            raise FixtureError(f"line {line_no}: cannot tell which mode this record is for")
        msg = cur.get("msg", b"")
        if msg_bits == 0:
            msg = b""
        if len(msg) * 8 != msg_bits:
            raise FixtureError(f"line {line_no}: Msg does not match Len = {msg_bits}")
        records.append(KatRecord(mode=ctx_mode, msg=msg, msg_bits=msg_bits,
                                 expected=cur["digest"], line=line_no))

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            body = line.strip("[]").strip()
            if "=" in body:
                key, _, val = body.partition("=")
                key = key.strip().lower()
                val = val.strip()
                if key == "l":
                    ctx_mode = f"sha3-{val}"
                elif key == "tested":
                    ctx_mode = val.lower()
            continue
        if "=" not in line:
            raise FixtureError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        val = val.strip()
        if key in ("len", "msg"):
            cur.setdefault("start", line_no)
        try:
            if key == "len":
                cur["len"] = int(val)
            elif key == "msg":
                cur["msg"] = bytes.fromhex(val)
            elif key == "outputlen":
                int(val)  # checked only: each record's output length is its digest's
            elif key in ("md", "output"):
                cur["digest"] = bytes.fromhex(val)
            elif key != "count":
                raise FixtureError(f"unknown field {key!r}")
        except ValueError as exc:
            raise FixtureError(f"line {line_no}: {exc}") from None
        if "digest" in cur:
            finish_record(line_no)
            cur = {}
    if cur:
        raise FixtureError(f"line {cur['start']}: record has no MD or Output")
    return records, skipped


# ----------------------------------------------------------------------
# subcommands

def cmd_hash(args) -> int:
    if args.infile is not None:
        try:
            with open(args.infile, "rb") as fh:
                msg = fh.read()
        except OSError as exc:
            print(f"cannot read {args.infile}: {exc}", file=sys.stderr)
            return 2
    else:
        msg = sys.stdin.buffer.read()
    fd = None if args.fd == "none" else args.fd
    try:
        eng = Engine(args.mode, fd=fd, unroll=args.unroll)
        n = eng.resolve_out_len(args.out_len)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    eng.absorb(msg)
    eng.finish()
    digest = eng.squeeze(n)
    print(digest.hex())
    if eng.masked:
        print("detection unit raised an error; output is masked", file=sys.stderr)
        return 3
    return 0


def cmd_kat(args) -> int:
    try:
        data = Path(args.fixture).read_bytes()
    except OSError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        print(f"bad fixture: line {line}: not UTF-8 text", file=sys.stderr)
        return 2
    try:
        records, skipped = parse_response_file(text, mode_hint=args.mode)
    except FixtureError as exc:
        print(f"bad fixture: {exc}", file=sys.stderr)
        return 2
    if args.mode:
        records = [r for r in records if r.mode == args.mode]
    if not records:
        print("fixture contains no usable records", file=sys.stderr)
        return 2
    failures = []
    for rec in records:
        try:
            eng = Engine(rec.mode, fd=None if args.fd == "none" else args.fd,
                         unroll=args.unroll)
            n = eng.resolve_out_len(len(rec.expected))
        except ValueError as exc:
            print(f"bad fixture: line {rec.line}: {exc}", file=sys.stderr)
            return 2
        eng.absorb(rec.msg)
        eng.finish()
        got = eng.squeeze(n)
        if got != rec.expected:
            failures.append((rec, got))
    if skipped:
        print(f"skipped {skipped} record(s) with non-byte-aligned length")
    if failures:
        for rec, got in failures[:10]:
            print(f"MISMATCH line {rec.line} ({rec.mode}, {rec.msg_bits} bits): "
                  f"expected {rec.expected.hex()}, got {got.hex()}")
        print(f"{len(records) - len(failures)}/{len(records)} records passed")
        return 1
    print(f"{len(records)}/{len(records)} records passed")
    return 0


def cmd_campaign(args) -> int:
    if args.fd == "none":
        print("campaigns need a detection scheme (--fd c-plane or z-sheet)",
              file=sys.stderr)
        return 2
    try:
        spec = CampaignSpec(
            scheme=args.fd, k=args.k, strategy=args.strategy, trials=args.trials,
            seed=args.seed, unroll=args.unroll, sheet=args.sheet,
            scope=tuple(args.scope.split(",")))
        workers = worker_count()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    # every refusal comes before the report is opened, and the report
    # before the campaign runs, so a bad path fails early and a refused
    # campaign leaves an earlier report as it was
    try:
        out = open(args.report, "w") if args.report else nullcontext()
    except OSError as exc:
        print(f"cannot write the report: {exc}", file=sys.stderr)
        return 2
    with out as fh:
        report = run_campaign(spec, workers)
        print(f"{report.strategy} campaign, scheme={report.scheme} k={report.k} "
              f"unroll={report.unroll} seed={report.seed}")
        print(f"patterns: {report.total}  detected: {report.detected}  "
              f"undetected: {report.undetected}  spurious: {report.spurious}")
        print(f"detection rate: {report.rate:.7f}  "
              f"CI95: [{report.ci_low:.7f}, {report.ci_high:.7f}]")
        if report.witnesses:
            w = ", ".join(f"{reg}[{bit}]" for reg, bit in report.witnesses[0])
            print(f"first undetected witness: {w}")
        if fh is not None:
            json.dump([report.to_record()], fh, indent=2)
            print(f"report written to {args.report}")
    return 0


def cmd_throughput(args) -> int:
    modes = MODE_NAMES if args.mode in (None, "all") else (args.mode,)
    scheme = args.fd
    freq = args.freq
    if freq is None:
        freq = DESIGN_FREQ_MHZ[scheme]
    # compare against the stored design figures when the frequency matches one
    ref_scheme = None
    for name, f in DESIGN_FREQ_MHZ.items():
        if abs(freq - f) < 0.005:
            ref_scheme = name
    try:
        rates = {mode: throughput_model(mode, freq, unroll=args.unroll) for mode in modes}
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"frequency: {freq} MHz")
    for mode, mbps in rates.items():
        line = f"{mode:9s} {mbps:10.2f} Mbit/s"
        if ref_scheme is not None:
            ref = REFERENCE_THROUGHPUT_MBPS[ref_scheme][mode]
            dev = (mbps - ref) / ref
            line += f"   ({ref_scheme} design: {ref:.2f}, deviation {dev:+.3%})"
        print(line)
    return 0


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="crossparity",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fd_default="none", fd_alias=False):
        flags = ["--fd", "--scheme"] if fd_alias else ["--fd"]
        sp.add_argument(*flags, dest="fd", choices=SCHEME_CHOICES,
                        default=fd_default, help="detection scheme")
        sp.add_argument("--unroll", type=int, choices=UNROLL_FACTORS, default=1,
                        help="rounds per register commit")

    sp = sub.add_parser("hash", help="hash a message")
    sp.add_argument("--mode", choices=MODE_NAMES, required=True)
    sp.add_argument("--out-len", type=int, default=None,
                    help="output length in bytes (SHAKE only)")
    sp.add_argument("--in", dest="infile", default=None, metavar="PATH",
                    help="read the message from this file; stdin when omitted")
    common(sp)
    sp.set_defaults(func=cmd_hash)

    sp = sub.add_parser("kat", help="replay a response-file fixture")
    sp.add_argument("--fixture", required=True, help="path to a .rsp file")
    sp.add_argument("--mode", choices=MODE_NAMES, default=None,
                    help="only run records of this mode (also used when the "
                         "file does not name one)")
    common(sp)
    sp.set_defaults(func=cmd_kat)

    sp = sub.add_parser("campaign", help="run a fault-injection campaign")
    sp.add_argument("--k", type=int, required=True, help="flips per pattern")
    sp.add_argument("--strategy", required=True, choices=STRATEGIES)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--sheet", type=int, default=0,
                    help="sheet index for exhaustive-sheet")
    sp.add_argument("--scope", default="state",
                    help="comma-separated fault-eligible registers")
    sp.add_argument("--report", default=None, help="write a JSON report here")
    common(sp, fd_default="z-sheet", fd_alias=True)
    sp.set_defaults(func=cmd_campaign)

    sp = sub.add_parser("throughput", help="model long-message throughput")
    sp.add_argument("--mode", choices=MODE_NAMES + ("all",), default="all")
    sp.add_argument("--freq", type=float, default=None,
                    help="clock in MHz; defaults to the selected design's clock")
    common(sp)
    sp.set_defaults(func=cmd_throughput)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
