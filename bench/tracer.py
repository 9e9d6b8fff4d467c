"""Spans around calls into crossparity, recorded from outside the package.

``Tracer.installed()`` replaces a fixed list of public functions and methods
with wrappers for the duration of a ``with`` block.  Each call records one
span: name, start, end, parent span and request id.  Spans stay in memory
and are summarised (and written out) after the run.  A symbol that is no
longer there is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, REQUEST, NOTE = range(6)


def _engine_cycles(_fn):
    """Note for Engine methods: simulated cycles the call advanced."""
    def before(args, kwargs):
        return args[0].cycles

    def after(start, args, kwargs, result):
        return args[0].cycles - start
    return before, after


def _injection_point(fn):
    """Note for inject_and_run: rounds run before the scheduled slot."""
    sig = inspect.signature(fn)

    def after(_, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        sched = bound.arguments["schedule"]
        unroll = bound.arguments["unroll"]
        return 24 * sched.permutation_index + sched.commit_slot * unroll
    return None, after


def _campaign_kind(_fn):
    def after(_, args, kwargs, report):
        spec = args[0] if args else kwargs["spec"]
        if spec.strategy != "random":
            kind = spec.strategy
        else:
            kind = "mc" if tuple(spec.scope) == ("state",) else "fullsim"
        return kind, report.wall_time
    return None, after


# (span name, module, attribute path, note factory)
TARGETS = (
    ("keccak.round_step", "crossparity.engine", "round_step", None),
    ("engine.absorb", "crossparity.engine", "Engine.absorb", _engine_cycles),
    ("engine.finish", "crossparity.engine", "Engine.finish", _engine_cycles),
    ("engine.squeeze", "crossparity.engine", "Engine.squeeze", _engine_cycles),
    ("engine.run_permutation", "crossparity.engine", "Engine.run_permutation",
     _engine_cycles),
    ("fd.prime", "crossparity.fd", "FdRegisters.prime", None),
    ("fd.check", "crossparity.fd", "FdRegisters.check", None),
    ("faults.inject", "crossparity.faults", "inject_and_run", _injection_point),
    ("faults.inject", "crossparity.campaigns", "inject_and_run", _injection_point),
    ("campaigns.run_campaign", "crossparity.campaigns", "run_campaign", _campaign_kind),
    ("campaigns.census", "crossparity.campaigns", "undetected_census", None),
)


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value) or None if absent."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.parent: int | None = None
        self.request: int | None = None
        self.absent: set[str] = set()

    def _wrap(self, name, fn, note):
        spans = self.spans
        before, after = note(fn) if note else (None, None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self.parent, self.request, None]
            self.parent = len(spans)
            spans.append(rec)
            state = before(args, kwargs) if before else None
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                self.parent = rec[PARENT]
            if after:
                rec[NOTE] = after(state, args, kwargs, result)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        saved = []
        try:
            for name, module, path, note in TARGETS:
                found = _resolve(module, path)
                if found is None:
                    self.absent.add(name)
                    continue
                owner, attr, fn = found
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, note))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, (name, start, end, parent, request, note) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, request, note]) + "\n")


def summarise(spans) -> dict:
    """Per-name totals plus the engine, fault and campaign aggregates.

    Self time is a span's duration minus the durations of its direct
    children; spans are strictly nested because the run is single-threaded.
    """
    n = len(spans)
    child = [0.0] * n
    inject_of = [None] * n     # index of the enclosing inject span, if any
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent is not None:
            child[parent] += end - start
            inject_of[i] = inject_of[parent]
        if name == "faults.inject":
            inject_of[i] = i
    calls: dict = defaultdict(int)
    total: dict = defaultdict(float)
    self_s: dict = defaultdict(float)
    notes: dict = defaultdict(int)
    inject_rounds: dict = defaultdict(int)
    campaign_s: dict = defaultdict(float)
    outside_minus_report = 0.0
    for i, (name, start, end, parent, _, note) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_s[name] += dur - child[i]
        if name == "keccak.round_step" and inject_of[i] is not None:
            inject_rounds[inject_of[i]] += 1
        elif name == "campaigns.run_campaign" and note is not None:
            kind, wall = note
            campaign_s[kind] += dur
            outside_minus_report += dur - wall
        elif note is not None and name.startswith("engine."):
            notes[name] += note
    useful = sum(r - spans[i][NOTE] for i, r in inject_rounds.items())
    return {"calls": calls, "total": total, "self": self_s, "cycles": notes,
            "inject_rounds": sum(inject_rounds.values()), "useful_rounds": useful,
            "campaign_s": campaign_s, "outside_minus_report": outside_minus_report}
