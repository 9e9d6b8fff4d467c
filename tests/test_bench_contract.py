"""The names the benchmark in ``bench/`` reads from the package.

The benchmark wraps a fixed list of functions for its traced run and reads
per-layer functions by name; a name that is gone (or no longer called)
turns into a ``null`` metric there.  These tests read ``bench/`` without
changing it, so a broken contract fails here first.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from crossparity import campaigns, engine, faults

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name, module, path, _note", tracer.TARGETS,
                         ids=[f"{m}.{p}" for _, m, p, _ in tracer.TARGETS])
def test_tracer_target_resolves(name, module, path, _note):
    assert tracer._resolve(module, path) is not None, f"{name}: {module}.{path} is gone"


def test_every_tracer_target_records_a_span():
    t = tracer.Tracer()
    with t.installed():
        eng = engine.Engine("sha3-256", fd="z-sheet")
        eng.absorb(b"bench contract")
        eng.finish()
        eng.squeeze(32)
        faults.inject_and_run(
            "sha3-256", b"bench contract",
            faults.FaultPattern((faults.FaultTarget("state", 7),)),
            faults.InjectionSchedule(0, 3), scheme="z-sheet")
        campaigns.run_campaign(campaigns.CampaignSpec(
            scheme="z-sheet", k=1, strategy="random", trials=2,
            scope=("state", "c_prime", "f_prime", "cf_prime")), workers=1)
        campaigns.run_campaign(campaigns.CampaignSpec(
            scheme="z-sheet", k=1, strategy="exhaustive-sheet"), workers=1)
        campaigns.undetected_census(4, "z-sheet")
    assert t.absent == set()
    recorded = {span[tracer.NAME] for span in t.spans}
    assert {name for name, *_ in tracer.TARGETS} <= recorded


def _dotted(node):
    """'a.b.c' for a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


@pytest.mark.parametrize("script", ["layers.py", "phases.py"])
def test_bench_scripts_read_existing_names(script):
    modules = {name: importlib.import_module(f"crossparity.{name}")
               for name in ("keccak", "engine", "fd", "cli", "faults", "campaigns")}
    tree = ast.parse((BENCH / script).read_text())
    reads = set()
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if chain and chain.split(".")[0] in modules:
            reads.add(chain)
        # layers.py looks the keccak step functions up by string
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "get" and node.args
                and isinstance(node.args[0], ast.Constant)):
            reads.add(f"keccak.{node.args[0].value}")
    assert reads
    for chain in sorted(reads):
        root, *attrs = chain.split(".")
        obj = modules[root]
        for attr in attrs:
            assert hasattr(obj, attr), f"bench/{script} reads {chain}, which is gone"
            obj = getattr(obj, attr)


def test_bench_layers_run_on_the_package(monkeypatch):
    # bench/layers.py calls prime, check and the StateArray steps with its
    # own arguments; a signature it no longer fits fails here, not as a
    # crash of the traced benchmark run.
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    figures, failed = layers.fd_layers(1)
    figures.update(layers.keccak_layers(1))
    assert failed == 0
    assert figures and None not in figures.values(), figures
