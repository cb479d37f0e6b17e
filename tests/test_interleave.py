"""The per-layer harness still times every row of the newest BENCH file."""

import importlib.util
import json
import sys
from pathlib import Path

import holonomy_lab

ROOT = Path(__file__).resolve().parents[1]


def load_interleave():
    path = ROOT / "benchmarks" / "interleave.py"
    spec = importlib.util.spec_from_file_location("interleave", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layers_match_the_newest_bench_file():
    # --trajectory multiplies each layer's ratios across the BENCH files,
    # so a row that the harness stops timing would drop out of the chain
    # without a word; the labels are read without building any pool
    interleave = load_interleave()
    workloads = interleave.load_tree(ROOT / "src", "interleave_lab")
    labels = [label for label, _, _ in interleave.cases(workloads)] + ["cli.help.cold"]
    newest = max(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    assert labels == list(json.loads(newest.read_text())["layers"]), newest.name


def test_operation_rows_run_perfbench_traffic():
    # every kind of the stars and curves mixes, and every n of the triads
    # mix, has a row that calls the tree's own timed run with a NullTracer
    interleave = load_interleave()
    workloads = interleave.load_tree(ROOT / "src", "interleave_ops")
    assert workloads.curves.__name__ == "interleave_ops.curves"
    assert sys.modules["holonomy_lab"] is holonomy_lab
    ops = {label: fn for label, fn, _ in interleave.cases(workloads) if ".op." in label}
    kinds = {f"{name}.op.{kind}": kind for name in ("stars", "curves")
             for kind in workloads.MIXES[name]}
    kinds |= {f"triads.op.n{n}": "triad" for n, _ in workloads.TRIAD_SHARES}
    kinds["curves.op.lift.g1025"] = "arc"
    assert set(ops) == set(kinds)
    for label, fn in ops.items():
        assert fn.func is workloads.RUNS[kinds[label]], label
        (tracer,) = fn.args
        assert type(tracer) is workloads.NullTracer and not fn.keywords, label
