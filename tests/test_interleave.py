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


def test_perfbench_pairs_are_summarized_by_each_metric_direction():
    interleave = load_interleave()
    specs = [{"name": "ops_per_s", "unit": "ops/s", "better": "higher"},
             {"name": "latency_p90_ms", "unit": "ms", "better": "lower"}]

    def result(ops, p90, failed=0):
        return {"attempted": 10, "failed": failed,
                "metrics": {"ops_per_s": {"value": ops, "unit": "ops/s"},
                            "latency_p90_ms": {"value": p90, "unit": "ms"}}}

    runs = [[result(100.0, 2.0), result(110.0, 1.0)],
            [result(100.0, 2.0), result(90.0, 3.0, failed=1)],
            [result(200.0, 4.0), result(220.0, 2.0)]]
    got = interleave.perfbench_summary(runs, specs)
    ops, p90 = got["metrics"]["ops_per_s"], got["metrics"]["latency_p90_ms"]
    assert (ops["parent"], ops["change"], ops["ratio"], ops["won"]) == (100.0, 110.0, 1.1, 2)
    assert (p90["parent"], p90["change"], p90["ratio"], p90["won"]) == (2.0, 2.0, 0.5, 2)
    assert p90["parent_quartiles"] == [2.0, 3.0]
    assert p90["pairs"] == [[2.0, 1.0], [2.0, 3.0], [4.0, 2.0]]
    assert got["attempted_failed"] == [[[10, 0], [10, 0]], [[10, 0], [10, 1]],
                                       [[10, 0], [10, 0]]]
