"""The per-layer harness still times every row of the newest BENCH file."""

import importlib.util
import json
from pathlib import Path

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
    lab = interleave.load_tree(ROOT / "src", "interleave_lab")
    labels = [label for label, _, _ in interleave.cases(lab)] + ["cli.help.cold"]
    newest = max(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    assert labels == list(json.loads(newest.read_text())["layers"]), newest.name
