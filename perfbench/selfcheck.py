"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. A tiny run of every workload (``cli`` too), untraced and traced,
   prints every metric of ``BENCHMARK.json`` by name with its unit, and
   ends in a result line with exactly the keys ``correct``, ``attempted``,
   ``failed``, ``metrics``.
2. The same seed gives identical inputs; another seed gives other inputs.
3. A traced run reports its overhead against its untraced half, and its
   spans (name, start, end, parent, operation id) reach the file only
   after measuring ended.
4. Without the library source next to it, the benchmark exits non-zero
   and prints no result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

from source import ROOT, WORK

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TINY_SECONDS = "1"


def bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def tiny(workload: str, seed: int, trace: int) -> tuple[list[str], dict]:
    proc = bench("--workload", workload, "--seed", str(seed),
                 "--seconds", TINY_SECONDS, "--trace", str(trace))
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}:"
                             f" {proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def env_block(lines: list[str]) -> dict:
    return json.loads(next(l for l in lines if l.startswith("environment "))
                      .split(" ", 1)[1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    # cli is runnable but not in BENCHMARK.json; check it all the same
    for name in dict.fromkeys([*(w["name"] for w in spec["workloads"]), "cli"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = tiny(name, 1, trace)
            expect(set(result) == RESULT_KEYS, f"{name} trace {trace}: result keys")
            expect(result["attempted"] >= 1, f"{name} trace {trace}: attempted >= 1")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{name} trace {trace}: every {key} metric, with unit")
            printed = all(any(re.match(rf"\s+{re.escape(n)}\s+\S+ {re.escape(u)}\b", l)
                              for l in lines) for n, u in wanted.items())
            expect(printed, f"{name} trace {trace}: each metric printed with its unit")
            env = env_block(lines)
            expect({"python", "numpy", "scipy", "nproc", "blas_threads", "seed",
                    "git_commit"} <= set(env), f"{name} trace {trace}: environment block")
            if trace:
                expect(result["metrics"]["trace.slowdown"]["value"] > 0,
                       f"{name}: traced run reports its overhead")
                done = float(re.search(r"measuring ended at ([\d.]+)",
                                       "\n".join(lines))[1])
                spans = WORK / f"spans-{name}-seed1.jsonl"
                records = [json.loads(l) for l in spans.read_text().splitlines()]
                expect(bool(records) and all(
                    {"name", "start", "end", "parent", "op"} <= set(r) for r in records),
                    f"{name}: spans carry name, start, end, parent, operation id")
                expect(spans.stat().st_mtime >= done,
                       f"{name}: spans written after measuring ended")
        same = env_block(tiny(name, 7, 0)[0])["inputs_sha256"]
        again = env_block(tiny(name, 7, 0)[0])["inputs_sha256"]
        other = env_block(tiny(name, 8, 0)[0])["inputs_sha256"]
        expect(same == again != other, f"{name}: same seed, same inputs")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "stars", "--seed", "1", "--seconds", TINY_SECONDS,
                 cwd=bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without library source: non-zero exit, no result")
    shutil.rmtree(bare)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
