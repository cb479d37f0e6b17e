"""holonomy-lab benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload stars --seed 1 --seconds 20 --trace 0

Workloads (``perfbench/README.md`` says why each exists):

* ``stars``  - star decompositions: round trips, SU(2) action, trajectories
* ``curves`` - null phase curves: build a lift, verify it, integrate it
* ``triads`` - many small scalar calls on one triad each
* ``cli``    - cold ``python -m holonomy_lab.cli`` calls, one child at a time
  (runnable, but not listed in ``BENCHMARK.json``: see the README)

One client sends the next operation only when the last one has finished,
for ``--seconds`` of wall time.  Inputs come from ``--seed`` alone.  Every
operation's output is checked by an independent route, outside the timed
region.  With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it measures half the time untraced
and half traced, and reports the per-layer metrics.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from time import perf_counter, time

from source import ROOT, WORK, child_env, use_source_tree

use_source_tree()  # the modules below import the library from src/

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import cliload  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

SETUP_SAMPLES = 4  # before measuring, and as many again after it
IMPORT_SAMPLES = 3
PERCENTILE = 90


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        sys.exit(f"perfbench: cannot read {path}: {exc}")


# ---------------------------------------------------------------------------
# workloads as schedules of (kind, payload)


@dataclass
class Workload:
    """Block order, input maker, timed run, check and out-of-domain test."""

    name: str
    blocks: list[list[tuple[str, int]]]  # the pool: (kind, index of the input
                                         # within its kind), block by block
    make: Callable      # (kind, rng, j) -> payload
    run: Callable       # (tracer, kind, payload) -> output; the timed part
    check: Callable     # (kind, payload, output, notes) -> failure labels
    accepted: Callable  # (kind, payload, output) -> labels of accepted bad input
    ood: set[str]       # out-of-domain kinds
    shuffle: bool

    @property
    def block_sizes(self) -> list[int]:
        return [len(b) for b in self.blocks]


def inprocess_workload(name: str) -> Workload:

    block = [(kind, j) for kind, count in wl.MIXES[name].items()
             for j in range(count)]
    ood, every = wl.OUT_OF_DOMAIN.get(name, (None, 0))
    blocks = [block + ([(ood, 0)] if ood and b % every == 0 else [])
              for b in range(wl.POOL_BLOCKS[name])]
    return Workload(
        name, blocks,
        make=lambda kind, rng, j: wl.MAKERS[kind](rng, j),
        run=lambda tr, kind, p: wl.RUNS[kind](tr, p),
        check=lambda kind, p, out, acc: wl.CHECKS[kind](p, out, acc),
        accepted=lambda kind, p, out: out,
        ood={kind for kind, _ in wl.OUT_OF_DOMAIN.values()}, shuffle=True)


def cli_workload(workdir) -> Workload:
    return Workload(
        "cli", [cliload.block_kinds(r) for r in range(cliload.ROUNDS)],
        make=cliload.CliInputs(workdir).make,
        run=lambda tr, kind, p: cliload.run_child(tr, p),
        check=lambda kind, p, out, acc: cliload.check_child(p, out, acc),
        accepted=lambda kind, p, out: cliload.accepted_ood(p, out),
        ood={"nan_verify"}, shuffle=False)


class Schedule:
    """A pool of seeded blocks, made before measuring and
    cycled for as long as the run lasts, so that neither the inputs nor
    the memory they take depend on how fast the run goes."""

    def __init__(self, workload: Workload, seed: int) -> None:
        rng = np.random.default_rng(seed)
        w = workload
        self.ops: list[tuple[str, object]] = []
        for block in w.blocks:
            order = rng.permutation(len(block)) if w.shuffle else range(len(block))
            self.ops.extend((block[k][0], w.make(block[k][0], rng, block[k][1]))
                            for k in order)

    def __getitem__(self, i: int):
        return self.ops[i % len(self.ops)]

    def digest(self) -> str:
        """SHA-256 of every input in the pool."""
        h = hashlib.sha256()
        for kind, payload in self.ops:
            h.update(kind.encode())
            _feed(h, payload)
        return h.hexdigest()


def _feed(h, obj) -> None:

    if isinstance(obj, np.ndarray):
        h.update(obj.dtype.str.encode() + repr(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            if key not in ("argv", "reference", "semantic"):
                h.update(key.encode())
                _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            _feed(h, item)
    elif hasattr(obj, "__dict__"):
        _feed(h, vars(obj))
    else:
        h.update(repr(obj).encode())


# ---------------------------------------------------------------------------
# the closed loop


class Tally:
    """Latencies, outcomes, failure labels and accuracy notes of a run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0          # in-domain: raised or failed its check
        self.ood_attempted = 0
        self.ood_accepted = 0    # out-of-domain input accepted
        self.labels: Counter = Counter()
        self.acc: dict[str, list[float]] = {}

    def merge(self, other: "Tally") -> None:
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.ood_attempted += other.ood_attempted
        self.ood_accepted += other.ood_accepted
        self.labels.update(other.labels)
        for key, values in other.acc.items():
            self.acc.setdefault(key, []).extend(values)

    def failures_by_layer(self) -> dict[str, int]:
        out: Counter = Counter()
        for label, count in self.labels.items():
            out[label.split(".", 1)[0]] += count
        return dict(out)


def execute(w: Workload, tr, op_id: int, kind: str, payload, tally: Tally) -> None:
    with tr.op(op_id, kind):
        t0 = perf_counter()
        try:
            out, exc = w.run(tr, kind, payload), None
        except Exception as err:  # judged below; one bad operation must not end the run
            out, exc = None, err
        elapsed = perf_counter() - t0
    tally.latencies.append(elapsed)
    tally.attempted += 1
    if kind in w.ood:
        tally.ood_attempted += 1
        labels = [] if exc is not None else w.accepted(kind, payload, out)
        tally.ood_accepted += bool(labels)
    elif exc is not None:
        call = getattr(exc, "bench_call", f"op.{kind}")
        labels = [f"{call}: raised {type(exc).__name__}: {exc}"]
        tally.failed += 1
    else:
        labels = w.check(kind, payload, out, tally.acc)
        tally.failed += bool(labels)
    tally.labels.update(labels)


def measure(w: Workload, schedule: Schedule, tr, seconds: float) -> Tally:
    """Operations back to back for ``seconds``, and on until at least one
    whole block has run."""
    tally = Tally()
    end = perf_counter() + seconds
    i = 0
    while perf_counter() < end or i < len(w.blocks[0]):
        kind, payload = schedule[i]
        execute(w, tr, i, kind, payload, tally)
        i += 1
    return tally


# ---------------------------------------------------------------------------
# set-up time


def setup_argv(workdir) -> list[str]:
    """Arguments of the fixed cold ``phase`` call that ``cli`` sets up with."""
    warm = cliload.CliInputs(workdir / "warm-up")
    warm.workdir.mkdir()
    return warm.make("phase", np.random.default_rng(0), 0)["argv"]


def setup_seconds(name: str, argv) -> list[float]:
    """Fresh-interpreter set-up, ``SETUP_SAMPLES`` times.

    In-process workloads: start to the probe's ``ready`` line (library
    import plus one warm-up call per kind, less the time the probe spent
    making the warm-up inputs).  ``cli``: one cold ``phase`` call on
    ``argv``.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        if name == "cli":
            samples.append(cliload.cold_call_seconds(argv))
            continue
        t0 = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), name],
                cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
            word, _, making_s = proc.stdout.readline().partition(" ")
            elapsed = perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=cliload.CHILD_TIMEOUT_S) != 0 or word != "ready":
                raise RuntimeError(f"set-up probe for {name} failed")
            samples.append(elapsed - float(making_s))
    return samples


# ---------------------------------------------------------------------------
# traced extras: other workloads' variants, CLI layer pass, import profile


def coverage(name: str, cli_payloads, seed: int, tr) -> tuple[Tally, dict]:
    """Layer calls this workload never makes, on every variant of the others."""
    tally = Tally()
    rng = np.random.default_rng(seed + 1)
    op_id = 0
    for other in ("stars", "curves", "triads"):
        if other == name:
            continue
        w = inprocess_workload(other)
        for kind in wl.kinds(other):
            for j in wl.VARIANTS[kind]:
                payload = wl.MAKERS[kind](rng, j)
                for _ in range(3):
                    execute(w, tr, op_id, kind, payload, tally)
                    op_id += 1
    calls, failed = cliload.layer_pass(tr, cli_payloads)
    tally.attempted += calls
    tally.failed += len(failed)
    for labels in failed:
        tally.labels.update(labels)
    imports = [cliload.import_profile() for _ in range(IMPORT_SAMPLES)]
    extra = {
        "cli.import_s": statistics.median(t for t, _ in imports),
        "cli.import.scipy_s": statistics.median(s for _, s in imports),
        "curves.verify_npc.coverage": wl.scan_coverage(rng),
    }
    return tally, extra


def summarize_notes(acc: dict[str, list[float]]) -> dict[str, float]:
    return {k: (max(v) if k.endswith(".max") else statistics.median(v))
            for k, v in acc.items() if v}


# ---------------------------------------------------------------------------
# environment block


def blas_threads() -> str:
    """OpenBLAS's own thread count, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git tree)"


def environment(args, digest: str, passes: dict) -> dict:

    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(), "seed": args.seed,
        "git_commit": git_commit(), "inputs_sha256": digest,
        "latency_percentile": PERCENTILE,
        "latency_samples": sum(len(lat) for lat, _ in passes.values()),
        "latency_blocks": len(passes),
    }


# ---------------------------------------------------------------------------
# main


def fastest_runs(latencies: list[float],
                 sizes: list[int]) -> dict[int, tuple[np.ndarray, int]]:
    """Pool block -> (each of its operations' fastest latency over the
    block's whole passes, passes run).

    ``sizes`` are the pool's block sizes, in the order the run cycles
    through them; operations after the last whole block are left out.
    """
    best: dict[int, tuple[np.ndarray, int]] = {}
    start = 0
    for b in itertools.count():
        k = b % len(sizes)
        end = start + sizes[k]
        if end > len(latencies):
            return best
        lat = np.array(latencies[start:end])
        old, runs = best.get(k, (None, 0))
        best[k] = (lat if old is None else np.minimum(old, lat), runs + 1)
        start = end


def latency_figures(passes: dict[int, tuple[np.ndarray, int]]) -> dict[str, float]:
    """Throughput and latency percentiles of the pool at the machine's full
    speed: over each operation's fastest run, in every pool block that the
    run passed through whole.

    Shared machines run by turns at full speed and much slower, in phases
    of a fraction of a second to minutes.  A run cycles its pool many
    times, so each operation is likely to have run once at full speed.
    Every block holds the mix exactly, so the union of their operations
    holds it too, and every input counts once.
    """
    union = np.concatenate([lat for lat, _ in passes.values()])
    return {
        "ops_per_s": union.size / float(union.sum()),
        "latency_p50_ms": float(np.percentile(union, 50)) * 1e3,
        "latency_p90_ms": float(np.percentile(union, PERCENTILE)) * 1e3,
    }


def end_to_end(tally: Tally, sizes: list[int], setup: list[float],
               name: str) -> dict[str, float]:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": statistics.median(setup),
        **latency_figures(fastest_runs(tally.latencies, sizes)),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def select(metrics: dict, specs: list[dict]) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    return {s["name"]: {"value": float(metrics[s["name"]]), "unit": s["unit"]}
            for s in specs}


def report(args, tally: Tally, passes: dict, env: dict, metrics: dict,
           notes: list[str]) -> None:

    p90_s = latency_figures(passes)["latency_p90_ms"] / 1e3
    samples = sum(len(lat) for lat, _ in passes.values())
    tail = sum(int(np.sum(lat > p90_s)) for lat, _ in passes.values())
    runs = sorted(n for _, n in passes.values())
    bad = tally.failed + tally.ood_accepted
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    print("environment " + json.dumps(env))
    print(f"latency samples {samples}: each the fastest of {runs[0]} to {runs[-1]}"
          f" runs, in {len(passes)} pool block(s) passed through whole;"
          f" {tail} beyond p{PERCENTILE}"
          + ("" if tail >= 10 else " (fewer than 10: read it as a maximum)"))
    for name, m in metrics.items():
        print(f"  {name:<45} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':<45} {bad / tally.attempted:.6g} ratio"
          f"  ({bad}/{tally.attempted}: {tally.failed} in-domain,"
          f" {tally.ood_accepted} of {tally.ood_attempted} out-of-domain accepted)")
    for label, count in tally.labels.most_common():
        print(f"    x{count}  {label}")
    for note in notes:
        print(note)


def traced_run(args, w: Workload, schedule: Schedule, workdir, notes: list[str]):
    """Half the time untraced, half traced; the traced half's spans, plus
    the coverage pass, give the per-layer metrics."""
    if w.name == "cli":
        cli_payloads = [payload for _, payload in schedule.ops]
    else:
        cli_payloads = cliload.pool_payloads(workdir, args.seed)
        wl.warm_up(wl.warm_up_inputs(w.name))
    untraced = measure(w, schedule, NullTracer(), args.seconds / 2)
    tr = Tracer()
    traced = measure(w, schedule, tr, args.seconds / 2)
    measured_until = time()
    cov_tr = Tracer()
    cov, extra = coverage(w.name, cli_payloads, args.seed, cov_tr)

    metrics = tr.metrics(traced.failures_by_layer())
    metrics.update(summarize_notes(traced.acc))
    for key, value in cov_tr.metrics(cov.failures_by_layer()).items():
        metrics.setdefault(key, value)
    for key, value in summarize_notes(cov.acc).items():
        metrics.setdefault(key, value)
    metrics.update(extra)
    metrics["trace.slowdown"] = (statistics.fmean(traced.latencies)
                                 / statistics.fmean(untraced.latencies))

    spans = WORK / f"spans-{w.name}-seed{args.seed}.jsonl"
    tr.write(spans)
    cov_tr.write(spans.with_name(spans.stem + "-coverage.jsonl"))
    notes.append(f"tracing overhead: traced mean latency is"
                 f" {metrics['trace.slowdown']:.4f} x the untraced half's")
    notes.append(f"spans written after measuring ended at {measured_until:.3f}:"
                 f" {spans.relative_to(ROOT)} (+ -coverage)")
    latencies = traced.latencies
    tally = untraced
    tally.merge(traced)
    tally.merge(cov)
    return tally, latencies, metrics


def untraced_run(args, w: Workload, schedule: Schedule, workdir, notes: list[str]):

    argv = setup_argv(workdir)
    setup = setup_seconds(w.name, argv)
    if w.name != "cli":
        wl.warm_up(wl.warm_up_inputs(w.name))
    tally = measure(w, schedule, NullTracer(), args.seconds)
    setup += setup_seconds(w.name, argv)  # machine speed drifts: sample both sides
    notes.append("setup_s samples " + " ".join(f"{s:.4f}" for s in setup))
    notes.append("accuracy (not gated) " + json.dumps(summarize_notes(tally.acc)))
    return tally, tally.latencies, end_to_end(tally, w.block_sizes, setup, w.name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("stars", "curves", "triads", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    workdir = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    w = cli_workload(workdir) if args.workload == "cli" else inprocess_workload(args.workload)
    schedule = Schedule(w, args.seed)

    notes: list[str] = []
    run = traced_run if args.trace else untraced_run
    tally, latencies, metrics = run(args, w, schedule, workdir, notes)
    chosen = select(metrics, spec["per_layer" if args.trace else "end_to_end"])
    passes = fastest_runs(latencies, w.block_sizes)
    report(args, tally, passes, environment(args, schedule.digest(), passes),
           chosen, notes)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
