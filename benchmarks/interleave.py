"""In-process A/B timing of the library layers on two source trees.

Both trees are imported in one process, under two package names, and
each round times every layer on both trees in SWITCHES short blocks per
side that take turns, parent, change, parent, change, ... (the first
side alternates between rounds).  A host speed phase that starts or ends
inside a round then falls on both sides, so the paired ratio separates
gaps of a few percent that two separate runs of ``perfbench`` cannot.
It is the repository's one per-layer harness; run it as

    python benchmarks/interleave.py --parent OLD/src [--change NEW/src] [--json PATH]
        [--perfbench WORKLOAD --pairs K]
    python benchmarks/interleave.py --trajectory BENCH_18.json BENCH_19.json ...

where OLD is a checkout of the parent commit (``git clone`` or
``git archive`` into a directory outside the repository) and NEW
defaults to this checkout's ``src``.  The cases are

- the star path: ``coefficients_to_roots`` on one state at n = 2, 3, 5,
  8 and 20 and on batches of 1000 states at n = 2, 3, 8 and 20 and of
  257 at n = 3 (the batch ``star_trajectory`` factors);
  ``roots_to_coefficients`` on one state and on 1000 at n = 2, 3, 8 and
  20; ``su2_apply`` on one state at n = 2, 3, 5, 8, 9, 20 and 64 and on
  1000 at n = 20; ``MajoranaRep.stars`` on 257 and 1000 states at n = 3
  and on 1000 at n = 20; and ``star_trajectory`` on dimension-3 geodesic
  and eps-family lifts of 257 samples;
- ``stars.op`` for each kind of operation of the ``stars`` workload of
  ``perfbench`` (``roundtrip``, ``su2_apply`` and ``trajectory``);
- the triad layers ``bargmann``, ``extract_angles``, ``reduce_triad``
  and ``bi_factorization`` at n = 2, 3, 5 and 8, and
  ``phase_from_solid_angles_n3`` and ``solid_angle_pair`` at n = 3;
- ``triads.op`` at n = 2, 3, 5 and 8: the operation of the ``triads``
  workload of ``perfbench`` on triads of that n;
- the curve layers, in dimensions 3 and 5: ``verify_npc`` on accepted
  eps-family lifts and on rejected latitude arcs at grid 257,
  ``loop_geometric_phase`` on dimension-3 triangles of geodesic sides
  with and without one eps-family side, ``CurveLift`` (from the samples
  of latitude arcs), ``geodesic_lift``, ``profile_to_lift`` and
  ``connection_integral`` (on latitude arcs, where it is not 0) at grids
  257 and 1025, and ``validate_profile`` at 1025;
- ``curves.op`` for each kind of operation of the ``curves`` workload of
  ``perfbench`` (``geodesic``, ``profile``, ``arc`` and ``loop``), and
  ``curves.op.lift.g1025``, which runs ``arc`` on the samples of
  accepted geodesics at grid 1025;
- ``cli.help.cold``: a cold ``python -m holonomy_lab.cli --help``, each
  call a new interpreter that imports the tree's CLI and prints the
  command list, timed from outside as one call per block; its output
  difference is 0 when both trees print the same bytes.

``perfbench/workloads.py`` is loaded once per tree, with its
``holonomy_lab`` import bound to that tree.  An operation row calls the
tree's ``RUNS[kind]`` with a ``NullTracer``, which is exactly the
operation ``perfbench`` times; every other layer is called with
positional inputs only, so a keyword that one tree has and the other
lacks cannot split them.

Every input is drawn by a maker of the change tree's workloads module
(each operation's own maker, ``random_state``, ``random_triad``,
``su2_input``, ``trajectory_input``, ``geodesic_input``,
``profile_input``, ``arc_input`` and ``loop_input``), except the batches
of 257 and 1000 states, each drawn by one generator call; an
``su2_apply`` input at a fixed n pairs ``su2_input``'s matrix with such
a state.  Both sides share the inputs; what a layer's pool derives from
them (lifts, loop sides, decompositions and triad reductions) each tree
builds itself.  A pool is built only when its layer is timed.

Before timing, each layer's outputs on its whole pool are compared
between the trees; the largest difference, relative to the largest
output entry, is printed with the timings.  A block holds at least
MIN_CALLS calls, so one slow call does not set a round's time, unless
one call takes longer than the block's time: such a layer (a batch of a
thousand states at n = 20 takes some 200 ms) makes one call per block,
so it does not set the length of the run.  Per layer the table gives
each tree's median over rounds of its time per call in a round, the
median over rounds of the change/parent ratio of those paired times,
and the rounds the change won.  ``--json PATH`` writes the same table,
with each layer's calls per block, the run's wall time in seconds, the
machine, the Python and NumPy versions and the parent commit (read with
git when OLD is a clone).

``--perfbench WORKLOAD`` adds the end-to-end rows.  Before the layers,
and before either tree is imported (on Linux a child's peak RSS counts
the memory of the process that started it), it runs each tree's own
``perfbench/run.py --trace 0`` on that workload as a subprocess, K pairs
of runs (``--pairs``), each pair on one seed (1, 2, ...) for the
``run_seconds`` of the change tree's ``BENCHMARK.json``, parent and
change taking turns (the first side alternates between pairs).  For each
``end_to_end`` metric of that file it prints each tree's median over its
runs, and writes it with the quartiles, the median of the change/parent
ratios of the pairs, the pairs the change won (by the metric's own
direction) and every pair's two values; each run's attempted and failed
operations are reported.  perfbench itself, its gates and its bounds are
left as they are.

Each file holds ratios against its own parent, so ``--trajectory`` reads
a chain: for each layer it prints the product of its ratios over the
files given, in the order given, and how many of the files hold it.
"""

import argparse
import dataclasses
import gc
import importlib.util
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"
BLOCK_S = 0.004  # time of one side's calls, per layer and round
SWITCHES = 4  # short blocks per side and round, the sides taking turns
MIN_CALLS = 8  # calls in one block, however slow the layer
POOL = 20  # inputs per layer; the calls of a block walk through them in turn


def load(name: str, path: Path, search=None):
    """The module (or, given search locations, package) at path, imported
    as name."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(src: Path, name: str):
    """perfbench/workloads.py, imported as name + "_workloads", with its
    holonomy_lab import bound to the package under src, imported as name;
    its core, angles, majorana, decompose and curves are that tree's."""
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))  # workloads imports tracing
    pkg = src / "holonomy_lab"
    lab = load(name, pkg / "__init__.py", [str(pkg)])
    saved = sys.modules.get("holonomy_lab")
    sys.modules["holonomy_lab"] = lab
    try:
        return load(f"{name}_workloads", PERFBENCH / "workloads.py")
    finally:
        if saved is None:
            del sys.modules["holonomy_lab"]
        else:
            sys.modules["holonomy_lab"] = saved


def drawn(maker: str, seed: int, js) -> list[tuple]:
    """POOL inputs from the maker of this name in perfbench/workloads.py,
    the i-th drawn as maker(rng, js[i mod len(js)]), each as a tuple of
    arguments."""
    import workloads

    make = getattr(workloads, maker)
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(POOL):
        args = make(rng, js[i % len(js)])
        pool.append(args if isinstance(args, tuple) else (args,))
    return pool


def operation_pool(workload: str, kind: str, seed: int) -> list[tuple]:
    """POOL inputs of one kind of a perfbench workload, each as the one
    argument of its run; input j is the (j mod count)-th of its kind in a
    block, so every position comes up."""
    import workloads

    make, count = workloads.MAKERS[kind], workloads.MIXES[workload][kind]
    rng = np.random.default_rng(seed)
    return [(make(rng, j % count),) for j in range(POOL)]


def at_grid(maker: str, seed: int, grid: int) -> list[tuple]:
    """POOL inputs of perfbench's geodesic_input, profile_input or
    arc_input at one grid: each draws grid 257 at j = 0, 1 and grid 1025 at
    j = 2, 3, in dimensions 3 and 5 in turn."""
    first = {257: 0, 1025: 2}[grid]
    return drawn(maker, seed, (first, first + 1))


def states(n: int, rows: int) -> list[tuple]:
    """POOL inputs at n: one state from perfbench's random_state (rows = 1)
    or a (rows, n) batch of unit rows drawn by one generator call."""
    if rows == 1:
        return drawn("random_state", 300 + n, (n,))
    rng = np.random.default_rng(300 + n)
    pool = []
    for _ in range(POOL):
        z = rng.standard_normal((rows, 2 * n)).view(complex)
        pool.append((z / np.linalg.norm(z, axis=1)[:, None],))
    return pool


def su2_pairs(n: int, rows: int = 1) -> list[tuple]:
    """POOL pairs (u, psi) of an SU(2) matrix from perfbench's su2_input and
    a states(n, rows) input."""
    import workloads

    rng = np.random.default_rng(400 + n)
    return [(workloads.su2_input(rng, 0)[0], psi) for psi, in states(n, rows)]


def triads(n: int) -> list[tuple]:
    """POOL triads of n-state vectors from perfbench's random_triad."""
    return drawn("random_triad", 100 + n, (n,))


def arcs(seed: int, grid: int) -> list[tuple]:
    """Sample arrays (s, psi) of perfbench's latitude arcs at one grid;
    an arc is not a null phase curve, and its connection integral is not 0."""
    return [args[:2] for args in at_grid("arc_input", seed, grid)]


def derived(build, pool) -> list[tuple]:
    """What build makes of each input that pool() returns (a lift, a loop's
    sides, a decomposition or a triad reduction), each as one argument."""
    return [(build(*args),) for args in pool()]


def loop_sides(cv, triad, pairs, swap) -> list:
    """The sides of a perfbench loop: geodesics at grid 257 between the
    in-phase pairs, one of them an eps-family lift when swap is given."""
    sides = [cv.geodesic_lift(v1, v2, 257) for v1, v2 in pairs]
    if swap is not None:
        side, frame, profile = swap
        sides[side] = cv.profile_to_lift(frame, profile)
    return sides


def cases(wl):
    """(label, function, pool) of every layer for one tree's workloads
    module from load_tree, where pool builds that layer's inputs when
    called."""
    mj, dec, cv = wl.majorana, wl.decompose, wl.curves
    run = {kind: partial(fn, wl.NullTracer()) for kind, fn in wl.RUNS.items()}
    out = []
    for n, rows in [(2, 1), (3, 1), (5, 1), (8, 1), (20, 1),
                    (2, 1000), (3, 257), (3, 1000), (8, 1000), (20, 1000)]:
        out.append((f"majorana.coefficients_to_roots.n{n}.B{rows}",
                    mj.coefficients_to_roots, partial(states, n, rows)))
    for n, rows in itertools.product([2, 3, 8, 20], [1, 1000]):
        out.append((f"majorana.roots_to_coefficients.n{n}.B{rows}",
                    mj.roots_to_coefficients,
                    partial(derived, mj.coefficients_to_roots,
                            partial(states, n, rows))))
    for n in (2, 3, 5, 8, 9, 20):
        out.append((f"majorana.su2_apply.n{n}", mj.su2_apply, partial(su2_pairs, n)))
    out.append(("majorana.su2_apply.n20.B1000", mj.su2_apply,
                partial(su2_pairs, 20, 1000)))
    out.append(("majorana.su2_apply.n64", mj.su2_apply, partial(su2_pairs, 64)))
    for n, rows in [(3, 257), (3, 1000), (20, 1000)]:
        out.append((f"MajoranaRep.stars.n{n}.B{rows}", mj.MajoranaRep.stars,
                    partial(derived, mj.coefficients_to_roots,
                            partial(states, n, rows))))
    out.append(("decompose.star_trajectory.g257", dec.star_trajectory,
                partial(drawn, "trajectory_input", 500, (0, 1))))
    for kind, seed in (("roundtrip", 600), ("su2_apply", 601), ("trajectory", 602)):
        out.append((f"stars.op.{kind}", run[kind],
                    partial(operation_pool, "stars", kind, seed)))
    for n in (2, 3, 5, 8):
        out.append((f"core.bargmann.n{n}", wl.core.bargmann,
                    lambda n=n: [(t,) for t in triads(n)]))
        out.append((f"angles.extract_angles.n{n}", wl.angles.extract_angles,
                    partial(triads, n)))
        out.append((f"decompose.reduce_triad.n{n}", dec.reduce_triad,
                    partial(triads, n)))
        out.append((f"decompose.bi_factorization.n{n}", dec.bi_factorization,
                    partial(derived, dec.reduce_triad, partial(triads, n))))
    out.append(("decompose.phase_from_solid_angles_n3",
                dec.phase_from_solid_angles_n3, partial(triads, 3)))
    out.append(("decompose.solid_angle_pair", dec.solid_angle_pair,
                partial(derived, dec.reduce_triad, partial(triads, 3))))
    for n in (2, 3, 5, 8):
        out.append((f"triads.op.n{n}", run["triad"],
                    lambda n=n: [(t,) for t in triads(n)]))
    out.append(("curves.verify_npc.accept", cv.verify_npc,
                partial(derived, cv.profile_to_lift,
                        partial(at_grid, "profile_input", 301, 257))))
    out.append(("curves.verify_npc.reject", cv.verify_npc,
                partial(derived, cv.CurveLift, partial(arcs, 302, 257))))
    for kind, j in (("geodesic", 0), ("family", 1)):
        out.append((f"curves.loop_geometric_phase.{kind}", cv.loop_geometric_phase,
                    partial(derived, partial(loop_sides, cv),
                            partial(drawn, "loop_input", 306, (j,)))))
    for grid in (257, 1025):
        out.append((f"curves.CurveLift.g{grid}", cv.CurveLift,
                    partial(arcs, 300, grid)))
        out.append((f"curves.geodesic_lift.g{grid}", cv.geodesic_lift,
                    partial(at_grid, "geodesic_input", 309, grid)))
        out.append((f"curves.profile_to_lift.g{grid}", cv.profile_to_lift,
                    partial(at_grid, "profile_input", 304, grid)))
        out.append((f"curves.connection_integral.g{grid}", cv.connection_integral,
                    partial(derived, cv.CurveLift, partial(arcs, 303, grid))))
    out.append(("curves.validate_profile.g1025", cv.validate_profile,
                lambda: [(profile, frame.theta0) for frame, profile in
                         at_grid("profile_input", 305, 1025)]))
    for kind, seed in (("geodesic", 311), ("profile", 312), ("arc", 308), ("loop", 313)):
        out.append((f"curves.op.{kind}", run[kind],
                    partial(operation_pool, "curves", kind, seed)))
    out.append(("curves.op.lift.g1025", run["arc"],
                lambda: [((lift.s, lift.psi, None),) for lift, in derived(
                    cv.geodesic_lift, partial(at_grid, "geodesic_input", 307, 1025))]))
    return out


def cold_help(src: Path):
    """A function that runs ``python -m holonomy_lab.cli --help`` on the
    tree under src in a new interpreter and returns its standard output."""
    src = src.resolve()
    argv = [sys.executable, "-m", "holonomy_lab.cli", "--help"]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return lambda: subprocess.run(argv, cwd=src, env=env, capture_output=True,
                                  check=True).stdout


def flat(result) -> np.ndarray:
    """Every number in a result (array, scalar, tuple, dict or dataclass) as
    one array."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, dict):
        result = list(result.values())
    if isinstance(result, (list, tuple)):
        return np.concatenate([flat(r) for r in result] or [np.zeros(0)])
    return np.ravel(np.asarray(result, dtype=complex))


def max_difference(fn_a, fn_b, pool_a, pool_b) -> float:
    worst = 0.0
    for args_a, args_b in zip(pool_a, pool_b):
        a, b = flat(fn_a(*args_a)), flat(fn_b(*args_b))
        if a.shape != b.shape:
            return np.inf
        scale = np.abs(a).max(initial=0.0) or 1.0
        worst = max(worst, np.abs(a - b).max(initial=0.0) / scale)
    return worst


def calls_for(fn, pool, target: float) -> int:
    """Calls that take about target seconds: at least MIN_CALLS, or one
    when a single call takes longer than target."""
    start = time.perf_counter()
    for args in pool[:3]:
        fn(*args)
    per_call = (time.perf_counter() - start) / len(pool[:3])
    if per_call > target:
        return 1
    return max(MIN_CALLS, round(target / per_call))


def timed(fn, inputs, calls: int) -> float:
    """Seconds per call over the next calls entries of the inputs iterator."""
    inputs = list(itertools.islice(inputs, calls))
    gc.disable()
    try:
        start = time.perf_counter()
        for args in inputs:
            fn(*args)
        return (time.perf_counter() - start) / calls
    finally:
        gc.enable()


def timed_turns(sides, calls: int) -> list[float]:
    """Seconds per call of each (fn, inputs) side over SWITCHES blocks of
    calls calls, the sides taking turns block by block."""
    totals = [0.0] * len(sides)
    for _ in range(SWITCHES):
        for k, (fn, inputs) in enumerate(sides):
            totals[k] += timed(fn, inputs, calls)
    return [t / SWITCHES for t in totals]


def perfbench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of root/perfbench/run.py on one workload and seed,
    run untraced in a new interpreter from root."""
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def perfbench_pairs(roots: list[Path], workload: str, pairs: int,
                    seconds: float) -> list[list[dict]]:
    """[parent result, change result] of each pair, the first side of a
    pair alternating from pair to pair."""
    out = []
    for k in range(pairs):
        order = [1, 0] if k % 2 else [0, 1]
        results = {side: perfbench_run(roots[side], workload, k + 1, seconds)
                   for side in order}
        out.append([results[0], results[1]])
    return out


def perfbench_summary(runs: list[list[dict]], specs: list[dict]) -> dict:
    """Per end_to_end metric: the trees' medians and quartiles, the median
    paired change/parent ratio, the pairs the change won and the pairs'
    values; plus each run's attempted and failed operation counts."""
    metrics = {}
    for spec in specs:
        name = spec["name"]
        values = [[r["metrics"][name]["value"] for r in pair] for pair in runs]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "parent": statistics.median(p for p, _ in values),
            "change": statistics.median(c for _, c in values),
            "parent_quartiles": np.percentile([p for p, _ in values], [25, 75]).tolist(),
            "change_quartiles": np.percentile([c for _, c in values], [25, 75]).tolist(),
            "ratio": statistics.median(c / p for p, c in values),
            "won": sum(sign * (c - p) > 0 for p, c in values),
            "pairs": values}
    counts = [[[r["attempted"], r["failed"]] for r in pair] for pair in runs]
    return {"metrics": metrics, "attempted_failed": counts}


def trajectory(paths: list[Path]) -> None:
    """Print each layer's product of parent ratios over the BENCH files."""
    product, files = {}, {}
    for path in paths:
        for label, row in json.loads(path.read_text())["layers"].items():
            product[label] = product.get(label, 1.0) * row["ratio"]
            files[label] = files.get(label, 0) + 1
    print(f"{len(paths)} files: {' '.join(p.name for p in paths)}")
    print(f"{'layer':44} {'product':>8} {'files':>5}")
    for label, ratio in product.items():
        print(f"{label:44} {ratio:8.3f} {files[label]:>5}")


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path,
                        help="src directory of the parent tree")
    parser.add_argument("--change", type=Path, default=HERE.parent / "src",
                        help="src directory of the changed tree (default: this checkout)")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--only", default="",
                        help="time only layers whose label contains this text")
    parser.add_argument("--json", type=Path,
                        help="also write the table and the host to this JSON file")
    parser.add_argument("--trajectory", type=Path, nargs="+", metavar="BENCH",
                        help="instead of timing, print each layer's product of "
                        "ratios over these JSON files")
    parser.add_argument("--perfbench", metavar="WORKLOAD",
                        choices=("stars", "curves", "triads", "cli"),
                        help="before the layers, run each tree's perfbench on this "
                        "workload, the trees taking turns")
    parser.add_argument("--pairs", type=int, default=5,
                        help="pairs of perfbench runs (default: 5)")
    args = parser.parse_args(argv)
    if args.trajectory:
        trajectory(args.trajectory)
        return 0
    if args.parent is None:
        parser.error("--parent is required unless --trajectory is given")
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    # before the trees and their input pools, which would set each
    # child's peak RSS
    end_to_end = None
    if args.perfbench:
        roots = [args.parent.resolve().parent, args.change.resolve().parent]
        spec = json.loads((roots[1] / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
        runs = perfbench_pairs(roots, args.perfbench, args.pairs, seconds)
        end_to_end = {"workload": args.perfbench, "seconds": seconds,
                      **perfbench_summary(runs, spec["end_to_end"])}
        print(f"perfbench {args.perfbench}: {args.pairs} pairs of {seconds} s runs")
        print(f"{'metric':44} {'parent':>10} {'change':>10} {'ratio':>6} {'won':>5}")
        for name, row in end_to_end["metrics"].items():
            print(f"{name:44} {row['parent']:10.4g} {row['change']:10.4g} "
                  f"{row['ratio']:6.3f} {row['won']:>2}/{args.pairs:<2}")
        print("attempted, failed per pair (parent, change): "
              f"{end_to_end['attempted_failed']}")

    trees = [load_tree(args.parent, "parent_lab"), load_tree(args.change, "change_lab")]
    # perfbench's input makers build their inputs with the change tree's
    # holonomy_lab
    sys.modules["workloads"] = trees[1]
    layers = [(p[0], p[1], c[1], p[2], c[2]) for p, c in
              zip(*(cases(wl) for wl in trees)) if args.only in p[0]]

    table = []
    for label, fn_p, fn_c, make_p, make_c in layers:
        pool_p, pool_c = make_p(), make_c()
        diff = max_difference(fn_p, fn_c, pool_p, pool_c)
        calls = calls_for(fn_c, pool_c, BLOCK_S / SWITCHES)
        # both sides walk their pools in step, so each pair times the same inputs
        table.append([label, fn_p, fn_c, itertools.cycle(pool_p),
                      itertools.cycle(pool_c), calls, diff, [], []])
    label = "cli.help.cold"
    if args.only in label:
        fn_p, fn_c = cold_help(args.parent), cold_help(args.change)
        diff = 0.0 if fn_p() == fn_c() else math.inf
        table.append([label, fn_p, fn_c, itertools.repeat(()),
                      itertools.repeat(()), 1, diff, [], []])
    if not table:
        parser.error(f"no layer label contains {args.only!r}")
    for r in range(args.rounds):
        for row in table:
            _, fn_p, fn_c, in_p, in_c, calls, _, t_p, t_c = row
            sides = [(fn_p, in_p), (fn_c, in_c)]
            if r % 2:
                t_c_r, t_p_r = timed_turns(sides[::-1], calls)
            else:
                t_p_r, t_c_r = timed_turns(sides, calls)
            t_p.append(t_p_r)
            t_c.append(t_c_r)

    layers = {label: summary(t_p, t_c, diff) | {"calls": calls}
              for label, *_, calls, diff, t_p, t_c in table}
    print(f"{args.rounds} rounds; parent {args.parent}, change {args.change}")
    print(f"{'layer':44} {'parent us':>10} {'change us':>10} {'ratio':>6} "
          f"{'won':>5} {'max rel diff':>12}")
    for label, row in layers.items():
        diff = row["max_rel_diff"]
        print(f"{label:44} {row['parent_us']:10.1f} {row['change_us']:10.1f} "
              f"{row['ratio']:6.3f} {row['won']:>2}/{row['rounds']:<2} "
              f"{math.inf if diff is None else diff:12.1e}")
    if args.json:
        record = {"machine": machine(), "python": platform.python_version(),
                  "numpy": np.__version__, "parent_commit": git_commit(args.parent),
                  "rounds": args.rounds, "block_s": BLOCK_S, "switches": SWITCHES,
                  "min_calls": MIN_CALLS,
                  "elapsed_s": round(time.perf_counter() - started, 1),
                  "layers": layers}
        if end_to_end is not None:
            record["perfbench"] = end_to_end
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


def summary(t_p: list[float], t_c: list[float], diff: float) -> dict:
    """Medians, paired ratio and rounds won of one layer; a non-finite
    output difference is written as None."""
    return {"parent_us": statistics.median(t_p) * 1e6,
            "change_us": statistics.median(t_c) * 1e6,
            "ratio": statistics.median(c / p for p, c in zip(t_p, t_c)),
            "won": sum(c < p for p, c in zip(t_p, t_c)), "rounds": len(t_p),
            "max_rel_diff": diff if math.isfinite(diff) else None}


def machine() -> dict:
    """CPU model, logical CPUs and platform of this host."""
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "platform": platform.platform()}


def git_commit(src: Path) -> str | None:
    """Commit checked out at src, or None when src is not in a git clone."""
    try:
        return subprocess.run(["git", "-C", str(src), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


if __name__ == "__main__":
    sys.exit(main())
