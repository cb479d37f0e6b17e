"""In-process A/B timing of the star layers on two source trees.

Both trees are imported in one process, under two package names, and
each round times every layer on the parent and then on the change (or
the other way round; the first side alternates between rounds).  Calls
that alternate this closely share the host's speed phases, so the
paired ratio separates gaps of a few percent that two separate runs of
``perfbench`` cannot.  Tier-1 does not collect this file; run it as

    python benchmarks/interleave.py --parent OLD/src [--change NEW/src]

where OLD is a checkout of the parent commit (``git archive`` into a
directory outside the repository) and NEW defaults to this checkout's
``src``.  The cases are those of ``bench_stars.py`` plus
``reduce_triad`` and ``phase_from_solid_angles_n3`` from
``bench_triad.py``, the triad layers that reach the star path through
one-row decompositions.  Inputs come from the change tree and are shared
by both sides, except decompositions, which each tree makes itself.

Before timing, each layer's outputs on its whole pool are compared
between the trees; the largest difference, relative to the largest
output entry, is printed with the timings.  Per layer the table gives
each tree's minimum time per call and the median over rounds of the
change/parent ratio of the paired times.
"""

import argparse
import dataclasses
import gc
import importlib.util
import itertools
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
BLOCK_S = 0.004  # time of one side's block of calls, per layer and round


def load_tree(src: Path, name: str):
    """The holonomy_lab package under src, imported as the package name."""
    pkg = src / "holonomy_lab"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def cases(lab):
    """(label, function, pool) of every layer, for one loaded tree."""
    import bench_stars as bs
    import bench_triad as bt

    mj, dec = lab.majorana, lab.decompose
    out = []
    for n, rows in itertools.product([2, 3, 8, 20], [1, 1000]):
        out.append((f"majorana.coefficients_to_roots.n{n}.B{rows}",
                    mj.coefficients_to_roots, bs.state_pool(n, rows)))
    for n, rows in itertools.product([2, 3, 8, 20], [1, 1000]):
        out.append((f"majorana.roots_to_coefficients.n{n}.B{rows}",
                    mj.roots_to_coefficients,
                    bs.rep_pool(mj.coefficients_to_roots, n, rows)))
    for n in (3, 8):
        out.append((f"majorana.su2_apply.n{n}", mj.su2_apply, bs.su2_pool(n)))
    for n in (3, 20):
        out.append((f"MajoranaRep.stars.n{n}.B1000", mj.MajoranaRep.stars,
                    bs.rep_pool(mj.coefficients_to_roots, n, 1000)))
    out.append(("decompose.star_trajectory.g257", dec.star_trajectory,
                bs.trajectory_pool()))
    for n in (3, 8):
        out.append((f"decompose.reduce_triad.n{n}", dec.reduce_triad,
                    bt.triad_pool(n)))
    out.append(("decompose.phase_from_solid_angles_n3",
                dec.phase_from_solid_angles_n3, bt.triad_pool(3)))
    return out


def flat(result) -> np.ndarray:
    """Every number in a result (array, scalar, tuple or dataclass) as one array."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
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
    """Calls that take about target seconds, at least one."""
    start = time.perf_counter()
    for args in pool[:3]:
        fn(*args)
    per_call = (time.perf_counter() - start) / len(pool[:3])
    return max(1, round(target / per_call))


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="src directory of the parent tree")
    parser.add_argument("--change", type=Path, default=HERE.parent / "src",
                        help="src directory of the changed tree (default: this checkout)")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--only", default="",
                        help="time only layers whose label contains this text")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be positive")

    # the bench modules build their inputs with the change tree's holonomy_lab
    sys.path[:0] = [str(args.change), str(HERE)]
    trees = [load_tree(args.parent, "parent_lab"), load_tree(args.change, "change_lab")]
    layers = [(p[0], p[1], c[1], p[2], c[2]) for p, c in
              zip(*(cases(lab) for lab in trees)) if args.only in p[0]]
    if not layers:
        parser.error(f"no layer label contains {args.only!r}")

    table = []
    for label, fn_p, fn_c, pool_p, pool_c in layers:
        diff = max_difference(fn_p, fn_c, pool_p, pool_c)
        calls = calls_for(fn_c, pool_c, BLOCK_S)
        # both sides walk their pools in step, so each pair times the same inputs
        table.append([label, fn_p, fn_c, itertools.cycle(pool_p),
                      itertools.cycle(pool_c), calls, diff, [], []])
    for r in range(args.rounds):
        for row in table:
            _, fn_p, fn_c, in_p, in_c, calls, _, t_p, t_c = row
            if r % 2:
                t_c.append(timed(fn_c, in_c, calls))
                t_p.append(timed(fn_p, in_p, calls))
            else:
                t_p.append(timed(fn_p, in_p, calls))
                t_c.append(timed(fn_c, in_c, calls))

    print(f"{args.rounds} rounds; parent {args.parent}, change {args.change}")
    print(f"{'layer':44} {'parent us':>10} {'change us':>10} {'ratio':>6} "
          f"{'won':>5} {'max rel diff':>12}")
    for label, *_, diff, t_p, t_c in table:
        ratio = statistics.median(c / p for p, c in zip(t_p, t_c))
        won = sum(c < p for p, c in zip(t_p, t_c))
        print(f"{label:44} {min(t_p) * 1e6:10.1f} {min(t_c) * 1e6:10.1f} "
              f"{ratio:6.3f} {won:>2}/{len(t_p):<2} {diff:12.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
