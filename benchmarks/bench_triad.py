"""Per-layer timings of the one-triad path, on pytest-benchmark.

Tier-1 does not collect this file; run it by name:

    PYTHONPATH=src python -m pytest benchmarks/bench_triad.py --benchmark-only

Each case calls one library layer and cycles through a fixed pool of
seeded inputs, one input per call, so the statistics are per call over
the pool.  Triads come from the selftest's sampler and its overlap band,
as in the ``triads`` workload of ``perfbench``.
"""

import itertools

import numpy as np
import pytest

from holonomy_lab import angles, core, decompose, majorana
from holonomy_lab.selftest import _triad

POOL = 20


def triad_pool(n):
    rng = np.random.default_rng(100 + n)
    return [_triad(rng, n) for _ in range(POOL)]


def cycling(fn, inputs):
    """A no-argument call of fn on the next input of the pool."""
    pool = itertools.cycle(inputs)
    return lambda: fn(*next(pool))


@pytest.fixture(scope="module", params=[2, 3, 5, 8], ids=lambda n: f"n{n}")
def triads(request):
    return triad_pool(request.param)


def test_bargmann(benchmark, triads):
    benchmark(cycling(lambda *t: core.bargmann(t), triads))


def test_extract_angles(benchmark, triads):
    benchmark(cycling(angles.extract_angles, triads))


def test_reduce_triad(benchmark, triads):
    benchmark(cycling(decompose.reduce_triad, triads))


def test_bi_factorization(benchmark, triads):
    reductions = [(decompose.reduce_triad(*t),) for t in triads]
    benchmark(cycling(decompose.bi_factorization, reductions))


def test_phase_from_solid_angles_n3(benchmark):
    benchmark(cycling(decompose.phase_from_solid_angles_n3, triad_pool(3)))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 20], ids=lambda n: f"n{n}")
def test_coefficients_to_roots_one_row(benchmark, n):
    rng = np.random.default_rng(200 + n)
    states = [(core.random_state(n, rng),) for _ in range(POOL)]
    benchmark(cycling(majorana.coefficients_to_roots, states))
