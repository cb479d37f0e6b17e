"""One test per numbered correctness criterion.

Each test runs the corresponding selftest check at the default seed and
reports the measured margin in its failure message, so `pytest -v`
prints one line per criterion.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

from holonomy_lab import angles, curves, decompose, majorana
from holonomy_lab.selftest import CRITERIA, _spin_exponential, run


@functools.cache
def result_of(number):
    (result,) = run(numbers=[number])
    return result


def by_number(number):
    result = result_of(number)
    assert result.passed, f"criterion {number} ({result.name}): {result.detail}"
    return result


def test_criterion_00_golden_fixtures():
    by_number(0)


def test_criterion_01_closed_form_phase_dim2():
    by_number(1)


def test_criterion_02_closed_form_phase_dim3():
    by_number(2)


def test_criterion_03_dependent_sixth_angle_dim2():
    by_number(3)


def test_criterion_04_coherent_pair_vs_series():
    by_number(4)


def test_criterion_05_root_round_trip():
    by_number(5)


def test_criterion_06_factorization_over_stars():
    by_number(6)


def test_criterion_07_half_solid_angle_sum():
    by_number(7)


def test_criterion_08_null_phase_verifier():
    by_number(8)


def test_criterion_09_horizontal_lifts_and_twists():
    by_number(9)


def test_criterion_10_loop_phase_three_segments():
    by_number(10)


def test_criterion_11_rotation_covariance():
    by_number(11)


def test_criterion_11_exponential_needs_no_eigenbasis(monkeypatch):
    # the series exponential checks su2_apply, which diagonalizes J_y, by
    # a route of its own: it matches SciPy's expm with eigh unavailable
    expm = pytest.importorskip("scipy.linalg").expm
    rng = np.random.default_rng(11)
    cases = [(majorana.random_su2(rng), n) for n in range(1, 21) for _ in range(5)]
    monkeypatch.setattr(np.linalg, "eigh", None)
    for u, n in cases:
        a = -0.5 * np.einsum("kab,ba->k", majorana.SIGMA, u).imag
        theta = 2.0 * math.atan2(np.linalg.norm(a), 0.5 * np.trace(u).real)
        nhat = a / np.linalg.norm(a)
        generator = sum(c * j for c, j in zip(nhat, majorana.spin_matrices(n)))
        want = expm(-1j * theta * generator)
        assert np.max(np.abs(_spin_exponential(u, n) - want)) <= 1e-13


def test_criterion_12_phase_covariance():
    by_number(12)


def test_numbering_is_complete():
    assert [c[0] for c in CRITERIA] == list(range(13))
    for number in range(13):
        measures = result_of(number).measures
        assert measures, f"criterion {number} yields no measure"
        for m in measures:
            assert math.isfinite(m.bound) and m.bound > 0, (number, m)


def test_negative_seed_rejected_before_any_check(monkeypatch):
    # criterion k seeds NumPy with seed + 1000 k, which may not be negative
    ran = []
    monkeypatch.setattr("holonomy_lab.selftest.CRITERIA",
                        [(0, "recorded", lambda rng: ran.append(rng) or [])])
    with pytest.raises(ValueError, match="seed must be at least 0"):
        run(-1)
    assert ran == []
    assert run(0)[0].name == "recorded" and len(ran) == 1


def test_unknown_criterion_rejected_before_any_check(monkeypatch):
    ran = []
    monkeypatch.setattr("holonomy_lab.selftest.CRITERIA",
                        [(12, "recorded", lambda rng: ran.append(rng) or [])])
    with pytest.raises(ValueError, match="numbered 99$"):
        run(0, numbers=[99])
    with pytest.raises(ValueError, match="numbered 99$"):
        run(0, numbers=[12, 99])
    with pytest.raises(ValueError, match="numbered 13, 99$"):
        run(0, numbers=[99, 12, 13])
    assert ran == []
    assert [r.name for r in run(0, numbers=[12])] == ["recorded"]


def times_nan(route):
    return lambda *args, **kwargs: route(*args, **kwargs) * math.nan


def nan_pair(route):
    return lambda *args, **kwargs: (math.nan, math.nan)


def nan_report(route):
    return lambda *args, **kwargs: dataclasses.replace(
        route(*args, **kwargs), max_rel_imag=math.nan)


def nan_angles(route):
    return lambda *args, **kwargs: angles.IntrinsicAngles(*[math.nan] * 6)


# One route per criterion, patched to return NaN: the NaN must reach the
# criterion's measure and fail it.
NAN_ROUTES = [
    (0, majorana, "overlap_general", times_nan),
    (1, angles, "pancharatnam_phase", times_nan),
    (2, angles, "pancharatnam_phase", times_nan),
    (3, angles, "solve_dependent_n2", nan_pair),
    (4, angles, "solve_dependent_coherent", nan_pair),
    (5, majorana, "roots_to_coefficients", times_nan),
    (6, decompose, "bi_factorization", times_nan),
    (7, decompose, "phase_from_solid_angles_n3", times_nan),
    (8, curves, "verify_npc", nan_report),
    (9, curves, "connection_integral", times_nan),
    (10, curves, "loop_geometric_phase", times_nan),
    (11, majorana, "star_matching_distance", times_nan),
    (12, angles, "extract_angles", nan_angles),
]


@pytest.mark.parametrize("number, module, name, fake", NAN_ROUTES,
                         ids=[f"{n:02d}-{name}" for n, _, name, _ in NAN_ROUTES])
def test_nan_error_fails(number, module, name, fake, monkeypatch):
    monkeypatch.setattr(module, name, fake(getattr(module, name)))
    with np.errstate(invalid="ignore"):  # NumPy notes the NaN arithmetic
        (result,) = run(numbers=[number])
    assert result.error is None, result.detail
    assert not result.passed
    assert "nan" in result.detail
    assert any(np.isnan(m.worst) for m in result.measures)
