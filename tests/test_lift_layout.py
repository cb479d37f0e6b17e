"""Component-major lifts against their sample-major oracle.

A lift keeps its samples as the transpose of a C-order (dim, samples)
buffer and forms its norms, lag-1 overlaps and the connection integral's
lag-2 and lag-4 overlaps down that buffer's columns.  ``lift_oracle``
keeps the row-major forms those passes replaced; every lift builder's
output must read the same bits through both.
"""

import numpy as np
import pytest

from holonomy_lab import core, curves, formats, majorana
from holonomy_lab.curves import (
    CurveLift,
    connection_integral,
    frame_from_pair,
    generate_npc_profile,
    geodesic_lift,
    in_phase_gauge,
    profile_to_lift,
    verify_npc,
    _polygon_phase,
)
from holonomy_lab.decompose import star_trajectory
from holonomy_lab.majorana import pure_product_state

from lift_oracle import oracle_norms, oracle_polygon_phase, row_major_lift


def bits(x) -> bytes:
    return np.asarray(x).tobytes()


def arc_samples(theta, span, n, grid):
    """(s, psi) of spin-coherent states along a latitude circle, C order."""
    s = np.linspace(0.0, 1.0, grid)
    xis = np.stack([np.full(grid, np.cos(theta / 2), dtype=complex),
                    np.exp(1j * span * s) * np.sin(theta / 2)], axis=1)
    return s, np.array([pure_product_state(xi, n) for xi in xis])


def lifts(rng, n, grid):
    """(kind, lift) of every builder at this dimension and grid."""
    v1, v2 = in_phase_gauge(core.random_state(n, rng), core.random_state(n, rng))
    geodesic = geodesic_lift(v1, v2, grid=grid)
    yield "geodesic", geodesic
    if n >= 3:
        frame = frame_from_pair(core.random_state(n, rng), core.random_state(n, rng))
        yield "profile", profile_to_lift(
            frame, generate_npc_profile(frame.theta0, 0.8, grid=grid))
    arc = CurveLift(*arc_samples(float(rng.uniform(0.5, 2.6)), 1.5, n, grid))
    yield "public", arc
    chi = np.exp(1j * (0.9 * geodesic.s + 0.4 * np.sin(2 * np.pi * geodesic.s)))
    twisted = CurveLift(geodesic.s, chi[:, None] * geodesic.psi)
    yield "public-twisted", twisted
    yield "csv", formats.curve_from_csv(formats.curve_to_csv(arc))
    yield "csv-twisted", formats.curve_from_csv(formats.curve_to_csv(twisted))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("grid", [5, 257, 1025])
class TestRowMajorParity:

    def test_layout_is_component_major_and_read_only(self, rng, n, grid):
        for kind, lift in lifts(rng, n, grid):
            for a in (lift.psi, lift._conj):
                assert a.shape == (grid, n), kind
                assert a.T.flags.c_contiguous, kind
                assert not a.flags.writeable and not a.T.flags.writeable, kind
            assert np.array_equal(lift._conj, np.conjugate(lift.psi)), kind

    def test_lag1_reads_the_oracle_bits(self, rng, n, grid):
        for kind, lift in lifts(rng, n, grid):
            assert bits(lift._lag1) == bits(row_major_lift(lift)._lag1), kind

    def test_integral_and_estimate_read_the_oracle_bits(self, rng, monkeypatch, n, grid):
        monkeypatch.setattr(curves, "MAX_QUAD_ERROR", np.inf)
        for kind, lift in lifts(rng, n, grid):
            want, want_estimate = oracle_polygon_phase(row_major_lift(lift))
            result, estimate = _polygon_phase(lift)
            assert bits(result) == bits(want), kind
            assert bits(estimate) == bits(want_estimate), kind
            assert bits(connection_integral(lift)) == bits(want), kind

    def test_npc_report_reads_the_oracle_bits(self, rng, n, grid):
        for kind, lift in lifts(rng, n, grid):
            got, want = verify_npc(lift), verify_npc(row_major_lift(lift))
            assert got.checked == want.checked, kind
            assert np.array_equal(got.triples, want.triples), kind
            assert bits(got.deltas) == bits(want.deltas), kind
            assert bits(got.min_real) == bits(want.min_real), kind
            assert bits(got.max_rel_imag) == bits(want.max_rel_imag), kind


class TestPublicCopies:

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_caller_arrays_are_copied_in_either_order(self, order):
        s, psi = arc_samples(1.1, 1.5, 3, 33)
        mine = np.array(psi, order=order)
        lift = CurveLift(s, mine)
        assert not np.shares_memory(lift.psi, mine)
        mine[:, 1] *= 1j
        assert np.array_equal(lift.psi, psi)

    def test_norm_decision_matches_the_oracle_off_the_rounding(self, rng):
        # one sample scaled to a norm of about 1 + d, d swept across the
        # 1e-9 tolerance; the float-view norms may round differently from
        # the oracle's, so samples within a few eps of the edge are skipped
        base = geodesic_lift(*in_phase_gauge(core.random_state(5, rng),
                                             core.random_state(5, rng)), grid=17)
        seen = set()
        for d in np.linspace(-2e-9, 2e-9, 161):
            psi = np.array(base.psi)
            psi[7] *= 1.0 + d
            norm = oracle_norms(psi)[7]
            want = abs(norm - 1.0) <= 1e-9
            if abs(abs(norm - 1.0) - 1e-9) < 8 * np.finfo(float).eps:
                continue
            try:
                CurveLift(base.s, psi)
                got = True
            except ValueError as exc:
                assert "unit" in str(exc)
                got = False
            assert got == want, d
            seen.add(got)
        assert seen == {True, False}


def test_star_trajectory_reads_the_buffer_uncopied(rng, monkeypatch):
    # the star kernel takes the transpose of its (samples, 3) batch in
    # contiguous form; for a lift that is the lift's own buffer
    v1, v2 = in_phase_gauge(core.random_state(3, rng), core.random_state(3, rng))
    lift = geodesic_lift(v1, v2, grid=257)
    seen = []
    contiguous = np.ascontiguousarray

    def spy(a, *args, **kwargs):
        out = contiguous(a, *args, **kwargs)
        if isinstance(a, np.ndarray) and np.shares_memory(a, lift.psi):
            seen.append(np.shares_memory(out, lift.psi))
        return out

    monkeypatch.setattr(majorana.np, "ascontiguousarray", spy)
    star_trajectory(lift)
    assert seen == [True]
