"""Serialization round trips and input validation."""

import csv
import io

import numpy as np
import pytest

from holonomy_lab import core, formats
from holonomy_lab.curves import CurveLift, geodesic_lift, in_phase_gauge
from holonomy_lab.majorana import MajoranaRep, coefficients_to_roots


class TestScalars:
    def test_round15_is_idempotent(self):
        x = 0.123456789012345678
        once = formats.round15(x)
        assert formats.round15(once) == once

    def test_json_dumps_ends_with_newline(self):
        assert formats.json_dumps({"a": 1}).endswith("\n")

    def test_json_loads_error_message(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            formats.json_loads("{nope")


class TestStates:
    def test_round_trip(self, rng):
        psi = core.random_state(4, rng)
        back = formats.state_from_dict(formats.state_to_dict(psi))
        assert np.allclose(back, psi, atol=1e-14)

    def test_second_trip_is_exact(self, rng):
        # one trip rounds to 15 significant digits, after that it is stable
        psi = core.random_state(3, rng)
        d1 = formats.state_to_dict(psi)
        once = formats.state_from_dict(d1)
        assert formats.state_to_dict(once) == d1

    def test_dim_field_checked(self):
        with pytest.raises(ValueError, match="dim"):
            formats.state_from_dict(
                {"dim": 3, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]})

    def test_missing_amplitudes(self):
        with pytest.raises(ValueError, match="amplitudes"):
            formats.state_from_dict({"dim": 2})

    def test_malformed_pair(self):
        with pytest.raises(ValueError, match="pair"):
            formats.state_from_dict({"amplitudes": [[1.0, 0.0], [2.0]]})

    def test_booleans_are_not_numbers(self):
        # JSON true and false decode to bool, a subclass of int
        for text, message in (
                ('{"amplitudes": [[true, false]]}', r"amplitudes\[0\]: expected"),
                ('{"amplitudes": [[1, 0], [0, true]]}', r"amplitudes\[1\]: expected"),
                ('{"dim": true, "amplitudes": [[1, 0]]}', "'dim' is True")):
            with pytest.raises(ValueError, match=message):
                formats.state_from_dict(formats.json_loads(text))

    def test_non_finite_amplitude_rejected(self):
        # json.loads reads NaN and Infinity as floats, and integers of any size
        for text in ('[NaN, 0]', '[0, Infinity]', f'[1{"0" * 400}, 0]'):
            d = formats.json_loads(
                '{"amplitudes": [[1, 0], ' + text + ']}')
            with pytest.raises(ValueError, match="non-finite"):
                formats.state_from_dict(d)

    def test_bare_state_is_refused(self, rng):
        d = formats.state_to_dict(core.random_state(2, rng))
        with pytest.raises(ValueError, match="'states' list"):
            formats.states_from_dict(d)

    def test_minimum_count_enforced(self, rng):
        d = formats.states_to_dict([core.random_state(2, rng)] * 2)
        with pytest.raises(ValueError, match="at least 3"):
            formats.states_from_dict(d)

    def test_mixed_dimensions_rejected(self, rng):
        d = {"states": [formats.state_to_dict(core.random_state(2, rng)),
                        formats.state_to_dict(core.random_state(3, rng)),
                        formats.state_to_dict(core.random_state(2, rng))]}
        with pytest.raises(ValueError, match="mixed dimensions"):
            formats.states_from_dict(d)


class TestMajoranaRep:
    def test_round_trip(self, rng):
        rep = coefficients_to_roots(core.random_state(5, rng))
        back = formats.rep_from_dict(formats.rep_to_dict(rep))
        assert back.spinors.shape == rep.spinors.shape
        assert np.allclose(back.spinors, rep.spinors, atol=1e-14)
        assert back.scale == pytest.approx(rep.scale)

    def test_dimension_one_has_no_spinors(self):
        rep = formats.rep_from_dict({"dim": 1, "scale": [0.6, 0.8], "spinors": []})
        assert rep.dim == 1 and rep.spinors.shape == (0, 2)
        assert rep.scale == 0.6 + 0.8j
        with pytest.raises(ValueError, match="'spinors' must be a list"):
            formats.rep_from_dict({"scale": [1.0, 0.0], "spinors": {}})

    def test_rows_renormalized_within_tolerance(self):
        d = {"dim": 2, "scale": [1.0, 0.0],
             "spinors": [[[1.0 + 3e-10, 0.0], [0.0, 0.0]]]}
        rep = formats.rep_from_dict(d)
        assert np.linalg.norm(rep.spinors[0]) == pytest.approx(1.0, abs=1e-15)

    def test_clearly_non_unit_row_rejected(self):
        d = {"dim": 2, "scale": [1.0, 0.0],
             "spinors": [[[2.0, 0.0], [0.0, 0.0]]]}
        with pytest.raises(ValueError, match="unit length"):
            formats.rep_from_dict(d)

    def test_dim_consistency(self):
        d = {"dim": 5, "scale": [1.0, 0.0],
             "spinors": [[[1.0, 0.0], [0.0, 0.0]]]}
        with pytest.raises(ValueError, match="dim"):
            formats.rep_from_dict(d)

    def test_booleans_are_not_numbers(self):
        for d, message in (
                ({"dim": True, "scale": [1.0, 0.0], "spinors": []}, "'dim' is True"),
                ({"scale": [True, 0], "spinors": []}, "scale: expected"),
                ({"scale": [1.0, 0.0], "spinors": [[[1.0, 0.0], [False, 0.0]]]},
                 r"spinors\[0\]\[1\]: expected")):
            with pytest.raises(ValueError, match=message):
                formats.rep_from_dict(d)

    def test_missing_keys(self):
        with pytest.raises(ValueError, match="spinors"):
            formats.rep_from_dict({"scale": [1.0, 0.0]})


class TestCsv:
    def test_star_rows_header(self):
        text = formats.stars_to_rows(np.array([[0.0, 0.0, 1.0]]))
        assert text.splitlines()[0] == "x,y,z"
        assert text.splitlines()[1] == "0,0,1"

    def test_curve_round_trip_is_byte_identical(self, rng):
        a = core.random_state(3, rng)
        b = core.random_state(3, rng)
        lift = geodesic_lift(*in_phase_gauge(a, b), grid=17)
        text = formats.curve_to_csv(lift)
        back = formats.curve_from_csv(text)
        assert formats.curve_to_csv(back) == text

    def test_signed_zeros_are_read_back(self):
        # -0 in real and imaginary parts keeps its sign bit, so the samples
        # and the text come back bit for bit
        text = ("s,re_0,im_0,re_1,im_1\n0,-0.6,-0,0.8,-0\n"
                "0.5,-0,-0.6,0.8,0\n1,0.6,-0,-0,0.8\n")
        back = formats.curve_from_csv(text)
        assert np.array_equal(np.signbit(back.psi.real),
                              [[True, False], [True, False], [False, True]])
        assert np.array_equal(np.signbit(back.psi.imag),
                              [[True, True], [True, False], [True, False]])
        assert formats.curve_to_csv(back) == text

    @staticmethod
    def writer_rows(header, rows):
        """CSV through csv.writer, one formatted cell at a time."""
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.15g}" for v in row])
        return out.getvalue()

    @pytest.mark.parametrize("dim", [2, 5])
    def test_tables_match_the_cell_writer(self, rng, dim):
        grid = 33
        psi = rng.standard_normal((grid, dim)) + 1j * rng.standard_normal((grid, dim))
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        psi[3, 0] = complex(-0.0, -0.0)  # a signed zero prints as -0
        psi[3] /= np.linalg.norm(psi[3])
        s = np.linspace(0.0, 1.0, grid)
        header = ["s"] + [f"{p}_{k}" for k in range(dim) for p in ("re", "im")]
        rows = [[sv] + [f for z in row for f in (z.real, z.imag)]
                for sv, row in zip(s, psi)]
        want = self.writer_rows(header, rows)
        assert formats.curve_to_csv(CurveLift(s, psi)) == want
        assert formats.curve_to_csv(CurveLift(s, np.asfortranarray(psi))) == want
        traj = rng.standard_normal((grid, 2, 3))
        traj[0, 1, 2] = -0.0
        assert formats.star_trajectory_to_csv(s, traj) == self.writer_rows(
            ["s", "n1x", "n1y", "n1z", "n2x", "n2y", "n2z"],
            [[sv, *pair.ravel()] for sv, pair in zip(s, traj)])
        stars = traj[:, 0]
        assert formats.stars_to_rows(stars) == self.writer_rows(["x", "y", "z"], stars)
        assert formats.stars_to_rows(np.empty((0, 3))) == "x,y,z\n"

    def test_curve_header_validated(self):
        with pytest.raises(ValueError, match="header"):
            formats.curve_from_csv("s,foo_0,bar_0\n0,1,0\n0.5,1,0\n1,1,0\n")

    def test_curve_row_width_validated(self, rng):
        a = core.random_state(2, rng)
        b = core.random_state(2, rng)
        lift = geodesic_lift(*in_phase_gauge(a, b), grid=5)
        lines = formats.curve_to_csv(lift).splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        with pytest.raises(ValueError, match="row 2"):
            formats.curve_from_csv("\n".join(lines) + "\n")

    def test_curve_with_nan_rejected(self, rng):
        a = core.random_state(3, rng)
        b = core.random_state(3, rng)
        lines = formats.curve_to_csv(
            geodesic_lift(*in_phase_gauge(a, b), grid=5)).splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
        with pytest.raises(ValueError, match="non-finite"):
            formats.curve_from_csv("\n".join(lines) + "\n")

    def test_curve_empty_rejected(self):
        with pytest.raises(ValueError, match="no data"):
            formats.curve_from_csv("s,re_0,im_0\n")

    def test_trajectory_shape_validated(self):
        with pytest.raises(ValueError, match="shape"):
            formats.star_trajectory_to_csv(np.linspace(0, 1, 3),
                                           np.zeros((3, 3, 2)))

    def test_trajectory_header(self):
        text = formats.star_trajectory_to_csv(
            np.array([0.0, 1.0]), np.zeros((2, 2, 3)))
        assert text.splitlines()[0] == "s,n1x,n1y,n1z,n2x,n2y,n2z"


class TestResultToJsonable:
    def test_scalar_handling(self):
        out = formats.result_to_jsonable(
            {"flag": True, "count": np.int64(3), "z": 1 + 2j,
             "arr": np.array([1.0, 2.0]), "nested": [np.float64(0.5)]})
        assert out["flag"] is True
        assert out["count"] == 3 and isinstance(out["count"], int)
        assert out["z"] == [1.0, 2.0]
        assert out["arr"] == [1.0, 2.0]
        assert out["nested"] == [0.5]

    def test_complex_array(self):
        out = formats.result_to_jsonable(np.array([1 + 1j, 2 - 2j]))
        assert out == [[1.0, 1.0], [2.0, -2.0]]
