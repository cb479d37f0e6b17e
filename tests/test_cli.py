"""End-to-end command-line behaviour, run in process."""

import argparse
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from holonomy_lab import cli, core, formats
from holonomy_lab.config import DEFAULT_SUBGRID
from holonomy_lab.curves import (
    CurveFrame,
    CurveLift,
    generate_npc_profile,
    geodesic_lift,
    in_phase_gauge,
    loop_geometric_phase,
    profile_to_lift,
)

from conftest import assert_angle_close, random_polygon, random_triad, widened
from npc_oracle import oracle_report

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
R = 1 / np.sqrt(2)
OCTANT = {"states": [
    {"dim": 3, "amplitudes": [[1, 0], [0, 0], [0, 0]]},
    {"dim": 3, "amplitudes": [[R, 0], [R, 0], [0, 0]]},
    {"dim": 3, "amplitudes": [[R, 0], [0, R], [0, 0]]},
]}


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(argv, capsys):
    """stderr of an argv that argparse rejects: exit 1, nothing on stdout."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    captured = capsys.readouterr()
    assert excinfo.value.code == 1 and captured.out == ""
    return captured.err


def write_triad(tmp_path, triad, name="triad.json"):
    path = tmp_path / name
    path.write_text(formats.json_dumps(formats.states_to_dict(triad)))
    return str(path)


def write_curve(tmp_path, name="curve.csv"):
    """A 9-sample dimension-3 geodesic, which passes every curve check."""
    e1 = np.array([1, 0, 0], dtype=complex)
    tilted = np.array([0.6, 0.8, 0], dtype=complex)
    path = tmp_path / name
    path.write_text(formats.curve_to_csv(geodesic_lift(e1, tilted, grid=9)))
    return str(path)


def run_json(argv, capsys, expect=0):
    code, out, err = run(argv, capsys)
    assert code == expect, err
    return json.loads(out)


@pytest.fixture
def octant_file(tmp_path):
    path = tmp_path / "octant.json"
    path.write_text(json.dumps(OCTANT))
    return str(path)


class TestBi:
    def test_octant_invariant(self, octant_file, capsys):
        out = run_json(["bi", octant_file], capsys)
        assert out["order"] == 3
        assert out["bargmann_invariant"] == pytest.approx([0.25, 0.25])
        assert out["geometric_phase"] == pytest.approx(-np.pi / 4)

    def test_output_is_reproducible(self, octant_file, capsys):
        code, first, _ = run(["bi", octant_file], capsys)
        assert code == 0
        code, second, _ = run(["bi", octant_file], capsys)
        assert second == first

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(OCTANT)))
        out = run_json(["bi", "-"], capsys)
        assert out["order"] == 3

    def test_bad_json_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, _, err = run(["bi", str(path)], capsys)
        assert code == 1
        assert "invalid JSON" in err

    def test_missing_file(self, capsys):
        code, _, err = run(["bi", "/no/such/file.json"], capsys)
        assert code == 1

    def test_boolean_amplitude_is_a_parse_error(self, tmp_path, capsys):
        # JSON true and false are not numbers, though Python's bool is an int
        states = json.loads(json.dumps(OCTANT))
        states["states"][0]["amplitudes"][0] = [True, False]
        path = tmp_path / "boolean.json"
        path.write_text(json.dumps(states))
        code, out, err = run(["bi", str(path)], capsys)
        assert (code, out) == (1, "")
        assert "states[0].amplitudes[0]: expected a [re, im] pair" in err

    def test_zero_vector_is_a_validation_error(self, tmp_path, capsys):
        bad = {"states": [{"dim": 2, "amplitudes": [[0, 0], [0, 0]]}] * 3}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(bad))
        code, _, err = run(["bi", str(path)], capsys)
        assert code == 2

    def test_orthogonal_pair_is_a_validation_error(self, tmp_path, capsys):
        # states 0 and 1 are orthogonal, so the invariant is degenerate
        path = tmp_path / "orthogonal.json"
        path.write_text(json.dumps({"states": [
            {"dim": 3, "amplitudes": [[1, 0], [0, 0], [0, 0]]},
            {"dim": 3, "amplitudes": [[0, 0], [1, 0], [0, 0]]},
            {"dim": 3, "amplitudes": [[0.6, 0], [0.8, 0], [0, 0]]},
        ]}))
        code, out, err = run(["bi", str(path)], capsys)
        assert code == 2 and "degenerate" in err
        assert out == ""

    def test_output_flag_writes_file(self, octant_file, tmp_path, capsys):
        target = tmp_path / "result.json"
        code, out, _ = run(["bi", octant_file, "--output", str(target)],
                           capsys)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["order"] == 3


class TestAngles:
    def test_octant_angles(self, octant_file, capsys):
        # the three octant states pairwise overlap with modulus 1/sqrt(2)
        out = run_json(["angles", octant_file], capsys)
        assert out["theta_12"] == pytest.approx(np.pi / 2)
        assert out["theta_23"] == pytest.approx(np.pi / 2)
        assert out["theta_31"] == pytest.approx(np.pi / 2)
        assert out["phi_g"] == pytest.approx(-np.pi / 4)

    def test_too_few_states_fail_at_parse(self, tmp_path, capsys):
        two = {"states": OCTANT["states"][:2]}
        path = tmp_path / "two.json"
        path.write_text(json.dumps(two))
        code, _, err = run(["angles", str(path)], capsys)
        assert code == 1
        assert "at least 3" in err

    def test_too_many_states_fail_validation(self, tmp_path, capsys):
        four = {"states": OCTANT["states"] + OCTANT["states"][:1]}
        path = tmp_path / "four.json"
        path.write_text(json.dumps(four))
        code, _, err = run(["angles", str(path)], capsys)
        assert code == 2
        assert "exactly 3" in err


class TestReconstruct:
    PARAMS = {"theta_12": 1.0, "theta_31": 1.2, "phi_12": 0.3,
              "phi_31": 0.7, "phi": 2.1}

    def write(self, tmp_path, params):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        return str(path)

    def test_n2_round_trip(self, tmp_path, capsys):
        out = run_json(["reconstruct", self.write(tmp_path, self.PARAMS)],
                       capsys)
        states = formats.states_from_dict(out)
        angles = run_json(["bi", self.write(tmp_path, out)], capsys)
        assert len(states) == 3 and states[0].size == 2
        assert_angle_close(angles["geometric_phase"], out["derived"]["phi_g"],
                           tol=1e-10)

    def test_n3_has_three_components(self, tmp_path, capsys):
        params = dict(self.PARAMS, xi=0.9)
        out = run_json(["reconstruct", "--space", "n3",
                        self.write(tmp_path, params)], capsys)
        states = formats.states_from_dict(out)
        assert states[0].size == 3
        assert abs(states[2][2]) > 0.1

    def test_coherent_labels(self, tmp_path, capsys):
        params = {"theta_12": 1.0, "theta_31": 0.8, "phi_prime": 1.1}
        out = run_json(["reconstruct", "--space", "coherent",
                        self.write(tmp_path, params)], capsys)
        assert out["labels"][0] == [0.0, 0.0]
        assert out["derived"]["r"] > 0
        got = out["derived"]["phi_g"]
        want = -out["derived"]["r"] * out["derived"]["r_prime"] * np.sin(1.1)
        assert_angle_close(got, core.principal_angle(want), tol=1e-12)

    def test_missing_key(self, tmp_path, capsys):
        params = {k: v for k, v in self.PARAMS.items() if k != "phi"}
        code, _, err = run(["reconstruct", self.write(tmp_path, params)],
                           capsys)
        assert code == 1
        assert "missing parameter 'phi'" in err

    def test_out_of_range_angle(self, tmp_path, capsys):
        params = dict(self.PARAMS, theta_12=3.2)
        code, _, err = run(["reconstruct", self.write(tmp_path, params)],
                           capsys)
        assert code == 2

    @pytest.mark.parametrize("space, key", [
        ("n2", "phi"), ("n2", "phi_12"), ("n3", "phi_31"), ("n3", "xi"),
        ("coherent", "phi_prime")])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "1e999"])
    def test_non_finite_parameter_is_usage_error(self, tmp_path, capsys,
                                                 space, key, value):
        params = dict(self.PARAMS, xi=0.9, phi_prime=1.1)
        text = json.dumps(dict(params, **{key: 0.0})).replace(
            f'"{key}": 0.0', f'"{key}": {value}')
        path = tmp_path / "params.json"
        path.write_text(text)
        code, out, err = run(["reconstruct", "--space", space, str(path)],
                             capsys)
        assert code == 1 and f"'{key}' must be finite" in err
        assert out == ""


class TestPhase:
    def test_formula_inferred_from_xi(self, tmp_path, capsys):
        base = {"theta_12": 1.0, "theta_31": 1.1, "phi": 0.9}
        p1 = tmp_path / "a.json"
        p1.write_text(json.dumps(base))
        p2 = tmp_path / "b.json"
        p2.write_text(json.dumps(dict(base, xi=0.7)))
        out_n2 = run_json(["phase", str(p1)], capsys)
        out_n3 = run_json(["phase", str(p2)], capsys)
        assert out_n2["formula"] == "n2"
        assert out_n3["formula"] == "n3"
        assert out_n2["phase"] != out_n3["phase"]

    @pytest.mark.parametrize("text", [
        '{"theta_12": 1.0, "theta_31": 1.0, "phi": NaN}',
        '{"theta_12": 1.0, "theta_31": 1.0, "phi": -Infinity}',
        '{"theta_12": 1.0, "theta_31": 1.0, "phi": 0.5, "xi": NaN}',
        '{"theta_12": 1.0, "theta_31": 1.0, "phi": 1%s}' % ("0" * 400),
    ])
    def test_non_finite_parameter_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "p.json"
        path.write_text(text)
        code, out, err = run(["phase", str(path)], capsys)
        assert code == 1 and "must be finite" in err
        assert out == ""


class TestMajorana:
    def test_roots_then_rebuild_round_trip(self, tmp_path, capsys, rng):
        psi = core.random_state(5, rng)
        state_path = tmp_path / "state.json"
        state_path.write_text(formats.json_dumps(formats.state_to_dict(psi)))
        rep = run_json(["majorana", "roots", str(state_path)], capsys)
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(json.dumps(rep))
        back = run_json(["majorana", "rebuild", str(rep_path)], capsys)
        rebuilt = formats.state_from_dict(back)
        assert np.allclose(rebuilt, psi, atol=1e-9)

    def test_round_trip_at_dimension_one(self, tmp_path, capsys):
        # a dimension-1 state has no stars, only its scale
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps({"dim": 1, "amplitudes": [[0.6, 0.8]]}))
        rep = run_json(["majorana", "roots", str(state_path)], capsys)
        assert (rep["dim"], rep["spinors"]) == (1, [])
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(json.dumps(rep))
        back = run_json(["majorana", "rebuild", str(rep_path)], capsys)
        assert np.allclose(formats.state_from_dict(back), [0.6 + 0.8j], atol=1e-15)

    def test_boolean_scale_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        path.write_text('{"dim": 2, "scale": [true, 0], '
                        '"spinors": [[[1, 0], [0, 0]]]}')
        code, out, err = run(["majorana", "rebuild", str(path)], capsys)
        assert (code, out) == (1, "")
        assert "scale: expected a [re, im] pair" in err

    @pytest.mark.parametrize("n, code", [(69, 0), (172, 2)])
    def test_roots_at_large_dimension(self, tmp_path, capsys, rng, n, code):
        # binomials pass the int64 range from n = 69, and sqrt((n-1)!)
        # the float range from n = 172
        path = tmp_path / "state.json"
        path.write_text(formats.json_dumps(
            formats.state_to_dict(core.random_state(n, rng))))
        got, out, err = run(["majorana", "roots", str(path)], capsys)
        assert got == code, err
        if code:
            assert out == ""
            assert err == ("holonomy-lab: error: dimension 172 exceeds 171: "
                           "sqrt((n-1)!) overflows a float\n")
        else:
            assert len(json.loads(out)["spinors"]) == n - 1

    def test_basis_state_stars(self, tmp_path, capsys):
        path = tmp_path / "e2.json"
        path.write_text(json.dumps(
            {"dim": 3, "amplitudes": [[0, 0], [1, 0], [0, 0]]}))
        code, out, _ = run(["majorana", "stars", str(path)], capsys)
        assert code == 0
        assert out == "x,y,z\n0,0,1\n0,0,-1\n"


class TestNpc:
    def generate(self, tmp_path, capsys, name="curve.csv", extra=()):
        target = tmp_path / name
        code, _, err = run(["npc", "generate", "--theta0", "1.9",
                            "--eps", "0.6", "--output", str(target), *extra],
                           capsys)
        assert code == 0, err
        return str(target)

    @pytest.mark.parametrize("dim", range(3, 9))
    def test_generate_matches_the_full_frame(self, capsys, dim):
        # the lift is built from three frame vectors; the widened profile on
        # the identity frame of the whole space gives the same file
        profile = widened(generate_npc_profile(1.9, 0.6, grid=33), dim)
        frame = CurveFrame(np.eye(dim, dtype=complex), 1.9)
        want = formats.curve_to_csv(profile_to_lift(frame, profile))
        code, out, err = run(["npc", "generate", "--theta0", "1.9", "--eps",
                              "0.6", "--dim", str(dim), "--grid", "33"], capsys)
        assert code == 0, err
        assert out == want

    def test_generate_below_dimension_three(self, capsys):
        for dim in ("2", "0", "-3"):
            err = usage_error(["npc", "generate", "--theta0", "1.9", "--dim", dim],
                              capsys)
            assert err.endswith("error: argument --dim: must be at least 3\n")

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 149. GiB"),
         "holonomy-lab: error: out of memory: Unable to allocate 149. GiB\n"),
        (MemoryError(), "holonomy-lab: error: out of memory\n"),
    ], ids=["message", "bare"])
    def test_out_of_memory_is_one_line(self, capsys, monkeypatch, exc, line):
        def exhausted(args):
            raise exc
        monkeypatch.setattr(cli, "_cmd_npc_generate", exhausted)
        code, out, err = run(["npc", "generate", "--theta0", "1.9"], capsys)
        assert (code, out, err) == (1, "", line)

    def test_generate_then_verify(self, tmp_path, capsys):
        path = self.generate(tmp_path, capsys)
        report = run_json(["npc", "verify", path], capsys)
        assert report["ok"] is True
        assert report["violations"] == []
        assert report["min_real"] > 0

    def test_tampered_curve_fails_verification(self, tmp_path, capsys):
        path = self.generate(tmp_path, capsys)
        lift = formats.curve_from_csv(pathlib.Path(path).read_text())
        psi = lift.psi.copy()
        psi[:, 2] *= np.exp(0.25j * np.sin(np.pi * lift.s))
        bad = tmp_path / "bad.csv"
        bad.write_text(formats.curve_to_csv(CurveLift(lift.s, psi)))
        report = run_json(["npc", "verify", str(bad)], capsys, expect=2)
        assert report["ok"] is False
        assert report["violations"]

    def test_verify_prints_the_list_route(self, tmp_path, capsys):
        # the report's violations are built from arrays on read; the bytes
        # printed must be those of the list the report once held
        path = self.generate(tmp_path, capsys)
        lift = formats.curve_from_csv(pathlib.Path(path).read_text())
        psi = lift.psi.copy()
        psi[:, 2] *= np.exp(0.25j * np.sin(np.pi * lift.s))
        bad = tmp_path / "bad.csv"
        bad.write_text(formats.curve_to_csv(CurveLift(lift.s, psi)))
        for curve, code in ((path, 0), (str(bad), 2)):
            want = oracle_report(formats.curve_from_csv(pathlib.Path(curve).read_text()))
            text = formats.json_dumps(formats.result_to_jsonable({
                "checked": want.checked,
                "violations": want.violations,
                "min_real": want.min_real,
                "max_rel_imag": want.max_rel_imag,
                "ok": want.ok,
            }))
            assert run(["npc", "verify", curve], capsys) == (code, text, "")
        assert want.violations

    def test_nan_curve_is_rejected(self, tmp_path, capsys):
        path = self.generate(tmp_path, capsys)
        lines = pathlib.Path(path).read_text().splitlines()
        cells = lines[5].split(",")
        cells[3] = "nan"
        lines[5] = ",".join(cells)
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, out, err = run(["npc", "verify", str(bad)], capsys)
        assert code != 0
        assert '"ok": true' not in out
        assert "non-finite" in err

    def test_open_curve_phase(self, tmp_path, capsys):
        path = self.generate(tmp_path, capsys)
        out = run_json(["npc", "phase", path], capsys)
        assert out["connection_integral"] == pytest.approx(0.0, abs=1e-12)
        assert_angle_close(
            out["geometric_phase"],
            core.principal_angle(out["endpoint_phase"]
                                 - out["connection_integral"]),
            tol=1e-12)

    @staticmethod
    def loop_sides(tmp_path, vertices):
        names = []
        for a, start in enumerate(vertices):
            v1, v2 = in_phase_gauge(start, vertices[(a + 1) % len(vertices)])
            p = tmp_path / f"side{a}.csv"
            p.write_text(formats.curve_to_csv(geodesic_lift(v1, v2, grid=257)))
            names.append(str(p))
        return names

    def test_loop_phase_matches_vertices(self, tmp_path, capsys, rng):
        triad = random_triad(rng, 3)
        out = run_json(["npc", "loop", *self.loop_sides(tmp_path, triad)],
                       capsys)
        assert_angle_close(out["loop_phase"], out["vertex_phase"], tol=1e-8)
        assert_angle_close(out["loop_phase"], core.bi_phase(*triad), tol=1e-8)

    @pytest.mark.parametrize("k", [4, 5])
    def test_loop_of_more_curves(self, tmp_path, capsys, rng, k):
        states = random_polygon(rng, k, 3)
        out = run_json(["npc", "loop", *self.loop_sides(tmp_path, states)],
                       capsys)
        want = -np.angle(core.bargmann(states))
        assert_angle_close(out["vertex_phase"], want, tol=1e-12)
        assert_angle_close(out["loop_phase"], want, tol=1e-8)

    def test_loop_prints_what_phase_loop_printed(self, tmp_path, capsys, rng):
        # `npc phase --loop A B C` emitted exactly this object
        names = self.loop_sides(tmp_path, random_triad(rng, 3))
        segments = [formats.curve_from_csv(pathlib.Path(n).read_text())
                    for n in names]
        want = formats.json_dumps(formats.result_to_jsonable({
            "loop_phase": loop_geometric_phase(segments, subgrid=DEFAULT_SUBGRID),
            "vertex_phase": core.bi_phase(*(seg.psi[0] for seg in segments)),
        }))
        code, out, err = run(["npc", "loop", *names], capsys)
        assert code == 0, err
        assert out == want

    def test_argument_combinations(self, tmp_path, capsys):
        path = self.generate(tmp_path, capsys)
        assert "--theta0" in usage_error(["npc", "generate", path], capsys)
        usage_error(["npc", "verify"], capsys)
        usage_error(["npc", "phase"], capsys)
        usage_error(["npc", "phase", path, "--loop", path, path, path], capsys)
        usage_error(["npc", "loop", path, path], capsys)
        usage_error(["npc"], capsys)

    # each npc action has a fixed arity, which argparse enforces; the
    # second column names the rule a case breaks
    @pytest.mark.parametrize("argv, rule", [
        (["generate"], "generate requires --theta0"),
        (["generate", "a.csv", "--theta0", "1.0"], "generate takes no curve files"),
        (["verify"], "verify takes exactly one curve file"),
        (["verify", "a.csv", "b.csv"], "verify takes exactly one curve file"),
        (["verify", "a.csv", "--loop", "a.csv", "b.csv", "c.csv"],
         "verify takes exactly one curve file"),
        (["phase"], "phase needs a curve file"),
        (["phase", "a.csv", "b.csv"], "open-curve phase takes exactly one curve file"),
        (["phase", "a.csv", "--loop", "a.csv", "b.csv", "c.csv"],
         "phase takes no --loop"),
        (["loop", "a.csv", "b.csv"], "loop needs at least three curve files"),
    ])
    def test_argument_rules(self, argv, rule, capsys):
        assert "holonomy-lab" in usage_error(["npc", *argv], capsys)


class TestDecompose:
    def test_octant_decomposition(self, octant_file, capsys):
        out = run_json(["decompose", octant_file], capsys)
        # alpha carries the (n-1)-th root of the 1-2 overlap, here sqrt
        assert out["alpha"] == pytest.approx([np.sqrt(R), 0.0])
        assert len(out["factors"]) == 2
        assert out["geometric_phase"] == pytest.approx(-np.pi / 4)
        assert_angle_close(core.principal_angle(out["half_sum"]),
                           -np.pi / 4, tol=1e-10)
        assert len(out["stars_psi3"]) == 2

    def test_keys_and_cross_checks(self, tmp_path, capsys, rng):
        triad = random_triad(rng, 3)
        out = run_json(["decompose", write_triad(tmp_path, triad)], capsys)
        assert list(out) == [
            "angles", "alpha", "xi", "stars_psi3", "factors", "factor_phases",
            "bargmann_invariant", "geometric_phase", "solid_angles", "half_sum"]
        assert out["geometric_phase"] == pytest.approx(core.bi_phase(*triad))
        assert_angle_close(core.principal_angle(out["half_sum"]),
                           out["geometric_phase"], tol=1e-8)
        assert_angle_close(core.principal_angle(sum(out["factor_phases"])),
                           out["geometric_phase"], tol=1e-10)

    def test_tiny_invariant_above_the_edge_decomposes(self, tmp_path, capsys):
        # every overlap is above TAU_DEG but Delta (9.9e-13) is not; such a
        # triad used to exit 2 with "vanishing two-level factor"
        a = 0.1
        psi2 = np.array([np.cos(a), np.sin(a)], dtype=complex)
        perp = np.array([-np.sin(a), np.cos(a)], dtype=complex)
        triad = [np.array([1.0, 0.0], dtype=complex), psi2,
                 1e-11 * psi2 + np.sqrt(1.0 - 1e-22) * perp]
        out = run_json(["decompose", write_triad(tmp_path, triad)], capsys)
        assert len(out["factors"]) == 1
        assert_angle_close(out["factor_phases"][0], out["geometric_phase"], tol=1e-15)

    def test_higher_dimensions_skip_solid_angles(self, tmp_path, capsys, rng):
        triad = random_triad(rng, 5)
        out = run_json(["decompose", write_triad(tmp_path, triad)], capsys)
        assert "solid_angles" not in out and "half_sum" not in out
        assert len(out["factors"]) == 4


class TestStars:
    def test_trajectory_csv(self, tmp_path, capsys):
        target = tmp_path / "curve.csv"
        code, _, err = run(["npc", "generate", "--theta0", str(np.pi / 2),
                            "--grid", "33", "--output", str(target)], capsys)
        assert code == 0, err
        code, out, _ = run(["stars", str(target)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "s,n1x,n1y,n1z,n2x,n2y,n2z"
        assert len(lines) == 34


class TestSelftest:
    def test_single_criterion(self, capsys):
        code, out, _ = run(["selftest", "--criterion", "0"], capsys)
        assert code == 0
        assert out.startswith("PASS  0")
        assert out.rstrip().endswith("1/1 checks passed")

    def test_unknown_criterion(self, capsys):
        err = usage_error(["selftest", "--criterion", "99"], capsys)
        assert "--criterion: invalid choice: 99" in err

    def test_unknown_criterion_among_known_ones(self, capsys):
        # a number that names no check is refused, not skipped
        err = usage_error(["selftest", "--criterion", "12", "--criterion", "99"],
                          capsys)
        assert "--criterion: invalid choice: 99" in err


class TestImport:
    @staticmethod
    def run_child(code):
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)

    def test_cli_import_loads_no_scipy(self):
        done = self.run_child("import sys, holonomy_lab.cli; "
                              "sys.exit('scipy' in sys.modules)")
        assert done.returncode == 0

    def test_star_checks_run_with_scipy_blocked(self):
        # a None entry makes every later "import scipy..." raise ImportError
        done = self.run_child(
            "import sys; sys.modules['scipy'] = None; "
            "from holonomy_lab.cli import main; "
            "sys.exit(main(['selftest', '--criterion', '0', '--criterion', '11']))")
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.rstrip().endswith("2/2 checks passed")


class TestConfigPlumbing:
    # each run setting's flag refuses what the library cannot use: the
    # connection integral needs an odd grid of at least 5 samples, the
    # null-phase check three samples, selftest a seed of at least 0, and
    # the null-phase family an opening angle in (0, pi) and eps in [0, pi/2)
    @pytest.mark.parametrize("argv, rule", [
        ("npc generate --theta0 1.0 --grid 256", "--grid: must be odd and at least 5"),
        ("npc generate --theta0 1.0 --grid 3", "--grid: must be odd and at least 5"),
        ("npc verify {curve} --subgrid 2", "--subgrid: must be at least 3"),
        ("selftest --seed -1", "--seed: must be at least 0"),
        ("npc generate --theta0 0", "--theta0: must lie strictly inside (0, pi)"),
        ("npc generate --theta0 3.2", "--theta0: must lie strictly inside (0, pi)"),
        ("npc generate --theta0 4", "--theta0: must lie strictly inside (0, pi)"),
        ("npc generate --theta0 -1", "--theta0: must lie strictly inside (0, pi)"),
        ("npc generate --theta0 nan", "--theta0: must lie strictly inside (0, pi)"),
        ("npc generate --theta0 inf", "--theta0: must lie strictly inside (0, pi)"),
        ("npc generate --theta0 1.0 --eps -0.1", "--eps: must lie in [0, pi/2)"),
        ("npc generate --theta0 1.0 --eps 1.6", "--eps: must lie in [0, pi/2)"),
        ("npc generate --theta0 1.0 --eps 2", "--eps: must lie in [0, pi/2)"),
        ("npc generate --theta0 1.0 --eps nan", "--eps: must lie in [0, pi/2)"),
    ], ids=["256", "3", "subgrid-2", "seed-minus-1",
            "theta0-0", "theta0-3.2", "theta0-4", "theta0-minus-1",
            "theta0-nan", "theta0-inf",
            "eps-minus-0.1", "eps-1.6", "eps-2", "eps-nan"])
    def test_unusable_grid_is_usage_error(self, tmp_path, capsys, argv, rule):
        target = tmp_path / "c.out"
        words = argv.format(curve=write_curve(tmp_path)).split()
        err = usage_error(words + ["--output", str(target)], capsys)
        assert err.startswith("usage: ") and err.splitlines()[-1].endswith(rule)
        assert not target.exists()

    @pytest.mark.parametrize("grid", ["5", "7", "9"])
    def test_short_grids_run_end_to_end(self, tmp_path, capsys, grid):
        target = tmp_path / "short.csv"
        code, _, err = run(["npc", "generate", "--theta0", "1.9", "--eps", "0.6",
                            "--grid", grid, "--output", str(target)], capsys)
        assert code == 0, err
        out = run_json(["npc", "phase", str(target)], capsys)
        assert out["connection_integral"] == 0.0
        assert out["geometric_phase"] == out["endpoint_phase"]

    @pytest.mark.parametrize("argv", [
        "stars {curve} --tol-lead 0.5",
        "majorana roots {state} --tol-lead 1e-10",
        "majorana stars {state} --tol-lead 1e-10",
        "npc phase {curve} --theta0 2",
        "reconstruct {params} --grid 9",
        "bi {states} --seed 1",
        "bi {states} --config cfg.json",
        "selftest --criterion 0 --grid 9",
        "selftest --criterion 0 --tol-npc 1e-9",
        "bi {states} --tol-deg 1e-9",
        "npc verify {curve} --tol-npc 1e9",
    ])
    def test_flag_the_command_does_not_read_is_usage_error(
            self, tmp_path, octant_file, capsys, argv):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(TestReconstruct.PARAMS))
        state = tmp_path / "state.json"
        state.write_text(json.dumps(
            {"dim": 3, "amplitudes": [[0, 0], [1, 0], [0, 0]]}))
        words = argv.format(curve=write_curve(tmp_path), params=params,
                            states=octant_file, state=state).split()
        code, _, err = run(words[:-2], capsys)
        assert code == 0, err
        err = usage_error(words, capsys)
        assert "unrecognized arguments: " + " ".join(words[-2:]) in err

    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 1

    def test_unknown_flag_exits_one(self, octant_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["bi", octant_file, "--frobnicate"])
        assert excinfo.value.code == 1


# The options each entry point accepts besides --help.  Each command takes
# --output and the run settings it passes to the library.
IO = {"--output"}
OPTIONS = {
    ("bi",): IO,
    ("angles",): IO,
    ("decompose",): IO,
    ("reconstruct",): IO | {"--space"},
    ("phase",): IO,
    ("majorana", "roots"): IO,
    ("majorana", "stars"): IO,
    ("majorana", "rebuild"): IO,
    ("stars",): IO,
    ("npc", "phase"): IO,
    ("npc", "generate"): IO | {"--grid", "--theta0", "--eps", "--dim"},
    ("npc", "verify"): IO | {"--subgrid"},
    ("npc", "loop"): IO | {"--subgrid"},
    ("selftest",): IO | {"--seed", "--criterion"},
}


def entry_points(parser, path=()):
    """(command path, option strings) for every leaf parser."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, {s for a in parser._actions for s in a.option_strings
                     if s.startswith("--")} - {"--help"}
    for action in subs:
        for name, child in action.choices.items():
            yield from entry_points(child, path + (name,))


class TestParser:
    def test_each_entry_point_takes_exactly_its_options(self):
        got = dict(entry_points(cli.build_parser()))
        assert got == OPTIONS
        assert sum(map(len, got.values())) == 23

    def test_readme_settings_table_matches_parser(self):
        # every entry point's options but --output, as listed
        # in the README's "Command | Settings" table
        text = README.read_text()
        rows = text[text.index("| Command | Settings |"):].split("\n\n")[0]
        table = {}
        for line in rows.splitlines()[2:]:
            commands, settings = (re.findall(r"`([^`]+)`", cell)
                                  for cell in line.strip("|").split("|"))
            for command in commands:
                words = re.match(r"[a-z ]+", command).group().split()
                assert tuple(words) not in table, command
                table[tuple(words)] = {s for s in settings if s.startswith("--")}
        got = {path: options - IO
               for path, options in entry_points(cli.build_parser())}
        assert table == got

    def test_readme_command_lines_parse(self):
        lines = [line for line in README.read_text().splitlines()
                 if line.startswith("holonomy-lab ")]
        assert lines
        parser = cli.build_parser()
        for line in lines:
            # the argument types are str, int and float: no file is opened
            args = parser.parse_args(shlex.split(line)[1:])
            assert callable(args.func), line


# Input refusals no other test reaches: argv (PARAMS stands for a file
# holding the text given), exit code and the line on stderr.
CLI_REFUSALS = [
    pytest.param(["reconstruct", "PARAMS"], "[1.0, 2.0]", 1,
                 "holonomy-lab: error: parameter file must hold a JSON object",
                 id="params-not-object"),
    pytest.param(["reconstruct", "PARAMS"], '{"theta_12": "1.0"}', 1,
                 "holonomy-lab: error: parameter 'theta_12' must be a number",
                 id="params-not-number"),
    pytest.param(["selftest", "--seed", "abc"], None, 1,
                 "holonomy-lab selftest: error: argument --seed: invalid int value: 'abc'",
                 id="seed-not-int"),
]


@pytest.mark.parametrize("argv, text, code, message", CLI_REFUSALS)
def test_input_refusals(argv, text, code, message, tmp_path, capsys):
    path = tmp_path / "params.json"
    if text is not None:
        path.write_text(text)
    argv = [str(path) if a == "PARAMS" else a for a in argv]
    try:
        got = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        got = exc.code
    captured = capsys.readouterr()
    assert got == code and captured.out == ""
    assert captured.err.splitlines()[-1] == message
