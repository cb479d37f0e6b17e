"""Command-line interface.

Each command reads its input files and, from its own flags, the run
settings it passes to the library (``--grid``, ``--subgrid`` or
``--seed``) and ``--output``; a setting or family parameter out of its
range is a usage error.  Exit codes: 0 on success, 1 for usage or
input-parse errors and when memory runs out, 2 when the input is
semantically invalid or a verification fails.  All output is
deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import angles as ang
from . import core, curves, decompose, formats, majorana, selftest
from .config import DEFAULT_GRID, DEFAULT_SUBGRID


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this interface promises 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _InputError(Exception):
    """Unreadable or undecodable input; reported with exit code 1."""


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc


def _load(path: str, reader):
    """Read and decode a file, mapping decode problems to usage errors."""
    text = _read_text(path)
    try:
        return reader(text)
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _states(path: str, task: str | None = None) -> list[np.ndarray]:
    """The states of a JSON file; exactly three when ``task`` needs a triad."""
    states = _load(path, lambda t: formats.states_from_dict(formats.json_loads(t)))
    if task and len(states) != 3:
        raise ValueError(f"{task} needs exactly 3 states, got {len(states)}")
    return states


def _params(path: str) -> dict:
    params = _load(path, formats.json_loads)
    if not isinstance(params, dict):
        raise _InputError("parameter file must hold a JSON object")
    return params


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise _InputError(f"cannot write {output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(obj, output: str | None) -> None:
    _emit(formats.json_dumps(formats.result_to_jsonable(obj)), output)


def _float_field(d: dict, key: str) -> float:
    if key not in d:
        raise _InputError(f"missing parameter '{key}'")
    value = d[key]
    if not formats.is_number(value):
        raise _InputError(f"parameter '{key}' must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise _InputError(f"parameter '{key}' must be finite")
    return value


def _value(kind, rule: str, inside):
    """argparse type of a flag: ``kind`` read from the text, for which
    ``inside`` holds; any other value, NaN and inf among them, is a usage
    error."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not inside(value):
            raise argparse.ArgumentTypeError(rule)
        return value

    return parse


def _at_least(least: int, odd: bool = False):
    """An integer no smaller than ``least``, and odd if ``odd`` is set."""
    return _value(int, f"must be {'odd and ' if odd else ''}at least {least}",
                  lambda v: v >= least and not (odd and v % 2 == 0))


# One row per run setting a flag may set: flag, type, default, help.  Each
# command takes only the settings it passes to the library.  The connection
# integral needs an odd grid of at least 5 samples: its Richardson steps
# take every other sample, and its error estimate every fourth.
_SETTINGS = {
    "seed": ("--seed", _at_least(0), 0, "seed for randomized checks"),
    "grid": ("--grid", _at_least(5, odd=True), DEFAULT_GRID, "curve sample count"),
    "subgrid": ("--subgrid", _at_least(3), DEFAULT_SUBGRID,
                "samples for the null-phase check"),
}


def _phase_of(invariant: complex) -> float:
    """Geometric phase carried by an invariant: minus its principal argument."""
    return core.principal_angle(-float(np.angle(invariant)))


def _angles_dict(a: ang.IntrinsicAngles) -> dict:
    return {**dataclasses.asdict(a), "phi_g": a.phi_g}


# ---------------------------------------------------------------------------
# command handlers


def _cmd_bi(args) -> int:
    states = [core.normalize(s) for s in _states(args.states)]
    delta = core.bargmann(states)
    _emit_json({
        "order": len(states),
        "bargmann_invariant": delta,
        "geometric_phase": _phase_of(delta),
    }, args.output)
    return 0


def _cmd_angles(args) -> int:
    got = ang.extract_angles(*_states(args.triad, "angle extraction"))
    _emit_json(_angles_dict(got), args.output)
    return 0


def _cmd_reconstruct(args) -> int:
    params = _params(args.params)
    t12 = _float_field(params, "theta_12")
    t31 = _float_field(params, "theta_31")
    if args.space == "coherent":
        phi_prime = _float_field(params, "phi_prime")
        theta_23, phi_g = ang.solve_dependent_coherent(t12, t31, phi_prime)
        p = ang.CoherentTriadParams(t12, t31, phi_prime)
        labels = [0.0 + 0.0j, complex(p.r), p.r_prime * np.exp(1j * phi_prime)]
        _emit_json({
            "labels": labels,
            "derived": {"theta_23": theta_23, "phi_g": phi_g,
                        "r": p.r, "r_prime": p.r_prime},
        }, args.output)
        return 0
    phi = _float_field(params, "phi")
    phi_12 = _float_field(params, "phi_12")
    phi_31 = _float_field(params, "phi_31")
    # the dimension-2 triad is the xi = 0 slice, read off the first two entries
    xi = _float_field(params, "xi") if args.space == "n3" else 0.0
    triad = ang.build_canonical_n3(
        ang.CanonicalParamsN3(t12, t31, phi_12, phi_31, phi, xi))
    if args.space == "n2":
        triad = [psi[:2] for psi in triad]
    theta_23, phi_g = ang.solve_dependent_n3(t12, t31, phi, xi)
    out = formats.states_to_dict(triad)
    out["derived"] = {"theta_23": theta_23, "phi_g": phi_g}
    _emit_json(out, args.output)
    return 0


def _cmd_phase(args) -> int:
    params = _params(args.params)
    t12 = _float_field(params, "theta_12")
    t31 = _float_field(params, "theta_31")
    phi = _float_field(params, "phi")
    xi = _float_field(params, "xi") if "xi" in params else 0.0
    phase = ang.pancharatnam_phase(t12, t31, phi, xi=xi)
    _emit_json({"formula": "n3" if "xi" in params else "n2", "phase": phase}, args.output)
    return 0


def _cmd_majorana(args) -> int:
    if args.action == "rebuild":
        rep = _load(args.state, lambda t: formats.rep_from_dict(formats.json_loads(t)))
        psi = majorana.roots_to_coefficients(rep)
        _emit_json(formats.state_to_dict(psi), args.output)
        return 0
    state = _load(args.state, lambda t: formats.state_from_dict(formats.json_loads(t)))
    rep = majorana.coefficients_to_roots(state)
    if args.action == "roots":
        _emit_json(formats.rep_to_dict(rep), args.output)
    else:
        _emit(formats.stars_to_rows(rep.stars()), args.output)
    return 0


def _cmd_npc_generate(args) -> int:
    profile = curves.generate_npc_profile(args.theta0, args.eps, grid=args.grid)
    frame = curves.CurveFrame(np.eye(3, args.dim), args.theta0)
    lift = curves.profile_to_lift(frame, profile)
    _emit(formats.curve_to_csv(lift), args.output)
    return 0


def _cmd_npc_verify(args) -> int:
    lift = _load(args.curve, formats.curve_from_csv)
    report = curves.verify_npc(lift, subgrid=args.subgrid)
    _emit_json({
        "checked": report.checked,
        "violations": report.violations,
        "min_real": report.min_real,
        "max_rel_imag": report.max_rel_imag,
        "ok": report.ok,
    }, args.output)
    return 0 if report.ok else 2


def _cmd_npc_phase(args) -> int:
    lift = _load(args.curve, formats.curve_from_csv)
    integral, endpoint, phase = curves.open_curve_phase(lift)
    _emit_json({
        "connection_integral": integral,
        "endpoint_phase": endpoint,
        "geometric_phase": phase,
    }, args.output)
    return 0


def _cmd_npc_loop(args) -> int:
    segments = [_load(path, formats.curve_from_csv)
                for path in args.curves + args.more]
    loop = curves.loop_geometric_phase(segments, subgrid=args.subgrid)
    vertex = _phase_of(core.bargmann([seg.psi[0] for seg in segments]))
    _emit_json({"loop_phase": loop, "vertex_phase": vertex}, args.output)
    return 0


def _cmd_decompose(args) -> int:
    triad = [core.normalize(s) for s in _states(args.triad, "decomposition")]
    angles = ang.extract_angles(*triad)
    red = decompose.reduce_triad(*triad)
    factors = decompose.bi_factorization(red)
    delta = core.bargmann(triad)
    stars = red.rep3.stars()
    out = {
        "angles": _angles_dict(angles),
        "alpha": red.alpha,
        "xi": list(red.xi),
        "stars_psi3": stars,
        "factors": list(factors),
        "factor_phases": [_phase_of(f) for f in factors],
        "bargmann_invariant": delta,
        "geometric_phase": _phase_of(delta),
    }
    if triad[0].size == 3:
        solid = decompose.solid_angle_pair(red)
        out["solid_angles"] = solid
        out["half_sum"] = 0.5 * sum(solid)
    _emit_json(out, args.output)
    return 0


def _cmd_stars(args) -> int:
    lift = _load(args.curve, formats.curve_from_csv)
    traj = decompose.star_trajectory(lift)
    _emit(formats.star_trajectory_to_csv(lift.s, traj), args.output)
    return 0


def _cmd_selftest(args) -> int:
    results = selftest.run(args.seed, numbers=args.criterion)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.number:>2}  {r.name}  [{r.detail}]")
    failed = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if failed == 0 else 2


# ---------------------------------------------------------------------------
# parser assembly


def _command(sub, name: str, func, settings=(), **kwargs) -> _Parser:
    """A sub-command taking --output and the named settings."""
    p = sub.add_parser(name, **kwargs)
    group = p.add_argument_group("run configuration")
    for field in settings:
        flag, kind, default, text = _SETTINGS[field]
        group.add_argument(flag, type=kind, default=default, dest=field, help=text)
    group.add_argument("--output", metavar="FILE",
                       help="write output here instead of stdout")
    p.set_defaults(func=func)
    return p


def build_parser() -> _Parser:
    parser = _Parser(
        prog="holonomy-lab",
        description="Triad invariants, star decompositions and null phase curves.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command", parser_class=_Parser)

    p = _command(sub, "bi", _cmd_bi,
                 help="cyclic invariant and phase of a state list")
    p.add_argument("states", help="states JSON file, or - for stdin")

    p = _command(sub, "angles", _cmd_angles,
                 help="six intrinsic angles of a triad")
    p.add_argument("triad", help="triad JSON file, or - for stdin")

    p = _command(sub, "reconstruct", _cmd_reconstruct,
                 help="canonical triad from independent angles")
    p.add_argument("--space", choices=("n2", "n3", "coherent"), default="n2")
    p.add_argument("params", help="parameter JSON file, or - for stdin")

    p = _command(sub, "phase", _cmd_phase,
                 help="closed-form triad phase from angles")
    p.add_argument("params", help="parameter JSON file, or - for stdin")

    p = sub.add_parser("majorana", help="star decomposition of a state")
    actions = p.add_subparsers(dest="action", required=True, metavar="action",
                               parser_class=_Parser)
    p = _command(actions, "roots", _cmd_majorana,
                 help="spinor decomposition of a state")
    p.add_argument("state", help="state JSON file, or - for stdin")
    p = _command(actions, "stars", _cmd_majorana,
                 help="star directions of a state, as CSV")
    p.add_argument("state", help="state JSON file, or - for stdin")
    p = _command(actions, "rebuild", _cmd_majorana,
                 help="state from its spinor decomposition")
    p.add_argument("state", help="decomposition JSON file, or - for stdin")

    p = sub.add_parser("npc", help="generate, verify or integrate curves")
    actions = p.add_subparsers(dest="action", required=True, metavar="action",
                               parser_class=_Parser)
    p = _command(actions, "generate", _cmd_npc_generate, ["grid"],
                 help="sample a member of the null-phase family")
    p.add_argument("--theta0", required=True, help="opening angle", type=_value(
        float, "must lie strictly inside (0, pi)", lambda t: 0.0 < t < math.pi))
    p.add_argument("--eps", default=0.0, help="family parameter", type=_value(
        float, "must lie in [0, pi/2)", lambda e: 0.0 <= e < math.pi / 2))
    p.add_argument("--dim", type=_at_least(3), default=3, help="ambient dimension")
    p = _command(actions, "verify", _cmd_npc_verify, ["subgrid"],
                 help="check the null-phase condition along a curve")
    p.add_argument("curve", help="curve CSV file, or - for stdin")
    p = _command(actions, "phase", _cmd_npc_phase,
                 help="geometric phase of one open curve")
    p.add_argument("curve", help="curve CSV file, or - for stdin")
    p = _command(actions, "loop", _cmd_npc_loop, ["subgrid"],
                 help="geometric phase around a loop of three or more curves")
    p.add_argument("curves", nargs=3, metavar="CSV",
                   help="the first three curve files of a closed loop")
    p.add_argument("more", nargs="*", default=[], metavar="CSV",
                   help="further curve files, in order around the loop")

    p = _command(sub, "decompose", _cmd_decompose,
                 help="reduction, factorization and solid angles of a triad")
    p.add_argument("triad", help="triad JSON file, or - for stdin")

    p = _command(sub, "stars", _cmd_stars,
                 help="star trajectory of a dimension-3 curve")
    p.add_argument("curve", help="curve CSV file, or - for stdin")

    p = _command(sub, "selftest", _cmd_selftest, ["seed"],
                 help="run the built-in acceptance checks at the library defaults")
    p.add_argument("--criterion", type=int, action="append", metavar="N",
                   choices=[number for number, _, _ in selftest.CRITERIA],
                   help="run only this criterion number (repeatable)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"holonomy-lab: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"holonomy-lab: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"holonomy-lab: error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
