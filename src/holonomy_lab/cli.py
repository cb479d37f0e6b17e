"""Command-line interface.

Exit codes: 0 on success, 1 for usage or input-parse errors, 2 when the
input is semantically invalid or a verification fails.  All output is
deterministic for a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import angles as ang
from . import core, curves, decompose, formats, majorana, selftest
from .config import RunConfig


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


def _emit(text: str, config: RunConfig) -> None:
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise _InputError(f"cannot write {config.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(obj, config: RunConfig) -> None:
    _emit(formats.json_dumps(formats.result_to_jsonable(obj)), config)


def _float_field(d: dict, key: str) -> float:
    if key not in d:
        raise _InputError(f"missing parameter '{key}'")
    value = d[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise _InputError(f"parameter '{key}' must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise _InputError(f"parameter '{key}' must be finite")
    return value


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config:
        try:
            config = RunConfig.from_file(args.config)
        except OSError as exc:
            raise _InputError(f"cannot read {args.config}: {exc}") from exc
        except ValueError as exc:
            raise _InputError(f"{args.config}: {exc}") from exc
    else:
        config = RunConfig()
    try:
        return config.replace(
            tau_deg=args.tol_deg, tau_npc=args.tol_npc, tau_lead=args.tol_lead,
            grid=args.grid, subgrid=args.subgrid, seed=args.seed,
            output=args.output)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _angles_dict(a: ang.IntrinsicAngles) -> dict:
    return {
        "theta_12": a.theta_12, "theta_23": a.theta_23, "theta_31": a.theta_31,
        "phi_12": a.phi_12, "phi_23": a.phi_23, "phi_31": a.phi_31,
        "phi_g": a.phi_g,
    }


# ---------------------------------------------------------------------------
# command handlers


def _cmd_bi(args, config: RunConfig) -> int:
    states = _load(args.states, lambda t: formats.states_from_dict(
        formats.json_loads(t)))
    states = [core.normalize(s) for s in states]
    delta = core.bargmann(states, tau_deg=config.tau_deg)
    _emit_json({
        "order": len(states),
        "bargmann_invariant": delta,
        "geometric_phase": core.principal_angle(-float(np.angle(delta))),
    }, config)
    return 0


def _cmd_angles(args, config: RunConfig) -> int:
    states = _load(args.triad, lambda t: formats.states_from_dict(
        formats.json_loads(t)))
    if len(states) != 3:
        raise ValueError(f"angle extraction needs exactly 3 states, got {len(states)}")
    got = ang.extract_angles(*states, tau_deg=config.tau_deg)
    _emit_json(_angles_dict(got), config)
    return 0


def _cmd_reconstruct(args, config: RunConfig) -> int:
    params = _load(args.params, formats.json_loads)
    if not isinstance(params, dict):
        raise _InputError("parameter file must hold a JSON object")
    t12 = _float_field(params, "theta_12")
    t31 = _float_field(params, "theta_31")
    if args.space == "coherent":
        phi_prime = _float_field(params, "phi_prime")
        theta_23, phi_g = ang.solve_dependent_coherent(
            t12, t31, phi_prime, tau_deg=config.tau_deg)
        p = ang.CoherentTriadParams(t12, t31, phi_prime)
        labels = [0.0 + 0.0j, complex(p.r), p.r_prime * np.exp(1j * phi_prime)]
        _emit_json({
            "labels": labels,
            "derived": {"theta_23": theta_23, "phi_g": phi_g,
                        "r": p.r, "r_prime": p.r_prime},
        }, config)
        return 0
    phi = _float_field(params, "phi")
    phi_12 = _float_field(params, "phi_12")
    phi_31 = _float_field(params, "phi_31")
    if args.space == "n3":
        xi = _float_field(params, "xi")
        triad = ang.build_canonical_n3(
            ang.CanonicalParamsN3(t12, t31, phi_12, phi_31, phi, xi))
        theta_23, phi_g = ang.solve_dependent_n3(t12, t31, phi, xi,
                                                 tau_deg=config.tau_deg)
    else:
        triad = ang.build_canonical_n2(
            ang.CanonicalParamsN2(t12, t31, phi_12, phi_31, phi))
        theta_23, phi_g = ang.solve_dependent_n2(t12, t31, phi,
                                                 tau_deg=config.tau_deg)
    out = formats.states_to_dict(triad)
    out["derived"] = {"theta_23": theta_23, "phi_g": phi_g}
    _emit_json(out, config)
    return 0


def _cmd_phase(args, config: RunConfig) -> int:
    params = _load(args.params, formats.json_loads)
    if not isinstance(params, dict):
        raise _InputError("parameter file must hold a JSON object")
    t12 = _float_field(params, "theta_12")
    t31 = _float_field(params, "theta_31")
    phi = _float_field(params, "phi")
    formula = args.formula or ("n3" if "xi" in params else "n2")
    xi = _float_field(params, "xi") if formula == "n3" else None
    phase = ang.pancharatnam_phase(t12, t31, phi, xi=xi, tau_deg=config.tau_deg)
    _emit_json({"formula": formula, "phase": phase}, config)
    return 0


def _cmd_majorana(args, config: RunConfig) -> int:
    if args.action == "rebuild":
        rep = _load(args.state, lambda t: formats.rep_from_dict(
            formats.json_loads(t)))
        psi = majorana.roots_to_coefficients(rep)
        _emit_json(formats.state_to_dict(psi), config)
        return 0
    state = _load(args.state, lambda t: formats.state_from_dict(
        formats.json_loads(t)))
    rep = majorana.coefficients_to_roots(state, tau_lead=config.tau_lead)
    if args.action == "roots":
        _emit_json(formats.rep_to_dict(rep), config)
    else:
        _emit(formats.stars_to_rows(rep.stars()), config)
    return 0


def _cmd_npc(args, config: RunConfig) -> int:
    if args.action == "generate":
        if args.theta0 is None:
            raise _InputError("generate requires --theta0")
        if args.curves or args.loop:
            raise _InputError("generate takes no curve files")
        profile = curves.generate_npc_profile(args.theta0, args.dim, args.eps,
                                              grid=config.grid)
        frame = curves.CurveFrame(np.eye(args.dim, dtype=complex), args.theta0)
        lift = curves.profile_to_lift(frame, profile)
        _emit(formats.curve_to_csv(lift), config)
        return 0
    if args.action == "verify":
        if args.loop or len(args.curves) != 1:
            raise _InputError("verify takes exactly one curve file")
        lift = _load(args.curves[0], formats.curve_from_csv)
        report = curves.verify_npc(lift, subgrid=config.subgrid,
                                   tau_npc=config.tau_npc)
        _emit_json({
            "checked": report.checked,
            "violations": report.violations,
            "min_real": report.min_real,
            "max_rel_imag": report.max_rel_imag,
            "ok": report.ok,
        }, config)
        return 0 if report.ok else 2
    if args.loop:
        if args.curves:
            raise _InputError("--loop takes its three files itself; "
                              "no extra curve arguments")
        segments = [_load(path, formats.curve_from_csv) for path in args.loop]
        loop = curves.loop_geometric_phase(segments, subgrid=config.subgrid,
                                           tau_npc=config.tau_npc)
        vertex = core.bi_phase(*(seg.psi[0] for seg in segments),
                               tau_deg=config.tau_deg)
        _emit_json({"loop_phase": loop, "vertex_phase": vertex}, config)
        return 0
    if not args.curves:
        raise _InputError("phase needs a curve file or --loop")
    if len(args.curves) != 1:
        raise _InputError("open-curve phase takes exactly one curve file")
    lift = _load(args.curves[0], formats.curve_from_csv)
    integral, endpoint, phase = curves.open_curve_phase(lift)
    _emit_json({
        "connection_integral": integral,
        "endpoint_phase": endpoint,
        "geometric_phase": phase,
    }, config)
    return 0


def _cmd_decompose(args, config: RunConfig) -> int:
    states = _load(args.triad, lambda t: formats.states_from_dict(
        formats.json_loads(t)))
    if len(states) != 3:
        raise ValueError(f"decomposition needs exactly 3 states, got {len(states)}")
    summary = decompose.triad_summary(*states, tau_deg=config.tau_deg)
    red = summary["reduction"]
    out = {
        "angles": _angles_dict(summary["angles"]),
        "alpha": red.alpha,
        "xi": list(red.xi),
        "stars_psi3": red.rep3.stars(),
        "factors": list(summary["factors"]),
        "factor_phases": summary["factor_phases"],
        "bargmann_invariant": summary["bargmann_invariant"],
        "geometric_phase": summary["geometric_phase"],
    }
    if "solid_angles" in summary:
        out["solid_angles"] = list(summary["solid_angles"])
        out["half_sum"] = summary["half_sum"]
    _emit_json(out, config)
    return 0


def _cmd_stars(args, config: RunConfig) -> int:
    lift = _load(args.curve, formats.curve_from_csv)
    traj = decompose.star_trajectory(lift)
    _emit(formats.star_trajectory_to_csv(lift.s, traj), config)
    return 0


def _cmd_selftest(args, config: RunConfig) -> int:
    results = selftest.run(config, numbers=args.criterion)
    if not results:
        raise _InputError("no matching criteria selected")
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.number:>2}  {r.name}  [{r.detail}]")
    failed = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", config)
    return 0 if failed == 0 else 2


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("run configuration")
    group.add_argument("--config", metavar="FILE",
                       help="JSON file with RunConfig fields")
    group.add_argument("--seed", type=int, help="seed for randomized checks")
    group.add_argument("--grid", type=int, help="curve sample count")
    group.add_argument("--subgrid", type=int,
                       help="samples for the null-phase check")
    group.add_argument("--tol-deg", type=float, dest="tol_deg",
                       help="degeneracy tolerance")
    group.add_argument("--tol-npc", type=float, dest="tol_npc",
                       help="relative imaginary tolerance for curve checks")
    group.add_argument("--tol-lead", type=float, dest="tol_lead",
                       help="relative threshold for leading coefficients")
    group.add_argument("--output", metavar="FILE",
                       help="write output here instead of stdout")

    parser = _Parser(
        prog="holonomy-lab",
        description="Triad invariants, star decompositions and null phase curves.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command", parser_class=_Parser)

    p = sub.add_parser("bi", parents=[common],
                       help="cyclic invariant and phase of a state list")
    p.add_argument("states", help="states JSON file, or - for stdin")
    p.set_defaults(func=_cmd_bi)

    p = sub.add_parser("angles", parents=[common],
                       help="six intrinsic angles of a triad")
    p.add_argument("triad", help="triad JSON file, or - for stdin")
    p.set_defaults(func=_cmd_angles)

    p = sub.add_parser("reconstruct", parents=[common],
                       help="canonical triad from independent angles")
    p.add_argument("--space", choices=("n2", "n3", "coherent"), default="n2")
    p.add_argument("params", help="parameter JSON file, or - for stdin")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("phase", parents=[common],
                       help="closed-form triad phase from angles")
    p.add_argument("--formula", choices=("n2", "n3"),
                   help="default: n3 when 'xi' is present")
    p.add_argument("params", help="parameter JSON file, or - for stdin")
    p.set_defaults(func=_cmd_phase)

    p = sub.add_parser("majorana", parents=[common],
                       help="star decomposition of a state")
    p.add_argument("action", choices=("roots", "stars", "rebuild"))
    p.add_argument("state", help="state (or decomposition) JSON file, or -")
    p.set_defaults(func=_cmd_majorana)

    p = sub.add_parser("npc", parents=[common],
                       help="generate, verify or integrate curves")
    p.add_argument("action", choices=("generate", "verify", "phase"))
    p.add_argument("curves", nargs="*", help="curve CSV file(s)")
    p.add_argument("--theta0", type=float, help="opening angle (generate)")
    p.add_argument("--eps", type=float, default=0.0,
                   help="family parameter (generate)")
    p.add_argument("--dim", type=int, default=3,
                   help="ambient dimension (generate)")
    p.add_argument("--loop", nargs=3, metavar="CSV",
                   help="three curve files forming a closed loop (phase)")
    p.set_defaults(func=_cmd_npc)

    p = sub.add_parser("decompose", parents=[common],
                       help="reduction, factorization and solid angles of a triad")
    p.add_argument("triad", help="triad JSON file, or - for stdin")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("stars", parents=[common],
                       help="star trajectory of a dimension-3 curve")
    p.add_argument("curve", help="curve CSV file, or - for stdin")
    p.set_defaults(func=_cmd_stars)

    p = sub.add_parser("selftest", parents=[common],
                       help="run the built-in acceptance checks")
    p.add_argument("--criterion", type=int, action="append",
                   help="run only this criterion number (repeatable)")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return args.func(args, config)
    except _InputError as exc:
        print(f"holonomy-lab: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"holonomy-lab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
