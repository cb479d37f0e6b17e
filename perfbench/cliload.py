"""The ``cli`` workload: cold command-line calls, one child at a time.

Each operation runs ``python -m holonomy_lab.cli <command>`` on files
this module writes from the seed.  Its check compares the child's exit
code and output with ``cli.main`` run in this process on the same
arguments, and checks that in-process output against an independent
route (the selftest's), once per input file.

A block is one out-of-domain call (``npc verify`` of a curve with a NaN
sample) followed by one call of each command, in a fixed order, so that
every whole block holds the same mix whatever the seed and however fast
the CLI is.  The pool alternates two rounds of input variants (other
dimensions; ``npc verify`` of a 257-row curve it must reject).  Input files are written
with this module's own JSON and CSV writers, not the library's, so the
inputs do not change when the library does.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import subprocess
import sys
from time import perf_counter

import numpy as np

from holonomy_lab import angles, cli, core, formats

import workloads as wl
from source import ROOT, child_env

COMMANDS = ("bi", "angles", "phase", "reconstruct", "majorana_stars",
            "verify257", "verify1025", "npc_phase", "decompose", "stars")
CHILD_TIMEOUT_S = 120


# ---------------------------------------------------------------------------
# writers


def _state_dict(psi) -> dict:
    return {"dim": len(psi), "amplitudes": [[z.real, z.imag] for z in psi]}


def _states_json(states) -> str:
    return json.dumps({"states": [_state_dict(psi) for psi in states]})


def _curve_csv(s: np.ndarray, psi: np.ndarray) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["s"] + [f"{p}_{k}" for k in range(psi.shape[1]) for p in ("re", "im")])
    for sv, row in zip(s, psi):
        w.writerow([repr(float(sv))]
                   + [repr(float(v)) for z in row for v in (z.real, z.imag)])
    return out.getvalue()


def _triad_params(rng) -> dict:
    """Dimension-3 angle set away from the degenerate |w| < 1e-3 region."""
    while True:
        t12, t31 = rng.uniform(0.2, np.pi - 0.2, size=2)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        xi = rng.uniform(0.05, np.pi / 2 - 0.05)
        w = (np.cos(t12 / 2) * np.cos(t31 / 2)
             + np.exp(1j * phi) * np.sin(t12 / 2) * np.sin(t31 / 2) * np.cos(xi))
        if abs(w) >= 1e-3:
            return {"theta_12": float(t12), "theta_31": float(t31),
                    "phi": float(phi), "xi": float(xi),
                    "phi_12": float(rng.uniform(0.0, 2.0 * np.pi)),
                    "phi_31": float(rng.uniform(0.0, 2.0 * np.pi))}


class CliInputs:
    """Writes each call's input file under ``workdir`` and returns its payload.

    A payload is a dict: ``argv`` after the module name, ``expect`` (the
    exit code the call must give: 0, 2, or ``"nonzero"`` for input it must
    reject), ``kind`` and ``data`` for the independent check, and the
    ``text`` of the input file.
    """

    def __init__(self, workdir) -> None:
        self.workdir = workdir
        self.count = 0

    def _write(self, suffix: str, text: str) -> str:
        self.count += 1
        path = self.workdir / f"in{self.count:05d}.{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _call(self, kind, argv_head, suffix, text, data, expect=0) -> dict:
        path = self._write(suffix, text)
        return {"kind": kind, "argv": [*argv_head, path], "expect": expect,
                "data": data, "text": text}

    def make(self, kind: str, rng, j: int) -> dict:
        if kind in ("bi", "angles", "decompose"):
            n = {"bi": (2, 5), "angles": (3, 8), "decompose": (3, 3)}[kind][j]
            triad = wl.random_triad(rng, n)
            return self._call(kind, [kind], "json", _states_json(triad), triad)
        if kind in ("phase", "reconstruct"):
            params = _triad_params(rng)
            head = ["phase"] if kind == "phase" else ["reconstruct", "--space", "n3"]
            return self._call(kind, head, "json", json.dumps(params), params)
        if kind == "majorana_stars":
            psi = wl.random_state(rng, (3, 8)[j])
            return self._call(kind, ["majorana", "stars"], "json",
                              json.dumps(_state_dict(psi)), psi)
        if kind == "verify257":
            if j == 0:
                v1, v2 = wl.random_pair(rng, 3)
                s, psi, ok = wl.grid_points(257), wl.geodesic_rows(v1, v2, 257), True
            else:
                s, psi, _ = wl.arc_input(rng, 0)
                ok = False
            return self._call(kind, ["npc", "verify"], "csv", _curve_csv(s, psi),
                              ok, expect=0 if ok else 2)
        if kind == "verify1025":
            if j == 0:
                lift = wl.dim3_lift(rng, 1, 1025)
                s, psi = lift.s, lift.psi
            else:
                v1, v2 = wl.random_pair(rng, 5)
                s, psi = wl.grid_points(1025), wl.geodesic_rows(v1, v2, 1025)
            return self._call(kind, ["npc", "verify"], "csv", _curve_csv(s, psi), True)
        if kind == "npc_phase":  # the selftest's twisted lift, on its grid
            v1, v2 = wl.random_pair(rng, 3)
            s = wl.grid_points(1025)
            c = rng.uniform(-1.0, 1.0, size=3)
            chi = c[0] + c[1] * s + c[2] * np.sin(2 * np.pi * s)
            psi = np.exp(1j * chi)[:, None] * wl.geodesic_rows(v1, v2, 1025)
            return self._call(kind, ["npc", "phase"], "csv", _curve_csv(s, psi),
                              float(chi[-1] - chi[0]))
        if kind == "stars":
            lift = wl.dim3_lift(rng, j, 257)
            return self._call(kind, ["stars"], "csv", _curve_csv(lift.s, lift.psi),
                              lift.psi)
        if kind == "nan_verify":
            s, psi = wl.nan_curve_input(rng, j)
            return self._call(kind, ["npc", "verify"], "csv", _curve_csv(s, psi),
                              False, expect="nonzero")
        raise KeyError(kind)


ROUNDS = 2  # input variants j of each command; round r of the pool uses j = r


def block_kinds(j: int) -> list[tuple[str, int]]:
    """(kind, j) in block order: the out-of-domain call, then each command."""
    return [("nan_verify", j)] + [(k, j) for k in COMMANDS]


def pool_payloads(workdir, seed: int) -> list[dict]:
    """The payloads of one block of each round, written under ``workdir/cli``."""
    inputs = CliInputs(workdir / "cli")
    inputs.workdir.mkdir()
    rng = np.random.default_rng(seed)
    return [inputs.make(kind, rng, j) for r in range(ROUNDS)
            for kind, j in block_kinds(r)]


# ---------------------------------------------------------------------------
# calls


def in_process(argv) -> tuple[object, str]:
    """Exit code and standard output of ``cli.main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # the CLI promises codes, never a traceback
            code = f"raised {type(exc).__name__}"
    return code, out.getvalue()


def run_child(tr, p) -> tuple[int, str]:
    proc = tr.call(f"cli.invoke.{p['kind']}", subprocess.run,
                   [sys.executable, "-m", "holonomy_lab.cli", *p["argv"]],
                   cwd=ROOT, env=child_env(), capture_output=True, text=True,
                   timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout


def _rows(text: str) -> np.ndarray:
    return np.array([[float(v) for v in r] for r in csv.reader(io.StringIO(text))
                     if r and r[0] not in ("x", "s")])


def _semantic(kind: str, data, code, text) -> list[str]:
    """The in-process output against an independent route."""
    if kind in ("verify257", "verify1025", "nan_verify"):
        ok = json.loads(text)["ok"] if text else None
        return [] if ok is data else [f"cli.npc_verify: ok={ok}, truth {data}"]
    if code != 0:
        return [f"cli.{kind}: exit code {code}"]
    if kind in ("majorana_stars", "stars"):
        rows = _rows(text)
        if kind == "majorana_stars":
            samples = [(data, rows)]
        else:
            samples = [(data[i], rows[i, 1:].reshape(2, 3))
                       for i in range(0, len(data), 32)]
        worst = max(wl.relative_error(psi, wl.rebuild_from_stars(stars))
                    for psi, stars in samples)
        return [] if worst < 1e-8 else [f"cli.{kind}: stars rebuild to {worst:.2e}"]
    out = json.loads(text)
    if kind == "bi":
        want = angles.extract_angles(*data).phi_g
        err = wl.wrap_error(out["geometric_phase"], want)
    elif kind == "angles":
        err = wl.wrap_error(out["phi_g"], core.bi_phase(*data))
    elif kind == "phase":
        triad = angles.build_canonical_n3(angles.CanonicalParamsN3(
            data["theta_12"], data["theta_31"], data["phi_12"], data["phi_31"],
            data["phi"], data["xi"]))
        err = wl.wrap_error(out["phase"], core.bi_phase(*triad))
    elif kind == "reconstruct":
        states = formats.states_from_dict(out)
        err = wl.wrap_error(out["derived"]["phi_g"], core.bi_phase(*states))
    elif kind == "npc_phase":
        err = max(abs(out["connection_integral"] - data),
                  abs(out["geometric_phase"]))
    elif kind == "decompose":
        err = max(wl.wrap_error(out["half_sum"], out["geometric_phase"]),
                  wl.wrap_error(sum(out["factor_phases"]), out["geometric_phase"]))
    else:
        raise KeyError(kind)
    return [] if err < 1e-8 else [f"cli.{kind}: off the independent route by {err:.2e}"]


def reference(p) -> tuple[object, str]:
    """The in-process result for this payload, made and checked once."""
    if "reference" not in p:
        p["reference"] = in_process(p["argv"])
        p["semantic"] = _semantic(p["kind"], p["data"], *p["reference"])
    return p["reference"]


def check_child(p, out, acc) -> list[str]:
    """The child's (exit code, output) against the in-process reference,
    and its exit code against the one the input calls for."""
    failures = list(p["semantic"]) if reference(p) == out else [
        f"cli.{p['kind']}: child output differs from in-process"] + p["semantic"]
    if out[0] != p["expect"]:
        failures.append(f"cli.{p['kind']}: exit code {out[0]}, expected {p['expect']}")
    return failures


def accepted_ood(p, out) -> list[str]:
    """Labels for an out-of-domain call that exited 0."""
    return ["cli.npc_verify exited 0 on a NaN curve"] if out[0] == 0 else []


# ---------------------------------------------------------------------------
# in-process layer timings and import profile


def layer_pass(tr, payloads, repeats: int = 3) -> tuple[int, list[list[str]]]:
    """Warm in-process ``cli.main`` calls and the curve CSV reader/writer
    on the 1025-row files.  Returns the number of checked calls and the
    failure labels of each call that failed."""
    calls, failed = 0, []
    for _ in range(repeats):
        for p in payloads:
            if p["kind"] == "nan_verify":
                continue
            ref = reference(p)  # also the warm-up call
            calls += 1
            if tr.call("cli.main.warm", in_process, p["argv"]) != ref:
                failed.append([f"cli.main: {p['kind']} output changed between calls"])
            if p["kind"] != "verify1025":
                continue
            calls += 1
            lift = tr.call("formats.curve_from_csv.g1025", formats.curve_from_csv,
                           p["text"])
            text = tr.call("formats.curve_to_csv.g1025", formats.curve_to_csv, lift)
            again = formats.curve_from_csv(text)
            if not np.allclose(again.psi, lift.psi, rtol=0, atol=1e-13):
                failed.append(["formats.curve_to_csv: CSV round trip moved a sample"])
    return calls, failed


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")


def import_profile() -> tuple[float, float]:
    """(import_s, scipy_s) of ``import holonomy_lab.cli`` in a fresh child.

    ``import_s`` sums the cumulative time of the top-level holonomy_lab
    imports; ``scipy_s`` sums the self time of every scipy module.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import holonomy_lab.cli"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True)
    total = scipy_us = 0
    for line in proc.stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        self_us, cum_us, indent, name = int(m[1]), int(m[2]), m[3], m[4]
        if not indent and name.split(".")[0] == "holonomy_lab":
            total += cum_us
        if name.split(".")[0] == "scipy":
            scipy_us += self_us
    if total == 0:
        raise RuntimeError("no holonomy_lab import in the -X importtime profile")
    return total / 1e6, scipy_us / 1e6


def cold_call_seconds(argv) -> float:
    """Wall time of one cold CLI child, start to exit (used for set-up)."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-m", "holonomy_lab.cli", *argv], cwd=ROOT,
                   env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S,
                   check=True)
    return perf_counter() - t0

