"""Reference null-phase check: every triple of the subgrid, one row at a time.

The library rephases a curve against one pivot sample and forms only the
triples through it.  This keeps the scan it replaced: for each subgrid
sample a, the invariants Delta(a, b, c) = G_ab G_bc G_ca of all later
pairs b < c are formed from the Gram matrix and held to a positive real
part and a relative imaginary part of at most ``tau_npc``.  The parity
tests compare the pivot check against it.  ``oracle_pivot_report`` is
the pivot check itself, one triple at a time, which the library's report
must reproduce exactly.  ``oracle_report`` is the pivot check as the
library ran it while its report held a list of dicts, built at once for
every violation; the arrays the report holds now must give back that
list, to the repr of every number.  Both pivot routes let a triple that
fails the relative test pass within ``rounding_slack`` of it, as the
library does; the scan keeps the plain test.
"""

import math
from types import SimpleNamespace

import numpy as np

from holonomy_lab.config import DEFAULT_SUBGRID, TAU_DEG, TAU_NPC
from holonomy_lab.curves import _subgrid_indices

EPS = np.finfo(float).eps


def rounding_slack(n, pj, jk, kp):
    """The rounding allowed on a pivot invariant whose overlaps have these
    moduli: 2 n eps in each overlap times the moduli of the other two."""
    return 2.0 * n * EPS * (pj * jk + jk * kp + kp * pj)


def oracle_scan(lift, subgrid=DEFAULT_SUBGRID, tau_npc=TAU_NPC):
    """Scan all C(k, 3) subgrid triples; returns ok, checked, extremes, violations."""
    idx = _subgrid_indices(lift.s.size, subgrid)
    p = lift.psi[idx]
    gram = np.conjugate(p) @ p.T
    k = idx.size
    out = SimpleNamespace(checked=0, violations=[], min_real=np.inf,
                          max_rel_imag=0.0)
    for a in range(k - 2):
        # delta[b, c] = G[a,b] G[b,c] G[c,a] over b < c, both beyond a
        block = gram[a, :, None] * gram * gram[:, a][None, :]
        rows, cols = np.triu_indices(k, k=1)
        keep = rows > a
        rows, cols = rows[keep], cols[keep]
        deltas = block[rows, cols]
        mags = np.abs(deltas)
        rel_imag = np.abs(deltas.imag) / np.where(mags > 0, mags, 1.0)
        bad = (deltas.real <= 0.0) | (rel_imag > tau_npc)
        out.checked += deltas.size
        out.min_real = min(out.min_real, float(deltas.real.min()))
        out.max_rel_imag = max(out.max_rel_imag, float(rel_imag.max()))
        for b, c, d in zip(rows[bad], cols[bad], deltas[bad]):
            out.violations.append({
                "indices": [int(idx[a]), int(idx[b]), int(idx[c])],
                "delta": [float(d.real), float(d.imag)],
            })
    out.ok = not out.violations
    return out


def oracle_pivot_report(lift, subgrid=DEFAULT_SUBGRID, tau_npc=TAU_NPC):
    """The pivot triples [p, j, k], j < k, in a loop: violations and extremes."""
    idx = _subgrid_indices(lift.s.size, subgrid)
    p = lift.psi[idx]
    gram = np.conjugate(p) @ p.T
    mods = np.abs(gram)
    pivot = int(np.argmax(mods.min(axis=1)))
    out = SimpleNamespace(violations=[], min_real=np.inf, max_rel_imag=0.0)
    for j in range(idx.size):
        for k in range(j + 1, idx.size):
            if pivot in (j, k):
                continue
            d = gram[pivot, j] * gram[j, k] * gram[k, pivot]
            rel_imag = abs(d.imag) / abs(d) if abs(d) > 0 else abs(d.imag)
            out.min_real = min(out.min_real, float(d.real))
            out.max_rel_imag = max(out.max_rel_imag, float(rel_imag))
            slack = rounding_slack(p.shape[1], mods[pivot, j], mods[j, k], mods[k, pivot])
            in_phase = (rel_imag <= tau_npc / 3.0
                        or abs(d.imag) <= tau_npc / 3.0 * abs(d) + slack)
            if not (d.real > 0.0 and in_phase
                    and mods[pivot, j] > TAU_DEG and mods[pivot, k] > TAU_DEG):
                out.violations.append({
                    "indices": [int(idx[pivot]), int(idx[j]), int(idx[k])],
                    "delta": [float(d.real), float(d.imag)],
                })
    return out


def oracle_report(lift, subgrid=DEFAULT_SUBGRID, tau_npc=TAU_NPC):
    """The vectorized pivot check, its violations a list of dicts from the start."""
    idx = _subgrid_indices(lift.s.size, subgrid)
    p = lift.psi[idx]
    gram = np.conjugate(p) @ p.T
    mods = np.abs(gram)
    pivot = int(np.argmax(mods.min(axis=1)))
    pairs = np.triu(np.ones((idx.size, idx.size), dtype=bool), k=1)
    pairs[pivot] = False
    pairs[:, pivot] = False
    deltas = (gram[pivot][:, None] * gram * gram[:, pivot])[pairs]
    mags = np.abs(deltas)
    rel_imag = np.abs(deltas.imag) / np.where(mags > 0, mags, 1.0)
    near = mods[pivot] > TAU_DEG
    j, k = np.nonzero(pairs)
    slack = rounding_slack(p.shape[1], mods[pivot, j], mods[j, k], mods[k, pivot])
    in_phase = ((rel_imag <= tau_npc / 3.0)
                | (np.abs(deltas.imag) <= tau_npc / 3.0 * mags + slack))
    good = (deltas.real > 0.0) & in_phase & (near[:, None] & near)[pairs]
    violations = []
    if not good.all():
        bad = ~good
        named = idx[np.stack([np.full_like(j, pivot), j, k], axis=1)[bad]]
        parts = np.stack([deltas.real, deltas.imag], axis=1)[bad]
        violations = [{"indices": t, "delta": d}
                      for t, d in zip(named.tolist(), parts.tolist())]
    return SimpleNamespace(checked=math.comb(idx.size, 3), violations=violations,
                           min_real=float(deltas.real.min()),
                           max_rel_imag=float(rel_imag.max()),
                           ok=not violations)
