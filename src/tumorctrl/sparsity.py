"""Sparsity functionals, proximal operators, subgradients and certificates.

Three sparsity-promoting functionals are supported per control component:
the plain L1 norm over the space-time cylinder (full sparsity), the time
integral of spatial L2 norms (directional sparsity in time) and the space
integral of temporal L2 norms (directional sparsity in space).  All discrete
norms carry the volume / tau quadrature weights, so zero-slice thresholds
match their continuous counterparts: a prox slice vanishes exactly when the
weighted slice norm of the input is <= eta * kappa.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fields import SpaceTimeField, group_norms, repr_column, write_csv
from .model import BoxBounds
from .solver import ControlPair


class BadBounds(ValueError):
    """A box without 0 strictly inside (lo < 0 < hi fails), which the
    sparsity prox and the certificate both need."""


class SparsityMode(enum.Enum):
    NONE = "none"
    FULL_Q = "full"
    TIME = "time"
    SPACE = "space"


@dataclass(frozen=True)
class CertificateReport:
    """Where any locally optimal control must vanish.

    Per control component i, a slice (time step, cell, or point depending on
    the mode) is flagged exactly when the mode norm of d_i = (-psi1 h(phi),
    psi3)_i is <= kappa there.  coords maps each coordinate name ("t", "x",
    "y") to one value per slice, in the raveled order of the norms.
    """

    kappa: float
    norms1: np.ndarray
    norms2: np.ndarray
    flagged1: np.ndarray
    flagged2: np.ndarray
    coords: dict


def group_layout(mode: SparsityMode, u: SpaceTimeField) -> tuple:
    """(axis, weight, measure) of the groups a sparsity mode splits u into.

    A group's norm is sqrt(weight * <g, g>) over its members along axis
    (axis None: single points, norm |g|), and measure is the quadrature
    weight of one group in g(u) and in support measures.  TIME groups are
    time slices with the cells as members, SPACE groups are cells with the
    time steps as members.
    """
    tau, vol = u.timegrid.tau, u.grid.cell_volume
    if mode is SparsityMode.FULL_Q:
        return None, 1.0, tau * vol
    if mode is SparsityMode.TIME:
        return 1, vol, tau
    if mode is SparsityMode.SPACE:
        return 0, tau, vol
    raise ValueError("sparsity mode 'none' has no control groups")


def mode_norms(mode: SparsityMode, d: SpaceTimeField) -> np.ndarray:
    """Per-group norms of d in the mode's layout (see group_layout)."""
    axis, weight, _ = group_layout(mode, d)
    if axis is None:
        return np.abs(d.values)
    return group_norms(d.values, axis, weight)


def eval_g(mode: SparsityMode, u: ControlPair) -> float:
    """Discrete sparsity functional g(u1) + g(u2) for the chosen mode."""
    if mode is SparsityMode.NONE:
        return 0.0
    measure = group_layout(mode, u.u1)[2]
    return sum(measure * float(np.sum(mode_norms(mode, comp)))
               for comp in (u.u1, u.u2))


def _shrink(v: np.ndarray, theta: np.ndarray, eta_kappa: float, lo: float,
            hi: float) -> np.ndarray:
    """Box-clipped shrinkage P_box(v * theta / (theta + eta_kappa)) per row."""
    out = v * (theta / (theta + eta_kappa))[:, None]
    return np.clip(out, lo, hi, out=out)


def prox(mode: SparsityMode, v: SpaceTimeField, eta: float, kappa: float,
         lo: float, hi: float) -> SpaceTimeField:
    """Proximal map of eta * (kappa g + indicator of [lo, hi]) at v, one
    component, for a scalar box [lo, hi].

    kappa = 0 or mode NONE is the box projection; otherwise the box must
    hold 0 strictly inside (BadBounds).  FULL_Q soft-thresholds pointwise by
    eta*kappa and clips.  TIME treats each time slice as one group (SPACE
    swaps the roles of t and x); the slice is exactly zero iff its weighted
    norm is <= eta*kappa.  Otherwise a group whose plain shrinkage
    v (1 - eta*kappa / ||v||_w) lies inside the box takes it in closed form,
    and the box-constrained shrinkage of the rest is solved to 1e-12 by one
    bisection over those groups.
    """
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta!r}")
    if kappa < 0.0:
        raise ValueError(f"kappa must be nonnegative, got {kappa!r}")
    vals = v.values
    if mode is SparsityMode.NONE or kappa == 0.0:
        return SpaceTimeField(v.timegrid, v.grid, np.clip(vals, lo, hi))
    if not lo < 0.0 < hi:
        raise BadBounds("sparsity prox requires lo < 0 < hi")

    ek = eta * kappa
    if mode is SparsityMode.FULL_Q:
        shrunk = np.sign(vals) * np.maximum(np.abs(vals) - ek, 0.0)
        return SpaceTimeField(v.timegrid, v.grid, np.clip(shrunk, lo, hi))

    # Box-constrained group soft threshold: a group with ||v||_w <= eta*kappa
    # vanishes; otherwise the minimizer is P_box(v theta / (theta + eta
    # kappa)) with theta = ||u||_w the root of a strictly decreasing scalar
    # equation.  Where the box leaves the plain shrinkage alone, the root is
    # theta0 = ||v||_w - eta*kappa; elsewhere clipping only lowers the norm,
    # so the root lies in [0, theta0] and those groups bisect together, each
    # in its own bracket and to its own tolerance.  Groups are contiguous
    # rows, so a result does not depend on the layout of the field.
    axis, w, _ = group_layout(mode, v)
    rows = np.ascontiguousarray(np.moveaxis(vals, axis, -1))
    nv = group_norms(rows, -1, w)
    out = np.zeros_like(rows)
    live = np.flatnonzero(nv > ek)
    theta0 = nv[live] - ek
    shrunk = rows[live] * (theta0 / (theta0 + ek))[:, None]
    boxed = np.all((lo <= shrunk) & (shrunk <= hi), axis=-1)
    out[live[boxed]] = shrunk[boxed]
    clip = live[~boxed]
    rows, b = rows[clip], theta0[~boxed]
    a = np.zeros_like(b)
    stop = 1e-12 * np.maximum(1.0, b)
    # each pass halves every moving bracket, so all stop within 40 passes
    while (moving := b - a > stop).any():
        mid = 0.5 * (a + b)
        up = group_norms(_shrink(rows, mid, ek, lo, hi), -1, w) > mid
        a = np.where(moving & up, mid, a)
        b = np.where(moving & ~up, mid, b)
    out[clip] = _shrink(rows, 0.5 * (a + b), ek, lo, hi)
    return SpaceTimeField(v.timegrid, v.grid, np.moveaxis(out, -1, axis))


def prox_pair(mode: SparsityMode, v1: SpaceTimeField, v2: SpaceTimeField,
              eta: float, kappa: float, bounds: BoxBounds) -> tuple:
    """Apply prox to both control components with their own bounds."""
    return (prox(mode, v1, eta, kappa, bounds.lo1, bounds.hi1),
            prox(mode, v2, eta, kappa, bounds.lo2, bounds.hi2))


def _select_component(mode: SparsityMode, u: SpaceTimeField, d: np.ndarray,
                      kappa: float) -> np.ndarray:
    vals = u.values
    if mode is SparsityMode.NONE or kappa == 0.0:
        return np.zeros_like(vals)
    if mode is SparsityMode.FULL_Q:
        lam = np.zeros_like(vals)
        nz = vals != 0.0
        lam[nz] = np.sign(vals[nz])
        lam[~nz] = np.clip(-d[~nz] / kappa, -1.0, 1.0)
        return lam
    axis, w, _ = group_layout(mode, u)
    norms = np.expand_dims(group_norms(vals, axis, w), axis)
    nz = np.broadcast_to(norms > 0.0, vals.shape)
    with np.errstate(invalid="ignore", divide="ignore"):
        lam = np.where(nz, vals / norms, 0.0)
    # zero groups: project -d/kappa onto the weighted unit ball
    wball = -d / kappa
    bnorm = np.expand_dims(group_norms(wball, axis, w), axis)
    shrink = np.where(bnorm > 1.0, 1.0 / np.maximum(bnorm, 1e-300), 1.0)
    return np.where(nz, lam, wball * shrink)


def select_subgradient(mode: SparsityMode, u: ControlPair, d: tuple,
                       kappa: float) -> tuple:
    """Pick the stationarity-relevant subgradient (lam1, lam2) of g at u.

    d = (d1, d2) and the returned lam1, lam2 are (steps, cells) arrays, d as
    optim.gradient_bundle returns it.  On nonzero slices/points the
    subdifferential is a singleton (sign or normalized slice).  On the zero
    set we take the projection of -d/kappa onto the unit ball (interval for
    full sparsity), which minimizes the variational-inequality residual
    among admissible selections.
    """
    return (_select_component(mode, u.u1, d[0], kappa),
            _select_component(mode, u.u2, d[1], kappa))


def certificate(mode: SparsityMode, d: ControlPair, kappa: float,
                bounds: BoxBounds) -> CertificateReport:
    """Sparsity certificate from a candidate control's adjoint mismatch d =
    (-psi1 h(phi), psi3) on the control slices (OptimizeResult.d).

    Flags, per component, every slice whose mode norm of d is <= kappa:
    there any locally optimal control must vanish.  The slices are time
    steps (TIME), cells (SPACE) or (step, cell) points (FULL_Q), and the
    report's coords name each slice's time and cell center.  The
    equivalence needs lo < 0 < hi on both boxes; with anything else the
    certificate is refused with BadBounds rather than silently wrong.
    """
    if not (bounds.lo1 < 0.0 < bounds.hi1 and bounds.lo2 < 0.0 < bounds.hi2):
        raise BadBounds("certificate requires lo < 0 < hi on both boxes")
    tg, grid = d.timegrid, d.grid
    n1, n2 = mode_norms(mode, d.u1), mode_norms(mode, d.u2)
    times = tg.node_times()[:-1]
    cells = dict(zip("xy", grid.cell_centers()))
    if mode is SparsityMode.TIME:
        coords = {"t": times}
    elif mode is SparsityMode.SPACE:
        coords = cells
    else:
        coords = {"t": np.repeat(times, grid.n_cells),
                  **{k: np.tile(c, tg.n_steps) for k, c in cells.items()}}
    return CertificateReport(float(kappa), n1, n2, n1 <= kappa, n2 <= kappa,
                             coords)


def certificate_to_csv(report: CertificateReport, path) -> None:
    """Rows: slice id, slice coordinate(s), |d| norms, flags, kappa."""
    per_slice = [np.ravel(a) for a in (report.norms1, report.norms2,
                                       report.flagged1, report.flagged2)]
    n = per_slice[0].size
    write_csv(path, ["slice", *report.coords, "norm_d1", "norm_d2",
                     "flagged1", "flagged2", "kappa"],
              [np.arange(n), *map(repr_column, report.coords.values()),
               *per_slice, repr_column(np.full(n, report.kappa))])
