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
from .solver import AdjointTriple, ControlPair, Trajectory, adjoint_mismatch_fields


class BadBounds(ValueError):
    """Box bounds unusable for the requested operation."""


class BisectionFailure(RuntimeError):
    """Group-prox scalar fixed point not bracketed to tolerance."""


class BoundsNotSignedError(ValueError):
    """Certificates require scalar bounds with lo < 0 < hi."""


class SparsityMode(enum.Enum):
    NONE = "none"
    FULL_Q = "full"
    TIME = "time"
    SPACE = "space"


@dataclass(frozen=True)
class SubgradientPair:
    """Selected subgradients (lambda1, lambda2) of g at a control pair."""

    lam1: SpaceTimeField
    lam2: SpaceTimeField


@dataclass(frozen=True)
class CertificateReport:
    """Where any locally optimal control must vanish.

    Per control component i, a slice (time step, cell, or point depending on
    the mode) is flagged exactly when the mode norm of d_i = (-psi1 h(phi),
    psi3)_i is <= kappa there.
    """

    mode: SparsityMode
    kappa: float
    d1: SpaceTimeField
    d2: SpaceTimeField
    norms1: np.ndarray
    norms2: np.ndarray
    flagged1: np.ndarray
    flagged2: np.ndarray
    coords: tuple


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


def _shrink(v: np.ndarray, theta: np.ndarray, eta_kappa: float, lo,
            hi) -> np.ndarray:
    """Box-clipped shrinkage P_box(v * theta / (theta + eta_kappa)) per row."""
    out = v * (theta / (theta + eta_kappa))[:, None]
    return np.clip(out, lo, hi, out=out)


def prox(mode: SparsityMode, v: SpaceTimeField, eta: float, kappa: float,
         lo, hi) -> SpaceTimeField:
    """Proximal map of eta * (kappa g + box indicator) at v, one component.

    FULL_Q soft-thresholds pointwise by eta*kappa and clips.  TIME treats
    each time slice as one group (SPACE swaps the roles of t and x); the
    slice is exactly zero iff its weighted norm is <= eta*kappa.  Otherwise
    a group whose plain shrinkage v (1 - eta*kappa / ||v||_w) lies inside
    the box takes it in closed form, and the box-constrained shrinkage of
    the rest is solved to 1e-12 by one bisection over those groups.
    """
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta!r}")
    if kappa < 0.0:
        raise ValueError(f"kappa must be nonnegative, got {kappa!r}")
    vals = v.values
    if mode is SparsityMode.NONE or kappa == 0.0:
        return SpaceTimeField(v.timegrid, v.grid, np.clip(vals, lo, hi))
    if not (np.all(np.asarray(lo) < 0.0) and np.all(np.asarray(hi) > 0.0)):
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
    lo_r, hi_r = (np.moveaxis(np.broadcast_to(x, vals.shape), axis, -1)[live]
                  for x in (lo, hi))
    boxed = np.all((lo_r <= shrunk) & (shrunk <= hi_r), axis=-1)
    out[live[boxed]] = shrunk[boxed]
    clip = live[~boxed]
    rows, b = rows[clip], theta0[~boxed]
    lo_r, hi_r = lo_r[~boxed], hi_r[~boxed]
    a = np.zeros_like(b)
    stop = 1e-12 * np.maximum(1.0, b)
    for _ in range(200):
        moving = b - a > stop
        if not moving.any():
            break
        mid = 0.5 * (a + b)
        up = group_norms(_shrink(rows, mid, ek, lo_r, hi_r), -1, w) > mid
        a = np.where(moving & up, mid, a)
        b = np.where(moving & ~up, mid, b)
    else:
        raise BisectionFailure(
            f"group prox bisection stalled: interval {np.max(b - a):.3e}")
    out[clip] = _shrink(rows, 0.5 * (a + b), ek, lo_r, hi_r)
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
                       kappa: float) -> SubgradientPair:
    """Pick the stationarity-relevant subgradient of g at u.

    On nonzero slices/points the subdifferential is a singleton (sign or
    normalized slice).  On the zero set we take the projection of -d/kappa
    onto the unit ball (interval for full sparsity), which minimizes the
    variational-inequality residual among admissible selections.
    """
    d1 = d[0].values if isinstance(d[0], SpaceTimeField) else np.asarray(d[0])
    d2 = d[1].values if isinstance(d[1], SpaceTimeField) else np.asarray(d[1])
    lam1 = _select_component(mode, u.u1, d1, kappa)
    lam2 = _select_component(mode, u.u2, d2, kappa)
    return SubgradientPair(SpaceTimeField(u.timegrid, u.grid, lam1),
                           SpaceTimeField(u.timegrid, u.grid, lam2))


def certificate(mode: SparsityMode, adjoint: AdjointTriple, base: Trajectory,
                hspec, kappa: float, bounds: BoxBounds) -> CertificateReport:
    """Sparsity certificate at a candidate control's trajectory.

    Builds d = (-psi1 h(phi), psi3) on the control slices and flags, per
    component, every slice whose mode norm is <= kappa: there any locally
    optimal control must vanish.  The equivalence needs scalar bounds with
    lo < 0 < hi; with anything else the certificate is refused rather than
    silently wrong.
    """
    if not bounds.is_signed():
        raise BoundsNotSignedError(
            "certificate requires scalar bounds with lo < 0 < hi")
    d1a, d2a = adjoint_mismatch_fields(hspec, base, adjoint)
    tg, grid = base.timegrid, base.grid
    d1 = SpaceTimeField(tg, grid, d1a)
    d2 = SpaceTimeField(tg, grid, d2a)
    n1 = mode_norms(mode, d1)
    n2 = mode_norms(mode, d2)
    if mode is SparsityMode.TIME:
        coords = (tg.node_times()[:-1],)
    elif mode is SparsityMode.SPACE:
        coords = grid.cell_centers()
    else:
        coords = (tg.node_times()[:-1],) + grid.cell_centers()
    return CertificateReport(mode, float(kappa), d1, d2, n1, n2,
                             n1 <= kappa, n2 <= kappa, coords)


def certificate_to_csv(report: CertificateReport, path) -> None:
    """Rows: slice id, slice coordinate(s), |d| norms, flags, kappa."""
    mode = report.mode
    if mode is SparsityMode.TIME:
        coord_names, coord_cols = ["t"], [report.coords[0]]
    elif mode is SparsityMode.SPACE:
        coord_names = ["x", "y"][: len(report.coords)]
        coord_cols = list(report.coords)
    else:
        times = report.coords[0]
        cells = report.coords[1:]
        nslices, ncells = report.norms1.shape
        coord_names = ["t", "x", "y"][: 1 + len(cells)]
        coord_cols = [np.repeat(times, ncells)]
        coord_cols += [np.tile(c, nslices) for c in cells]
    per_slice = [np.ravel(a) for a in (report.norms1, report.norms2,
                                       report.flagged1, report.flagged2)]
    n = per_slice[0].size
    write_csv(path, ["slice", *coord_names, "norm_d1", "norm_d2", "flagged1",
                     "flagged2", "kappa"],
              [np.arange(n), *map(repr_column, coord_cols), *per_slice,
               repr_column(np.full(n, report.kappa))])
