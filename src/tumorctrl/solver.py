"""Forward, linearized and adjoint solvers for the three-field system.

Time scheme (state): one decoupled semi-implicit Euler step per interval:

  (i)   phi-step   beta (p - phi_n)/tau - Lap p + F1'(p)
                     = mu_n + chi sigma_n - F2'(phi_n),
        solved by damped Newton; the implicit convex part F1' preserves the
        separation of singular potentials.  Newton starts from phi
        extrapolated along the trajectory, 3 (phi_n - phi_{n-1}) + phi_{n-2}
        (2 phi_1 - phi_0 at step 1, phi_0 at step 0), cell by cell where
        that lies inside a singular potential's interval and from phi_n
        elsewhere: about one Jacobian solve per step on the 1D presets,
        against two from phi_n.
  (ii)  mu-step    alpha (m - mu_n)/tau - Lap m
                     = (P sigma_n - A - u1_n) h(phi_n) - (p - phi_n)/tau.
  (iii) sigma-step (s - sigma_n)/tau - Lap s + (B + E h(phi_n)) s
                     = sigma_n/tau - chi Lap p + B sigma_s + u2_n.

Nonlinear coefficients are lagged exactly as written, which makes the
per-step integrated balances exact up to the linear-solver tolerance.

The linearized solver applies the same splitting to the linear system
(reaction terms on or off) and is the exact tangent of this scheme; the
adjoint solver is its exact transpose, stepping backward with implicit
diffusion and eliminating the time derivative of the first adjoint from the
second equation.  The symmetric positive definite Helmholtz solves
(diag(c) - Lap) x = b are direct on 1D grids: one tridiagonal LU sweep
(Thomas), stable without pivoting because the matrix is strictly diagonally
dominant for c > 0, and exact to round-off.  Each solver factors its
constant coefficients once, before its time loop: the mu- and psi1-steps'
alpha/tau and the tangent's and adjoint's per-step rows.  A solve on those
pivots has the bits of the one-pass sweep, which makes its pivots on the way
for the Newton Jacobian and the forward sigma-step, new at every solve.  On
2D grids the orthonormal DCT-II diagonalizes the Neumann stencil, so a
constant c (the mu- and psi1-steps) is one exact DCT solve, and a variable c
takes a few conjugate-gradient iterations to a relative residual of 1e-12 on
every grid.  That CG runs in the DCT basis, where -Lap and its
preconditioner, the DCT solve at the mean coefficient, are diagonals, so an
iteration makes no stencil pass.  Only that CG iterates: it stops at
2 n + 200 iterations with a LinearSolveError, and stats["cg_iterations"]
counts its iterations (0 in 1D).  The DCT is one dense orthonormal matrix
per axis, applied as two BLAS matrix products: O(n^3) per transform on an
n x n grid against O(n^2 log n) for an FFT.
On one BLAS thread of an Intel Xeon a constant-coefficient solve (one
forward and one inverse transform) took 15-22 us against 54-84 us through
numpy's FFT at 24^2 and 0.19-0.20 against 0.78-1.34 ms at 96^2; the two
drew level between 512^2 and 768^2, far above the presets' grids (at most
96^2).  As with np.dot, the 2D bits follow the BLAS build and its thread
count.

solve_states marches a sequence of independent controls through one time
loop, as rows of one (members, cells) array per field, at most BATCH_BYTES
of states at a time, and yields each control with its trajectory, chunk by
chunk.  Every row keeps its own Newton and CG scalars, line search and
stopping tests, and a 1D solve makes the same IEEE operations on each row
(row by row on Python floats, or as numpy columns from THOMAS_COLUMN_ROWS
rows up), so each member takes the iterations, and gets the bits, of its
own solve_state, which runs the same loop on one unbatched field.  On the
presets' 16-64-cell grids an array operation's cost is per-call overhead,
so a batch of B members costs far less than B solves.  A failed batch
raises the failure of its first control that fails alone.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .fields import (Field, GridSpec, ShapeMismatch, SpaceTimeField,
                     StateTriple, TimeGrid, Trajectory, make_laplacian)
from .model import CLAMP_MARGIN, InterpolantSpec, ModelParams, PotentialSpec

CG_RTOL = 1e-12
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
# phi's least distance to a singular potential's interval bounds
MIN_MARGIN = 1e-11
# solve_states marches at most this many bytes of states at once:
# members x (steps + 1) x cells x 3 fields x 8 bytes
BATCH_BYTES = 4 * 2 ** 20
# a 1D batch of at least this many rows sweeps as numpy columns, a smaller
# one row by row unless it has per-row pivots: on one core of an Intel
# Xeon, 16 rows took 51 us by rows against 56 us by columns at 16 cells and
# 171 against 200 us at 64 cells, and 20 rows 64 against 56 us and 209
# against 201 us; on kept pivots 16 rows took 39 us either way at 16 cells
# and 123 at 64 cells, and 20 rows 49 against 39 us and 153 against 124 us
THOMAS_COLUMN_ROWS = 20


class SolveFailure(RuntimeError):
    """A failed solve.  Only solve_states sets member: the index of the
    control whose own solve failed."""

    member: int | None = None


class NewtonDivergence(SolveFailure):
    """The phi-step nonlinear solve failed to converge."""

    def __init__(self, step: int, residual: float):
        self.step = step
        self.residual = residual
        super().__init__(
            f"phi-step Newton stalled at step {step}: |G| = {residual:.3e}")


class SeparationLoss(SolveFailure):
    """phi left the admissible interval of a singular potential."""

    def __init__(self, step: int, margin: float):
        self.step = step
        self.margin = margin
        super().__init__(
            f"separation lost at time step {step}: margin {margin:.3e}")


@dataclass(frozen=True)
class ControlPair:
    """Two space-time controls (cytotoxic drug u1, nutrient/medication u2)."""

    u1: SpaceTimeField
    u2: SpaceTimeField

    def __post_init__(self):
        if self.u1.on_nodes or self.u2.on_nodes:
            raise ShapeMismatch("controls are piecewise constant per interval")
        if self.u1.grid != self.u2.grid or self.u1.timegrid != self.u2.timegrid:
            raise ShapeMismatch("controls must share grids")

    @property
    def grid(self):
        return self.u1.grid

    @property
    def timegrid(self):
        return self.u1.timegrid

    @classmethod
    def zeros(cls, timegrid: TimeGrid, grid: GridSpec) -> "ControlPair":
        z = SpaceTimeField.zeros(timegrid, grid)
        return cls(z, z)

    @classmethod
    def from_arrays(cls, timegrid: TimeGrid, grid: GridSpec, u1,
                    u2) -> "ControlPair":
        """The pair of interval fields with values u1 and u2."""
        return cls(SpaceTimeField(timegrid, grid, u1),
                   SpaceTimeField(timegrid, grid, u2))


@dataclass(frozen=True)
class LinearizedSpec:
    """Data of the linear system.

    reaction turns on the frozen-coefficient reaction terms.  A control
    direction (k1, k2) or free source (f1, f2, f3) left None is zero, as
    are the initial data.  With the reaction terms on and only k given the
    solution is the directional derivative of the control-to-state map.
    """

    reaction: bool = True
    k1: SpaceTimeField | None = None
    k2: SpaceTimeField | None = None
    f1: SpaceTimeField | None = None
    f2: SpaceTimeField | None = None
    f3: SpaceTimeField | None = None


@dataclass(frozen=True)
class AdjointTriple:
    """Adjoint states (psi1, psi2, psi3) on time nodes."""

    psi1: SpaceTimeField
    psi2: SpaceTimeField
    psi3: SpaceTimeField


@dataclass(frozen=True)
class Targets:
    """Tracking targets: phi_q over the space-time cylinder, phi_omega at T."""

    phi_q: SpaceTimeField
    phi_omega: Field

    def __post_init__(self):
        if not self.phi_q.on_nodes:
            raise ShapeMismatch("phi_q must live on time nodes")
        if self.phi_q.grid != self.phi_omega.grid:
            raise ShapeMismatch("targets must share one grid")


def _neg_lap_diag(grid: GridSpec) -> np.ndarray:
    """Diagonal of -Laplacian for the mirrored-ghost stencil."""

    def axis_diag(n, h2):
        if n == 1:
            return np.zeros(1)
        d = np.full(n, 2.0 / h2)
        d[0] = d[-1] = 1.0 / h2
        return d

    if grid.dim == 1:
        return axis_diag(grid.n[0], grid.spacing[0] ** 2)
    dx = axis_diag(grid.n[0], grid.spacing[0] ** 2)
    dy = axis_diag(grid.n[1], grid.spacing[1] ** 2)
    return (dx[:, None] + dy[None, :]).ravel()


class LinearSolveError(SolveFailure):
    """Preconditioned CG stopped at its iteration cap above tolerance.

    Only a 2D solve with a variable coefficient iterates; every other solve
    is direct and never raises it.
    """

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"conjugate gradient did not reach tolerance after {iterations} "
            f"iterations: relative residual {residual:.3e}")


def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix: Q[k, j] = s_k cos(pi k (2 j + 1) / 2 n)."""
    k = np.arange(n)
    # the integer phase k (2 j + 1) mod 4 n puts every argument in [0, 2 pi)
    phase = np.outer(k, 2 * k + 1) % (4 * n)
    q = math.sqrt(2.0 / n) * np.cos((np.pi / (2 * n)) * phase)
    q[0] = math.sqrt(1.0 / n)
    return q


def _freeze(done, rows, out, x, *arrays):
    """Write the rows of x that done marks into out; return rows, x and
    every per-row array cut to the other, working rows.

    rows maps the working rows x onto out (None until the first freeze).
    """
    if rows is None:
        rows = np.arange(done.size)
    fin, keep = np.flatnonzero(done), np.flatnonzero(~done)
    out[rows[fin]] = x[fin]
    return [rows[keep]] + [a[keep] for a in (x,) + arrays]


def _first(values, mask) -> float:
    """Per-member values (or a number) at the first member mask marks."""
    return float(np.ravel(values)[np.argmax(mask)])


class _Factor:
    """The pivots of a 1D Helmholtz matrix diag(d) - Lap, with e = 1/h^2
    minus its off-diagonal entries: m_i = d_i - e w_{i-1} and w_i = e / m_i,
    for one system (cell vectors) or one per row ((rows, cells) arrays).

    A factor is its pivots, and serves every right-hand side solved with
    its coefficient; indexing takes rows.  A pivot that rounded to 0 stays
    in m, and the solve that meets it raises, as the one-pass sweep would.
    """

    __slots__ = ("m", "w", "lists")

    def __init__(self, m, w):
        self.m, self.w = m, w
        # one system's pivots as Python floats, for the row sweep
        self.lists = (m.tolist(), w.tolist()) if m.ndim == 1 else None

    @classmethod
    def of(cls, e: float, diag: np.ndarray) -> "_Factor":
        """The pivot sweep: on Python floats for one system (w = 0 after a
        0 pivot), and cell by cell with all rows as one numpy column for
        (rows, cells).  Either makes the one-pass sweep's operations on
        every entry; after a pivot that rounded to 0, a row's values are
        never read."""
        if diag.ndim == 1:
            ms, ws, w = [], [], 0.0
            for di in diag.tolist():
                m = di - e * w
                w = e / m if m else 0.0
                ms.append(m)
                ws.append(w)
            return cls(np.array(ms), np.array(ws))
        m, w = np.empty((2,) + diag.T.shape)
        prev = np.zeros(len(diag))
        e0 = np.array(e)  # a ufunc takes a 0-d array faster than a float
        # as Python floats do, a 0 pivot or an overflow warns of nothing
        with np.errstate(all="ignore"):
            for di, mi, wi in zip(diag.T, m, w):
                np.multiply(e0, prev, out=mi)
                np.subtract(di, mi, out=mi)
                np.divide(e0, mi, out=wi)
                prev = wi
        return cls(m.T, w.T)

    def __getitem__(self, row) -> "_Factor":
        return _Factor(self.m[row], self.w[row])

    def vanished(self, e: float) -> SolveFailure:
        """The failure of every 1D solve whose pivot vanished, at the first
        row's first 0 pivot.  m_i = d_i - e w_{i-1} rounds to 0 exactly
        when d_i equals fl(e w_{i-1}): that is the diagonal named, bit for
        bit (0 at cell 0)."""
        m, w = np.atleast_2d(self.m, self.w)
        row, cell = np.argwhere(m == 0.0)[0]
        diag = e * w[row, cell - 1] if cell else 0.0
        return SolveFailure(f"1D Helmholtz solve: pivot of cell {cell} "
                            f"vanished (diagonal {diag:.3e}, off-diagonal "
                            f"{-e:.3e})")


def _thomas_columns(e: float, f: _Factor, b: np.ndarray) -> np.ndarray:
    """The substitution sweeps of a (members, cells) batch, cell by cell
    with all rows as one numpy column: the operations of the row sweep,
    entry by entry, and its SolveFailure where a pivot vanished."""
    if not f.m.all():
        raise f.vanished(e)
    ys = np.empty(b.T.shape)
    y = np.zeros(len(b))
    t = np.empty(len(b))
    e0 = np.array(e)
    with np.errstate(all="ignore"):
        for ri, mi, yi in zip(b.T, np.broadcast_to(f.m, b.shape).T, ys):
            np.multiply(e0, y, out=t)
            np.add(ri, t, out=t)
            np.divide(t, mi, out=yi)
            y = yi
        x = np.zeros(len(b))
        for yi, wi in zip(ys[::-1], np.broadcast_to(f.w, b.shape).T[::-1]):
            np.multiply(wi, x, out=t)
            np.add(yi, t, out=yi)
            x = yi
    return np.ascontiguousarray(ys.T)


class _HelmholtzSolver:
    """(diag(c) - Lap) x = b with c > 0: PCG for a variable 2D c, else direct.

    A 1D system is tridiagonal, symmetric and strictly diagonally dominant,
    so one Thomas sweep solves it exactly to round-off, with no iteration
    cap; it counts no iterations.  The sweep's pivots depend on c alone:
    a caller that solves with one c again and again factors it once
    (_Factor), and solve runs only the substitution sweeps on it, with the
    bits of the one-pass sweep an array c takes.  The solver keeps no state
    of c; on 2D grids factor hands c back unchanged.

    On 2D grids the orthonormal DCT-II Q diagonalizes the mirrored-ghost
    stencil, -Lap = Q^T diag(eig) Q with eig = sum over axes of
    (2 - 2 cos(pi k/n))/h^2, so a constant c is one exact solve,
    x = Q^T (c + eig)^-1 Q b.  A variable c runs CG from zero in the DCT
    basis, on Q diag(c) Q^T + diag(eig) with b' = Q b, preconditioned by the
    diagonal (mean(c) + eig)^-1, and ends with one inverse transform: four
    matrix products per iteration and no stencil pass.  It converges in a
    few iterations on any grid.  Q is separable, Q = Qx (x) Qy, so dct is
    Qx X Qy^T on the (nx, ny) view X of a field and idct is Qx^T Y Qy: two
    BLAS matrix products, O(n^3) per transform but faster than an FFT on
    every grid the presets use (see the module docstring).  The bits follow
    the BLAS build and thread count, as np.dot's do.

    Fields are flat cell vectors, or rows of a (members, cells) array that
    are solved as independent systems: CG runs them in one iteration, where
    each row keeps its own CG scalars and stops on its own test, the DCT
    solves transform each row alike, and the Thomas sweep makes the same
    operations on each row, row by row or, from THOMAS_COLUMN_ROWS rows up,
    as numpy columns.  Either way a row takes exactly the iterations, and
    gets exactly the bits, of its unbatched solve.
    """

    def __init__(self, grid: GridSpec):
        self.lap = make_laplacian(grid)
        self.neg_lap_diag = _neg_lap_diag(grid)
        self.lap_diag2 = 2.0 * self.neg_lap_diag
        self.iterations = 0
        self.shape = grid.n
        if grid.dim == 1:
            # minus the off-diagonal entries: 1/h^2, the end cells' diagonal
            # of -Lap (0 on a 1-cell grid, which has none, so x = b / c)
            self.e = float(self.neg_lap_diag[0])
            return  # the Thomas sweep needs no transform tables
        self.maxiter = 2 * grid.n_cells + 200
        self.qx, self.qy = (_dct_matrix(n) for n in grid.n)
        ex, ey = ((2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)) / h ** 2
                  for n, h in zip(grid.n, grid.spacing))
        self.eig = (ex[:, None] + ey[None, :]).ravel()

    def dct(self, x: np.ndarray) -> np.ndarray:
        """Orthonormal DCT-II of flat cell vectors, along both grid axes."""
        y = x.reshape(x.shape[:-1] + self.shape)
        return (self.qx @ y @ self.qy.T).reshape(x.shape)

    def idct(self, y: np.ndarray) -> np.ndarray:
        """Inverse of dct (the orthonormal DCT-III)."""
        x = y.reshape(y.shape[:-1] + self.shape)
        return (self.qx.T @ x @ self.qy).reshape(y.shape)

    def solve(self, coeff, b: np.ndarray):
        """x with (diag(coeff) - Lap) x = b: one system, or one per row.

        b is a flat cell vector or a (members, cells) batch; coeff is a
        scalar, a cell vector, one row per member, or what factor made of
        one of these (a scalar on a 1D grid is factored on this call).
        Only an array coeff on a 2D grid iterates (CG, from zero); a row
        with b = 0 gets x = 0.
        """
        if len(self.shape) == 1:
            return self._thomas(coeff, b)
        if not isinstance(coeff, np.ndarray):
            return self.idct(self.dct(b) / (coeff + self.eig))
        # per-member scalars are columns, one row per member
        bnorm = np.sqrt(np.vecdot(b, b, keepdims=True))
        tol = CG_RTOL * bnorm
        x = out = np.zeros_like(b)
        rows = None
        # np.mean's own reduction: each row's mean keeps its unbatched bits
        mean = np.add.reduce(coeff, axis=-1, keepdims=True) / coeff.shape[-1]
        inv_m = 1.0 / (mean + self.eig)
        r = self.dct(b)
        z = inv_m * r
        p = z
        rz = np.vecdot(r, z, keepdims=True)
        for it in range(self.maxiter + 1):
            rnorm = np.sqrt(np.vecdot(r, r, keepdims=True))
            done = rnorm <= tol
            n_done = np.count_nonzero(done)
            if n_done == done.size:
                break
            if it == self.maxiter:
                raise LinearSolveError(self.maxiter,
                                       _first(rnorm / bnorm, ~done))
            if n_done:
                rows, x, r, p, rz, tol, bnorm, coeff, inv_m = _freeze(
                    done, rows, out, x, r, p, rz, tol, bnorm, coeff, inv_m)
            ap = self.dct(coeff * self.idct(p)) + self.eig * p
            alpha = rz / np.vecdot(p, ap, keepdims=True)
            x += alpha * p
            r -= alpha * ap
            z = inv_m * r
            rz_new = np.vecdot(r, z, keepdims=True)
            p = z + (rz_new / rz) * p
            rz = rz_new
            self.iterations += rz.size
        if rows is not None:
            out[rows] = x
        return self.idct(out)

    def factor(self, coeff):
        """coeff made ready for solve to reuse: on a 1D grid its _Factor
        (one per row of a (rows, cells) coeff), on a 2D grid, or if it is
        one already, coeff itself."""
        if len(self.shape) > 1 or isinstance(coeff, _Factor):
            return coeff
        return _Factor.of(self.e, coeff + self.neg_lap_diag)

    def _thomas(self, coeff, b: np.ndarray) -> np.ndarray:
        """The 1D solve: LU without pivoting of the tridiagonal system.

        An array coeff of one system or of fewer than THOMAS_COLUMN_ROWS
        rows runs the one-pass sweep on Python floats; any other runs the
        substitution sweeps on its factor, by rows on one system's pivots,
        else as numpy columns.  A pivot that rounds to 0 (c below round-off
        next to 1/h^2) raises SolveFailure (_Factor.vanished).
        """
        e = self.e
        if b.ndim == 2 and len(b) >= THOMAS_COLUMN_ROWS:
            return _thomas_columns(e, self.factor(coeff), b)
        rows = [b.tolist()] if b.ndim == 1 else b.tolist()
        try:
            if isinstance(coeff, np.ndarray):
                d = (coeff + self.neg_lap_diag).tolist()
                diags = d if coeff.ndim == 2 else itertools.repeat(d)
                out = [_one_pass(e, d, r) for d, r in zip(diags, rows)]
            else:
                f = self.factor(coeff)
                if f.lists is None:  # per-row pivots
                    return _thomas_columns(e, f, b)
                m, w = f.lists
                out = [_substitute(e, m, w, r) for r in rows]
        except ZeroDivisionError:
            raise self.factor(coeff).vanished(e) from None
        return np.array(out).reshape(b.shape)


def _one_pass(e: float, d: list, r: list) -> list:
    """One row's solve with the pivots made on the way: m_i = d_i - e w_{i-1},
    w_i = e / m_i and y_i = (r_i + e y_{i-1}) / m_i, then the backward
    sweep.  A 0 pivot raises ZeroDivisionError."""
    ys, ws = [], []
    y = w = 0.0
    for di, ri in zip(d, r):
        m = di - e * w
        y = (ri + e * y) / m
        w = e / m
        ys.append(y)
        ws.append(w)
    return _backward(ys, ws)


def _substitute(e: float, m: list, w: list, r: list) -> list:
    """One row's solve on its pivots: y_i = (r_i + e y_{i-1}) / m_i, then
    the backward sweep.  A 0 pivot raises ZeroDivisionError."""
    ys = []
    y = 0.0
    for mi, ri in zip(m, r):
        y = (ri + e * y) / mi
        ys.append(y)
    return _backward(ys, w)


def _backward(ys: list, ws: list) -> list:
    """The backward sweep, in place of y: x_i = y_i + w_i x_{i+1}."""
    x = 0.0
    for i in range(len(ys) - 1, -1, -1):
        x = ys[i] + ws[i] * x
        ys[i] = x
    return ys


def _phi_newton_step(pot: PotentialSpec, hh: _HelmholtzSolver, beta_tau: float,
                     phi_n: np.ndarray, rhs: np.ndarray, start: np.ndarray,
                     step: int) -> np.ndarray:
    """Solve beta/tau (p - phi_n) - Lap p + F1'(p) = rhs by damped Newton.

    phi_n, rhs and the first iterate start are a flat cell vector or one
    row per member; for a singular potential start must lie strictly
    inside the evaluation interval (_march passes the extrapolated
    trajectory, see _newton_start).  Each row keeps its own scale, floor,
    fraction-to-boundary step and line search and stops on its own test,
    so it takes the iterations, and gets the bits, of its unbatched solve.
    """

    def norm(v):  # per-member max norm, as a column
        return np.abs(v).max(axis=-1, keepdims=True)

    # beta/tau is the Jacobian's diagonal scale: the tolerance then bounds
    # the phi update error itself by NEWTON_TOL
    tol = NEWTON_TOL * np.maximum(norm(rhs), max(1.0, beta_tau))
    lo, hi = pot.r_minus + CLAMP_MARGIN, pot.r_plus - CLAMP_MARGIN

    def residual(q, pn, r):
        return beta_tau * (q - pn) - hh.lap(q) + pot.f1[1](pot.clamp(q)) - r

    out = p = start.copy()
    rows = None
    pn, r = phi_n, rhs
    g = residual(p, pn, r)
    gnorm = norm(g)
    floor = np.zeros_like(gnorm)
    for it in range(NEWTON_MAX_ITER + 1):
        # np.fmax skips a NaN as Python's max does
        done = gnorm <= np.fmax(tol, floor)
        n_done = np.count_nonzero(done)
        if n_done == done.size:
            break
        if it == NEWTON_MAX_ITER:
            if pot.is_singular:
                margin = _first(pot.margin(p), ~done)
                if margin <= 1e-5:
                    raise SeparationLoss(step, margin)
            raise NewtonDivergence(step, _first(gnorm, ~done))
        if n_done:
            rows, p, g, gnorm, floor, tol, pn, r = _freeze(
                done, rows, out, p, g, gnorm, floor, tol, pn, r)
        jac = beta_tau + pot.f1[2](pot.clamp(p))
        # one-ulp changes of p move the residual by about diag * |p|, with
        # the stencil's 2 diag(-Lap) (about 4/h^2) in diag: that caps the
        # attainable residual on fine grids and where F1'' blows up
        floor = 8.0 * np.finfo(float).eps * norm(
            (jac + hh.lap_diag2) * np.maximum(np.abs(p), 1.0))
        delta = hh.solve(jac, -g)
        step_len = np.ones_like(gnorm)
        if pot.is_singular:
            # fraction-to-boundary rule keeps iterates strictly interior:
            # the room towards the bound delta points at, over |delta|
            room = np.where(delta > 0.0, hi - p, p - lo)
            to_bound = np.divide(room, np.abs(delta),
                                 out=np.full_like(p, np.inf),
                                 where=delta != 0.0)
            step_len = np.fmin(step_len, 0.9 * np.fmin.reduce(
                to_bound, axis=-1, keepdims=True))
            if np.count_nonzero(~(step_len > 0.0)):
                raise SeparationLoss(step, 0.0)

        def attempt(sel):  # trial rows sel at their step lengths
            t = p[sel] + step_len[sel] * delta[sel]
            g_t = residual(t, pn[sel], r[sel])
            return t, g_t, norm(g_t)

        # halve on residual increase, up to 40 trials per row
        trial, g_trial, trial_norm = attempt(...)
        for halving in range(40):
            better = trial_norm <= np.fmax(gnorm, tol)
            n_better = np.count_nonzero(better)
            if n_better == better.size:
                break
            j = np.flatnonzero(~better)
            if halving == 39:
                raise NewtonDivergence(step, _first(gnorm, ~better))
            if n_better == 0:
                step_len = 0.5 * step_len
                trial, g_trial, trial_norm = attempt(...)
            else:
                step_len[j] *= 0.5
                trial[j], g_trial[j], trial_norm[j] = attempt(j)
        p, g, gnorm = trial, g_trial, trial_norm

    if rows is not None:
        out[rows] = p
        p = out
    if pot.is_singular:
        margin = pot.margin(p)
        low = margin <= MIN_MARGIN
        if np.count_nonzero(low):
            raise SeparationLoss(step, _first(margin, low))
    return p


def _trajectory(tg: TimeGrid, grid: GridSpec, mu, phi, sig) -> Trajectory:
    return Trajectory(SpaceTimeField(tg, grid, mu),
                      SpaceTimeField(tg, grid, phi),
                      SpaceTimeField(tg, grid, sig))


def _newton_start(pot: PotentialSpec, phi: np.ndarray, n: int) -> np.ndarray:
    """The phi-step's first Newton iterate: phi^{n+1} extrapolated.

    Quadratic through phi^{n-2..n}, 3 (phi^n - phi^{n-1}) + phi^{n-2};
    linear, 2 phi^1 - phi^0, at step 1; phi^0 at step 0.  A cell whose
    extrapolation is not strictly inside a singular potential's evaluation
    interval starts from phi^n, which is inside by MIN_MARGIN (a regular
    potential's interval is the whole line).  Element-wise, so a batch row
    gets the bits of its own trajectory's start.
    """
    if n == 0:
        return phi[0]
    if n == 1:
        guess = 2.0 * phi[1] - phi[0]
    else:
        guess = 3.0 * (phi[n] - phi[n - 1]) + phi[n - 2]
    inside = ((guess > pot.r_minus + CLAMP_MARGIN)
              & (guess < pot.r_plus - CLAMP_MARGIN))
    return np.where(inside, guess, phi[n])


def _march(params: ModelParams, pot: PotentialSpec, hspec: InterpolantSpec,
           tg: TimeGrid, u1: np.ndarray, u2: np.ndarray, init: StateTriple):
    """The state scheme's time loop for controls shaped (steps, cells), or
    (steps, members, cells) for a batch.

    Returns mu, phi and sigma on the nodes, shaped (steps + 1, ...) like
    the controls, and the number of CG iterations summed over members
    (0 in 1D, where the solves are direct).
    """
    tau = tg.tau
    nt = tg.n_steps
    hh = _HelmholtzSolver(init.grid)

    mu = np.empty((nt + 1,) + u1.shape[1:])
    phi = np.empty_like(mu)
    sig = np.empty_like(mu)
    mu[0], phi[0], sig[0] = init.mu.values, init.phi.values, init.sigma.values

    pr = params
    mu_f = hh.factor(pr.alpha / tau)
    for n in range(nt):
        h_n = hspec.h(phi[n])
        # (i) phi-step, implicit convex part
        rhs_phi = mu[n] + pr.chi * sig[n] - pot.f2[1](pot.clamp(phi[n]))
        phi[n + 1] = _phi_newton_step(pot, hh, pr.beta / tau, phi[n], rhs_phi,
                                      _newton_start(pot, phi, n), n)
        # (ii) mu-step
        source = (pr.p_rate * sig[n] - pr.a_rate - u1[n]) * h_n
        b_mu = (pr.alpha / tau) * mu[n] + source - (phi[n + 1] - phi[n]) / tau
        mu[n + 1] = hh.solve(mu_f, b_mu)
        # (iii) sigma-step, implicit supply/consumption decay
        b_sig = (sig[n] / tau - pr.chi * hh.lap(phi[n + 1])
                 + pr.b_rate * pr.sigma_s + u2[n])
        coeff = 1.0 / tau + pr.b_rate + pr.e_rate * h_n
        sig[n + 1] = hh.solve(coeff, b_sig)

    # once after the loop: the first node where a field left the floats,
    # and the first field, in the order the step makes them
    finite = np.stack([np.isfinite(f.reshape(nt + 1, -1)).all(axis=1)
                       for f in (phi, mu, sig)])
    if not finite.all():
        node = int(np.argmin(finite.all(axis=0)))
        name = ("phi", "mu", "sigma")[int(np.argmin(finite[:, node]))]
        raise SolveFailure(f"state solve overflows at time step {node - 1}: "
                           f"{name} is not finite")
    return mu, phi, sig, hh.iterations


def _record(stats: dict | None, tg: TimeGrid, cg_iterations: int) -> None:
    if stats is not None:
        stats.update(scheme="semi-implicit-euler", n_steps=tg.n_steps,
                     tau=tg.tau, cg_rtol=CG_RTOL, newton_tol=NEWTON_TOL,
                     cg_iterations=cg_iterations)


def solve_state(params: ModelParams, pot: PotentialSpec,
                hspec: InterpolantSpec, controls: ControlPair,
                init: StateTriple, stats: dict | None = None) -> Trajectory:
    """March the nonlinear state system from the initial triple.

    Returns the trajectory on all time nodes.  For singular potentials every
    phi snapshot is guaranteed strictly inside the admissible interval;
    otherwise SeparationLoss identifies the offending step (values are never
    silently clamped).

    Raises
    ------
    NewtonDivergence
        phi-step Newton did not converge within its iteration budget.
    SeparationLoss
        phi reached the singular interval boundary.
    """
    grid, tg = init.grid, controls.timegrid
    if controls.grid != grid:
        raise ShapeMismatch("controls and initial data on different grids")
    mu, phi, sig, iterations = _march(
        params, pot, hspec, tg, controls.u1.values, controls.u2.values, init)
    _record(stats, tg, iterations)
    return _trajectory(tg, grid, mu, phi, sig)


def solve_states(params: ModelParams, pot: PotentialSpec,
                 hspec: InterpolantSpec, controls: Iterable[ControlPair],
                 init: StateTriple) -> Iterator[tuple[ControlPair, Trajectory]]:
    """solve_state for each of a sequence of independent controls.

    Yields (control, trajectory) for each control, in order.  Takes
    controls in chunks of at most BATCH_BYTES of states and marches each
    chunk as rows of one array, so a lazy sequence is never held whole.
    Every trajectory is bitwise equal to its own solve_state, so a failed
    chunk is solved again control by control: the first that fails alone
    raises its own failure, with member set to its index in the sequence.
    """
    controls = iter(controls)
    first = next(controls, None)
    if first is None:
        return
    grid, tg = init.grid, first.timegrid
    controls = enumerate(itertools.chain([first], controls))
    size = max(1, BATCH_BYTES // (24 * (tg.n_steps + 1) * grid.n_cells))
    while chunk := list(itertools.islice(controls, size)):
        if any(c.grid != grid or c.timegrid != tg for _, c in chunk):
            raise ShapeMismatch("controls and initial data on different grids")
        try:
            mu, phi, sig, _ = _march(
                params, pot, hspec, tg,
                np.stack([c.u1.values for _, c in chunk], axis=1),
                np.stack([c.u2.values for _, c in chunk], axis=1), init)
        except SolveFailure:
            # an earlier control may fail at a later step than the batch
            for i, c in chunk:
                try:
                    solve_state(params, pot, hspec, c, init)
                except SolveFailure as exc:
                    exc.member = i
                    raise exc from None
            raise
        for j, (_, c) in enumerate(chunk):
            yield c, _trajectory(tg, grid, mu[:, j], phi[:, j], sig[:, j])
        del mu, phi, sig  # before the next chunk's march


def _base_coefficients(pot, hspec, base: Trajectory):
    """h, h', F1'', F2'' evaluated on every node of the base trajectory."""
    phib = base.phi.values
    h_all = hspec.h(phib)
    hp_all = hspec.hd(phib)
    f1dd_all, f2dd_all = pot.split_eval(phib, 2)
    return h_all, hp_all, f1dd_all, f2dd_all


def solve_linearized(params: ModelParams, pot: PotentialSpec,
                     hspec: InterpolantSpec, base: Trajectory,
                     base_controls: ControlPair,
                     spec: LinearizedSpec) -> Trajectory:
    """Solve the linear system of spec around a base trajectory.

    Each step differentiates the forward step: coefficients are frozen on
    the base trajectory at the node where the forward scheme evaluates them,
    the arrival node for F1'' and for sigma in the consumption term (the
    forward phi-step is implicit in F1', the sigma-step in its decay) and
    the departure node otherwise.  The linearized state starts at zero.
    With the reaction terms on and no source, the result is the exact
    discrete tangent of solve_state along (k1, k2), so it pairs with
    solve_adjoint in the duality identity up to round-off.
    """
    grid, tg = base.grid, base.timegrid
    tau = tg.tau
    nt = tg.n_steps
    hh = _HelmholtzSolver(grid)
    pr = params

    def slice_or_zero(f, n):
        return 0.0 if f is None else f.values[n]

    for f in (spec.k1, spec.k2, spec.f1, spec.f2, spec.f3):
        if f is not None and (f.grid != grid or f.on_nodes):
            raise ShapeMismatch("directions/sources must be interval fields "
                                "on the base grid")

    h_all, hp_all, f1dd_all, f2dd_all = _base_coefficients(pot, hspec, base)
    sigb = base.sigma.values
    u1b = base_controls.u1.values

    mu = np.zeros((nt + 1, grid.n_cells))
    phi = np.zeros_like(mu)
    sig = np.zeros_like(mu)

    l1 = float(spec.reaction)
    # every step's coefficients are known: factor them at once
    mu_f = hh.factor(pr.alpha / tau)
    phi_f = hh.factor(pr.beta / tau + l1 * f1dd_all[1:])
    sig_f = hh.factor(1.0 / tau + l1 * (pr.b_rate + pr.e_rate * h_all[:nt]))
    for n in range(nt):
        # phi-step
        b_phi = ((pr.beta / tau) * phi[n] + mu[n]
                 + l1 * (pr.chi * sig[n] - f2dd_all[n] * phi[n])
                 + slice_or_zero(spec.f2, n))
        phi[n + 1] = hh.solve(phi_f[n], b_phi)
        # mu-step
        b_mu = ((pr.alpha / tau) * mu[n]
                + l1 * (pr.p_rate * sig[n] * h_all[n]
                        + (pr.p_rate * sigb[n] - pr.a_rate - u1b[n])
                        * hp_all[n] * phi[n])
                - slice_or_zero(spec.k1, n) * h_all[n]
                + slice_or_zero(spec.f1, n)
                - (phi[n + 1] - phi[n]) / tau)
        mu[n + 1] = hh.solve(mu_f, b_mu)
        # sigma-step
        b_sig = (sig[n] / tau - pr.chi * hh.lap(phi[n + 1])
                 - l1 * pr.e_rate * sigb[n + 1] * hp_all[n] * phi[n]
                 + slice_or_zero(spec.k2, n)
                 + slice_or_zero(spec.f3, n))
        sig[n + 1] = hh.solve(sig_f[n], b_sig)

    return _trajectory(tg, grid, mu, phi, sig)


def solve_adjoint(params: ModelParams, pot: PotentialSpec,
                  hspec: InterpolantSpec, base: Trajectory,
                  base_controls: ControlPair, targets: Targets) -> AdjointTriple:
    """Backward-in-time adjoint solve around a base trajectory.

    Terminal conditions: psi1(T) = psi3(T) = 0 and
    beta psi2(T) = beta2 (phi(T) - phi_omega), all imposed exactly.  Each
    backward step solves three implicit-diffusion systems (psi1, psi3, psi2
    in that order); the time derivative of psi1 in the psi2-equation is
    eliminated via its own equation, remaining couplings are lagged, and
    coefficient fields are evaluated at the arrival node, mirroring the lag
    pattern of the forward scheme, so the recursion is the exact transpose
    of the discrete tangent and yields the exact gradient of the discrete
    cost (discretize-then-optimize).  The first backward step starts from a
    terminal layer that adds the half-weight tracking contribution of the
    trapezoidal cost quadrature and one implicit smoothing step to the
    terminal value.  A recursion that overflows (say under a huge tracking
    weight) raises SolveFailure naming the latest node where psi is not
    finite, the first backward step that left the floats.
    """
    grid, tg = base.grid, base.timegrid
    if targets.phi_q.grid != grid or targets.phi_q.timegrid != tg:
        raise ShapeMismatch("targets and base trajectory on different grids")
    tau = tg.tau
    nt = tg.n_steps
    hh = _HelmholtzSolver(grid)
    pr = params

    h_all, hp_all, f1dd_all, f2dd_all = _base_coefficients(pot, hspec, base)
    phib, sigb = base.phi.values, base.sigma.values
    u1b = base_controls.u1.values
    phiq = targets.phi_q.values

    psi1 = np.zeros((nt + 1, grid.n_cells))
    psi2 = np.zeros_like(psi1)
    psi3 = np.zeros_like(psi1)
    psi2[nt] = (pr.beta2 / pr.beta) * (phib[nt] - targets.phi_omega.values)

    # terminal layer: the value the recursion sees in place of psi2(T)
    b_eff = ((pr.beta2 / tau) * (phib[nt] - targets.phi_omega.values)
             + 0.5 * pr.beta1 * (phib[nt] - phiq[nt]))
    # every node's coefficients are known: factor them at once; psi3's
    # decay lags one node below the arrival node, as the forward scheme's
    # consumption coefficient does
    psi1_f = hh.factor(pr.alpha / tau)
    psi2_f = hh.factor(pr.beta / tau + f1dd_all)
    psi3_f = hh.factor(1.0 / tau + pr.b_rate
                       + pr.e_rate * h_all[np.maximum(np.arange(nt) - 1, 0)])
    psi2_prev = hh.solve(psi2_f[nt], b_eff)

    for m in range(nt - 1, -1, -1):
        w_track = 0.5 if m == 0 else 1.0
        # psi1-step
        b1 = (pr.alpha / tau) * psi1[m + 1] + psi2_prev
        psi1[m] = hh.solve(psi1_f, b1)
        # psi3-step (implicit decay)
        b3 = ((1.0 / tau) * psi3[m + 1] + pr.p_rate * h_all[m] * psi1[m + 1]
              + pr.chi * psi2_prev)
        psi3[m] = hh.solve(psi3_f[m], b3)
        # psi2-step; (psi1[m+1] - psi1[m])/tau realizes the substituted
        # d_t psi1 = -(Lap psi1 + psi2)/alpha term.
        b2 = ((pr.beta / tau) * psi2_prev
              - f2dd_all[m] * psi2_prev
              + (psi1[m + 1] - psi1[m]) / tau
              + (pr.p_rate * sigb[m] - pr.a_rate - u1b[m]) * hp_all[m]
              * psi1[m + 1]
              - pr.e_rate * sigb[m + 1] * hp_all[m] * psi3[m + 1]
              - pr.chi * hh.lap(psi3[m])
              + pr.beta1 * w_track * (phib[m] - phiq[m]))
        psi2[m] = hh.solve(psi2_f[m], b2)
        psi2_prev = psi2[m]

    bad = ~(np.isfinite(psi1) & np.isfinite(psi2)
            & np.isfinite(psi3)).all(axis=1)
    if bad.any():
        raise SolveFailure("adjoint solve overflows at time step "
                           f"{np.flatnonzero(bad)[-1]}")
    return AdjointTriple(SpaceTimeField(tg, grid, psi1),
                         SpaceTimeField(tg, grid, psi2),
                         SpaceTimeField(tg, grid, psi3))


def adjoint_mismatch_fields(hspec, base: Trajectory,
                            adjoint: AdjointTriple) -> tuple[np.ndarray, np.ndarray]:
    """The pair d = (-psi1 h(phi), psi3) sampled on control slices.

    Slice n pairs the interval's adjoint value at its right node with the
    interpolant at its left node, mirroring how a piecewise-constant control
    enters the forward step over (t_n, t_{n+1}].
    """
    nt = base.timegrid.n_steps
    h_left = hspec.h(base.phi.values[:nt])
    d1 = -adjoint.psi1.values[1:] * h_left
    d2 = adjoint.psi3.values[1:].copy()
    return d1, d2


def state_balance_report(traj: Trajectory, params: ModelParams,
                         controls: ControlPair,
                         hspec: InterpolantSpec) -> dict:
    """Per-step integrated balance residuals of the discrete scheme.

    Checks, for every accepted step,
      alpha <mu^{n+1} - mu^n> + <phi^{n+1} - phi^n>
          = tau <(P sigma^n - A - u1^n) h(phi^n)>
    and the analogous sigma balance with its implicit decay terms; both hold
    to the linear-solver tolerance because the stencil is conservative.
    """
    grid, tg = traj.grid, traj.timegrid
    tau, vol = tg.tau, grid.cell_volume
    pr = params
    mu, phi, sig = traj.mu.values, traj.phi.values, traj.sigma.values
    h_n = hspec.h(phi[:-1])

    def tot(a):
        return vol * np.sum(a, axis=-1)

    src_mu = (pr.p_rate * sig[:-1] - pr.a_rate - controls.u1.values) * h_n
    res_mu = (pr.alpha * tot(mu[1:] - mu[:-1]) + tot(phi[1:] - phi[:-1])
              - tau * tot(src_mu))
    src_sig = (pr.b_rate * (pr.sigma_s - sig[1:])
               - pr.e_rate * sig[1:] * h_n + controls.u2.values)
    res_sig = tot(sig[1:] - sig[:-1]) - tau * tot(src_sig)

    scale_mu = np.maximum(pr.alpha * np.abs(tot(mu[1:])) + np.abs(tot(phi[1:]))
                          + tau * np.abs(tot(src_mu)), 1.0)
    scale_sig = np.maximum(np.abs(tot(sig[1:])) + tau * np.abs(tot(src_sig)),
                           1.0)
    return {
        "residual_mu": res_mu,
        "residual_sigma": res_sig,
        "relative_mu": np.abs(res_mu) / scale_mu,
        "relative_sigma": np.abs(res_sig) / scale_sig,
        "max_relative": float(max(np.max(np.abs(res_mu) / scale_mu),
                                  np.max(np.abs(res_sig) / scale_sig))),
    }
