"""Forward, linearized and adjoint solvers for the three-field system.

Time scheme (state): one decoupled semi-implicit Euler step per interval:

  (i)   phi-step   beta (p - phi_n)/tau - Lap p + F1'(p)
                     = mu_n + chi sigma_n - F2'(phi_n),
        solved by damped Newton; the implicit convex part F1' preserves the
        separation of singular potentials.
  (ii)  mu-step    alpha (m - mu_n)/tau - Lap m
                     = (P sigma_n - A - u1_n) h(phi_n) - (p - phi_n)/tau.
  (iii) sigma-step (s - sigma_n)/tau - Lap s + (B + E h(phi_n)) s
                     = sigma_n/tau - chi Lap p + B sigma_s + u2_n.

Nonlinear coefficients are lagged exactly as written, which makes the
per-step integrated balances exact up to the linear-solver tolerance.

The linearized solver applies the same splitting to the switched linear
system (flags lam1..lam4) and is the exact tangent of this scheme; the
adjoint solver is its exact transpose, stepping backward with implicit
diffusion and eliminating the time derivative of the first adjoint from the
second equation.  All symmetric positive definite solves use conjugate
gradients to a relative residual of 1e-12, preconditioned by an exact
DCT-II solve at the mean coefficient; the orthonormal DCT-II diagonalizes
the Neumann stencil, so a few iterations suffice on every grid and one
when the coefficient is constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (Field, GridSpec, ShapeMismatch, SpaceTimeField,
                     StateTriple, TimeGrid, Trajectory, make_laplacian)
from .model import BoxBounds, InterpolantSpec, ModelParams, PotentialSpec

CG_RTOL = 1e-12
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


class NewtonDivergence(RuntimeError):
    """The phi-step nonlinear solve failed to converge."""

    def __init__(self, step: int, residual: float):
        self.step = step
        self.residual = residual
        super().__init__(
            f"phi-step Newton stalled at step {step}: |G| = {residual:.3e}")


class SeparationLoss(RuntimeError):
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
    bounds: BoxBounds | None = None

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

    def is_admissible(self, bounds: BoxBounds | None = None) -> bool:
        bb = bounds if bounds is not None else self.bounds
        if bb is None:
            return True
        ok1 = np.all(self.u1.values >= np.asarray(bb.lo1) - 1e-14) and \
            np.all(self.u1.values <= np.asarray(bb.hi1) + 1e-14)
        ok2 = np.all(self.u2.values >= np.asarray(bb.lo2) - 1e-14) and \
            np.all(self.u2.values <= np.asarray(bb.hi2) + 1e-14)
        return bool(ok1 and ok2)

    @classmethod
    def zeros(cls, timegrid: TimeGrid, grid: GridSpec,
              bounds: BoxBounds | None = None) -> "ControlPair":
        z = SpaceTimeField.zeros(timegrid, grid)
        return cls(z, z, bounds)


@dataclass(frozen=True)
class LinearizedSpec:
    """Data of the switched linear system.

    lam1 turns on the frozen-coefficient reaction terms, lam2 the control
    direction (k1, k2), lam3 the free sources (f1, f2, f3) and lam4 the
    initial data.  With lam1 = lam2 = 1 and lam3 = lam4 = 0 the solution is
    the directional derivative of the control-to-state map.
    """

    lam1: int = 1
    lam2: int = 1
    lam3: int = 0
    lam4: int = 0
    k1: SpaceTimeField | None = None
    k2: SpaceTimeField | None = None
    f1: SpaceTimeField | None = None
    f2: SpaceTimeField | None = None
    f3: SpaceTimeField | None = None
    mu0: Field | None = None
    phi0: Field | None = None
    sigma0: Field | None = None

    def __post_init__(self):
        for flag in (self.lam1, self.lam2, self.lam3, self.lam4):
            if flag not in (0, 1):
                raise ValueError("switch flags must be 0 or 1")


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
    """Diagonal of -Laplacian for the mirrored-ghost stencil (Newton floor)."""

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


class LinearSolveError(RuntimeError):
    """Preconditioned CG stopped at its iteration cap above tolerance."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"conjugate gradient did not reach tolerance after {iterations} "
            f"iterations: relative residual {residual:.3e}")


class _HelmholtzSolver:
    """PCG for (diag(c) - Lap) x = b with c > 0, DCT preconditioning.

    The orthonormal DCT-II Q diagonalizes the mirrored-ghost stencil:
    -Lap = Q^T diag(eig) Q with eig = sum over axes of (2 - 2 cos(pi k/n))/h^2.
    The preconditioner solves the system exactly at the mean coefficient,
    z = Q^T (mean(c) + eig)^-1 Q r, so a constant c converges in one
    iteration and a variable c in a few, independently of the grid size.
    Q is built on the complex FFT with Makhoul's even/odd reordering and is
    applied separably along each grid axis.
    """

    def __init__(self, grid: GridSpec, rtol: float = CG_RTOL):
        self.lap = make_laplacian(grid)
        self.lap_diag = _neg_lap_diag(grid)
        self.rtol = rtol
        self.maxiter = 2 * grid.n_cells + 200
        self.iterations = 0
        self.shape = grid.n
        eig = np.zeros(grid.n)
        self._forward, self._inverse = [], []
        for axis, (n, h) in enumerate(zip(grid.n, grid.spacing)):
            bshape = [1] * grid.dim
            bshape[axis] = n
            k = np.arange(n)
            eig = eig + ((2.0 - 2.0 * np.cos(np.pi * k / n))
                         / h ** 2).reshape(bshape)
            # v[k] = x[perm[k]]: even entries ascending, odd ones descending
            perm = np.concatenate([k[::2], k[1::2][::-1]])
            scale = np.full(n, math.sqrt(0.5 / n))
            scale[0] = math.sqrt(0.25 / n)
            twiddle = 2.0 * scale * np.exp(-0.5j * np.pi * k / n)
            # the inverse rebuilds the FFT of v from y[k] and y[n - k]
            untwiddle = 1.0 / twiddle
            untwiddle_rev = -1j * untwiddle
            untwiddle_rev[0] = 0.0
            self._forward.append((axis, perm, twiddle.reshape(bshape)))
            self._inverse.append((axis, (n - k) % n, untwiddle.reshape(bshape),
                                  untwiddle_rev.reshape(bshape),
                                  np.argsort(perm)))
        self.eig = eig.ravel()

    def dct(self, x: np.ndarray) -> np.ndarray:
        """Orthonormal DCT-II of a flat cell vector, along every axis."""
        y = x.reshape(self.shape)
        for axis, perm, twiddle in self._forward:
            y = (twiddle * np.fft.fft(y.take(perm, axis), axis=axis)).real
        return y.ravel()

    def idct(self, y: np.ndarray) -> np.ndarray:
        """Inverse of dct (the orthonormal DCT-III)."""
        x = y.reshape(self.shape)
        for axis, rev, untwiddle, untwiddle_rev, unperm in self._inverse:
            v = np.fft.ifft(untwiddle * x + untwiddle_rev * x.take(rev, axis),
                            axis=axis)
            x = v.real.take(unperm, axis)
        return x.ravel()

    def solve(self, coeff, b: np.ndarray, x0: np.ndarray | None = None):
        bnorm = math.sqrt(float(np.dot(b, b)))
        if bnorm == 0.0:
            return np.zeros_like(b)
        apply_a = lambda v: coeff * v - self.lap(v)
        inv_m = 1.0 / (float(np.mean(coeff)) + self.eig)
        precondition = lambda v: self.idct(inv_m * self.dct(v))
        x = np.zeros_like(b) if x0 is None else x0.astype(float).copy()
        r = b - apply_a(x)
        z = precondition(r)
        p = z.copy()
        rz = float(np.dot(r, z))
        tol = self.rtol * bnorm
        for _ in range(self.maxiter):
            if math.sqrt(float(np.dot(r, r))) <= tol:
                return x
            ap = apply_a(p)
            alpha = rz / float(np.dot(p, ap))
            x += alpha * p
            r -= alpha * ap
            z = precondition(r)
            rz_new = float(np.dot(r, z))
            p = z + (rz_new / rz) * p
            rz = rz_new
            self.iterations += 1
        rnorm = math.sqrt(float(np.dot(r, r)))
        if rnorm <= tol:
            return x
        raise LinearSolveError(self.maxiter, rnorm / bnorm)


def _phi_newton_step(pot: PotentialSpec, hh: _HelmholtzSolver, beta_tau: float,
                     phi_n: np.ndarray, rhs: np.ndarray, step: int,
                     min_margin: float) -> np.ndarray:
    """Solve beta/tau (p - phi_n) - Lap p + F1'(p) = rhs by damped Newton."""
    p = phi_n.copy()
    # beta/tau is the Jacobian's diagonal scale: the tolerance then bounds
    # the phi update error itself by NEWTON_TOL
    scale = max(1.0, float(np.max(np.abs(rhs))), beta_tau)

    def residual(q):
        f1d = pot.split_eval(q, 1)[0]
        return beta_tau * (q - phi_n) - hh.lap(q) + f1d - rhs

    g = residual(p)
    gnorm = float(np.max(np.abs(g)))
    floor = 0.0
    for _ in range(NEWTON_MAX_ITER):
        if gnorm <= max(NEWTON_TOL * scale, floor):
            break
        f1dd = pot.split_eval(p, 2)[0]
        # one-ulp changes of p move the residual by about diag * |p|, with
        # the stencil's 2 * lap_diag (about 4/h^2) in diag: that caps the
        # attainable residual on fine grids and where F1'' blows up
        floor = 8.0 * np.finfo(float).eps * float(np.max(
            (beta_tau + f1dd + 2.0 * hh.lap_diag) * np.maximum(np.abs(p), 1.0)))
        delta = hh.solve(beta_tau + f1dd, -g)
        step_len = 1.0
        if pot.is_singular:
            # fraction-to-boundary rule keeps iterates strictly interior
            room_hi = pot.r_plus - pot.clamp_margin - p
            room_lo = p - (pot.r_minus + pot.clamp_margin)
            pos = delta > 0.0
            neg = delta < 0.0
            if np.any(pos):
                step_len = min(step_len,
                               0.9 * float(np.min(room_hi[pos] / delta[pos])))
            if np.any(neg):
                step_len = min(step_len,
                               0.9 * float(np.min(room_lo[neg] / -delta[neg])))
            if not (step_len > 0.0):
                raise SeparationLoss(step, 0.0)
        # halve on residual increase
        for _ in range(40):
            trial = p + step_len * delta
            g_trial = residual(trial)
            g_trial_norm = float(np.max(np.abs(g_trial)))
            if g_trial_norm <= gnorm or g_trial_norm <= NEWTON_TOL * scale:
                break
            step_len *= 0.5
        else:
            raise NewtonDivergence(step, gnorm)
        p, g, gnorm = trial, g_trial, g_trial_norm
    else:
        if gnorm > max(NEWTON_TOL * scale, floor):
            if pot.is_singular:
                margin = float(min(np.min(p - pot.r_minus),
                                   np.min(pot.r_plus - p)))
                if margin <= 1e-5:
                    raise SeparationLoss(step, margin)
            raise NewtonDivergence(step, gnorm)

    if pot.is_singular:
        margin = float(min(np.min(p - pot.r_minus), np.min(pot.r_plus - p)))
        if margin <= min_margin:
            raise SeparationLoss(step, margin)
    return p


def solve_state(params: ModelParams, pot: PotentialSpec,
                hspec: InterpolantSpec, controls: ControlPair,
                init: StateTriple, min_margin: float = 1e-11,
                stats: dict | None = None) -> Trajectory:
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
    tau = tg.tau
    nt = tg.n_steps
    hh = _HelmholtzSolver(grid)

    mu = np.empty((nt + 1, grid.n_cells))
    phi = np.empty_like(mu)
    sig = np.empty_like(mu)
    mu[0], phi[0], sig[0] = init.mu.values, init.phi.values, init.sigma.values

    pr = params
    for n in range(nt):
        h_n = hspec.h(phi[n])
        # (i) phi-step, implicit convex part
        rhs_phi = mu[n] + pr.chi * sig[n] - pot.split_eval(phi[n], 1)[1]
        phi[n + 1] = _phi_newton_step(pot, hh, pr.beta / tau, phi[n], rhs_phi,
                                      n, min_margin)
        # (ii) mu-step
        source = (pr.p_rate * sig[n] - pr.a_rate - controls.u1.values[n]) * h_n
        b_mu = (pr.alpha / tau) * mu[n] + source - (phi[n + 1] - phi[n]) / tau
        mu[n + 1] = hh.solve(pr.alpha / tau, b_mu, x0=mu[n])
        # (iii) sigma-step, implicit supply/consumption decay
        b_sig = (sig[n] / tau - pr.chi * hh.lap(phi[n + 1])
                 + pr.b_rate * pr.sigma_s + controls.u2.values[n])
        coeff = 1.0 / tau + pr.b_rate + pr.e_rate * h_n
        sig[n + 1] = hh.solve(coeff, b_sig, x0=sig[n])

    if stats is not None:
        stats.update(scheme="semi-implicit-euler", n_steps=nt, tau=tau,
                     cg_rtol=CG_RTOL, newton_tol=NEWTON_TOL,
                     cg_iterations=hh.iterations)
    return Trajectory(SpaceTimeField(tg, grid, mu),
                      SpaceTimeField(tg, grid, phi),
                      SpaceTimeField(tg, grid, sig))


def _base_coefficients(pot, hspec, base: Trajectory):
    """h, h', F1'', F2'' evaluated on every node of the base trajectory."""
    phib = base.phi.values
    h_all = hspec.h(phib)
    hp_all = hspec.hd(phib)
    f1dd_all, f2dd_all, _ = pot.split_eval(phib, 2)
    return h_all, hp_all, f1dd_all, f2dd_all


def solve_linearized(params: ModelParams, pot: PotentialSpec,
                     hspec: InterpolantSpec, base: Trajectory,
                     base_controls: ControlPair,
                     spec: LinearizedSpec) -> Trajectory:
    """Solve the switched linear system around a base trajectory.

    Each step differentiates the forward step: coefficients are frozen on
    the base trajectory at the node where the forward scheme evaluates them,
    the arrival node for F1'' and for sigma in the consumption term (the
    forward phi-step is implicit in F1', the sigma-step in its decay) and
    the departure node otherwise.  With lam1 = lam2 = 1 and lam3 = lam4 = 0
    the result is the exact discrete tangent of solve_state, so it pairs
    with solve_adjoint in the duality identity up to round-off.
    """
    grid, tg = base.grid, base.timegrid
    tau = tg.tau
    nt = tg.n_steps
    hh = _HelmholtzSolver(grid)
    pr = params

    def slice_or_zero(f, n):
        return 0.0 if f is None else f.values[n]

    def init_or_zero(f):
        return np.zeros(grid.n_cells) if f is None else f.values.copy()

    for f in (spec.k1, spec.k2, spec.f1, spec.f2, spec.f3):
        if f is not None and (f.grid != grid or f.on_nodes):
            raise ShapeMismatch("directions/sources must be interval fields "
                                "on the base grid")

    h_all, hp_all, f1dd_all, f2dd_all = _base_coefficients(pot, hspec, base)
    sigb = base.sigma.values
    u1b = base_controls.u1.values

    mu = np.empty((nt + 1, grid.n_cells))
    phi = np.empty_like(mu)
    sig = np.empty_like(mu)
    lam4 = float(spec.lam4)
    mu[0] = lam4 * init_or_zero(spec.mu0)
    phi[0] = lam4 * init_or_zero(spec.phi0)
    sig[0] = lam4 * init_or_zero(spec.sigma0)

    l1, l2, l3 = (float(spec.lam1), float(spec.lam2), float(spec.lam3))
    for n in range(nt):
        # phi-step
        b_phi = ((pr.beta / tau) * phi[n] + mu[n]
                 + l1 * (pr.chi * sig[n] - f2dd_all[n] * phi[n])
                 + l3 * slice_or_zero(spec.f2, n))
        phi[n + 1] = hh.solve(pr.beta / tau + l1 * f1dd_all[n + 1], b_phi,
                              x0=phi[n])
        # mu-step
        b_mu = ((pr.alpha / tau) * mu[n]
                + l1 * (pr.p_rate * sig[n] * h_all[n]
                        + (pr.p_rate * sigb[n] - pr.a_rate - u1b[n])
                        * hp_all[n] * phi[n])
                - l2 * slice_or_zero(spec.k1, n) * h_all[n]
                + l3 * slice_or_zero(spec.f1, n)
                - (phi[n + 1] - phi[n]) / tau)
        mu[n + 1] = hh.solve(pr.alpha / tau, b_mu, x0=mu[n])
        # sigma-step
        b_sig = (sig[n] / tau - pr.chi * hh.lap(phi[n + 1])
                 - l1 * pr.e_rate * sigb[n + 1] * hp_all[n] * phi[n]
                 + l2 * slice_or_zero(spec.k2, n)
                 + l3 * slice_or_zero(spec.f3, n))
        coeff = 1.0 / tau + l1 * (pr.b_rate + pr.e_rate * h_all[n])
        sig[n + 1] = hh.solve(coeff, b_sig, x0=sig[n])

    return Trajectory(SpaceTimeField(tg, grid, mu),
                      SpaceTimeField(tg, grid, phi),
                      SpaceTimeField(tg, grid, sig))


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
    terminal value.
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
    psi2_prev = hh.solve(pr.beta / tau + f1dd_all[nt], b_eff, x0=psi2[nt])

    for m in range(nt - 1, -1, -1):
        w_track = 0.5 if m == 0 else 1.0
        # psi1-step
        b1 = (pr.alpha / tau) * psi1[m + 1] + psi2_prev
        psi1[m] = hh.solve(pr.alpha / tau, b1, x0=psi1[m + 1])
        # psi3-step (implicit decay one node below the arrival node,
        # matching the forward scheme's lagged consumption coefficient)
        b3 = ((1.0 / tau) * psi3[m + 1] + pr.p_rate * h_all[m] * psi1[m + 1]
              + pr.chi * psi2_prev)
        coeff3 = 1.0 / tau + pr.b_rate + pr.e_rate * h_all[max(m - 1, 0)]
        psi3[m] = hh.solve(coeff3, b3, x0=psi3[m + 1])
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
        psi2[m] = hh.solve(pr.beta / tau + f1dd_all[m], b2, x0=psi2_prev)
        psi2_prev = psi2[m]

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

    scale_mu = np.maximum(1e-300, pr.alpha * np.abs(tot(mu[1:]))
                          + np.abs(tot(phi[1:])) + tau * np.abs(tot(src_mu)))
    scale_sig = np.maximum(1e-300, np.abs(tot(sig[1:]))
                           + tau * np.abs(tot(src_sig)))
    scale_mu = np.maximum(scale_mu, 1.0)
    scale_sig = np.maximum(scale_sig, 1.0)
    return {
        "residual_mu": res_mu,
        "residual_sigma": res_sig,
        "relative_mu": np.abs(res_mu) / scale_mu,
        "relative_sigma": np.abs(res_sig) / scale_sig,
        "max_relative": float(max(np.max(np.abs(res_mu) / scale_mu),
                                  np.max(np.abs(res_sig) / scale_sig))),
    }


def separation_margins(traj: Trajectory, pot: PotentialSpec) -> dict:
    """Per-snapshot phi min/max and distance to the singular interval."""
    phi = traj.phi.values
    mins = phi.min(axis=1)
    maxs = phi.max(axis=1)
    out = {"phi_min": mins, "phi_max": maxs, "applicable": pot.is_singular}
    if pot.is_singular:
        out["margin_lower"] = mins - pot.r_minus
        out["margin_upper"] = pot.r_plus - maxs
        out["min_margin"] = float(min(np.min(out["margin_lower"]),
                                      np.min(out["margin_upper"])))
    return out
