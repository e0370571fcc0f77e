"""Reduced objective, adjoint gradient, proximal-gradient optimization.

The reduced cost splits into a smooth part (tracking + nu/2 ||u||^2, whose
gradient comes from one forward and one adjoint solve) and the nonsmooth
part kappa*g + box indicator handled entirely by the prox.  The tracking
terms' time quadrature is written once, in tracking_term, which returns
their value and their gradient in phi: _cost adds the control terms to the
value, and gradient_bundle, the one call that solves an adjoint, hands the
gradient to the solver as the adjoint's source.  Stationarity is
measured by the variational-inequality residual
||u - P_box(-(d + kappa*lambda)/nu)||, which vanishes exactly at points
satisfying the first-order conditions.  The optimizer iterates the
prox-gradient map G(u) = prox(u - eta grad J1(u)), each step one state and
one adjoint solve, and accelerates it by safeguarded type-II Anderson
extrapolation (Walker & Ni, SIAM J. Numer. Anal. 49, 2011; Mai & Johansson,
ICML 2020): an extrapolated point is kept only if it passes the plain step's
sufficient-decrease test.

Every function here that solves takes the one presets.Problem it works on;
a run with other parts (a start, a kappa, no sparsity) is a
dataclasses.replace copy of it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .fields import SpaceTimeField, inner
from .model import BoxBounds
from .presets import Problem
from .solver import (AdjointTriple, ControlPair, SolveFailure, Trajectory,
                     adjoint_mismatch_fields, solve_adjoint, solve_state)
from .sparsity import (SparsityMode, eval_g, group_layout, mode_norms,
                       prox_pair, select_subgradient)

# a failed trial multiplies the step size by this factor
BACKTRACK = 0.5
# a step must decrease the cost by this share of ||G(u) - u||_Q^2 / eta
DECREASE = 1e-4
# backtracking gives up once the step size falls below this floor
ETA_MIN = 1e-14
# Anderson acceleration keeps this many difference pairs of the prox map
AA_MEMORY = 5
# a Gram column is dropped when its Cholesky pivot is below this share of its
# diagonal (its difference is within 1e-5 rad of the span of the others)
AA_DROP = 1e-10
# support_measure counts a group as nonzero when its mode norm exceeds this
SUPPORT_TOL = 1e-8


class StepsizeCollapse(SolveFailure):
    """Backtracking reduced the step size below its floor."""

    def __init__(self, iteration: int, eta: float):
        self.iteration = iteration
        self.eta = eta
        super().__init__(
            f"step size {eta:.3e} below floor at iteration {iteration}")


@dataclass(frozen=True)
class OptimizeResult:
    control: ControlPair
    trajectory: Trajectory
    # the control's adjoint mismatch d = (-psi1 h(phi), psi3) on the slices
    d: ControlPair
    cost_history: np.ndarray
    vi_history: np.ndarray
    eta_history: np.ndarray
    n_iters: int
    converged: bool
    # cumulative state solves when each VI residual was recorded
    state_solves: np.ndarray

    @property
    def cost(self) -> float:
        return float(self.cost_history[-1])

    @property
    def vi_residual(self) -> float:
        return float(self.vi_history[-1])


@dataclass(frozen=True)
class ThresholdReport:
    """Smallest kappa for which the zero control is VI-stationary."""

    kappa1: float
    kappa2: float

    @property
    def kappa0_estimate(self) -> float:
        return max(self.kappa1, self.kappa2)


def _solve(problem: Problem, u: ControlPair) -> Trajectory:
    return solve_state(problem.params, problem.pot, problem.hspec, u,
                       problem.init)


def tracking_term(problem: Problem,
                  traj: Trajectory) -> tuple[float, np.ndarray]:
    """The tracking terms along traj and their gradient in phi.

    The value is beta1/2 ||phi - phi_q||_Q^2 + beta2/2 ||phi(T) -
    phi_omega||^2, with trapezoidal time quadrature for the first term.  The
    gradient over tau * cell volume, one row per time node, is the adjoint's
    source: beta1 w_m (phi_m - phi_q,m) at node m, with trapezoidal weights
    w_m (1/2 at the end nodes, 1 inside), plus (beta2 / tau) (phi(T) -
    phi_omega) at the last node.
    """
    pr, targets, tau = problem.params, problem.targets, traj.timegrid.tau
    phi = traj.phi.values
    diff = phi - targets.phi_q.values
    dT = phi[-1] - targets.phi_omega.values
    vol = traj.grid.cell_volume
    q_term = 0.5 * pr.beta1 * vol * float(np.dot(traj.phi.time_weights(),
                                                  np.sum(diff ** 2, axis=1)))
    o_term = 0.5 * pr.beta2 * vol * float(np.sum(dT ** 2))
    w = np.ones(len(phi))
    w[0] = 0.5
    source = (pr.beta1 * w)[:, None] * diff
    source[-1] = (pr.beta2 / tau) * dT + 0.5 * pr.beta1 * diff[-1]
    return q_term + o_term, source


def _cost(problem: Problem, u: ControlPair, traj: Trajectory) -> float:
    pr = problem.params
    quad = 0.5 * pr.nu * (inner(u.u1, u.u1) + inner(u.u2, u.u2))
    return tracking_term(problem, traj)[0] \
        + (quad + pr.kappa * eval_g(problem.mode, u))


def reduced_cost(problem: Problem, u: ControlPair,
                 traj: Trajectory | None = None) -> float:
    """Cost of the control u through the state solve.

    beta1/2 ||phi_u - phi_q||_Q^2 + beta2/2 ||phi_u(T) - phi_omega||^2
    + nu/2 ||u||_Q^2 + kappa g(u), with trapezoidal time quadrature for the
    tracking term and interval quadrature for the control terms; g is the
    problem's sparsity mode.  traj is u's state trajectory if it is already
    solved.
    """
    return _cost(problem, u, _solve(problem, u) if traj is None else traj)


@dataclass(frozen=True)
class GradientBundle:
    """u's state trajectory and adjoint, the adjoint mismatch d = (d1, d2)
    and the smooth gradient (g1, g2) = d + nu u, on the control slices."""

    trajectory: Trajectory
    adjoint: AdjointTriple
    d1: np.ndarray
    d2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray


def gradient_bundle(problem: Problem, u: ControlPair,
                    traj: Trajectory | None = None) -> GradientBundle:
    """Gradient of the smooth reduced cost at u, (-psi1 h(phi) + nu u1,
    psi3 + nu u2), from one forward (unless traj, u's trajectory, is given)
    and one adjoint solve; the sparsity mode and kappa play no part.  The
    adjoint's source is tracking_term's gradient in phi.
    """
    if traj is None:
        traj = _solve(problem, u)
    pr = problem.params
    adj = solve_adjoint(pr, problem.pot, problem.hspec, traj, u,
                        tracking_term(problem, traj)[1])
    d1, d2 = adjoint_mismatch_fields(problem.hspec, traj, adj)
    return GradientBundle(traj, adj, d1, d2, d1 + pr.nu * u.u1.values,
                          d2 + pr.nu * u.u2.values)


def _q_norm(u: ControlPair, a1: np.ndarray, a2: np.ndarray) -> float:
    tau = u.timegrid.tau
    vol = u.grid.cell_volume
    return math.sqrt(tau * vol * (float(np.sum(a1 ** 2)) + float(np.sum(a2 ** 2))))


def _vi_residual_from(problem: Problem, u: ControlPair, d1: np.ndarray,
                      d2: np.ndarray) -> float:
    """||u - P_box(-(d + kappa lambda)/nu)||_Q, lambda the residual-minimizing
    subgradient selection: zero exactly where u is stationary."""
    pr, bounds = problem.params, problem.bounds
    lam1, lam2 = select_subgradient(problem.mode, u, (d1, d2), pr.kappa)
    t1 = np.clip(-(d1 + pr.kappa * lam1) / pr.nu, bounds.lo1, bounds.hi1)
    t2 = np.clip(-(d2 + pr.kappa * lam2) / pr.nu, bounds.lo2, bounds.hi2)
    return _q_norm(u, u.u1.values - t1, u.u2.values - t2)


def support_measure(mode: SparsityMode, u: ControlPair) -> tuple[float, float]:
    """Measure of the nonzero set of each control, in mode units.

    A group counts as nonzero when its mode norm exceeds SUPPORT_TOL; mode
    NONE measures the pointwise support.
    """
    if mode is SparsityMode.NONE:
        mode = SparsityMode.FULL_Q
    measure = group_layout(mode, u.u1)[2]
    return tuple(measure * float(np.count_nonzero(
        mode_norms(mode, c) > SUPPORT_TOL)) for c in (u.u1, u.u2))


def _gram_solve(gram: list, rhs: list) -> list:
    """Least-squares coefficients from a Gram system, on Python floats.

    Cholesky of the symmetric positive semidefinite gram; a column whose
    pivot falls below AA_DROP of its diagonal depends on the earlier ones and
    gets coefficient 0.  With at most AA_MEMORY columns this needs no
    LAPACK call, whose first use alone raises peak RSS by about 1 MB.
    """
    m = len(rhs)
    low = [[0.0] * m for _ in range(m)]
    for j in range(m):
        piv = gram[j][j] - sum(low[j][k] ** 2 for k in range(j))
        if piv > AA_DROP * gram[j][j]:
            low[j][j] = math.sqrt(piv)
            for i in range(j + 1, m):
                low[i][j] = (gram[i][j] - sum(low[i][k] * low[j][k]
                                              for k in range(j))) / low[j][j]
    # a dropped column has a zero column in low and keeps coefficient 0
    y = [0.0] * m
    for j in range(m):
        if low[j][j]:
            y[j] = (rhs[j] - sum(low[j][k] * y[k] for k in range(j))) \
                / low[j][j]
    x = [0.0] * m
    for j in reversed(range(m)):
        if low[j][j]:
            x[j] = (y[j] - sum(low[k][j] * x[k] for k in range(j + 1, m))) \
                / low[j][j]
    return x


def _anderson_point(hist, f: tuple, g: tuple, bounds: BoxBounds) -> tuple:
    """Type-II Anderson extrapolation g - sum_i gamma_i dG_i, clipped to the box.

    gamma minimizes ||f - sum_i gamma_i dF_i|| through the m x m Gram system
    of the stored differences, each a pair of per-component arrays.  An entry
    that the plain prox point g set exactly to 0 stays 0, so the
    extrapolation never revives a group that the prox zeroed.
    """
    def dot(a, b):
        return float(np.vdot(a[0], b[0]) + np.vdot(a[1], b[1]))

    gram = [[dot(hi, hj) for hj in hist] for hi in hist]
    gamma = _gram_solve(gram, [dot(hi, f) for hi in hist])
    out = []
    for c, lo, hi in ((0, bounds.lo1, bounds.hi1), (1, bounds.lo2, bounds.hi2)):
        a = g[c] - sum(gk * h[2 + c] for gk, h in zip(gamma, hist))
        a[g[c] == 0.0] = 0.0
        out.append(np.clip(a, lo, hi, out=a))
    return tuple(out)


def proximal_gradient_solve(problem: Problem) -> OptimizeResult:
    """Minimize the problem's reduced cost by accelerated proximal gradient.

    Starts from problem.u0, clipped to the box, and stops as the problem's
    max_iters and tol_vi say.  Iterates the map G(u) = prox(u - eta grad
    J1(u)), where the prox handles kappa*g + box jointly.  A step must
    decrease the full cost by at least (DECREASE/eta) ||G(u) - u||_Q^2, so
    the cost history is nonincreasing up to a rounding pad of 4 eps (1 +
    |cost|).  The first trial of a step is the type-II Anderson point built
    from G(u) and up to AA_MEMORY difference pairs of G at the same eta
    (_anderson_point); only if it fails the test is the plain point G(u)
    solved.  eta starts at 1/nu and is multiplied by BACKTRACK whenever the
    plain point fails the test too; it is never raised again (Beck &
    Teboulle, SIAM J. Imaging Sci. 2, 2009), so the Anderson history, which
    belongs to one eta, lasts from one backtrack to the next.  Stops at VI
    residual <= tol_vi or at max_iters; converged means the last VI residual
    is <= tol_vi.  state_solves counts the state solves made when each VI
    residual was recorded.  A prox step that overflows raises SolveFailure.
    """
    pr, bounds, u0 = problem.params, problem.bounds, problem.u0
    tg, grid = u0.timegrid, u0.grid
    n_solves = 0

    def evaluate(u):
        """u's state trajectory and full cost."""
        nonlocal n_solves
        n_solves += 1
        traj = _solve(problem, u)
        return traj, _cost(problem, u, traj)

    u = ControlPair.from_arrays(
        tg, grid, np.clip(u0.u1.values, bounds.lo1, bounds.hi1),
        np.clip(u0.u2.values, bounds.lo2, bounds.hi2))
    traj, cost = evaluate(u)
    bundle = gradient_bundle(problem, u, traj=traj)

    costs, vis, etas, solves = [cost], [], [], []
    eta = 1.0 / pr.nu
    # Anderson history: difference pairs (dF1, dF2, dG1, dG2) of the map G
    # at the current eta, and the residual and point (f1, f2, g1, g2) of the
    # last prox point at that eta
    hist: deque = deque(maxlen=AA_MEMORY)
    last = None
    # it counts accepted steps; every pass first records the VI residual
    for it in range(problem.max_iters + 1):
        vis.append(_vi_residual_from(problem, u, bundle.d1, bundle.d2))
        solves.append(n_solves)
        if vis[-1] <= problem.tol_vi or it == problem.max_iters:
            break
        while True:
            # eta = 1/nu with a tiny nu can overflow the step or the prox's
            # group norms, or be inf itself: inf * g raises no flag where g
            # has no 0 entry
            try:
                with np.errstate(over="raise", invalid="raise"):
                    if math.isinf(eta):
                        raise FloatingPointError("1/nu overflows")
                    v1 = SpaceTimeField(tg, grid,
                                        u.u1.values - eta * bundle.g1)
                    v2 = SpaceTimeField(tg, grid,
                                        u.u2.values - eta * bundle.g2)
                    p1, p2 = prox_pair(problem.mode, v1, v2, eta, pr.kappa,
                                       bounds)
            except FloatingPointError as exc:
                raise SolveFailure(f"prox step overflows at iteration {it} "
                                   f"with eta {eta:.3e}") from exc
            f1, f2 = p1.values - u.u1.values, p2.values - u.u2.values
            # the epsilon pad keeps the test meaningful when the decrease
            # reaches rounding level near a stationary point
            noise = 4.0 * np.finfo(float).eps * (1.0 + abs(cost))
            target = cost - (DECREASE / eta) * _q_norm(u, f1, f2) ** 2 \
                + noise
            if last is not None:
                hist.append((f1 - last[0], f2 - last[1],
                             p1.values - last[2], p2.values - last[3]))
            last = (f1, f2, p1.values, p2.values)
            if hist:
                a1, a2 = _anderson_point(hist, (f1, f2),
                                         (p1.values, p2.values), bounds)
                if not (np.array_equal(a1, p1.values)
                        and np.array_equal(a2, p2.values)):
                    u_trial = ControlPair.from_arrays(tg, grid, a1, a2)
                    traj_trial, cost_trial = evaluate(u_trial)
                    if cost_trial <= target:
                        break
            # the plain step, backtracking on the full nonsmooth cost
            u_trial = ControlPair(p1, p2)
            traj_trial, cost_trial = evaluate(u_trial)
            if cost_trial <= target:
                break
            eta *= BACKTRACK
            if eta < ETA_MIN:
                raise StepsizeCollapse(it, eta)
            hist.clear()
            last = None
        u, cost = u_trial, cost_trial
        bundle = gradient_bundle(problem, u, traj=traj_trial)
        costs.append(cost)
        etas.append(eta)

    return OptimizeResult(
        control=u, trajectory=bundle.trajectory,
        d=ControlPair.from_arrays(tg, grid, bundle.d1, bundle.d2),
        cost_history=np.asarray(costs), vi_history=np.asarray(vis),
        eta_history=np.asarray(etas), n_iters=it,
        converged=vis[-1] <= problem.tol_vi, state_solves=np.asarray(solves))


def zero_control_threshold(problem: Problem) -> ThresholdReport:
    """Mode-norm suprema of d at the zero control, in the problem's mode.

    The returned kappa0 estimate is the smallest sparsity weight for which
    u = 0 satisfies the variational inequality: for kappa above it the
    optimizer returns the zero control.  A norm that overflows raises
    SolveFailure naming its control.
    """
    mode = problem.mode
    if mode is SparsityMode.NONE:
        raise ValueError("threshold needs a sparsity mode other than 'none'")
    tg, grid = problem.timegrid, problem.grid
    b = gradient_bundle(problem, ControlPair.zeros(tg, grid))
    kappas = [float(np.max(mode_norms(mode, SpaceTimeField(tg, grid, d))))
              for d in (b.d1, b.d2)]
    for name, k in zip(("u1", "u2"), kappas):
        if not math.isfinite(k):
            raise SolveFailure(f"zero-control threshold of {name} overflows: "
                               f"its largest {mode.value} mode norm is {k:g}")
    return ThresholdReport(*kappas)


def kappa_sweep(problem: Problem, kappas) -> list:
    """Optimize for each kappa (ascending) and record support statistics.

    Each run is the problem with only kappa changed; kappa = 0 runs it with
    mode none instead (the unregularized box-constrained problem).  Support
    is measured in the problem's mode.  Support monotonicity in kappa is
    reported, never asserted.
    """
    ks = [float(k) for k in kappas]
    if any(b < a for a, b in zip(ks, ks[1:])):
        raise ValueError("kappa list must be ascending")
    rows = []
    for k in ks:
        if k == 0.0:
            run = replace(problem, mode=SparsityMode.NONE)
        else:
            run = replace(problem, params=replace(problem.params, kappa=k))
        res = proximal_gradient_solve(run)
        s1, s2 = support_measure(problem.mode, res.control)
        rows.append({
            "kappa": k,
            "cost": res.cost,
            "vi_residual": res.vi_residual,
            "support1": s1,
            "support2": s2,
            "control_norm": _q_norm(res.control, res.control.u1.values,
                                    res.control.u2.values),
            "iterations": res.n_iters,
            "converged": res.converged,
        })
    return rows
