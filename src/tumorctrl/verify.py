"""Independent verification oracles.

Every oracle here avoids the code path it checks: finite differences use
only the forward solver and the reduced cost, and the duality gap pairs the
linearized and adjoint solvers against each other.  The independent forward
solves of a finite-difference ladder run as batched solve_states calls,
which hand back each control with its trajectory.  The linearized and
adjoint solvers are the exact discrete tangent and adjoint of the forward
scheme, so each check passes on one absolute bound, a module constant, at
every refinement level.  Reports carry measured values, tolerances and
refinement tables; an error that is NaN fails its check.

verify_checks, the verify command's four checks, is the one entry point.
Their solves on the problem's own grid are shared: the nominal control, the
gradient check's ladders and the linearized check's first level march as
one batch, and the nominal trajectory and adjoint serve all four.  A solver
failure names the check, level and eps where it arose (none for u0 itself
on the problem's own grid).

With more than one refinement level, the linearized check's finest level,
the largest job and one whose row nothing else needs, runs in a forked
child (forking._forked, which runner's field writer shares) while the
caller runs the rest; its bits are the serial code's.  A child that hands
back no result has its level run again in-process, so the caller raises
every failure, in the serial order.  Nothing is forked where os.fork is
missing or fails, where another thread runs, or where this process may run
on one CPU only.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .fields import SpaceTimeField, Trajectory, prolong, write_csv
from .forking import _forked
from .optim import reduced_cost, smooth_gradient
from .presets import Problem
from .solver import (ControlPair, LinearizedSpec, SolveFailure,
                     adjoint_mismatch_fields, solve_adjoint, solve_linearized,
                     solve_state, solve_states)
from .sparsity import SparsityMode

# random directions of fd_gradient_check, and levels of the linearized and
# duality checks' refinement tables (level 0 is the problem's own grid,
# level l refines it by 2 ** l)
FD_DIRECTIONS = 3
REFINEMENT_LEVELS = 3
# finite-difference steps of fd_gradient_check and linearized_fd_refinement
FD_EPS_LADDER = tuple(10.0 ** (-k) for k in range(1, 8))
LINEARIZED_EPS_LADDER = (1e-2, 1e-3, 1e-4)
# cosine modes per axis, in space and in time, of a random direction
DIRECTION_MODES = 3
# best relative error of the adjoint directional derivative against central
# differences: over 440 verify runs of time-sparsity-demo the median is 5e-10
# and the worst 1.7e-6, for a direction almost orthogonal to the gradient
# (<grad, k> = 3.2e-8 against |grad| = 6.4e-4), which has no scale of its own
FD_GRADIENT_RTOL = 1e-4
# the least scale of that error, in units of nu |k|_Q = nu, the control
# term's curvature along the unit direction k: a derivative below it moves
# the stationary point along k by less than 1e-8.  At a stationary point
# (stationary-trivial) both sides fall to about 1e-19
FD_GRADIENT_FLOOR = 1e-8
# duality gap relative to the pairings' absolute termwise sums: the identity
# is exact up to round-off (level 0 on 400 seeds of time-sparsity-demo:
# at most 3.1e-16)
DUALITY_RTOL = 1e-10
# best linearized-vs-FD error: central differences at eps = 1e-4 leave a
# truncation error of up to about 1e-8
LINEARIZED_RTOL = 1e-6
# least margin of phi to a singular potential's interval bounds
SEPARATION_FLOOR = 1e-6


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check.

    metrics rows are (name, value, tolerance, passed); tolerance None marks
    informational values.  refinement rows are (level, h, tau, error).
    passed has no default: every report states its own outcome.
    """

    name: str
    metrics: tuple
    refinement: tuple = ()
    passed: bool = field(kw_only=True)

    def metric(self, key: str) -> float:
        for k, v, _, _ in self.metrics:
            if k == key:
                return v
        raise KeyError(key)


def write_check_csv(report: CheckReport, path) -> None:
    rows = [("metric", k, float(v), None if tol is None else float(tol),
             None if ok is None else bool(ok)) + (None,) * 4
            for k, v, tol, ok in report.metrics]
    rows += [("refinement",) + (None,) * 4
             + (lev, float(h), float(tau), float(err))
             for lev, h, tau, err in report.refinement]
    rows.append(("metric", "passed", int(report.passed)) + (None,) * 6)
    write_csv(path, ("row_type", "name", "value", "tolerance", "passed",
                     "level", "h", "tau", "error"), list(zip(*rows)))


def _unit_direction(problem: Problem, rng) -> tuple[np.ndarray, np.ndarray]:
    """Random smooth direction: low-order cosine modes in space and time.

    Smooth directions keep the directional derivative on the scale of the
    gradient norm (white noise in thousands of dimensions is almost
    orthogonal to the smooth gradient field, which would inflate relative
    errors), and they expose the eps^2 regime of the central difference.
    """
    tg, grid = problem.timegrid, problem.grid
    t_mid = tg.slice_times() / tg.t_final
    coords = grid.cell_centers()
    space_modes = []
    for p in range(DIRECTION_MODES):
        mode = np.ones(grid.n_cells)
        for x, L in zip(coords, grid.length):
            mode = mode * np.cos(p * np.pi * x / L)
        space_modes.append(mode)
    time_modes = [np.cos(q * np.pi * t_mid) for q in range(DIRECTION_MODES)]

    def draw():
        k = np.zeros((tg.n_steps, grid.n_cells))
        for tm in time_modes:
            for sm in space_modes:
                k += rng.uniform(-1.0, 1.0) * tm[:, None] * sm[None, :]
        return k

    k1, k2 = draw(), draw()
    nrm = math.sqrt(tg.tau * grid.cell_volume
                    * (np.sum(k1 ** 2) + np.sum(k2 ** 2)))
    return k1 / nrm, k2 / nrm


def _fd_ladder(problem: Problem, u: ControlPair, k1: np.ndarray,
               k2: np.ndarray, eps_ladder) -> Iterator[ControlPair]:
    """u + eps k and u - eps k for every eps of the ladder, in that order."""
    tg, grid = problem.timegrid, problem.grid
    for eps in eps_ladder:
        yield ControlPair.from_arrays(tg, grid, u.u1.values + eps * k1,
                                      u.u2.values + eps * k2)
        yield ControlPair.from_arrays(tg, grid, u.u1.values - eps * k1,
                                      u.u2.values - eps * k2)


def _draw(problem: Problem, check: int,
          n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """n random unit directions from the check's own stream: seed + 1 for
    fd_gradient_check, + 2 for linearized_fd_refinement, + 3 for
    duality_gap."""
    rng = np.random.default_rng(problem.seed + check)
    return [_unit_direction(problem, rng) for _ in range(n)]


def _prefix(member: int | None, n_fd: int, level: int) -> str:
    """Where _nominal_batch's control member lies, as a message prefix ("" for
    u on the problem's own grid); n_fd counts fd_gradient_check's points."""
    if member and member <= n_fd:
        eps = FD_EPS_LADDER[(member - 1) // 2 % len(FD_EPS_LADDER)]
        return f"fd_gradient_check, eps {eps:g}: "
    lin = f"linearized_fd_refinement level {level}"
    if member:
        eps = LINEARIZED_EPS_LADDER[(member - n_fd - 1) // 2]
        return f"{lin}, eps {eps:g}: "
    return f"{lin}: " if level else ""


def _nominal_batch(problem: Problem, fd_directions, lin_direction,
                   level=0) -> tuple[Trajectory, list, list]:
    """u0's trajectory, fd's smooth costs and the linearized check's errors
    at level (0: the problem's own grid), from one solve_states batch.

    The smooth cost, the FD oracle's objective, is the reduced cost with
    mode none (no sparsity term).  The batch marches u0, then the
    FD_EPS_LADDER points of fd_gradient_check along each of fd_directions,
    then the LINEARIZED_EPS_LADDER points of linearized_fd_refinement along
    lin_direction.  The points are built lazily and each trajectory is
    reduced as it arrives.
    """
    u, smooth = problem.u0, replace(problem, mode=SparsityMode.NONE)
    fd_points = (c for k1, k2 in fd_directions
                 for c in _fd_ladder(problem, u, k1, k2, FD_EPS_LADDER))
    lin_points = _fd_ladder(problem, u, *lin_direction, LINEARIZED_EPS_LADDER)
    pairs = solve_states(problem.params, problem.pot, problem.hspec,
                         itertools.chain([u], fd_points, lin_points),
                         problem.init)
    n_fd = 2 * len(FD_EPS_LADDER) * len(fd_directions)
    try:
        _, base = next(pairs)
        costs = [reduced_cost(smooth, c, traj)
                 for c, traj in itertools.islice(pairs, n_fd)]
        errs = _linearized_vs_fd_error(problem, base, *lin_direction, pairs)
    except SolveFailure as exc:
        exc.args = (_prefix(exc.member, n_fd, level) + str(exc),)
        raise
    return base, costs, errs


def _fd_report(problem: Problem, base: Trajectory, adjoint, directions,
               costs) -> CheckReport:
    """fd_gradient_check's report from u0's trajectory base and adjoint and
    the smooth costs of its ladder points.

    For each random unit direction k, compares <grad J1(u0), k> with
    (J1(u0 + eps k) - J1(u0 - eps k)) / (2 eps) over the eps ladder and
    records the best relative error, relative to the larger side but at
    least to FD_GRADIENT_FLOOR nu.  The adjoint gradient is the exact
    derivative of the discrete cost, so the best-over-ladder selection only
    steps past the central difference's eps^2 truncation and its round-off
    floor.  Passes iff every direction's best error is at most
    FD_GRADIENT_RTOL.
    """
    g1, g2 = smooth_gradient(problem, problem.u0, base, adjoint)
    tau, vol = problem.timegrid.tau, problem.grid.cell_volume
    tol = FD_GRADIENT_RTOL
    floor = FD_GRADIENT_FLOOR * problem.params.nu
    costs = iter(costs)
    metrics = []
    for j, (k1, k2) in enumerate(directions):
        adj = tau * vol * (float(np.sum(g1.values * k1))
                           + float(np.sum(g2.values * k2)))
        errs = []
        for eps in FD_EPS_LADDER:
            fd = (next(costs) - next(costs)) / (2.0 * eps)
            errs.append(abs(adj - fd) / max(abs(fd), abs(adj), floor))
        # np.min and np.max carry a NaN through wherever it lies, where
        # Python's min and max keep it only when it comes first
        best = float(np.min(errs))
        metrics.append((f"direction_{j}_best_rel_error", best, tol, best <= tol))
    worst = float(np.max([m[1] for m in metrics]))
    metrics.append(("max_best_rel_error", worst, tol, worst <= tol))
    return CheckReport("fd_gradient_check", tuple(metrics),
                       passed=worst <= tol)


def _linearized_vs_fd_error(problem: Problem, base: Trajectory,
                            k1: np.ndarray, k2: np.ndarray,
                            pairs) -> list[float]:
    """The error at each eps of LINEARIZED_EPS_LADDER around u0 (trajectory
    base), from the ladder's next (control, trajectory) pairs."""
    tg, grid = problem.timegrid, problem.grid
    spec = LinearizedSpec(k1=SpaceTimeField(tg, grid, k1),
                          k2=SpaceTimeField(tg, grid, k2))
    lin = solve_linearized(problem.params, problem.pot, problem.hspec, base,
                           problem.u0, spec)
    errs = []
    for eps, (_, up), (_, dn) in zip(LINEARIZED_EPS_LADDER, pairs, pairs):
        num = den = 0.0
        for comp in ("mu", "phi", "sigma"):
            fd = (getattr(up, comp).values - getattr(dn, comp).values) \
                / (2.0 * eps)
            dl = getattr(lin, comp).values - fd
            w = getattr(lin, comp).time_weights()
            num += float(np.dot(w, np.sum(dl ** 2, axis=1)))
            den += float(np.dot(w, np.sum(fd ** 2, axis=1)))
        errs.append(math.sqrt(num / max(den, 1e-300)))
    return errs


def _row(problem: Problem, level: int, err: float) -> tuple:
    """A refinement row (level, h, tau, err) on problem's grid."""
    return (level, max(problem.grid.spacing), problem.timegrid.tau, err)


def _linearized_rows(problem: Problem, k, levels) -> list[tuple]:
    """linearized_fd_refinement's rows along the coarse direction k on the
    refined levels (each >= 1), each with its best linearized-vs-FD error.

    Level l refines h and tau by 2 ** l.  u0 and k are prolonged as
    piecewise-constant functions, so every level differentiates at the same
    continuous control along the same continuous perturbation.
    """
    rows = []
    for lev in levels:
        scale = 2 ** lev
        prob = problem.with_resolution(scale, scale)
        k_lev = [prolong(a, problem.grid, scale, scale) for a in k]
        errs = _nominal_batch(prob, (), k_lev, lev)[2]
        rows.append(_row(prob, lev, float(np.min(errs))))
    return rows


def _linearized_report(rows) -> CheckReport:
    """linearized_fd_refinement's report from its refinement rows; passes
    iff the error is at most LINEARIZED_RTOL at every level."""
    worst = float(np.max([r[3] for r in rows]))
    ok = worst <= LINEARIZED_RTOL
    return CheckReport("linearized_fd_refinement",
                       (("max_rel_error", worst, LINEARIZED_RTOL, ok),),
                       tuple(rows), passed=ok)


def _duality_gap_at(problem: Problem, k1: np.ndarray, k2: np.ndarray,
                    base: Trajectory, adj) -> tuple[float, float]:
    """The gap between the two pairings along (k1, k2), and its scale: the
    sum of both pairings' absolute termwise products, which round-off in
    either pairing is relative to.  Unlike the pairings themselves it does
    not vanish for a direction almost orthogonal to the gradient."""
    pr = problem.params
    tg, grid = problem.timegrid, problem.grid
    spec = LinearizedSpec(k1=SpaceTimeField(tg, grid, k1),
                          k2=SpaceTimeField(tg, grid, k2))
    lin = solve_linearized(pr, problem.pot, problem.hspec, base, problem.u0,
                           spec)

    vol = grid.cell_volume
    w = base.phi.time_weights()
    terms_q = (base.phi.values - problem.targets.phi_q.values) \
        * lin.phi.values
    terms_t = (base.phi.values[-1] - problem.targets.phi_omega.values) \
        * lin.phi.values[-1]
    d1, d2 = adjoint_mismatch_fields(problem.hspec, base, adj)
    terms_1, terms_2 = d1 * k1, d2 * k2

    def pairings(f):
        lhs = pr.beta1 * vol * float(np.dot(w, np.sum(f(terms_q), axis=1))) \
            + pr.beta2 * vol * float(np.sum(f(terms_t)))
        rhs = tg.tau * vol * (float(np.sum(f(terms_1)))
                              + float(np.sum(f(terms_2))))
        return lhs, rhs

    lhs, rhs = pairings(lambda terms: terms)
    abs_lhs, abs_rhs = pairings(np.abs)
    return abs(lhs - rhs), max(abs_lhs + abs_rhs, 1e-300)


def _duality_report(problem: Problem, k, base: Trajectory, adj,
                    levels: int) -> CheckReport:
    """duality_gap's report along k, given the nominal control's trajectory
    base and adjoint adj on the problem's own grid (level 0).

    gap = |<beta1 (phi - phi_q), phi_lin>_Q + <beta2 (phi(T) - phi_omega),
    phi_lin(T)> - <d, k>_Q| at u0, with u0 and k prolonged in time on level
    tau / 2 ** level.  The refinement table holds the gap relative to the
    pairings' absolute termwise sums (_duality_gap_at); passes iff it is at
    most DUALITY_RTOL at every level.
    """
    rows, gaps = [], []
    for lev in range(levels):
        scale = 2 ** lev
        prob = problem.with_resolution(1, scale) if lev else problem
        k1, k2 = (prolong(a, problem.grid, 1, scale) for a in k)
        try:
            if lev:
                base = solve_state(prob.params, prob.pot, prob.hspec, prob.u0,
                                   prob.init)
                adj = solve_adjoint(prob.params, prob.pot, prob.hspec, base,
                                    prob.u0, prob.targets)
            gap, pairing = _duality_gap_at(prob, k1, k2, base, adj)
        except SolveFailure as exc:
            exc.args = (f"duality_gap level {lev}: {exc}",)
            raise
        gaps.append(gap)
        rows.append(_row(prob, lev, gap / pairing))
    worst = float(np.max([r[3] for r in rows]))
    ok = worst <= DUALITY_RTOL
    metrics = (("base_gap", gaps[0], None, None),
               ("max_relative_gap", worst, DUALITY_RTOL, ok))
    return CheckReport("duality_gap", metrics, tuple(rows), passed=ok)


def verify_checks(problem: Problem) -> tuple[CheckReport, ...]:
    """The verify command's four checks at the nominal control u0:
    fd_gradient_check along FD_DIRECTIONS random directions,
    linearized_fd_refinement and duality_gap on REFINEMENT_LEVELS levels,
    and separation_monitor on u0's trajectory.

    Check another point on replace(problem, u0=u): the refined levels run
    at u, prolonged (Problem.with_resolution, which refuses a copy with
    other init or targets).  Each check draws its directions from its own
    stream of problem.seed (see _draw).  Every forward solve the first two
    need on the problem's own grid marches in one solve_states batch with
    u0, and u0's trajectory and adjoint serve all four checks.

    The linearized check's finest level, which refines h and tau by
    2 ** (REFINEMENT_LEVELS - 1), is the largest job, and no other needs
    its row.  So with more than one level it runs in a forked child (see
    _forked) while this process runs the rest: the nominal batch, the
    adjoint, the gradient report, the lower linearized levels, every
    duality level and the separation monitor.  The reports are bit for bit
    those of the serial code.  A failed child's level runs again here, and
    failures keep the serial order (level 0, the linearized levels, the
    duality levels): when a later check fails, the finest linearized level
    is collected first and its own failure, if any, is raised.  Nothing is
    forked where os.fork is missing or fails, where another thread runs or
    where this process may run on one CPU only, and no child outlives the
    call.
    """
    fd_dirs = _draw(problem, 1, FD_DIRECTIONS)
    lin_k, dual_k = _draw(problem, 2, 1)[0], _draw(problem, 3, 1)[0]
    levels = range(1, REFINEMENT_LEVELS)
    with _forked(bool(levels), _linearized_rows, problem, lin_k,
                 levels[-1:]) as finest:
        base, costs, errs = _nominal_batch(problem, fd_dirs, lin_k)
        adj = solve_adjoint(problem.params, problem.pot, problem.hspec, base,
                            problem.u0, problem.targets)
        fd = _fd_report(problem, base, adj, fd_dirs, costs)
        rows = [_row(problem, 0, float(np.min(errs)))]
        rows += _linearized_rows(problem, lin_k, levels[:-1])
        try:
            dual = _duality_report(problem, dual_k, base, adj,
                                   REFINEMENT_LEVELS)
            sep = separation_monitor(base, problem.pot)
        except Exception:
            finest()  # a failure on the finest level comes first
            raise
        rows += finest()
    return fd, _linearized_report(rows), dual, sep


def separation_monitor(traj, pot) -> CheckReport:
    """Per-snapshot phi range and margins to the singular interval.

    Passes iff both margins stay above SEPARATION_FLOOR at every snapshot; on
    failure the first offending step is named.  Reports "not applicable"
    for potentials on the whole real line.
    """
    if not pot.is_singular:
        metrics = (("applicable", 0.0, None, None),)
        return CheckReport("separation_monitor", metrics, passed=True)
    phi = traj.phi.values
    margins = pot.margin(phi)
    min_margin = float(np.min(margins))
    bad = np.nonzero(margins <= SEPARATION_FLOOR)[0]
    first_bad = int(bad[0]) if bad.size else -1
    ok = bad.size == 0
    metrics = (("applicable", 1.0, None, None),
               ("min_margin", min_margin, SEPARATION_FLOOR,
                min_margin > SEPARATION_FLOOR),
               ("first_offending_step", float(first_bad), None, None),
               ("phi_min", float(np.min(phi)), None, None),
               ("phi_max", float(np.max(phi)), None, None))
    return CheckReport("separation_monitor", metrics, passed=bool(ok))
