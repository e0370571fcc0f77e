"""Test oracles that no CLI command runs.

brute_force_optimize is a lattice search for the reduced cost's minimum on
tiny instances.  It uses only the forward solver and the reduced cost, so it
shares no code with the proximal-gradient path it checks.
random_admissible_controls draws optimizer and gradient-check starts.
thomas_one_pass is the 1D Helmholtz solve as one forward sweep that makes
its pivots on the way, written apart from the solver: its row and column
sweeps must match it bit for bit.  fraction_to_boundary is the phi-Newton's
step rule with no full-step shortcut: the solver's rule must match it bit
for bit.
"""

import itertools
from collections.abc import Iterator

import numpy as np

from tumorctrl.model import CLAMP_MARGIN
from tumorctrl.optim import reduced_cost
from tumorctrl.presets import Problem
from tumorctrl.solver import (ControlPair, SeparationLoss, SolveFailure,
                              solve_states)
from tumorctrl.sparsity import SparsityMode

# brute_force_optimize: lattice points per axis, shrink-and-rescan rounds,
# sweeps per round, and the least cost decrease that moves the winner
LATTICE_POINTS = 11
LATTICE_ROUNDS = 2
LATTICE_MAX_SWEEPS = 40
LATTICE_IMPROVE_TOL = 1e-14


class DimensionTooLarge(ValueError):
    """Brute-force search refused: control dimension exceeds its budget."""


def brute_force_optimize(problem: Problem):
    """Lattice oracle for the problem's reduced cost on tiny instances.

    Cycles exhaustive scans over the nonsmooth-coupled blocks of the control
    (one time slice per control for time sparsity, one cell column for space
    sparsity), with LATTICE_POINTS lattice points per axis; after the
    sweeps stall, each axis range shrinks to the winning lattice cell and
    the scan repeats (LATTICE_ROUNDS times).  Uses only the state solve and
    reduced_cost, so it shares no code with the proximal-gradient path it
    serves as an oracle for.  A block's lattice is solved in batched state
    solves; the scan then visits its values in lattice order.

    Returns (best ControlPair, best cost).
    """
    tg, grid, bounds = problem.timegrid, problem.grid, problem.bounds
    nt, nc = tg.n_steps, grid.n_cells
    dim = 2 * nt * nc
    if nc > 3 or nt > 3 or dim > 18:
        raise DimensionTooLarge(
            f"{nc} cells x {nt} steps x 2 controls = {dim} > 18 dims")

    shape = (nt, nc)
    lo = [np.full(shape, bounds.lo1), np.full(shape, bounds.lo2)]
    hi = [np.full(shape, bounds.hi1), np.full(shape, bounds.hi2)]
    box_lo = [a.copy() for a in lo]
    box_hi = [a.copy() for a in hi]

    u = [np.zeros(shape), np.zeros(shape)]

    def block_costs(comp, sl, cands) -> Iterator[float]:
        def ctrls():
            for cand in cands:
                u[comp][sl] = cand
                yield ControlPair.from_arrays(tg, grid, *u)

        for c, traj in solve_states(problem.params, problem.pot,
                                    problem.hspec, ctrls(), problem.init):
            yield reduced_cost(problem, c, traj)

    best = reduced_cost(problem, ControlPair.from_arrays(tg, grid, *u))

    if problem.mode is SparsityMode.SPACE:
        blocks = [(c, np.s_[:, j]) for c in (0, 1) for j in range(nc)]
    else:
        blocks = [(c, np.s_[n, :]) for c in (0, 1) for n in range(nt)]

    for rnd in range(LATTICE_ROUNDS + 1):
        for _ in range(LATTICE_MAX_SWEEPS):
            improved = False
            for comp, sl in blocks:
                axes = [np.linspace(l, h, LATTICE_POINTS) for l, h in
                        zip(np.ravel(lo[comp][sl]), np.ravel(hi[comp][sl]))]
                current = u[comp][sl].copy()
                cands = list(itertools.product(*axes))
                for cand, val in zip(cands, block_costs(comp, sl, cands)):
                    if val < best - LATTICE_IMPROVE_TOL:
                        best = val
                        current = np.array(cand)
                        improved = True
                u[comp][sl] = current
            if not improved:
                break
        if rnd == LATTICE_ROUNDS:
            break
        # shrink every axis to the lattice cell around its winner
        for comp in (0, 1):
            step = (hi[comp] - lo[comp]) / (LATTICE_POINTS - 1)
            lo[comp] = np.maximum(u[comp] - step, box_lo[comp])
            hi[comp] = np.minimum(u[comp] + step, box_hi[comp])

    return ControlPair.from_arrays(tg, grid, *u), best


def random_admissible_controls(problem: Problem, seed: int,
                               scale: float = 0.5) -> ControlPair:
    """A random control strictly inside the box, for optimizer starts."""
    rng = np.random.default_rng(seed)
    shape = (problem.timegrid.n_steps, problem.grid.n_cells)
    b = problem.bounds
    u1 = rng.uniform(scale * np.broadcast_to(b.lo1, shape),
                     scale * np.broadcast_to(b.hi1, shape))
    u2 = rng.uniform(scale * np.broadcast_to(b.lo2, shape),
                     scale * np.broadcast_to(b.hi2, shape))
    return ControlPair.from_arrays(problem.timegrid, problem.grid, u1, u2)


def thomas_one_pass(hh, coeff, b: np.ndarray) -> np.ndarray:
    """(diag(coeff) - Lap) x = b on hh's 1D grid, row by row on Python
    floats: pivots m_i = d_i - e w_{i-1}, w_i = e / m_i and
    y_i = (r_i + e y_{i-1}) / m_i in one forward sweep, then
    x_i = y_i + w_i x_{i+1}.  coeff broadcasts against b; a pivot that
    rounds to 0 raises the solver's SolveFailure for its row and cell,
    with the diagonal d_i itself in its message."""
    e = float(hh.neg_lap_diag[0])
    diags = np.broadcast_to(coeff + hh.neg_lap_diag, b.shape)
    out = []
    for d, r in zip(np.atleast_2d(diags).tolist(), np.atleast_2d(b).tolist()):
        ys, ws = [], []
        y = w = 0.0
        for di, ri in zip(d, r):
            m = di - e * w
            if m == 0.0:
                raise SolveFailure(
                    f"1D Helmholtz solve: pivot of cell {len(ys)} vanished "
                    f"(diagonal {di:.3e}, off-diagonal {-e:.3e})")
            y = (ri + e * y) / m
            w = e / m
            ys.append(y)
            ws.append(w)
        x = 0.0
        for i in range(len(ys) - 1, -1, -1):
            x = ys[i] + ws[i] * x
            ys[i] = x
        out.append(ys)
    return np.array(out).reshape(b.shape)


def fraction_to_boundary(pot, p: np.ndarray, delta: np.ndarray, step: int):
    """The phi-Newton's step rule for a singular potential, one formula for
    every batch: (scale, scale * delta) with the column of row scales
    min(1, 0.9 min(room / |delta|)), where room is the distance from p to
    the evaluation-interval bound delta points at and np.fmin skips the
    infinite or NaN ratios where delta is 0.  A row with no room raises
    SeparationLoss(step, 0.0)."""
    lo, hi = pot.r_minus + CLAMP_MARGIN, pot.r_plus - CLAMP_MARGIN
    room = np.where(delta > 0.0, hi - p, p - lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        to_bound = room / np.abs(delta)
    scale = np.fmin(1.0, 0.9 * np.fmin.reduce(to_bound, axis=-1,
                                              keepdims=True))
    if np.count_nonzero(scale > 0.0) < scale.size:
        raise SeparationLoss(step, 0.0)
    return scale, scale * delta
