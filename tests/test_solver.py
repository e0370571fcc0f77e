import itertools
import sys
import warnings

import numpy as np
import pytest

from oracles import random_admissible_controls, thomas_one_pass
from tumorctrl.fields import (Field, SpaceTimeField, StateTriple, TimeGrid,
                              grid1d, grid2d, inner)
from tumorctrl.model import (ModelParams, logarithmic_potential,
                             regular_potential, smoothstep7)
from tumorctrl.presets import preset_names, preset_problem
from tumorctrl import solver
from tumorctrl.solver import (ControlPair, LinearizedSpec, LinearSolveError,
                              NewtonDivergence, SeparationLoss, ShapeMismatch,
                              SolveFailure, Targets, solve_adjoint, solve_linearized,
                              solve_state, solve_states, state_balance_report)

HS = smoothstep7()


def params(**kw):
    base = dict(alpha=1.0, beta=1.0, chi=0.3, p_rate=0.5, a_rate=0.1,
                b_rate=0.5, e_rate=0.5, sigma_s=0.6, nu=0.1, kappa=0.02,
                beta1=1.0, beta2=0.0)
    base.update(kw)
    return ModelParams(**base)


def uniform_init(grid, mu=0.0, phi=0.0, sigma=0.5):
    return StateTriple(Field.full(grid, mu), Field.full(grid, phi),
                       Field.full(grid, sigma))


def controls_from(tg, grid, u1=0.0, u2=0.0):
    shape = (tg.n_steps, grid.n_cells)
    return ControlPair(SpaceTimeField(tg, grid, np.full(shape, u1)),
                       SpaceTimeField(tg, grid, np.full(shape, u2)))


def fft_dct(x, shape):
    """Orthonormal DCT-II of flat cell vectors along each grid axis, from
    np.fft.fft of the mirrored 2n-point extension [v, v reversed], whose
    k-th term is 2 exp(i pi k / 2n) sum_j v_j cos(pi k (2j + 1) / 2n)."""
    y = x.reshape(x.shape[:-1] + shape)
    for axis in range(-len(shape), 0):
        y = np.moveaxis(y, axis, -1)
        n = y.shape[-1]
        k = np.arange(n)
        v = np.fft.fft(np.concatenate([y, y[..., ::-1]], axis=-1))[..., :n]
        scale = np.where(k == 0, np.sqrt(0.25 / n), np.sqrt(0.5 / n))
        y = np.moveaxis(scale * (np.exp(-0.5j * np.pi * k / n) * v).real,
                        -1, axis)
    return y.reshape(x.shape)


def dense_neg_lap(hh, n_cells):
    return -np.column_stack([hh.lap(e) for e in np.eye(n_cells)])


class TestHelmholtzSolver:
    @pytest.mark.parametrize("grid", [
        grid1d(1), grid1d(2), grid1d(3), grid1d(63), grid1d(64),
        grid2d(5, 8, 1.0, 2.0), grid2d(12, 1), grid2d(96, 40, 1.0, 2.0)],
        ids=str)
    def test_dct_matches_dense_basis(self, grid, rng):
        if grid.dim == 1:  # 1D solves take no DCT: check it on the n x 1 grid
            grid = grid2d(grid.n[0], 1, grid.length[0])
        hh = solver._HelmholtzSolver(grid)
        x = rng.standard_normal((3, grid.n_cells))
        y = fft_dct(x, grid.n)
        assert np.max(np.abs(hh.dct(x) - y)) <= 1e-13
        # orthonormal: the inverse is the transpose
        assert np.max(np.abs(hh.idct(y) - x)) <= 1e-13
        # the basis diagonalizes the stencil with the stored eigenvalues
        scale = max(1.0, float(np.max(hh.eig)))
        lam_y = fft_dct(-hh.lap(x), grid.n)
        assert np.max(np.abs(lam_y - hh.eig * y)) <= 1e-13 * scale

    @pytest.mark.parametrize("grid", [
        grid1d(64), grid2d(24, 16), grid2d(96, 96)], ids=str)
    def test_constant_coefficient_solves_exactly(self, grid, rng):
        hh = solver._HelmholtzSolver(grid)
        # the 96^2 case draws from a generator of its own, so that the later
        # tests' draws from the shared one do not depend on it
        gen = rng if grid.n_cells < 96 ** 2 else np.random.default_rng(96)
        b = gen.standard_normal(grid.n_cells)
        x = hh.solve(3.0, b)
        assert hh.iterations == 0
        resid = b - (3.0 * x - hh.lap(x))
        assert np.linalg.norm(resid) <= 1e-13 * np.linalg.norm(b)

    @pytest.mark.parametrize("n", [12, 24, 48, 96])
    def test_variable_coefficient_meets_the_stencil_residual(self, n):
        # CG runs in the DCT basis, where -Lap is diag(eig); the solution
        # must satisfy the stencil system to round-off on every ladder grid
        grid = grid2d(n, n)
        gen = np.random.default_rng(n)
        coeff = 10.0 ** gen.uniform(0.0, 3.0, grid.n_cells)
        b = gen.standard_normal(grid.n_cells)
        hh = solver._HelmholtzSolver(grid)
        x = hh.solve(coeff, b)
        assert hh.iterations > 0
        resid = b - (coeff * x - hh.lap(x))
        assert np.linalg.norm(resid) <= 1e-11 * np.linalg.norm(b)

    @pytest.mark.parametrize("preset,n", [
        ("1D-logarithmic-default", (2048,)),
        ("2D-regular-default", (96, 96))])
    def test_iterations_per_solve_do_not_grow(self, preset, n, monkeypatch):
        solves = []
        solve = solver._HelmholtzSolver.solve

        def counted(hh, *args, **kwargs):
            solves.append(1)
            return solve(hh, *args, **kwargs)

        monkeypatch.setattr(solver._HelmholtzSolver, "solve", counted)
        prob = preset_problem(preset, n=n, n_steps=2)
        stats = {}
        solve_state(prob.params, prob.pot, prob.hspec, prob.u0, prob.init,
                    stats=stats)
        assert stats["cg_iterations"] / len(solves) <= 8

    @pytest.mark.parametrize("grid", [
        grid1d(16), grid2d(6, 5), grid2d(48, 40)], ids=str)
    def test_batch_rows_equal_their_own_solves(self, grid, rng):
        # rows: variable coefficient, b = 0 (x = 0), constant coefficient;
        # then one scalar coefficient for every row.  Each row takes its own
        # iterations and gets its bits
        n = grid.n_cells
        variable = np.stack([1.0 + rng.random(n), np.full(n, 2.0),
                             np.full(n, 3.0)])
        for coeff in (variable, 3.0):
            b = rng.standard_normal((3, n))
            b[1] = 0.0
            batch = solver._HelmholtzSolver(grid)
            x = batch.solve(coeff, b)
            iterations = 0
            for row in range(3):
                hh = solver._HelmholtzSolver(grid)
                c = coeff[row] if np.ndim(coeff) else coeff
                assert x[row].tobytes() == hh.solve(c, b[row]).tobytes()
                iterations += hh.iterations
            assert np.all(x[1] == 0.0)
            assert batch.iterations == iterations
        if grid.dim > 1:
            return
        # 1D batches just below, at and above THOMAS_COLUMN_ROWS, where the
        # sweep turns from rows to numpy columns, on 1 to 64 cells; they
        # draw from generators of their own, so that the later tests' draws
        # from the shared one do not depend on them
        for n in (1, 2, 16, 64):
            hh = solver._HelmholtzSolver(grid1d(n))
            gen = np.random.default_rng(n)
            for rows in (solver.THOMAS_COLUMN_ROWS + d for d in (-1, 0, 1)):
                b = gen.standard_normal((rows, n))
                b[1] = 0.0
                b[2] = -0.0
                b[3, ::2] = -0.0
                for coeff in (10.0 ** gen.uniform(-3.0, 3.0, (rows, n)),
                              3.0):
                    x = hh.solve(coeff, b)
                    assert x.flags.c_contiguous
                    for row in range(rows):
                        c = coeff[row] if np.ndim(coeff) else coeff
                        assert x[row].tobytes() == \
                            hh.solve(c, b[row]).tobytes()

    def test_stiff_newton_jacobian_needs_many_iterations(self, monkeypatch):
        # a large initial mu pushes phi towards the log potential's wall:
        # F1'' then spans orders of magnitude, the mean-coefficient
        # preconditioner is poor and a 2D Jacobian solve takes over 100
        # iterations, so the iteration cap must stay well above that
        worst = []
        solve = solver._HelmholtzSolver.solve

        def counted(hh, *args, **kwargs):
            before = hh.iterations
            x = solve(hh, *args, **kwargs)
            worst.append(hh.iterations - before)
            return x

        monkeypatch.setattr(solver._HelmholtzSolver, "solve", counted)
        prob = preset_problem("2D-regular-default", potential="logarithmic",
                              init_mu="constant 20", n_steps=4)
        traj = solve_state(prob.params, prob.pot, prob.hspec, prob.u0,
                           prob.init)
        assert max(worst) > 100
        rep = state_balance_report(traj, prob.params, prob.u0, prob.hspec)
        assert rep["max_relative"] <= 1e-10

    def test_stiff_newton_jacobian_solves_directly_in_1d(self):
        # the 1D solve is direct, so the stiff Jacobian has no iteration cap
        # to hit: a moderate mu keeps the balances, and a huge one ends in
        # a truthful SeparationLoss, not in a linear-solver error
        prob = preset_problem("1D-logarithmic-default", init_mu="constant 20",
                              n_steps=4)
        traj = solve_state(prob.params, prob.pot, prob.hspec, prob.u0,
                           prob.init)
        rep = state_balance_report(traj, prob.params, prob.u0, prob.hspec)
        assert rep["max_relative"] <= 1e-10
        prob = preset_problem("1D-logarithmic-default",
                              init_mu="constant 200", n_steps=4)
        with pytest.raises(SeparationLoss) as exc:
            solve_state(prob.params, prob.pot, prob.hspec, prob.u0, prob.init)
        assert exc.value.step == 0
        assert exc.value.margin <= solver.MIN_MARGIN

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 2048])
    def test_1d_solve_matches_dense(self, n, rng):
        # the 2048-cell coefficient spans 1 to 1e8, so the bound is within a
        # few ulps of what both solvers reach: it draws from a generator of
        # its own, so that the earlier tests' draws cannot move its data
        if n == 2048:
            rng = np.random.default_rng(2048)
        grid = grid1d(n)
        hh = solver._HelmholtzSolver(grid)
        neg_lap = dense_neg_lap(hh, n)
        for coeff in (3.0, 1.0 + rng.random(n),
                      10.0 ** rng.uniform(0.0, 8.0, n)):
            b = rng.standard_normal(n)
            x = hh.solve(coeff, b)
            exact = np.linalg.solve(neg_lap + np.diag(np.broadcast_to(
                coeff, (n,))), b)
            assert (np.linalg.norm(x - exact)
                    <= 1e-14 * np.linalg.norm(exact))
            assert np.all(hh.solve(coeff, np.zeros(n)) == 0.0)
        assert hh.iterations == 0

    def test_linear_solve_error_names_iterations_and_residual(self, rng):
        grid = grid2d(8, 8)
        hh = solver._HelmholtzSolver(grid)
        hh.maxiter = 1
        coeff = np.linspace(1.0, 1e4, grid.n_cells)
        with pytest.raises(LinearSolveError) as exc:
            hh.solve(coeff, rng.standard_normal(grid.n_cells))
        assert exc.value.iterations == 1
        assert exc.value.residual > solver.CG_RTOL
        assert exc.value.member is None
        assert str(exc.value) == (
            "conjugate gradient did not reach tolerance after 1 iterations: "
            f"relative residual {exc.value.residual:.3e}")
        # a batch raises the failure of its first row that misses the
        # tolerance, as that row's own solve does; the constant-coefficient
        # row converges in its one iteration
        coeff = np.stack([np.full(grid.n_cells, 3.0), coeff, coeff[::-1]])
        b = rng.standard_normal((2, grid.n_cells))
        b = np.vstack([b, b[:1]])
        with pytest.raises(LinearSolveError) as alone:
            hh.solve(coeff[1], b[1])
        with pytest.raises(LinearSolveError) as exc:
            hh.solve(coeff, b)
        assert vars(exc.value) == vars(alone.value)
        assert str(exc.value) == str(alone.value)

    def test_vanished_1d_pivot_is_a_solve_failure(self):
        # c = 1e-300 is below round-off next to 1/h^2 = 256, so the sweep
        # meets the singular -Lap and its last pivot rounds to 0
        hh = solver._HelmholtzSolver(grid1d(16))
        with pytest.raises(SolveFailure) as exc:
            hh.solve(1e-300, np.ones(16))
        assert exc.value.member is None
        assert str(exc.value) == (
            "1D Helmholtz solve: pivot of cell 15 vanished (diagonal "
            "2.560e+02, off-diagonal -2.560e+02)")
        # a batch raises its first failing row's own failure, by the row
        # sweep and by the column sweep of a larger batch, which warns of
        # nothing, whether it makes its pivots or was factored before.
        # Row 2's pivot vanishes at cell 15; the later row 3's at cell 5
        # (c = -1/h^2 there, 0 before it), so the row named is the first in
        # order, not the first to fail
        zero_at_5 = np.zeros(16)
        zero_at_5[5] = -256.0
        with pytest.raises(SolveFailure, match="pivot of cell 5 vanished"):
            hh.solve(zero_at_5, np.ones(16))
        for rows in (4, solver.THOMAS_COLUMN_ROWS + 1):
            coeff = np.full((rows, 16), 3.0)
            coeff[2], coeff[3:] = 1e-300, zero_at_5
            for piv in (coeff, hh.factor(coeff)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(SolveFailure) as batch:
                        hh.solve(piv, np.ones((rows, 16)))
                assert type(batch.value) is SolveFailure
                assert str(batch.value) == str(exc.value)

    # norms of mu, phi, sigma at T and of psi2 at t = 0, recorded with the
    # Jacobi-preconditioned solver this one replaced
    @pytest.mark.parametrize("preset,norms", [
        ("1D-logarithmic-default", (0.39556625438349646, 0.4523674399523599,
                                    3.718385484449971, 0.4908854041312158)),
        ("2D-regular-default", (0.28650803330192853, 0.3779914223932654,
                                5.712969141470001, 0.4547953019819085)),
        ("stationary-trivial", (0.0, 2.8284271247461903, 0.0, 0.0)),
        ("stress-separation", (71.52618613628684, 5.656853772442588,
                               5.656854249492381, 1.1924386152589852)),
        ("time-sparsity-demo", (0.07762858209959293, 0.22409599735741823,
                                1.8223133268929728, 0.1646705515888937)),
    ])
    def test_golden_final_norms(self, preset, norms):
        prob = preset_problem(preset)
        traj = solve_state(prob.params, prob.pot, prob.hspec, prob.u0,
                           prob.init)
        adj = solve_adjoint(prob.params, prob.pot, prob.hspec, traj, prob.u0,
                            prob.targets)
        got = [np.linalg.norm(v) for v in (
            traj.mu.values[-1], traj.phi.values[-1], traj.sigma.values[-1],
            adj.psi2.values[0])]
        assert got == pytest.approx(norms, rel=1e-10, abs=0.0)


class TestFactoredSweeps:
    """The 1D solve on reused pivots against the one-pass sweep."""

    SHAPES = [(), (1,), (7,), (solver.THOMAS_COLUMN_ROWS,)]

    @staticmethod
    def rhs(gen, rows, n):
        b = gen.standard_normal(rows + (n,))
        if rows and rows[0] > 3:
            b[1] = 0.0
            b[2] = -0.0
            b[3, ::2] = -0.0
        return b

    @pytest.mark.parametrize("n", [1, 2, 16, 64])
    def test_bitwise_equal_to_the_one_pass_sweep(self, n):
        # a length of 1.3 keeps 1/h^2 off the powers of 2, where e / m and
        # e * (1 / m) would agree
        gen = np.random.default_rng(n)
        for rows in self.SHAPES:
            # a scalar coefficient, factored on the solve, and its factor
            # made once and solved with again, as the time loops do
            hh = solver._HelmholtzSolver(grid1d(n, 1.3))
            c = 10.0 ** gen.uniform(-3.0, 3.0)
            f = hh.factor(c)
            for piv in (c, f, f):
                b = self.rhs(gen, rows, n)
                x = hh.solve(piv, b)
                assert x.shape == b.shape and x.flags.c_contiguous
                assert x.tobytes() == thomas_one_pass(hh, c, b).tobytes()
            # per-step rows, factored at once as the tangent and the
            # adjoint do, each solved on its own row of pivots, and all
            # rows at once (as columns, however few)
            for steps in (5, solver.THOMAS_COLUMN_ROWS):
                coeff = 10.0 ** gen.uniform(-3.0, 3.0, (steps, n))
                f = hh.factor(coeff)
                for step in (0, 1, steps - 1):
                    b = self.rhs(gen, rows, n)
                    assert hh.solve(f[step], b).tobytes() == \
                        thomas_one_pass(hh, coeff[step], b).tobytes()
                b = self.rhs(gen, (steps,), n)
                assert hh.solve(f, b).tobytes() == \
                    thomas_one_pass(hh, coeff, b).tobytes()
        # a 2D grid's DCT and CG solves take the coefficient itself
        hh = solver._HelmholtzSolver(grid2d(4, 3))
        for c in (3.0, coeff[:, :12]):
            assert hh.factor(c) is c

    def test_each_solve_factors_its_coefficients_once(self, monkeypatch):
        # per call: the state alpha/tau, the tangent and the adjoint also
        # every step's phi/psi2 and sigma/psi3 rows; an unbatched Newton
        # Jacobian and sigma-step make their pivots on the way
        prob = preset_problem("time-sparsity-demo")
        nt, cells = prob.timegrid.n_steps, prob.grid.n_cells
        of, shapes = solver._Factor.of, []

        def counted(cls, e, diag):
            shapes.append(diag.shape)
            return of(e, diag)

        monkeypatch.setattr(solver._Factor, "of", classmethod(counted))
        args = prob.params, prob.pot, prob.hspec
        traj = solve_state(*args, prob.u0, prob.init)
        assert shapes == [(cells,)]
        shapes.clear()
        solve_linearized(*args, traj, prob.u0, LinearizedSpec(k1=prob.u0.u1))
        assert shapes == [(cells,), (nt, cells), (nt, cells)]
        shapes.clear()
        solve_adjoint(*args, traj, prob.u0, prob.targets)
        assert shapes == [(cells,), (nt + 1, cells), (nt, cells)]

    def test_vanished_pivot_raises_at_the_same_solve(self):
        # c = 1e-300 vanishes the last pivot of 16 cells; c = -1/h^2 at
        # cell 5 (0 before it) vanishes cell 5's
        hh = solver._HelmholtzSolver(grid1d(16))
        zero_at_5 = np.zeros(16)
        zero_at_5[5] = -256.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for steps in (4, solver.THOMAS_COLUMN_ROWS):
                coeff = np.full((steps, 16), 3.0)
                coeff[2], coeff[3] = 1e-300, zero_at_5
                f = hh.factor(coeff)  # the factor itself never raises
                for rows, step in itertools.product(self.SHAPES, range(4)):
                    b = np.ones(rows + (16,))
                    try:
                        expected = thomas_one_pass(hh, coeff[step], b)
                    except SolveFailure as exc:
                        expected = exc
                    for piv in (f[step], hh.factor(coeff[step])):
                        if isinstance(expected, np.ndarray):
                            assert hh.solve(piv, b).tobytes() == \
                                expected.tobytes()
                            continue
                        with pytest.raises(SolveFailure) as got:
                            hh.solve(piv, b)
                        assert type(got.value) is SolveFailure
                        assert str(got.value) == str(expected)
            for rows in self.SHAPES:
                b = np.ones(rows + (16,))
                # a scalar, factored on the solve and before it
                for piv in (1e-300, hh.factor(1e-300)):
                    with pytest.raises(SolveFailure) as got:
                        hh.solve(piv, b)
                    assert str(got.value) == (
                        "1D Helmholtz solve: pivot of cell 15 vanished "
                        "(diagonal 2.560e+02, off-diagonal -2.560e+02)")


class TestPhiNewtonStep:
    @pytest.mark.parametrize("pot,rhs_scale", [
        (regular_potential(), 200.0), (logarithmic_potential(), 12.0)],
        ids=["regular", "logarithmic"])
    def test_batch_rows_equal_their_own_solves(self, pot, rhs_scale):
        # a large right-hand side needs line-search halvings, a small one
        # none, so rows halve, and converge, at different iterations
        grid = grid1d(16)
        x = grid.cell_centers()[0]
        phi_n = np.stack([0.1 * np.cos(np.pi * x), np.zeros(16),
                          0.5 * np.sin(np.pi * x)])
        rhs = np.stack([rhs_scale * (1.0 + 0.25 * np.cos(np.pi * x)),
                        0.01 * x, np.full(16, -0.75 * rhs_scale)])
        batch = solver._phi_newton_step(pot, solver._HelmholtzSolver(grid),
                                        1.0, phi_n, rhs, phi_n, 0)
        for row in range(3):
            alone = solver._phi_newton_step(
                pot, solver._HelmholtzSolver(grid), 1.0, phi_n[row],
                rhs[row], phi_n[row], 0)
            assert np.array_equal(batch[row], alone)

    @pytest.mark.parametrize("preset", ["1D-logarithmic-default",
                                        "time-sparsity-demo"])
    def test_extrapolated_start_takes_one_solve_per_step(self, preset,
                                                         monkeypatch):
        # started from phi^n, Newton took two Jacobian solves per step; the
        # batch is u0 and u0 +- 0.01 d, as the verify checks' difference
        # ladders solve it (a control drawn at random in every step takes
        # 1.6 solves per step on time-sparsity-demo: phi is then not smooth
        # in time)
        rows = []
        solve = solver._HelmholtzSolver.solve

        def counted(hh, coeff, b):
            if sys._getframe(1).f_code is solver._phi_newton_step.__code__:
                rows.append(len(b) if b.ndim == 2 else 1)
            return solve(hh, coeff, b)

        monkeypatch.setattr(solver._HelmholtzSolver, "solve", counted)
        prob = preset_problem(preset)
        steps = prob.timegrid.n_steps
        solve_state(prob.params, prob.pot, prob.hspec, prob.u0, prob.init)
        assert sum(rows) <= 1.1 * steps
        rows.clear()
        d = random_admissible_controls(prob, 0, scale=1.0)

        def along(eps):  # u0 + eps d
            return ControlPair(*(
                SpaceTimeField(prob.timegrid, prob.grid,
                               u.values + eps * k.values)
                for u, k in ((prob.u0.u1, d.u1), (prob.u0.u2, d.u2))))

        ctrls = [along(eps) for eps in (0.0, 0.01, -0.01)]
        list(solve_states(prob.params, prob.pot, prob.hspec, ctrls,
                          prob.init))
        assert sum(rows) <= 1.1 * steps * len(ctrls)

    def test_start_outside_the_singular_interval_falls_back(self):
        # phi climbs by 0.3 per step in the middle cells, towards the log
        # potential's walls at -1 and 1: there the quadratic extrapolation
        # 4 x 0.3 leaves the interval, and those cells start from phi^n
        pot = logarithmic_potential()
        grid = grid1d(16)
        x = grid.cell_centers()[0]
        wall = np.abs(x - 0.5) < 0.2
        slope = np.where(wall, 0.3 * np.sign(x - 0.5),
                         0.05 * np.cos(np.pi * x))
        phi = np.stack([k * slope for k in (1.0, 2.0, 3.0)])
        start = solver._newton_start(pot, phi, 2)
        assert np.array_equal(start[wall], phi[2][wall])
        assert np.allclose(start[~wall], 4.0 * slope[~wall], rtol=1e-15)
        hh = solver._HelmholtzSolver(grid)
        rhs = pot.f1[1](phi[2])
        p = solver._phi_newton_step(pot, hh, 10.0, phi[2], rhs, start, 2)
        g = 10.0 * (p - phi[2]) - hh.lap(p) + pot.f1[1](p) - rhs
        assert np.abs(g).max() <= solver.NEWTON_TOL * np.abs(rhs).max()
        assert np.abs(p).max() < 1.0


class TestStateSolver:
    def test_stationary_solution_exact(self):
        # A = 0, sigma_s = 0, u = 0, (mu, phi, sigma) = (0, 1, 0): every
        # residual of the scheme vanishes identically
        pr = params(a_rate=0.0, sigma_s=0.0)
        grid = grid1d(8)
        tg = TimeGrid(0.1, 8)
        ctrl = controls_from(tg, grid)
        traj = solve_state(pr, regular_potential(), HS, ctrl,
                           uniform_init(grid, 0.0, 1.0, 0.0))
        assert np.all(traj.phi.values == 1.0)
        assert np.all(traj.mu.values == 0.0)
        assert np.all(traj.sigma.values == 0.0)
        rep = state_balance_report(traj, pr, ctrl, HS)
        assert rep["max_relative"] == 0.0

    def test_uniform_data_matches_ode_reference(self):
        # spatially homogeneous: the PDE collapses to three coupled ODEs,
        # integrated here by a fine RK4 as the independent oracle
        pr = params()
        pot = regular_potential()
        T = 0.3
        u1c, u2c = -0.2, 0.3

        def rhs(y):
            mu, phi, sig = y
            h = float(HS.h(np.asarray(phi)))
            fd = float(pot.f1[1](np.asarray(phi)) + pot.f2[1](np.asarray(phi)))
            dphi = (mu + pr.chi * sig - fd) / pr.beta
            dmu = ((pr.p_rate * sig - pr.a_rate - u1c) * h - dphi) / pr.alpha
            dsig = (pr.b_rate * (pr.sigma_s - sig) - pr.e_rate * sig * h + u2c)
            return np.array([dmu, dphi, dsig])

        y = np.array([0.0, 0.2, 0.5])
        n_ref = 30000
        dt = T / n_ref
        for _ in range(n_ref):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

        grid = grid1d(4)
        tg = TimeGrid(T, 300)  # tau = 1e-3
        traj = solve_state(pr, pot, HS, controls_from(tg, grid, u1c, u2c),
                           uniform_init(grid, 0.0, 0.2, 0.5))
        final = np.array([traj.mu.values[-1, 0], traj.phi.values[-1, 0],
                          traj.sigma.values[-1, 0]])
        rel = np.linalg.norm(final - y) / np.linalg.norm(y)
        assert rel <= 1e-3
        # spatially uniform data stays uniform
        assert np.max(np.abs(traj.phi.values - traj.phi.values[:, :1])) < 1e-12

    def test_mirror_symmetry(self, rng):
        # even data about x = L/2 gives snapshots symmetric under x -> L - x
        pr = params()
        grid = grid1d(20)
        tg = TimeGrid(0.2, 16)
        x = grid.cell_centers()[0]
        even = np.cos(2 * np.pi * (x - 0.5))
        init = StateTriple(Field(grid, 0.1 * even), Field(grid, 0.3 * even),
                           Field(grid, 0.5 + 0.1 * even))
        u = np.tile(0.2 * even, (tg.n_steps, 1))
        ctrl = ControlPair(SpaceTimeField(tg, grid, u),
                           SpaceTimeField(tg, grid, -0.5 * u))
        traj = solve_state(pr, regular_potential(), HS, ctrl, init)
        for comp in (traj.mu, traj.phi, traj.sigma):
            flipped = comp.values[:, ::-1]
            assert np.max(np.abs(comp.values - flipped)) <= 1e-10

    def test_balance_identities_random_controls(self, rng):
        pr = params()
        grid = grid1d(12)
        tg = TimeGrid(0.2, 10)
        shape = (tg.n_steps, grid.n_cells)
        ctrl = ControlPair(
            SpaceTimeField(tg, grid, rng.uniform(-0.5, 0.5, shape)),
            SpaceTimeField(tg, grid, rng.uniform(-0.5, 0.5, shape)))
        traj = solve_state(pr, logarithmic_potential(), HS, ctrl,
                           uniform_init(grid, 0.0, 0.1, 0.5))
        rep = state_balance_report(traj, pr, ctrl, HS)
        assert rep["max_relative"] <= 1e-10

    def test_sigma_mean_growth(self):
        # B = E = chi = 0 and u2 = c: the integrated sigma equation gives
        # <sigma> growing by exactly tau * c per step
        pr = params(b_rate=0.0, e_rate=0.0, chi=0.0)
        grid = grid1d(6)
        tg = TimeGrid(0.2, 8)
        c = 0.7
        traj = solve_state(pr, regular_potential(), HS,
                           controls_from(tg, grid, 0.0, c),
                           uniform_init(grid, 0.0, 0.1, 0.2))
        means = traj.sigma.values.mean(axis=1)
        growth = np.diff(means)
        assert np.max(np.abs(growth - tg.tau * c)) <= 1e-12

    def test_separation_loss_is_loud(self):
        prob = preset_problem("stress-separation", u0_1="constant -40")
        with pytest.raises(SeparationLoss) as exc:
            solve_state(prob.params, prob.pot, prob.hspec, prob.u0, prob.init)
        assert exc.value.step >= 0
        assert exc.value.margin < 1e-6
        assert exc.value.member is None

    def test_separation_loss_names_member(self):
        # one control driven out of the interval among healthy ones: the
        # batch fails as that control does alone, and names it
        prob = preset_problem("stress-separation")
        bad = preset_problem("stress-separation", u0_1="constant -40").u0
        assert_batch_fails_as(prob, [prob.u0, prob.u0, bad, prob.u0], 2,
                              SeparationLoss)

    def test_first_failing_control_is_named(self):
        # -34 loses separation at step 92 and -40 at step 82: the batch
        # stops at step 82, in member 2, yet member 1 is the one named
        prob = preset_problem("stress-separation")
        late, early = (preset_problem("stress-separation",
                                      u0_1=f"constant {v}").u0
                       for v in (-34, -40))
        err = assert_batch_fails_as(prob, [prob.u0, late, early], 1,
                                    SeparationLoss)
        assert err.step == 92

    def test_newton_divergence_names_step_and_residual(self, monkeypatch):
        monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 1)
        prob = preset_problem("1D-logarithmic-default")
        with pytest.raises(NewtonDivergence) as exc:
            solve_state(prob.params, prob.pot, prob.hspec, prob.u0, prob.init)
        assert exc.value.step == 0
        assert exc.value.residual > solver.NEWTON_TOL
        assert f"|G| = {exc.value.residual:.3e}" in str(exc.value)
        assert exc.value.member is None
        assert_batch_fails_as(prob, [prob.u0, prob.u0], 0, NewtonDivergence)

    @pytest.mark.parametrize("preset,setting,message", [
        ("stress-separation", {"a_rate": 1.7e308}, "0: mu"),
        ("1D-logarithmic-default", {"sigma_s": 1.7e308}, "0: sigma")],
        ids=["a_rate", "sigma_s"])
    def test_overflow_names_step_and_field(self, preset, setting, message):
        # a huge rate overflows the first step's mu (or sigma) source: the
        # march ends in one SolveFailure, and a batch names its member
        prob = preset_problem(preset, **setting)
        with np.errstate(all="ignore"):
            with pytest.raises(SolveFailure) as exc:
                solve_state(prob.params, prob.pot, prob.hspec, prob.u0,
                            prob.init)
            assert type(exc.value) is SolveFailure
            assert str(exc.value) == (
                f"state solve overflows at time step {message} is not finite")
            assert_batch_fails_as(prob, [prob.u0, prob.u0], 0, SolveFailure)

    @pytest.mark.parametrize("size", [3, solver.THOMAS_COLUMN_ROWS + 1])
    def test_vanished_pivot_in_a_batch(self, size):
        # alpha/tau h^2 below round-off: the 1D solve meets -Lap, by rows in
        # the smaller batch and by columns in the larger
        prob = preset_problem("time-sparsity-demo", t_final=1e17)
        ctrls = [prob.u0] + [random_admissible_controls(prob, seed)
                             for seed in range(size - 1)]
        err = assert_batch_fails_as(prob, ctrls, 0, SolveFailure)
        assert "pivot of cell 15 vanished" in str(err)

    def test_linear_solve_error_in_a_2d_batch(self, monkeypatch):
        init = solver._HelmholtzSolver.__init__

        def capped(hh, grid):
            init(hh, grid)
            hh.maxiter = 3  # step 0's first Jacobian solve takes 4

        monkeypatch.setattr(solver._HelmholtzSolver, "__init__", capped)
        prob = preset_problem("2D-regular-default")
        ctrls = [prob.u0] + [random_admissible_controls(prob, seed)
                             for seed in range(2)]
        err = assert_batch_fails_as(prob, ctrls, 0, LinearSolveError)
        assert err.iterations == 3

    @pytest.mark.parametrize("potential", ["logarithmic", "regular"])
    @pytest.mark.parametrize("preset,n", [
        ("1D-logarithmic-default", (1024,)),
        ("1D-logarithmic-default", (2048,)),
        ("2D-regular-default", (48, 48)),
        ("2D-regular-default", (96, 96))])
    def test_resolution_ladder(self, preset, n, potential):
        # the Newton stopping test must stay attainable on fine grids, where
        # the stencil's 4/h^2 diagonal dominates the rounding of the residual
        prob = preset_problem(preset, n=n, n_steps=2, potential=potential)
        traj = solve_state(prob.params, prob.pot, prob.hspec, prob.u0,
                           prob.init)
        rep = state_balance_report(traj, prob.params, prob.u0, prob.hspec)
        assert rep["max_relative"] <= 1e-12

    def test_grid_mismatch_rejected(self):
        pr = params()
        tg = TimeGrid(0.1, 2)
        ctrl = controls_from(tg, grid1d(4))
        with pytest.raises(ShapeMismatch):
            solve_state(pr, regular_potential(), HS, ctrl,
                        uniform_init(grid1d(5)))
        with pytest.raises(ShapeMismatch):
            list(solve_states(pr, regular_potential(), HS,
                              [controls_from(tg, grid1d(5)), ctrl],
                              uniform_init(grid1d(5))))
        with pytest.raises(ShapeMismatch):
            list(solve_states(pr, regular_potential(), HS,
                              [controls_from(tg, grid1d(5)),
                               controls_from(TimeGrid(0.1, 3), grid1d(5))],
                              uniform_init(grid1d(5))))


BATCH_CASES = [(name, {}) for name in preset_names()] + [
    ("2D-regular-default", {"n": (24, 24)})]


@pytest.fixture(scope="module", params=BATCH_CASES,
                ids=[f"{name}{kw.get('n', '')}" for name, kw in BATCH_CASES])
def solo_solves(request):
    # the nominal control and 13 random admissible ones, each solved alone
    name, kw = request.param
    prob = preset_problem(name, **kw)
    ctrls = [prob.u0] + [random_admissible_controls(prob, seed, scale=0.4)
                         for seed in range(13)]
    solos = [solve_state(prob.params, prob.pot, prob.hspec, c, prob.init)
             for c in ctrls]
    return prob, ctrls, solos


def assert_batch_fails_as(prob, ctrls, first, kind):
    """solve_states over ctrls raises, with no warning, the very failure of
    ctrls[first]'s own solve_state (type, message and attributes), with
    member first; the controls before it solve alone.  Returns it."""
    for c in ctrls[:first]:
        solve_state(prob.params, prob.pot, prob.hspec, c, prob.init)
    with pytest.raises(kind) as alone:
        solve_state(prob.params, prob.pot, prob.hspec, ctrls[first],
                    prob.init)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(kind) as batch:
            list(solve_states(prob.params, prob.pot, prob.hspec, ctrls,
                              prob.init))
    assert type(batch.value) is type(alone.value)
    assert str(batch.value) == str(alone.value)
    assert alone.value.member is None
    assert vars(batch.value) == {**vars(alone.value), "member": first}
    return batch.value


def _same_trajectory(a, b):
    return all(np.array_equal(getattr(a, f).values, getattr(b, f).values)
               for f in ("mu", "phi", "sigma"))


class TestBatchedStates:
    @pytest.mark.parametrize("size", [1, 3, 14])
    def test_members_equal_their_own_solves(self, solo_solves, size):
        prob, ctrls, solos = solo_solves
        pairs = list(solve_states(prob.params, prob.pot, prob.hspec,
                                  ctrls[:size], prob.init))
        assert len(pairs) == size
        assert all(_same_trajectory(t, solo)
                   for (_, t), solo in zip(pairs, solos))

    def test_lists_over_the_byte_budget_run_in_chunks(self, solo_solves,
                                                      monkeypatch):
        prob, ctrls, solos = solo_solves
        member = 24 * (prob.timegrid.n_steps + 1) * prob.grid.n_cells
        monkeypatch.setattr(solver, "BATCH_BYTES", 4 * member)
        calls, taken = [], []
        march = solver._march

        def counted(*args, **kwargs):
            calls.append(1)
            return march(*args, **kwargs)

        def lazy():
            for c in ctrls:
                taken.append(c)
                yield c

        monkeypatch.setattr(solver, "_march", counted)
        pairs = solve_states(prob.params, prob.pot, prob.hspec, lazy(),
                             prob.init)
        first = next(pairs)
        # a chunk's controls are taken, and solved, as its first is asked for
        assert (len(taken), len(calls)) == (4, 1)
        pairs = [first] + list(pairs)
        assert len(calls) == 4  # 14 members in chunks of 4
        assert len(pairs) == 14
        assert all(_same_trajectory(t, solo)
                   for (_, t), solo in zip(pairs, solos))

    def test_yields_each_control_given(self, monkeypatch):
        # the very objects, in order, across chunk boundaries (chunks of 2)
        prob = preset_problem("time-sparsity-demo")
        member = 24 * (prob.timegrid.n_steps + 1) * prob.grid.n_cells
        monkeypatch.setattr(solver, "BATCH_BYTES", 2 * member)
        ctrls = [prob.u0] + [random_admissible_controls(prob, seed)
                             for seed in range(4)]
        got = [c for c, _ in solve_states(prob.params, prob.pot, prob.hspec,
                                          iter(ctrls), prob.init)]
        assert len(got) == len(ctrls)
        assert all(a is b for a, b in zip(got, ctrls))

    def test_empty_list(self):
        prob = preset_problem("time-sparsity-demo")
        assert list(solve_states(prob.params, prob.pot, prob.hspec, [],
                                 prob.init)) == []

    # norms of mu, phi, sigma and of the adjoint's psi1, psi2, psi3 over all
    # nodes, recorded before batching, the 1D adjoint's norms with the
    # direct 1D solve, and the 2D-regular-default and stress-separation rows
    # with the phi-step Newton started from the extrapolated trajectory; the
    # bound leaves room for another CPU's rounding of exp, log and the CG's
    # dot products, not for a change of the scheme
    @pytest.mark.parametrize("preset,state,adjoint", [
        ("1D-logarithmic-default",
         (4.988727181945142, 10.177261314915397, 43.83920297021787),
         (0.4833669585711293, 3.965535164011666, 0.15161498343708074)),
        ("2D-regular-default",
         (3.2418693088171215, 5.6133787001418, 33.64938924239),
         (0.19636164965244765, 1.9494218305946232, 0.05964457080690964)),
        ("stationary-trivial",
         (0.0, 8.48528137423857, 0.0), (0.0, 0.0, 0.0)),
        ("stress-separation",
         (372.0864494305147, 42.58429451458922, 55.713553108736484),
         (0.5753675153095117, 4.6905879257096466, 0.5300953617447698)),
        ("time-sparsity-demo",
         (0.2624462691257015, 0.8094792169508229, 12.221337130626152),
         (0.04124776387819313, 0.3749011640135377, 0.008919566632027484)),
    ])
    def test_unbatched_solves_keep_their_values(self, preset, state,
                                                adjoint):
        prob = preset_problem(preset)
        traj = solve_state(prob.params, prob.pot, prob.hspec, prob.u0,
                           prob.init)
        adj = solve_adjoint(prob.params, prob.pot, prob.hspec, traj, prob.u0,
                            prob.targets)
        got = [np.linalg.norm(f.values) for f in (
            traj.mu, traj.phi, traj.sigma, adj.psi1, adj.psi2, adj.psi3)]
        assert got == pytest.approx(state + adjoint, rel=1e-12, abs=0.0)


class TestLinearizedSolver:
    def setup_method(self):
        self.pr = params()
        self.pot = logarithmic_potential()
        self.grid = grid1d(16)
        self.tg = TimeGrid(0.2, 16)
        x = self.grid.cell_centers()[0]
        self.init = StateTriple(Field.full(self.grid, 0.0),
                                Field(self.grid, 0.25 * np.cos(np.pi * x)),
                                Field.full(self.grid, 0.5))
        self.ctrl = controls_from(self.tg, self.grid, 0.1, -0.1)
        self.base = solve_state(self.pr, self.pot, HS, self.ctrl, self.init)

    def test_all_flags_zero_gives_zero(self):
        spec = LinearizedSpec(reaction=False)
        lin = solve_linearized(self.pr, self.pot, HS, self.base, self.ctrl,
                               spec)
        for comp in (lin.mu, lin.phi, lin.sigma):
            assert np.all(comp.values == 0.0)

    def test_superposition(self, rng):
        shape = (self.tg.n_steps, self.grid.n_cells)

        def dirspec(k1, k2, f2):
            return LinearizedSpec(
                k1=SpaceTimeField(self.tg, self.grid, k1),
                k2=SpaceTimeField(self.tg, self.grid, k2),
                f2=SpaceTimeField(self.tg, self.grid, f2))

        a = [rng.standard_normal(shape) for _ in range(3)]
        b = [rng.standard_normal(shape) for _ in range(3)]
        la = solve_linearized(self.pr, self.pot, HS, self.base, self.ctrl,
                              dirspec(*a))
        lb = solve_linearized(self.pr, self.pot, HS, self.base, self.ctrl,
                              dirspec(*b))
        lc = solve_linearized(
            self.pr, self.pot, HS, self.base, self.ctrl,
            dirspec(*(2.0 * x + 3.0 * y for x, y in zip(a, b))))
        for name in ("mu", "phi", "sigma"):
            combo = 2.0 * getattr(la, name).values + 3.0 * getattr(lb, name).values
            got = getattr(lc, name).values
            scale = max(1.0, np.max(np.abs(combo)))
            assert np.max(np.abs(got - combo)) <= 1e-10 * scale

    def test_directional_derivative_quadratic_in_eps(self):
        # strong smooth directions on a fine time grid: the curvature term
        # then dominates the linearization floor over the tested eps range
        # (white noise gets smoothed away by the PDE and shows no window)
        pr = params(chi=0.5, p_rate=1.0)
        grid = grid1d(16)
        tg = TimeGrid(0.4, 256)
        x = grid.cell_centers()[0]
        init = StateTriple(Field.full(grid, 0.0),
                           Field(grid, 0.3 * np.cos(np.pi * x)),
                           Field.full(grid, 0.6))
        ctrl = controls_from(tg, grid, 0.1, -0.1)
        base = solve_state(pr, self.pot, HS, ctrl, init)
        k1 = np.tile(4.0 * (1.0 + 0.5 * np.cos(np.pi * x)), (tg.n_steps, 1))
        k2 = np.full((tg.n_steps, grid.n_cells), -3.0)
        spec = LinearizedSpec(k1=SpaceTimeField(tg, grid, k1),
                              k2=SpaceTimeField(tg, grid, k2))
        lin = solve_linearized(pr, self.pot, HS, base, ctrl, spec)
        errs = []
        for eps in (0.4, 0.2, 0.1):
            shifted = []
            for sgn in (1.0, -1.0):
                c = ControlPair.from_arrays(
                    tg, grid, ctrl.u1.values + sgn * eps * k1,
                    ctrl.u2.values + sgn * eps * k2)
                shifted.append(solve_state(pr, self.pot, HS, c, init))
            fd = (shifted[0].phi.values - shifted[1].phi.values) / (2 * eps)
            errs.append(np.max(np.abs(fd - lin.phi.values)))
        assert errs[0] > errs[2]
        rate = np.log(errs[0] / errs[2]) / np.log(4.0)
        assert rate > 1.5

    def test_manufactured_solution_orders(self):
        pr = params(chi=0.4)
        pot = regular_potential()
        T, L = 0.3, 1.0
        a2 = (np.pi / L) ** 2

        def mms_error(n, nt):
            grid = grid1d(n, L)
            tg = TimeGrid(T, nt)
            x = grid.cell_centers()[0]
            c = np.cos(np.pi * x / L)
            tm = tg.slice_times()
            f1 = (pr.alpha + 1.0 + a2 * tm)[:, None] * c[None, :]
            f2 = (pr.beta + (a2 - 1.0) * tm)[:, None] * c[None, :]
            f3 = (1.0 + (1.0 - pr.chi) * a2 * tm)[:, None] * c[None, :]
            init = uniform_init(grid, 0.0, 0.0, 0.5)
            ctrl = controls_from(tg, grid)
            base = solve_state(pr, pot, HS, ctrl, init)
            spec = LinearizedSpec(reaction=False,
                                  f1=SpaceTimeField(tg, grid, f1),
                                  f2=SpaceTimeField(tg, grid, f2),
                                  f3=SpaceTimeField(tg, grid, f3))
            lin = solve_linearized(pr, pot, HS, base, ctrl, spec)
            exact = tg.node_times()[:, None] * c[None, :]
            num = den = 0.0
            for name in ("mu", "phi", "sigma"):
                comp = getattr(lin, name)
                w = comp.time_weights()
                num += np.dot(w, np.sum((comp.values - exact) ** 2, axis=1))
                den += np.dot(w, np.sum(exact ** 2, axis=1))
            return np.sqrt(num / den)

        tau_errs = [mms_error(128, nt) for nt in (8, 16, 32)]
        tau_orders = [np.log2(tau_errs[i] / tau_errs[i + 1]) for i in range(2)]
        assert min(tau_orders) >= 0.9
        # refine h with tau ~ h^2 so the spatial error dominates
        h_errs = [mms_error(n, nt) for n, nt in ((8, 8), (16, 32), (32, 128))]
        h_orders = [np.log2(h_errs[i] / h_errs[i + 1]) for i in range(2)]
        assert min(h_orders) >= 1.9


class TestAdjointSolver:
    def setup_method(self):
        self.pr = params(beta2=0.5)
        self.pot = logarithmic_potential()
        self.grid = grid1d(12)
        self.tg = TimeGrid(0.2, 12)
        x = self.grid.cell_centers()[0]
        self.init = StateTriple(Field.full(self.grid, 0.0),
                                Field(self.grid, 0.2 * np.cos(np.pi * x)),
                                Field.full(self.grid, 0.5))
        self.ctrl = controls_from(self.tg, self.grid, 0.1, -0.1)
        self.base = solve_state(self.pr, self.pot, HS, self.ctrl, self.init)
        self.targets = Targets(
            SpaceTimeField(self.tg, self.grid,
                           np.tile(-0.1 + 0.0 * x, (self.tg.n_steps + 1, 1))),
            Field.full(self.grid, 0.1))

    def test_zero_tracking_gives_zero_adjoint(self):
        pr = params(beta1=0.0, beta2=0.0)
        adj = solve_adjoint(pr, self.pot, HS, self.base, self.ctrl,
                            self.targets)
        for comp in (adj.psi1, adj.psi2, adj.psi3):
            assert np.all(comp.values == 0.0)

    def test_terminal_conditions_exact(self):
        adj = solve_adjoint(self.pr, self.pot, HS, self.base, self.ctrl,
                            self.targets)
        assert np.all(adj.psi1.values[-1] == 0.0)
        assert np.all(adj.psi3.values[-1] == 0.0)
        expected = (self.pr.beta2 / self.pr.beta) \
            * (self.base.phi.values[-1] - self.targets.phi_omega.values)
        assert np.array_equal(adj.psi2.values[-1], expected)

    def test_terminal_beta_one(self):
        pr = params(beta1=0.0, beta2=1.0)
        adj = solve_adjoint(pr, self.pot, HS, self.base, self.ctrl,
                            self.targets)
        expected = self.base.phi.values[-1] - self.targets.phi_omega.values
        assert np.array_equal(adj.psi2.values[-1], expected)

    def test_matched_targets_zero_adjoint(self):
        # targets equal to the realized trajectory with beta2 = 0: the
        # tracking source vanishes identically, so psi = 0
        pr = params(beta2=0.0)
        targets = Targets(self.base.phi, Field.full(self.grid, 0.0))
        adj = solve_adjoint(pr, self.pot, HS, self.base, self.ctrl, targets)
        for comp in (adj.psi1, adj.psi2, adj.psi3):
            assert np.max(np.abs(comp.values)) <= 1e-14

    def test_overflow_names_the_step(self):
        # beta1 = 1e308 overflows the backward recursion of
        # time-sparsity-demo: psi is not finite from node 22 of 40 down
        p = preset_problem("time-sparsity-demo", beta1=1e308)
        base = solve_state(p.params, p.pot, p.hspec, p.u0, p.init)
        with np.errstate(all="ignore"), pytest.raises(SolveFailure) as exc:
            solve_adjoint(p.params, p.pot, p.hspec, base, p.u0, p.targets)
        assert str(exc.value) == "adjoint solve overflows at time step 22"
