
import dataclasses

import numpy as np
import pytest

from oracles import random_admissible_controls
from tumorctrl.fields import SpaceTimeField, TimeGrid, grid1d
from tumorctrl import optim
from tumorctrl.optim import (StepsizeCollapse, gradient_bundle, kappa_sweep,
                             proximal_gradient_solve, reduced_cost,
                             support_measure, zero_control_threshold)
from tumorctrl.presets import make_problem, preset_names, preset_problem
from tumorctrl.solver import (ControlPair, SolveFailure,
                              adjoint_mismatch_fields, solve_state)
from tumorctrl.sparsity import SparsityMode, prox, select_subgradient


def stationary_problem():
    return preset_problem("stationary-trivial")


class TestReducedCost:
    def test_stationary_zero_cost(self):
        p = stationary_problem()
        assert reduced_cost(p, p.u0) == 0.0

    def test_one_point_arithmetic(self):
        # beta1 = beta2 = 0, u1 = 2 on one unit cell/step, nu = 2, kappa = 1:
        # cost = nu/2 * 4 + kappa * 2 = 6
        p = make_problem({
            "chi": 0.0, "p_rate": 0.0, "a_rate": 0.0, "b_rate": 0.0,
            "e_rate": 0.0, "sigma_s": 0.0, "nu": 2.0, "kappa": 1.0,
            "beta1": 0.0, "beta2": 0.0, "n": (1,), "t_final": 1.0,
            "n_steps": 1, "init_sigma": "constant 0", "mode": "full",
            "u0_1": "constant 2"})
        assert p.u0.u1.values.tolist() == [[2.0]]
        cost = reduced_cost(p, p.u0)
        assert cost == pytest.approx(6.0, abs=1e-14)

    def test_matches_independent_quadrature(self, rng):
        # recompute the four cost terms with a separately coded quadrature
        p = preset_problem("time-sparsity-demo")
        shape = (p.timegrid.n_steps, p.grid.n_cells)
        u = ControlPair(
            SpaceTimeField(p.timegrid, p.grid, rng.uniform(-0.5, 0.5, shape)),
            SpaceTimeField(p.timegrid, p.grid, rng.uniform(-0.5, 0.5, shape)))
        cost = reduced_cost(p, u)
        traj = solve_state(p.params, p.pot, p.hspec, u, p.init)
        tau, vol = p.timegrid.tau, p.grid.cell_volume
        w = np.full(p.timegrid.n_steps + 1, tau)
        w[0] = w[-1] = tau / 2
        diff = traj.phi.values - p.targets.phi_q.values
        track_q = 0.5 * p.params.beta1 * sum(
            w[i] * vol * np.sum(diff[i] ** 2) for i in range(len(w)))
        track_t = 0.5 * p.params.beta2 * vol * np.sum(
            (traj.phi.values[-1] - p.targets.phi_omega.values) ** 2)
        quad = 0.5 * p.params.nu * tau * vol * (
            np.sum(u.u1.values ** 2) + np.sum(u.u2.values ** 2))
        gval = p.params.kappa * tau * sum(
            np.sqrt(vol * np.sum(u.u1.values[i] ** 2))
            + np.sqrt(vol * np.sum(u.u2.values[i] ** 2))
            for i in range(p.timegrid.n_steps))
        oracle = track_q + track_t + quad + gval
        assert cost == pytest.approx(oracle, rel=1e-12)


class TestSmoothGradient:
    def test_zero_tracking_gives_nu_u(self, rng):
        p = preset_problem("time-sparsity-demo", beta1=0.0, beta2=0.0)
        shape = (p.timegrid.n_steps, p.grid.n_cells)
        u = ControlPair(
            SpaceTimeField(p.timegrid, p.grid, rng.uniform(-1, 1, shape)),
            SpaceTimeField(p.timegrid, p.grid, rng.uniform(-1, 1, shape)))
        b = gradient_bundle(p, u)
        assert np.array_equal(b.g1, p.params.nu * u.u1.values)
        assert np.array_equal(b.g2, p.params.nu * u.u2.values)

    def test_stationary_gradient_zero(self):
        p = stationary_problem()
        b = gradient_bundle(p, p.u0)
        assert np.all(b.g1 == 0.0) and np.all(b.g2 == 0.0)

    @pytest.mark.parametrize("preset", preset_names())
    def test_source_is_the_tracking_terms_phi_gradient(self, preset):
        # tracking_term's value is quadratic in phi, so its central
        # difference along a node field delta is tau vol <source, delta>
        # to round-off (pulse, cosine and constant targets, beta2 = 0, 0.5
        # and 1)
        p = preset_problem(preset)
        traj = solve_state(p.params, p.pot, p.hspec, p.u0, p.init)
        source = optim.tracking_term(p, traj)[1]
        delta = np.random.default_rng(3).standard_normal(source.shape)

        def value(sign):
            phi = SpaceTimeField(traj.timegrid, traj.grid,
                                 traj.phi.values + sign * delta)
            return optim.tracking_term(p, dataclasses.replace(traj,
                                                              phi=phi))[0]

        fd = (value(1.0) - value(-1.0)) / 2.0
        pairing = p.timegrid.tau * p.grid.cell_volume * float(
            np.sum(source * delta))
        if source.any():
            assert fd == pytest.approx(pairing, rel=1e-12)
        else:
            # matched targets (stationary-trivial): the difference is the
            # round-off of the values it subtracts
            assert abs(fd) <= 1e-12 * value(1.0)


class TestViResidual:
    # vi_history[0] is the VI residual at the (box-clipped) start
    def test_zero_at_trivial_optimum(self):
        p = stationary_problem()
        res = proximal_gradient_solve(p)
        assert res.vi_history[0] <= 1e-10

    def test_positive_off_optimum(self):
        p = preset_problem("time-sparsity-demo")
        u = random_admissible_controls(p, seed=5)
        res = proximal_gradient_solve(dataclasses.replace(p, u0=u,
                                                          max_iters=1))
        assert res.vi_history[0] > 1e-4


def _backtracking_run():
    # a preset case whose first step 1/nu fails the sufficient decrease,
    # so the solve must backtrack
    p = preset_problem("time-sparsity-demo", nu=1e-3, beta1=10.0)
    return p, proximal_gradient_solve(dataclasses.replace(p, max_iters=100))


class TestOptimizer:
    def test_pure_regularization_converges_to_zero(self):
        p = preset_problem("time-sparsity-demo", beta1=0.0, beta2=0.0)
        u0 = random_admissible_controls(p, seed=11)
        res = proximal_gradient_solve(dataclasses.replace(p, u0=u0))
        assert res.converged
        assert np.all(res.control.u1.values == 0.0)
        assert np.all(res.control.u2.values == 0.0)

    def test_monotone_descent_and_fixed_point(self):
        p = preset_problem("time-sparsity-demo")
        u0 = random_admissible_controls(p, seed=3)
        res = proximal_gradient_solve(dataclasses.replace(p, u0=u0))
        pad = 4 * np.finfo(float).eps * (1.0 + np.abs(res.cost_history[:-1]))
        assert np.all(np.diff(res.cost_history) <= pad)
        assert res.converged and res.vi_residual <= p.tol_vi
        # subgradient respects the mode constraints
        vol = p.grid.cell_volume
        d = (res.d.u1.values, res.d.u2.values)
        for lam in select_subgradient(p.mode, res.control, d, p.params.kappa):
            norms = np.sqrt(vol * np.sum(lam ** 2, axis=1))
            assert np.all(norms <= 1.0 + 1e-10)

    def test_result_d_is_the_final_bundles(self):
        # the optimizer hands on the d it formed for its last VI residual
        p = preset_problem("time-sparsity-demo")
        u0 = random_admissible_controls(p, seed=8)
        res = proximal_gradient_solve(dataclasses.replace(p, u0=u0))
        b = gradient_bundle(p, res.control, res.trajectory)
        assert res.d.u1.values.tobytes() == b.d1.tobytes()
        assert res.d.u2.values.tobytes() == b.d2.tobytes()

    def test_vi_sign_implications(self):
        # where d + kappa lambda + nu u is meaningfully positive, u must sit
        # at the lower bound (and symmetrically at the upper bound)
        p = preset_problem("time-sparsity-demo", kappa=5e-4, nu=0.002,
                           lo1=-0.02, hi1=0.02, lo2=-0.02, hi2=0.02)
        res = proximal_gradient_solve(p)
        assert res.converged
        d1, d2 = res.d.u1.values, res.d.u2.values
        lam1, lam2 = select_subgradient(p.mode, res.control, (d1, d2),
                                        p.params.kappa)
        for comp, lam, d, lo, hi in (
                (res.control.u1, lam1, d1, -0.02, 0.02),
                (res.control.u2, lam2, d2, -0.02, 0.02)):
            q = d + p.params.kappa * lam \
                + p.params.nu * comp.values
            assert np.all(np.isclose(comp.values[q > 1e-8], lo, atol=1e-10))
            assert np.all(np.isclose(comp.values[q < -1e-8], hi, atol=1e-10))
        # the small box must actually bind for the test to have content
        assert np.any(np.isclose(res.control.u1.values, 0.02)) \
            or np.any(np.isclose(res.control.u1.values, -0.02))

    def test_stepsize_collapse_names_iteration_and_eta(self, monkeypatch):
        # an unmeetable sufficient decrease rejects every trial: 1/nu = 20
        # and 10 fail, and the next step 5 lies below the floor 6
        monkeypatch.setattr(optim, "ETA_MIN", 6.0)
        monkeypatch.setattr(optim, "DECREASE", 1e6)
        p = preset_problem("time-sparsity-demo")
        u0 = random_admissible_controls(p, seed=3)
        with pytest.raises(StepsizeCollapse) as exc:
            proximal_gradient_solve(dataclasses.replace(p, u0=u0))
        assert isinstance(exc.value, SolveFailure)
        assert exc.value.member is None
        assert (exc.value.iteration, exc.value.eta) == (0, 5.0)
        assert "step size 5.000e+00 below floor at iteration 0" \
            in str(exc.value)

    def test_backtracked_steps_accepted(self):
        # 1/nu is too long a step here: it is halved, and the history of
        # accepted steps never grows back towards it
        p, res = _backtracking_run()
        assert res.converged
        assert np.any(res.eta_history < 1.0 / p.params.nu)
        assert np.all(np.diff(res.eta_history) <= 0.0)
        pad = 4 * np.finfo(float).eps * (1.0 + np.abs(res.cost_history[:-1]))
        assert np.all(np.diff(res.cost_history) <= pad)

    def test_large_step_does_not_stall(self):
        # a step that grew back after each backtrack cleared the Anderson
        # history on every step: over 1600 state solves, unconverged
        p, res = _backtracking_run()
        assert np.any(res.eta_history < 1.0 / p.params.nu)
        assert res.converged
        assert res.state_solves[-1] <= 60

    def test_history_lengths(self):
        p = preset_problem("time-sparsity-demo")
        res = proximal_gradient_solve(p)
        assert res.cost_history.size == res.n_iters + 1
        assert res.vi_history.size == res.n_iters + 1
        assert res.eta_history.size == res.n_iters
        u, b = res.control, p.bounds
        assert np.all((b.lo1 <= u.u1.values) & (u.u1.values <= b.hi1))
        assert np.all((b.lo2 <= u.u2.values) & (u.u2.values <= b.hi2))
        # one state solve for the start, at least one per accepted step
        assert res.state_solves.size == res.vi_history.size
        assert res.state_solves[0] == 1
        assert np.all(np.diff(res.state_solves) >= 1)

    def test_small_nu_converges_in_few_state_solves(self):
        # the plain prox-gradient iteration takes 133 state solves here
        p = preset_problem("time-sparsity-demo", nu=1e-3)
        res = proximal_gradient_solve(p)
        assert res.converged and res.state_solves[-1] <= 15
        # the optimum the plain iteration reaches
        assert res.cost == pytest.approx(1.275524772120774e-02, rel=1e-12)


def test_gram_solve_is_least_squares():
    rng = np.random.default_rng(2718)
    a, b = rng.normal(size=(40, 4)), rng.normal(size=40)
    want = np.linalg.lstsq(a, b)[0]
    got = optim._gram_solve((a.T @ a).tolist(), (a.T @ b).tolist())
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    # a column in the span of the earlier ones gets coefficient 0, and the
    # residual stays the least-squares one
    a = np.column_stack([a[:, :2], a[:, 0] - 3.0 * a[:, 1], a[:, 2]])
    got = optim._gram_solve((a.T @ a).tolist(), (a.T @ b).tolist())
    assert got[2] == 0.0
    best = np.linalg.norm(a @ np.linalg.lstsq(a, b)[0] - b)
    assert np.linalg.norm(a @ got - b) == pytest.approx(best, rel=1e-12)


@pytest.mark.parametrize("mode,kappa", [("time", 2.5e-3), ("space", 1.75e-3),
                                        ("full", 1.7e-3)])
def test_anderson_point_keeps_prox_zeros(mode, kappa):
    # g is a real prox point, its groups on both sides of the threshold
    # eta*kappa, and the random differences would move every entry; the
    # extrapolation must leave g's zeros at 0
    p = preset_problem("time-sparsity-demo", mode=mode, kappa=kappa)
    rng = np.random.default_rng(314)
    shape = (p.timegrid.n_steps, p.grid.n_cells)
    md, b = SparsityMode(mode), p.bounds
    g = tuple(prox(md, SpaceTimeField(p.timegrid, p.grid,
                                      rng.normal(0.0, 0.05, shape)),
                   p.params.nu ** -1, kappa, lo, hi).values
              for lo, hi in ((b.lo1, b.hi1), (b.lo2, b.hi2)))
    f = tuple(rng.normal(size=shape) for _ in range(2))
    hist = [tuple(rng.normal(size=shape) for _ in range(4)) for _ in range(3)]
    a1, a2 = optim._anderson_point(hist, f, g, b)
    for a, gc, lo, hi in ((a1, g[0], b.lo1, b.hi1), (a2, g[1], b.lo2, b.hi2)):
        zero = gc == 0.0
        assert zero.any() and (~zero).any()
        assert np.all(a[zero] == 0.0)
        assert np.count_nonzero(a[~zero]) == np.count_nonzero(~zero)
        assert np.all((lo <= a) & (a <= hi))


class TestThreshold:
    def test_zero_tracking_zero_threshold(self):
        p = preset_problem("time-sparsity-demo", beta1=0.0, beta2=0.0)
        rep = zero_control_threshold(p)
        assert rep.kappa0_estimate == 0.0

    def test_time_mode_formula(self):
        # recompute the suprema directly from the adjoint at u = 0
        p = preset_problem("time-sparsity-demo")
        rep = zero_control_threshold(p)
        u0 = ControlPair.zeros(p.timegrid, p.grid)
        traj = solve_state(p.params, p.pot, p.hspec, u0, p.init)
        adj = gradient_bundle(p, u0, traj).adjoint
        d1, d2 = adjoint_mismatch_fields(p.hspec, traj, adj)
        vol = p.grid.cell_volume
        k1 = np.max(np.sqrt(vol * np.sum(d1 ** 2, axis=1)))
        k2 = np.max(np.sqrt(vol * np.sum(d2 ** 2, axis=1)))
        assert rep.kappa1 == pytest.approx(k1, rel=1e-13)
        assert rep.kappa2 == pytest.approx(k2, rel=1e-13)
        assert rep.kappa0_estimate == pytest.approx(max(k1, k2), rel=1e-13)

    def test_overflowing_threshold_is_a_solve_failure(self):
        # a tracking target of 1e300 overflows the mode norm of d1 at u = 0
        p = preset_problem("1D-logarithmic-default",
                           target_phi_q="random 1e300")
        with np.errstate(all="ignore"), pytest.raises(SolveFailure) as exc:
            zero_control_threshold(p)
        assert str(exc.value) == ("zero-control threshold of u1 overflows: "
                                  "its largest time mode norm is inf")

    def test_mode_none_rejected(self):
        p = stationary_problem()
        assert p.mode is SparsityMode.NONE
        with pytest.raises(ValueError):
            zero_control_threshold(p)


class TestKappaSweep:
    def test_requires_ascending(self):
        p = preset_problem("time-sparsity-demo")
        with pytest.raises(ValueError):
            kappa_sweep(p, [0.1, 0.01])

    def test_support_vanishes_beyond_threshold(self):
        p = preset_problem("time-sparsity-demo")
        rep = zero_control_threshold(p)
        k0 = rep.kappa0_estimate
        rows = kappa_sweep(p, [0.0, 0.5 * k0, 2.0 * k0])
        assert rows[0]["support1"] > 0.0
        assert rows[-1]["support1"] == 0.0 and rows[-1]["support2"] == 0.0
        assert rows[-1]["control_norm"] == 0.0

    def test_runs_are_copies_of_the_problem(self):
        # kappa 0 runs the problem with mode none, any other kappa the
        # problem with only kappa changed; the problem itself stays as built
        p = preset_problem("time-sparsity-demo")
        k = 4.0 * p.params.kappa
        rows = kappa_sweep(p, [0.0, k])
        runs = (dataclasses.replace(p, mode=SparsityMode.NONE),
                dataclasses.replace(p, params=dataclasses.replace(
                    p.params, kappa=k)))
        for row, run in zip(rows, runs, strict=True):
            res = proximal_gradient_solve(run)
            assert (row["cost"], row["iterations"]) == (res.cost, res.n_iters)
        fresh = preset_problem("time-sparsity-demo")
        assert (p.params, p.mode, p.bounds, p.max_iters, p.tol_vi) == \
            (fresh.params, fresh.mode, fresh.bounds, fresh.max_iters,
             fresh.tol_vi)
        assert p.params.kappa == 5e-4 and p.mode is SparsityMode.TIME
        for a, b in ((p.u0.u1, fresh.u0.u1), (p.u0.u2, fresh.u0.u2)):
            assert np.array_equal(a.values, b.values)


def test_support_measure_units():
    tg, g = TimeGrid(1.0, 4), grid1d(2, 1.0)
    vals = np.zeros((4, 2))
    vals[1, :] = 0.5
    u = ControlPair(SpaceTimeField(tg, g, vals), SpaceTimeField.zeros(tg, g))
    s1, s2 = support_measure(SparsityMode.TIME, u)
    assert s1 == pytest.approx(0.25)  # one slice of measure tau
    assert s2 == 0.0
    s1, _ = support_measure(SparsityMode.FULL_Q, u)
    assert s1 == pytest.approx(0.25 * 1.0)  # two cells x tau*vol each
