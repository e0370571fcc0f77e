import dataclasses
import math
import os

import numpy as np
import pytest

from oracles import random_admissible_controls
from tumorctrl import optim, runner, solver, verify
from tumorctrl.fields import SpaceTimeField
from tumorctrl.presets import preset_names, preset_problem
from tumorctrl.solver import solve_state
from tumorctrl.verify import (FD_GRADIENT_RTOL, SEPARATION_FLOOR,
                              CheckReport, separation_monitor,
                              write_check_csv)

# a small instance keeps these oracle tests fast; the full-size preset runs
# live in the acceptance suite
SMALL = dict(n=(16,), n_steps=24, t_final=0.25)


@pytest.fixture(scope="module")
def small_problem():
    return preset_problem("1D-logarithmic-default", **SMALL)


def checks(problem, monkeypatch, directions=verify.FD_DIRECTIONS,
           levels=verify.REFINEMENT_LEVELS):
    """verify_checks' reports by check name, with the gradient check along
    directions random directions and levels refinement levels."""
    monkeypatch.setattr(verify, "FD_DIRECTIONS", directions)
    monkeypatch.setattr(verify, "REFINEMENT_LEVELS", levels)
    return {rep.name: rep for rep in verify.verify_checks(problem)}


@pytest.fixture(scope="module")
def small_checks(small_problem):
    """The small instance's reports with the verify command's directions
    and levels."""
    return {rep.name: rep for rep in verify.verify_checks(small_problem)}


class TestFdGradientCheck:
    def test_passes_on_small_instance(self, small_checks):
        rep = small_checks["fd_gradient_check"]
        assert len(rep.metrics) == 3 + 1
        assert rep.passed
        assert rep.metric("max_best_rel_error") <= 1e-8
        assert {tol for _, _, tol, _ in rep.metrics} == {FD_GRADIENT_RTOL}

    def test_random_admissible_points(self, small_problem, monkeypatch):
        # gradient correctness away from the nominal control
        for seed in (1, 2, 3):
            u = random_admissible_controls(small_problem, seed, scale=0.4)
            rep = checks(dataclasses.replace(small_problem, u0=u),
                         monkeypatch, directions=1,
                         levels=1)["fd_gradient_check"]
            assert rep.metric("max_best_rel_error") <= 1e-8

    def test_two_dimensional_instance(self, monkeypatch):
        prob = preset_problem("2D-regular-default")
        rep = checks(prob, monkeypatch, directions=2,
                     levels=1)["fd_gradient_check"]
        assert rep.passed

    def test_deterministic_given_seed(self, small_problem, monkeypatch):
        a = checks(small_problem, monkeypatch, directions=2, levels=1)
        b = checks(small_problem, monkeypatch, directions=2, levels=1)
        assert a == b

    def test_stationary_point_both_sides_tiny(self):
        prob = preset_problem("stationary-trivial")
        from tumorctrl.optim import reduced_cost, smooth_gradient
        from tumorctrl.sparsity import SparsityMode
        from tumorctrl.verify import _unit_direction

        g1, g2 = smooth_gradient(prob, prob.u0)
        rng = np.random.default_rng(0)
        k1, k2 = _unit_direction(prob, rng)
        tau, vol = prob.timegrid.tau, prob.grid.cell_volume
        adj = tau * vol * (np.sum(g1.values * k1) + np.sum(g2.values * k2))
        eps = 1e-4
        from tumorctrl.solver import ControlPair
        tg, grid = prob.timegrid, prob.grid
        up = ControlPair.from_arrays(tg, grid, prob.u0.u1.values + eps * k1,
                                     prob.u0.u2.values + eps * k2)
        dn = ControlPair.from_arrays(tg, grid, prob.u0.u1.values - eps * k1,
                                     prob.u0.u2.values - eps * k2)
        smooth = dataclasses.replace(prob, mode=SparsityMode.NONE)
        fd = (reduced_cost(smooth, up) - reduced_cost(smooth, dn)) / (2 * eps)
        assert abs(adj) <= 1e-10 and abs(fd) <= 1e-10

    def test_gradient_off_by_one_percent_fails(self, monkeypatch):
        smooth_gradient = verify.smooth_gradient

        def scaled(*args):
            return tuple(SpaceTimeField(g.timegrid, g.grid, 1.01 * g.values)
                         for g in smooth_gradient(*args))

        prob = preset_problem("time-sparsity-demo")
        assert checks(prob, monkeypatch, directions=1,
                      levels=1)["fd_gradient_check"].passed
        monkeypatch.setattr(verify, "smooth_gradient", scaled)
        rep = checks(prob, monkeypatch, directions=1,
                     levels=1)["fd_gradient_check"]
        assert not rep.passed
        assert rep.metric("max_best_rel_error") > 1e-3

    @pytest.mark.parametrize("order", [1, -1], ids=["ladder", "reversed"])
    def test_nan_error_fails_wherever_it_lies(self, small_problem,
                                              monkeypatch, order):
        # the smooth cost at u0 + 0.1 k is NaN: that eps's error is NaN,
        # and so are the direction's best error and the worst of them,
        # whichever place eps 0.1 takes in the ladder
        ladder = verify.FD_EPS_LADDER[::order]
        monkeypatch.setattr(verify, "FD_EPS_LADDER", ladder)
        nan_call = 2 * ladder.index(0.1)
        calls = []

        def cost(*args):
            calls.append(None)
            return (math.nan if len(calls) == nan_call + 1
                    else optim.reduced_cost(*args))

        monkeypatch.setattr(verify, "reduced_cost", cost)
        rep = checks(small_problem, monkeypatch, directions=1,
                     levels=1)["fd_gradient_check"]
        assert not rep.passed
        for name in ("direction_0_best_rel_error", "max_best_rel_error"):
            assert math.isnan(rep.metric(name))
        assert [ok for _, _, _, ok in rep.metrics] == [False, False]


class TestLinearizedChecks:
    def test_single_level(self, small_problem, monkeypatch):
        rep = checks(small_problem, monkeypatch, directions=1,
                     levels=1)["linearized_fd_refinement"]
        assert rep.passed
        assert len(rep.refinement) == 1
        assert rep.metric("max_rel_error") <= 1e-6

    def test_zero_direction_gives_zero(self, small_problem):
        shape = (small_problem.timegrid.n_steps, small_problem.grid.n_cells)
        z = np.zeros(shape)
        from tumorctrl.fields import SpaceTimeField
        from tumorctrl.solver import LinearizedSpec, solve_linearized

        base = solve_state(small_problem.params, small_problem.pot,
                           small_problem.hspec, small_problem.u0,
                           small_problem.init)
        spec = LinearizedSpec(
            k1=SpaceTimeField(small_problem.timegrid, small_problem.grid, z),
            k2=SpaceTimeField(small_problem.timegrid, small_problem.grid, z))
        lin = solve_linearized(small_problem.params, small_problem.pot,
                               small_problem.hspec, base, small_problem.u0,
                               spec)
        assert np.all(lin.phi.values == 0.0)

    def test_refinement_table_three_levels(self, small_checks):
        rep = small_checks["linearized_fd_refinement"]
        assert len(rep.refinement) >= 3
        assert all(r[3] <= 1e-6 for r in rep.refinement)
        assert rep.passed


class TestDualityGap:
    def test_zero_tracking_zero_gap(self, monkeypatch):
        prob = preset_problem("1D-logarithmic-default", beta1=0.0, beta2=0.0,
                              **SMALL)
        rep = checks(prob, monkeypatch, directions=1,
                     levels=3)["duality_gap"]
        assert rep.metric("base_gap") == 0.0
        assert rep.passed

    def test_exact_under_tau_refinement(self, small_checks):
        rep = small_checks["duality_gap"]
        assert len(rep.refinement) >= 3
        assert all(r[3] <= 1e-10 for r in rep.refinement)
        assert rep.passed

    def test_exact_on_refined_space_grid(self, small_problem, monkeypatch):
        rep = checks(small_problem.with_resolution(2, 2), monkeypatch,
                     directions=1, levels=3)["duality_gap"]
        assert len(rep.refinement) >= 3
        assert all(r[3] <= 1e-10 for r in rep.refinement)
        assert rep.passed

    def test_direction_almost_orthogonal_to_the_gradient(self, monkeypatch):
        # this seed draws a duality direction whose level-0 pairings are
        # 1.85e-11: a round-off gap of 1.3e-19 over the larger pairing read
        # 6.9e-9 and failed; over the pairings' absolute terms it reads
        # 2.5e-16
        prob = preset_problem("time-sparsity-demo", seed=201469092)
        rep = checks(prob, monkeypatch, directions=1)["duality_gap"]
        assert rep.passed
        assert all(r[3] < 1e-15 for r in rep.refinement)

    @pytest.mark.parametrize("preset", ["time-sparsity-demo",
                                        "2D-regular-default"])
    def test_planted_adjoint_error_fails(self, preset, monkeypatch):
        # the adjoint's mismatch fields off by a relative 1e-6 read a gap
        # of about 4e-7, far over DUALITY_RTOL
        mismatch = verify.adjoint_mismatch_fields

        def planted(*args):
            d1, d2 = mismatch(*args)
            return d1 * (1.0 + 1e-6), d2 * (1.0 + 1e-6)

        monkeypatch.setattr(verify, "adjoint_mismatch_fields", planted)
        rep = checks(preset_problem(preset), monkeypatch, directions=1,
                     levels=1)["duality_gap"]
        assert not rep.passed
        assert rep.metric("max_relative_gap") > 1e-7


def test_a_replaced_start_is_checked_on_every_level(monkeypatch):
    # the refined levels of replace(problem, u0=u) run at u, prolonged: as
    # on the problem whose recipes give u, not at the problem's own u0
    prob = preset_problem("time-sparsity-demo")
    shape = (prob.timegrid.n_steps, prob.grid.n_cells)
    u = solver.ControlPair.from_arrays(prob.timegrid, prob.grid,
                                       np.full(shape, 0.7),
                                       np.full(shape, -0.4))
    copy = checks(dataclasses.replace(prob, u0=u), monkeypatch,
                  directions=1, levels=2)
    recipe = checks(preset_problem("time-sparsity-demo",
                                   u0_1="constant 0.7", u0_2="constant -0.4"),
                    monkeypatch, directions=1, levels=2)
    for name in ("linearized_fd_refinement", "duality_gap"):
        assert copy[name].refinement == recipe[name].refinement


def test_a_replaced_target_is_refused(monkeypatch):
    # the refined levels cannot check a copy whose phi_q the settings do not
    # build: they would check the preset's pulse in place of the constant
    prob = preset_problem("time-sparsity-demo")
    q = prob.targets.phi_q
    copy = dataclasses.replace(prob, targets=dataclasses.replace(
        prob.targets, phi_q=SpaceTimeField(q.timegrid, q.grid,
                                           np.full_like(q.values, 0.3))))
    with pytest.raises(ValueError, match=r"targets\.phi_q is not the one"):
        checks(copy, monkeypatch, directions=1, levels=2)


@pytest.mark.parametrize("preset", ["stationary-trivial", "time-sparsity-demo",
                                    "stress-separation",
                                    "2D-regular-default"])
def test_tangent_and_adjoint_exact_on_preset(preset, monkeypatch):
    reports = checks(preset_problem(preset), monkeypatch, directions=1,
                     levels=2)
    gap = reports["duality_gap"]
    lin = reports["linearized_fd_refinement"]
    assert gap.passed and gap.metric("max_relative_gap") <= 1e-10
    assert lin.passed and lin.metric("max_rel_error") <= 1e-6


def test_nan_on_a_refined_level_fails(small_problem, monkeypatch):
    # level 1 (2 tau) has a NaN error at eps 1e-3 of the linearized check
    # and a NaN duality gap; levels 0 and 2 are sound
    steps = 2 * small_problem.timegrid.n_steps
    lin_errors, gap_at = verify._linearized_vs_fd_error, verify._duality_gap_at

    def lin_nan(problem, *args):
        errs = lin_errors(problem, *args)
        if problem.timegrid.n_steps == steps:
            errs[1] = math.nan
        return errs

    def gap_nan(problem, *args):
        gap, pairing = gap_at(problem, *args)
        return (math.nan if problem.timegrid.n_steps == steps else gap,
                pairing)

    monkeypatch.setattr(verify, "_linearized_vs_fd_error", lin_nan)
    monkeypatch.setattr(verify, "_duality_gap_at", gap_nan)
    reports = checks(small_problem, monkeypatch, directions=1, levels=3)
    for name, worst in (("linearized_fd_refinement", "max_rel_error"),
                        ("duality_gap", "max_relative_gap")):
        rep = reports[name]
        assert not rep.passed
        assert math.isnan(rep.metric(worst))
        assert [math.isnan(r[3]) for r in rep.refinement] == \
            [False, True, False]


class TestSeparationMonitor:
    def test_regular_not_applicable(self):
        prob = preset_problem("stationary-trivial")
        traj = solve_state(prob.params, prob.pot, prob.hspec, prob.u0,
                           prob.init)
        rep = separation_monitor(traj, prob.pot)
        assert rep.passed
        assert rep.metric("applicable") == 0.0

    def test_default_margins_healthy(self, small_problem):
        traj = solve_state(small_problem.params, small_problem.pot,
                           small_problem.hspec, small_problem.u0,
                           small_problem.init)
        rep = separation_monitor(traj, small_problem.pot)
        assert rep.passed
        assert rep.metric("min_margin") > 1e-3
        assert {tol for _, _, tol, _ in rep.metrics} == {SEPARATION_FLOOR,
                                                         None}

    def test_stress_names_offending_step(self):
        prob = preset_problem("stress-separation")
        traj = solve_state(prob.params, prob.pot, prob.hspec, prob.u0,
                           prob.init)
        rep = separation_monitor(traj, prob.pot)
        assert not rep.passed
        assert rep.metric("first_offending_step") >= 0
        assert rep.metric("min_margin") <= 1e-6
        assert {tol for _, _, tol, _ in rep.metrics} == {SEPARATION_FLOOR,
                                                         None}


@pytest.mark.parametrize("preset", preset_names())
def test_verify_outcome_on_every_preset(preset, monkeypatch):
    # verify's four checks, with one refinement level where the CLI runs
    # three: all pass, except the separation monitor on stress-separation,
    # whose phi comes within 8.4e-8 of the singular wall
    reports = checks(preset_problem(preset), monkeypatch, directions=3,
                     levels=1)
    failed = [rep.name for rep in reports.values() if not rep.passed]
    assert failed == (["separation_monitor"]
                      if preset == "stress-separation" else [])


def test_check_csv(tmp_path):
    rep = CheckReport("demo", (("a", 1.0, 2.0, True), ("b", 3.0, None, None)),
                      ((0, 0.1, 0.2, 1e-3), (1, 0.05, 0.1, 5e-4)),
                      passed=True)
    path = tmp_path / "check.csv"
    write_check_csv(rep, path)
    text = path.read_text()
    assert "metric,a,1.0,2.0,1" in text
    assert "refinement,,,,,0,0.1,0.2,0.001" in text
    assert "metric,passed,1" in text


class TestVerifyCommand:
    def test_nominal_grid_is_marched_once(self, tmp_path, monkeypatch):
        # the CLI's checks on a reduced time-sparsity-demo: 49 controls in
        # the nominal batch, so its 1D solves sweep as numpy columns.  One
        # state march and one adjoint on the problem's own grid serve all
        # four checks
        marches, adjoints = [], []
        march = solver._march

        def counted_march(params, pot, hspec, tg, *args, **kwargs):
            marches.append(tg.n_steps)
            return march(params, pot, hspec, tg, *args, **kwargs)

        def counted_adjoint(params, pot, hspec, base, *args):
            adjoints.append(base.phi.timegrid.n_steps)
            return solver.solve_adjoint(params, pot, hspec, base, *args)

        monkeypatch.setattr(solver, "_march", counted_march)
        for mod in (verify, optim):
            monkeypatch.setattr(mod, "solve_adjoint", counted_adjoint)
        cfg = runner.parse_config_text(
            "[run]\ncommand = verify\npreset = time-sparsity-demo\n"
            "[time]\nn_steps = 12\n")
        assert runner.run(cfg, tmp_path).passed
        # the refined levels march 24 and 48 steps
        assert marches.count(12) == 1
        assert adjoints.count(12) == 1


class TestFailureNaming:
    # verify_checks' nominal batch on the small instance: u, then 3 fd
    # directions of 7 eps and 2 signs (members 1-42), then the linearized
    # ladder's 3 eps and 2 signs (members 43-48)
    @pytest.mark.parametrize("member,where", [
        (0, ""),
        (1, "fd_gradient_check, eps 0.1: "),
        (18, "fd_gradient_check, eps 0.01: "),
        (42, "fd_gradient_check, eps 1e-07: "),
        (43, "linearized_fd_refinement level 0, eps 0.01: "),
        (48, "linearized_fd_refinement level 0, eps 0.0001: ")])
    def test_batch_member_is_named_by_its_point(self, small_problem,
                                                monkeypatch, member, where):
        def failing(*args):
            exc = solver.SeparationLoss(7, 0.0)
            exc.member = member
            raise exc
            yield

        monkeypatch.setattr(verify, "solve_states", failing)
        with pytest.raises(solver.SeparationLoss) as exc:
            verify.verify_checks(small_problem)
        assert str(exc.value) == \
            f"{where}separation lost at time step 7: margin 0.000e+00"
        assert (exc.value.step, exc.value.member) == (7, member)

    def test_refined_duality_level_is_named(self, small_problem,
                                            monkeypatch):
        # only the solve on duality_gap's level 1 (2 tau) fails
        steps = small_problem.timegrid.n_steps

        def failing(params, pot, hspec, u, init):
            if u.timegrid.n_steps != steps:
                raise solver.SeparationLoss(3, 0.0)
            return solve_state(params, pot, hspec, u, init)

        monkeypatch.setattr(verify, "solve_state", failing)
        with pytest.raises(solver.SeparationLoss) as exc:
            checks(small_problem, monkeypatch, levels=2)
        assert str(exc.value) == ("duality_gap level 1: separation lost at "
                                  "time step 3: margin 0.000e+00")


def outcome(problem):
    """verify_checks' reports as text (a float's repr gives its bits), or
    its failure's type, message and attributes (step, member, ...)."""
    try:
        return repr(verify.verify_checks(problem))
    except solver.SolveFailure as exc:
        return type(exc), str(exc), vars(exc)


def two_cpus(monkeypatch):
    """Let a fork help whatever CPUs the host gives this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
class TestForkedFinestLevel:
    # verify_checks runs the linearized check's finest level in a forked
    # child; the reports and failures are those of the in-process run

    @pytest.mark.parametrize("preset,levels", [("time-sparsity-demo", 3),
                                               ("2D-regular-default", 2)])
    def test_reports_are_bitwise_equal(self, preset, levels, monkeypatch,
                                       forked_and_in_process):
        # the levels this process computes: the child's finest level is
        # not among them when the child hands back its row
        here, rows = [], verify._linearized_rows

        def counted_rows(problem, k, lin_levels):
            here.append(list(lin_levels))
            return rows(problem, k, lin_levels)

        monkeypatch.setattr(verify, "_linearized_rows", counted_rows)
        monkeypatch.setattr(verify, "REFINEMENT_LEVELS", levels)
        (forked, n_forked), (in_process, n_in_process) = \
            forked_and_in_process(lambda: outcome(preset_problem(preset)))
        assert (n_forked, n_in_process) == (1, 0)
        assert forked == in_process
        assert "linearized_fd_refinement" in forked
        lower = list(range(1, levels - 1))
        assert here == [lower, lower, [levels - 1]]

    def test_one_level_forks_nothing(self, small_problem, monkeypatch,
                                     forked_and_in_process):
        monkeypatch.setattr(verify, "REFINEMENT_LEVELS", 1)
        (forked, n_forked), (in_process, _) = \
            forked_and_in_process(lambda: outcome(small_problem))
        assert n_forked == 0 and forked == in_process

    def test_one_cpu_forks_nothing(self, small_problem, monkeypatch,
                                   forked_and_in_process):
        # on one CPU the child would only take turns with its parent
        monkeypatch.setattr(verify, "REFINEMENT_LEVELS", 2)
        (forked, n_forked), _ = \
            forked_and_in_process(lambda: outcome(small_problem))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        (one_cpu, n_one_cpu), _ = \
            forked_and_in_process(lambda: outcome(small_problem))
        assert (n_forked, n_one_cpu) == (1, 0)
        assert one_cpu == forked

    @pytest.mark.parametrize("u0_1,where", [
        # the child's linearized level 2 and the parent's duality level 2
        # fail: the linearized level comes first
        ("-31.9", "linearized_fd_refinement level 2: separation lost at "
                  "time step 383: margin 9.606e-12"),
        # the parent's linearized level 1 fails while the child runs
        ("-32", "linearized_fd_refinement level 1, eps 0.01: separation "
                "lost at time step 191: margin 9.966e-12")],
        ids=["-31.9", "-32"])
    def test_failure_is_the_serial_one(self, u0_1, where,
                                       forked_and_in_process):
        prob = preset_problem("stress-separation", u0_1=f"constant {u0_1}")
        (forked, n_forked), (in_process, _) = \
            forked_and_in_process(lambda: outcome(prob))
        assert n_forked == 1
        assert forked == in_process
        assert forked[:2] == (solver.SeparationLoss, where)

    def test_failure_on_the_nominal_grid(self, small_problem, monkeypatch,
                                         forked_and_in_process):
        # TestFailureNaming's member 0: every batch fails, the parent's on
        # level 0 first
        def failing(*args):
            exc = solver.SeparationLoss(7, 0.0)
            exc.member = 0
            raise exc
            yield

        monkeypatch.setattr(verify, "solve_states", failing)
        (forked, n_forked), (in_process, _) = \
            forked_and_in_process(lambda: outcome(small_problem))
        assert n_forked == 1
        assert forked == in_process == (
            solver.SeparationLoss,
            "separation lost at time step 7: margin 0.000e+00",
            {"step": 7, "margin": 0.0, "member": 0})

    def test_failed_fork_computes_in_process(self, small_problem,
                                             monkeypatch):
        expected = outcome(small_problem)
        tried = []

        def no_fork():
            tried.append(None)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        two_cpus(monkeypatch)
        assert outcome(small_problem) == expected
        assert tried == [None]

    def test_interrupt_leaves_no_child(self, small_problem, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(verify, "solve_adjoint", interrupted)
        two_cpus(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            verify.verify_checks(small_problem)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
