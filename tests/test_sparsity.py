import numpy as np
import pytest

from tumorctrl.fields import SpaceTimeField, TimeGrid, grid1d, grid2d
from tumorctrl.model import BoxBounds
from tumorctrl.optim import gradient_bundle
from tumorctrl.presets import preset_problem
from tumorctrl.solver import ControlPair
from tumorctrl.sparsity import (BadBounds, SparsityMode, certificate,
                                certificate_to_csv, eval_g, prox,
                                select_subgradient)

MODES = (SparsityMode.FULL_Q, SparsityMode.TIME, SparsityMode.SPACE)


def prox_kkt_residual(mode, u_prox, v, eta, kappa, lo, hi):
    """Max-norm residual of the fixed point u = P_box(v - eta*kappa*lambda).

    The lambda is selected from the prox problem itself (d = -v/eta), so a
    small residual certifies that prox returned the slice-wise minimizer.
    """
    d = -v.values / eta
    lam = select_subgradient(mode, ControlPair(u_prox, u_prox), (d, d),
                             kappa)[0]
    target = np.clip(v.values - eta * kappa * lam, lo, hi)
    return float(np.max(np.abs(u_prox.values - target)))


def pair_from(tg, grid, u1, u2=None):
    u1 = np.asarray(u1, dtype=float)
    u2 = u1 * 0.0 if u2 is None else np.asarray(u2, dtype=float)
    return ControlPair(SpaceTimeField(tg, grid, u1),
                       SpaceTimeField(tg, grid, u2))


class TestEvalG:
    def test_zero_control(self):
        tg, g = TimeGrid(1.0, 3), grid1d(4)
        u = ControlPair.zeros(tg, g)
        for mode in MODES + (SparsityMode.NONE,):
            assert eval_g(mode, u) == 0.0

    def test_one_point_all_modes_coincide(self):
        # one cell (vol 1), one step (tau 1), u1 = 2: g = 2 for all modes
        tg, g = TimeGrid(1.0, 1), grid1d(1, 1.0)
        u = pair_from(tg, g, [[2.0]])
        for mode in MODES:
            assert eval_g(mode, u) == pytest.approx(2.0, abs=1e-15)

    def test_constant_time_mode(self):
        # g_T(c) = T * |c| * sqrt(|Omega|)
        tg, g = TimeGrid(0.8, 5), grid1d(6, 2.0)
        c = -1.3
        u = pair_from(tg, g, np.full((5, 6), c))
        expected = 0.8 * abs(c) * np.sqrt(2.0)
        assert eval_g(SparsityMode.TIME, u) == pytest.approx(expected, rel=1e-13)

    def test_sum_over_components(self):
        tg, g = TimeGrid(1.0, 2), grid1d(2)
        u = pair_from(tg, g, np.ones((2, 2)), 2.0 * np.ones((2, 2)))
        single1 = eval_g(SparsityMode.FULL_Q, pair_from(tg, g, np.ones((2, 2))))
        single2 = eval_g(SparsityMode.FULL_Q,
                         pair_from(tg, g, 2.0 * np.ones((2, 2))))
        assert eval_g(SparsityMode.FULL_Q, u) == pytest.approx(single1 + single2)


class TestProx:
    def setup_method(self):
        self.tg = TimeGrid(1.0, 4)
        self.grid = grid1d(3, 1.0)

    def test_zero_input(self):
        v = SpaceTimeField.zeros(self.tg, self.grid)
        for mode in MODES:
            out = prox(mode, v, 0.5, 1.0, -1.0, 1.0)
            assert np.all(out.values == 0.0)

    def test_scalar_soft_threshold_clip(self):
        # eta = kappa = 1, box [-2, 2], v = 3: soft threshold to 2, clip no-op;
        # cross-checked by scalar brute force over the box
        tg, g = TimeGrid(1.0, 1), grid1d(1, 1.0)
        v = SpaceTimeField(tg, g, [[3.0]])
        out = prox(SparsityMode.FULL_Q, v, 1.0, 1.0, -2.0, 2.0)
        assert out.values[0, 0] == pytest.approx(2.0, abs=1e-14)
        us = np.linspace(-2, 2, 400001)
        brute = us[np.argmin(0.5 * (us - 3.0) ** 2 + np.abs(us))]
        assert abs(brute - 2.0) < 1e-4

    def test_zero_slice_law_with_boundary(self, rng):
        eta, kappa = 0.7, 0.9
        vol = self.grid.cell_volume
        for _ in range(400):
            vals = rng.uniform(-2, 2, (4, 3))
            r = int(rng.integers(0, 4))
            row = rng.standard_normal(3)
            row /= np.sqrt(vol * np.dot(row, row))
            pert = rng.choice([-1e-9, 0.0, 1e-9])
            vals[r] = row * (eta * kappa * (1 + pert))
            u = prox(SparsityMode.TIME, SpaceTimeField(self.tg, self.grid, vals),
                     eta, kappa, -3.0, 3.0)
            for n in range(4):
                nv = np.sqrt(vol * np.dot(vals[n], vals[n]))
                assert (nv <= eta * kappa) == bool(np.all(u.values[n] == 0.0))

    def test_space_mode_swaps_roles(self, rng):
        vals = rng.uniform(-2, 2, (4, 3))
        eta, kappa = 0.5, 0.8
        by_space = prox(SparsityMode.SPACE,
                        SpaceTimeField(self.tg, self.grid, vals),
                        eta, kappa, -3.0, 3.0)
        # transpose the roles: a time-mode prox on the transposed layout
        tg_t = TimeGrid(1.0, 3)
        grid_t = grid1d(4, 1.0)
        # weights differ (tau=0.25 vs vol=0.25 coincide on this layout)
        by_time = prox(SparsityMode.TIME,
                       SpaceTimeField(tg_t, grid_t, vals.T),
                       eta, kappa, -3.0, 3.0)
        assert np.allclose(by_space.values, by_time.values.T, atol=1e-12)

    def test_firm_nonexpansive(self, rng):
        for mode in MODES:
            for _ in range(100):
                v1 = rng.uniform(-2, 2, (4, 3))
                v2 = rng.uniform(-2, 2, (4, 3))
                p1 = prox(mode, SpaceTimeField(self.tg, self.grid, v1),
                          0.6, 0.9, -1.5, 2.0).values
                p2 = prox(mode, SpaceTimeField(self.tg, self.grid, v2),
                          0.6, 0.9, -1.5, 2.0).values
                assert (np.linalg.norm(p1 - p2)
                        <= np.linalg.norm(v1 - v2) + 1e-10)

    def test_mode_degeneration_single_point(self, rng):
        # unit-measure single point: all three modes coincide exactly
        tg, g = TimeGrid(1.0, 1), grid1d(1, 1.0)
        for _ in range(50):
            v = SpaceTimeField(tg, g, rng.uniform(-3, 3, (1, 1)))
            outs = [prox(m, v, 0.7, 0.8, -1.2, 1.1).values for m in MODES]
            assert outs[0] == pytest.approx(outs[1], abs=1e-12)
            assert outs[0] == pytest.approx(outs[2], abs=1e-12)

    def test_mode_degeneration_one_cell_grid(self, rng):
        # one unit-volume cell: each time slice is one point, so the time
        # group prox reduces to the pointwise soft threshold
        tg, g = TimeGrid(1.0, 5), grid1d(1, 1.0)
        for _ in range(50):
            v = SpaceTimeField(tg, g, rng.uniform(-3, 3, (5, 1)))
            full = prox(SparsityMode.FULL_Q, v, 0.7, 0.8, -1.2, 1.1).values
            time = prox(SparsityMode.TIME, v, 0.7, 0.8, -1.2, 1.1).values
            assert np.max(np.abs(full - time)) <= 1e-12

    def test_kkt_fixed_point(self, rng):
        for mode in MODES:
            for _ in range(50):
                v = SpaceTimeField(self.tg, self.grid,
                                   rng.uniform(-2, 2, (4, 3)))
                eta, kappa = 0.8, 0.6
                u = prox(mode, v, eta, kappa, -1.0, 1.5)
                res = prox_kkt_residual(mode, u, v, eta, kappa, -1.0, 1.5)
                assert res <= 1e-8

    def test_requires_interior_zero(self):
        v = SpaceTimeField.zeros(self.tg, self.grid)
        with pytest.raises(BadBounds):
            prox(SparsityMode.TIME, v, 1.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("mode", [SparsityMode.TIME, SparsityMode.SPACE])
    def test_batched_equals_one_group_calls(self, mode):
        # 2D 32x32, 8 steps, box [-0.3, 0.3].  Each reference call holds one
        # group alone: one time step (TIME) or one cell (SPACE), whose norm
        # weight (cell volume, tau) is unchanged.  A SPACE group is a strided
        # column of the batched field and a contiguous one of the one-cell
        # field, and the result must not depend on that.  Zero groups and
        # clipped (bisected) groups both occur: 3 and 5 of the 8 TIME
        # groups, 357 and 213 of the 1024 SPACE groups, from a generator of
        # the test's own, so no other test's draws move them
        rng = np.random.default_rng(1)
        tg, g = TimeGrid(0.25, 8), grid2d(32, 32)
        vals = (rng.uniform(-1, 1, (8, 1024)) * rng.uniform(0.05, 1.0, (8, 1))
                * rng.uniform(0.1, 1.0, 1024))
        eta, kappa, box = 0.5, 0.15, 0.3
        batched = prox(mode, SpaceTimeField(tg, g, vals), eta, kappa,
                       -box, box).values
        by_time = mode is SparsityMode.TIME
        zero_groups = clipped_groups = 0
        for k in range(vals.shape[0] if by_time else vals.shape[1]):
            sel = np.s_[k:k + 1, :] if by_time else np.s_[:, k:k + 1]
            one = (SpaceTimeField(TimeGrid(tg.tau, 1), g, vals[sel]) if by_time
                   else SpaceTimeField(tg, grid1d(1), vals[sel]))
            ref = prox(mode, one, eta, kappa, -box, box).values
            assert ref.tobytes() == batched[sel].tobytes()
            zero_groups += bool(np.all(ref == 0.0))
            clipped_groups += bool(np.any(np.abs(ref) == box))
        n_groups = 8 if by_time else 1024
        assert 0 < zero_groups < n_groups
        assert 0 < clipped_groups < n_groups

    @pytest.mark.parametrize("box", [2.0, 0.3], ids=["inactive", "clipped"])
    def test_group_shrinkage(self, rng, box):
        # TIME groups on 2D 8x8 with |v| <= 1.  A group whose plain shrinkage
        # v (1 - eta kappa / ||v||_w) stays in the box takes it; a clipped
        # group matches a plain bisection of ||P_box(v t / (t + eta kappa))||_w
        # = t on [0, ||v||_w] to its stop rule, 1e-12 max(1, ||v||_w)
        tg, g = TimeGrid(1.0, 40), grid2d(8, 8)
        vals = rng.uniform(-1, 1, (40, 64)) * rng.uniform(0.1, 1, (40, 1))
        eta, kappa, w = 0.5, 0.4, g.cell_volume
        ek = eta * kappa
        out = prox(SparsityMode.TIME, SpaceTimeField(tg, g, vals), eta, kappa,
                   -box, box).values
        nv = np.sqrt(w * np.einsum("ij,ij->i", vals, vals))
        live = nv > ek
        assert np.all(out[~live] == 0.0) and 0 < live.sum() < 40
        clipped = np.any(np.abs(out) == box, axis=1)
        if box == 2.0:
            assert not clipped.any()
            plain = vals[live] * (1.0 - ek / nv[live])[:, None]
            assert np.max(np.abs(out[live] - plain)) <= 1e-15
            return
        assert 0 < clipped.sum() < live.sum()
        for v, n_v, u in zip(vals[live], nv[live], out[live]):
            a, b = 0.0, n_v
            while b - a > 1e-12 * max(1.0, n_v):
                mid = 0.5 * (a + b)
                shrunk = np.clip(v * (mid / (mid + ek)), -box, box)
                if np.sqrt(w * shrunk @ shrunk) > mid:
                    a = mid
                else:
                    b = mid
            t = 0.5 * (a + b)
            ref = np.clip(v * (t / (t + ek)), -box, box)
            assert np.max(np.abs(u - ref)) <= 1e-12

    def test_kappa_zero_is_projection(self, rng):
        vals = rng.uniform(-2, 2, (4, 3))
        v = SpaceTimeField(self.tg, self.grid, vals)
        out = prox(SparsityMode.TIME, v, 1.0, 0.0, -0.5, 0.5)
        assert np.array_equal(out.values, np.clip(vals, -0.5, 0.5))


class TestSelectSubgradient:
    def setup_method(self):
        self.tg = TimeGrid(1.0, 4)
        self.grid = grid1d(3, 1.0)

    def test_zero_everything(self):
        u = ControlPair.zeros(self.tg, self.grid)
        z = np.zeros((4, 3))
        for mode in MODES:
            lam1, lam2 = select_subgradient(mode, u, (z, z), 1.0)
            assert np.all(lam1 == 0.0)
            assert np.all(lam2 == 0.0)

    def test_full_sign_on_nonzero(self):
        vals = np.array([[0.5, -0.2, 0.0]] * 4)
        u = pair_from(self.tg, self.grid, vals)
        d = np.zeros((4, 3))
        lam1, _ = select_subgradient(SparsityMode.FULL_Q, u, (d, d), 1.0)
        assert np.all(lam1[:, 0] == 1.0)
        assert np.all(lam1[:, 1] == -1.0)
        assert np.all(lam1[:, 2] == 0.0)

    def test_full_projection_on_zero_set(self, rng):
        kappa = 0.8
        d = rng.uniform(-2, 2, (4, 3))
        u = ControlPair.zeros(self.tg, self.grid)
        lam1, _ = select_subgradient(SparsityMode.FULL_Q, u, (d, d), kappa)
        assert np.array_equal(lam1, np.clip(-d / kappa, -1, 1))

    def test_time_mode_unit_ball(self, rng):
        vol = self.grid.cell_volume
        vals = rng.uniform(-1, 1, (4, 3))
        vals[1] = 0.0
        u = pair_from(self.tg, self.grid, vals)
        d = rng.uniform(-3, 3, (4, 3))
        lam1, _ = select_subgradient(SparsityMode.TIME, u, (d, d), 0.7)
        norms = np.sqrt(vol * np.sum(lam1 ** 2, axis=1))
        assert np.all(norms <= 1.0 + 1e-10)
        for n in (0, 2, 3):
            assert norms[n] == pytest.approx(1.0, abs=1e-12)
            expected = vals[n] / np.sqrt(vol * np.dot(vals[n], vals[n]))
            assert np.allclose(lam1[n], expected)


class TestCertificate:
    def make_case(self, beta1=1.0, beta2=0.0):
        prob = preset_problem("time-sparsity-demo",
                              beta1=beta1, beta2=beta2)
        b = gradient_bundle(prob, prob.u0)
        return prob, ControlPair.from_arrays(prob.timegrid, prob.grid, b.d1,
                                             b.d2)

    def test_zero_adjoint_flags_everything(self):
        prob, d = self.make_case(beta1=0.0, beta2=0.0)
        rep = certificate(prob.mode, d, 1e-6, prob.bounds)
        assert np.all(rep.flagged1) and np.all(rep.flagged2)

    def test_tiny_kappa_flags_nothing(self):
        prob, d = self.make_case()
        rep = certificate(prob.mode, d, 1e-30, prob.bounds)
        assert np.count_nonzero(rep.flagged1) == np.count_nonzero(rep.norms1 == 0.0)
        assert np.count_nonzero(rep.flagged2) == np.count_nonzero(rep.norms2 == 0.0)

    def test_unsigned_bounds_refused(self):
        prob, d = self.make_case()
        bad = BoxBounds(0.0, 1.0, -1.0, 1.0)
        with pytest.raises(BadBounds):
            certificate(prob.mode, d, 0.1, bad)

    def test_csv_roundtrip(self, tmp_path):
        prob, d = self.make_case()
        rep = certificate(prob.mode, d, prob.params.kappa, prob.bounds)
        path = tmp_path / "cert.csv"
        certificate_to_csv(rep, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("slice,t,norm_d1")
        assert len(lines) == 1 + rep.norms1.size
