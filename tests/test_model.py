import math

import numpy as np
import pytest

from tumorctrl.fields import Field, StateTriple, grid1d
from tumorctrl.model import (BoxBounds, ModelParams, PotentialSpec,
                             logarithmic_potential, regular_potential,
                             smoothstep7, validate_setup)


def default_params(**kw):
    base = dict(alpha=1.0, beta=1.0, chi=0.3, p_rate=0.5, a_rate=0.1,
                b_rate=0.5, e_rate=0.5, sigma_s=0.6, nu=0.1, kappa=0.02,
                beta1=1.0, beta2=0.0)
    base.update(kw)
    return ModelParams(**base)


def eval_potential(pot, r):
    """F, F', F'' at one point, each summed from the split F1 + F2."""
    ra = np.asarray(float(r))
    return tuple(float(pot.f1[k](ra) + pot.f2[k](ra)) for k in range(3))


def uniform_state(grid, mu, phi, sigma):
    return StateTriple(Field.full(grid, mu), Field.full(grid, phi),
                       Field.full(grid, sigma))


class TestModelParams:
    def test_valid_construction(self):
        default_params()

    @pytest.mark.parametrize("name", ["alpha", "beta", "nu", "kappa"])
    def test_rejects_nonpositive(self, name):
        with pytest.raises(ValueError, match=name):
            default_params(**{name: 0.0})

    @pytest.mark.parametrize("name", ["chi", "p_rate", "b_rate", "beta1"])
    def test_rejects_negative_rates(self, name):
        with pytest.raises(ValueError, match=name):
            default_params(**{name: -0.1})


class TestPotentials:
    def test_regular_values(self):
        pot = regular_potential()
        f, fd, fdd = eval_potential(pot, 0.0)
        assert f == pytest.approx(0.25, abs=1e-15)
        f, fd, _ = eval_potential(pot, 1.0)
        assert f == pytest.approx(0.0, abs=1e-15)
        assert fd == pytest.approx(0.0, abs=1e-15)

    def test_logarithmic_center(self):
        pot = logarithmic_potential(k=2.0)
        f, fd, fdd = eval_potential(pot, 0.0)
        assert f == pytest.approx(0.0, abs=1e-15)
        assert fd == pytest.approx(0.0, abs=1e-15)
        assert fdd == pytest.approx(-2.0, abs=1e-13)

    def test_log_requires_nonconvexity(self):
        with pytest.raises(ValueError):
            logarithmic_potential(k=1.0)

    @pytest.mark.parametrize("pot,lo,hi", [
        (regular_potential(), -2.5, 2.5),
        (logarithmic_potential(2.0), -0.95, 0.95),
    ])
    def test_derivatives_match_finite_differences(self, pot, lo, hi, rng):
        rs = rng.uniform(lo, hi, 100)
        h = 1e-6 * max(1.0, hi - lo)
        for r in rs:
            f0 = eval_potential(pot, r)
            fp = eval_potential(pot, r + h)
            fm = eval_potential(pot, r - h)
            for k in range(2):
                fd = (fp[k] - fm[k]) / (2.0 * h)
                scale = max(abs(f0[k + 1]), 1.0)
                assert abs(f0[k + 1] - fd) <= 1e-6 * scale

    @pytest.mark.parametrize("pot,lo,hi", [
        (regular_potential(), -3.0, 3.0),
        (logarithmic_potential(2.0), -1 + 1e-9, 1 - 1e-9),
    ])
    def test_convex_split(self, pot, lo, hi):
        rs = np.linspace(lo, hi, 513)
        f1dd, f2dd = pot.split_eval(rs, 2)
        assert np.all(f1dd >= 0.0)
        # F2' globally Lipschitz: sampled difference quotients bounded
        f2d = pot.split_eval(rs, 1)[1]
        quot = np.abs(np.diff(f2d) / np.diff(rs))
        assert np.all(np.isfinite(quot)) and np.max(quot) < 100.0

    def test_split_normalization(self):
        for pot in (regular_potential(), logarithmic_potential(2.0)):
            f1_0, f2_0 = pot.split_eval(np.asarray(0.0), 0)
            assert abs(float(f1_0)) <= 1e-15
            assert math.isfinite(float(f1_0 + f2_0))

    def test_logarithmic_divergence(self):
        # F' diverges monotonically toward the interval ends; the curvature
        # F'' exceeds 1e6 already at distance 1e-8 from the wall (F' itself
        # grows only logarithmically, so no finite-double evaluation of it
        # can reach 1e6)
        pot = logarithmic_potential(2.0)
        vals = [eval_potential(pot, 1.0 - d)[1] for d in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert eval_potential(pot, 1.0 - 1e-8)[2] > 1e6
        assert eval_potential(pot, -1.0 + 1e-8)[2] > 1e6
        assert eval_potential(pot, -1.0 + 1e-8)[1] < -eval_potential(pot, 0.5)[1]

    def test_clamped_array_eval_reported(self):
        pot = logarithmic_potential(2.0)
        vals, _ = pot.split_eval(np.array([0.0, 1.0, -1.0]), 1)
        assert np.all(np.isfinite(vals))

    def test_custom_split(self):
        # quadratic well with a cosine dent, split by hand
        f1 = (lambda r: r**2, lambda r: 2 * r,
              lambda r: 2.0 * np.ones_like(r))
        f2 = (lambda r: np.cos(r) - 1.0, lambda r: -np.sin(r),
              lambda r: -np.cos(r))
        pot = PotentialSpec(-np.inf, np.inf, f1, f2)
        f, fd, fdd = eval_potential(pot, 0.0)
        assert f == pytest.approx(0.0) and fd == pytest.approx(0.0)
        assert fdd == pytest.approx(1.0)
        f1d, f2d = pot.split_eval(np.asarray(0.7), 1)
        assert float(f1d) == pytest.approx(1.4)
        assert float(f2d) == pytest.approx(-np.sin(0.7))
        grid = grid1d(4)
        rep = validate_setup(default_params(), pot,
                             uniform_state(grid, 0, 0, 0.5), smoothstep7())
        assert rep.passed


class TestInterpolant:
    def test_endpoint_values(self):
        hs = smoothstep7()
        h, hd = hs.h(-1.0), hs.hd(-1.0)
        assert h == pytest.approx(0.0, abs=1e-15)
        assert hd == pytest.approx(0.0, abs=1e-15)
        h, hd = hs.h(1.0), hs.hd(1.0)
        assert h == pytest.approx(1.0, abs=1e-15)
        assert hd == pytest.approx(0.0, abs=1e-15)

    def test_midpoint_value(self):
        # -20 y^7 + 70 y^6 - 84 y^5 + 35 y^4 at y = 1/2
        y = 0.5
        expected = -20 * y**7 + 70 * y**6 - 84 * y**5 + 35 * y**4
        assert expected == pytest.approx(0.5, abs=1e-15)
        assert smoothstep7().h(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_and_bounded(self):
        hs = smoothstep7()
        rs = np.linspace(-1.2, 1.2, 1001)
        h = hs.h(rs)
        assert np.all(np.diff(h) >= -1e-15)
        assert np.all((h >= 0.0) & (h <= 1.0))
        inner = np.linspace(-1 + 1e-9, 1 - 1e-9, 501)
        assert np.all(hs.h(inner) > 0.0)

    def test_constant_extension(self):
        hs = smoothstep7()
        assert hs.h(-5.0) == 0.0
        assert hs.h(5.0) == 1.0

    def test_derivative_consistency(self, rng):
        hs = smoothstep7()
        rs = rng.uniform(-0.999, 0.999, 50)
        eps = 1e-6
        hp = (hs.h(rs + eps) - hs.h(rs - eps)) / (2 * eps)
        assert np.max(np.abs(hp - hs.hd(rs))) < 1e-7


class TestValidateSetup:
    def test_log_centered_passes(self):
        grid = grid1d(8)
        rep = validate_setup(default_params(), logarithmic_potential(),
                             uniform_state(grid, 0, 0, 0.5), smoothstep7())
        assert rep.passed

    def test_pure_phase_fails_separation(self):
        grid = grid1d(8)
        rep = validate_setup(default_params(), logarithmic_potential(),
                             uniform_state(grid, 0, 1.0, 0.5), smoothstep7())
        assert not rep.passed
        assert any(code == "initial separation" for code, _ in rep.violations)

    def test_concave_f1_fails(self):
        # a PotentialSpec checks nothing when built, so validate_setup must
        f1 = (lambda r: -(r**2), lambda r: -2 * r,
              lambda r: -2.0 * np.ones_like(r))
        pot = PotentialSpec(-np.inf, np.inf, f1, f1)
        grid = grid1d(8)
        rep = validate_setup(default_params(), pot,
                             uniform_state(grid, 0, 0, 0.5), smoothstep7())
        assert [code for code, _ in rep.violations] == ["F1 convex"]


class TestBoxBounds:
    def test_rejects_crossed(self):
        with pytest.raises(ValueError):
            BoxBounds(1.0, -1.0, -1.0, 1.0)

    def test_array_box_refused(self):
        # every box is one scalar interval per control
        with pytest.raises(ValueError):
            BoxBounds(np.full(4, -1.0), 1.0, -1.0, 1.0)
