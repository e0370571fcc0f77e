"""Model data: parameters, double-well potentials, interpolation function h.

The continuous model couples a chemical potential mu, a tumor fraction phi
and a nutrient concentration sigma.  Everything the PDE solvers need to know
about the physics lives here: coefficient signs, the convex/nonconvex split
of the double-well potential, and the smooth interpolant h that switches
source terms off in healthy tissue (phi = -1) and on in tumor tissue
(phi = +1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fields import _HALF, _ONE, _THREE, _TWO, _ZERO

# a singular potential is evaluated at least this far inside its bounds
CLAMP_MARGIN = 1e-12
# sample points per interval in validate_setup's potential and h checks
SETUP_SAMPLES = 257

# the regular potential's other constants and smoothstep7's Horner
# constants, -84 with its sign, as 0-d arrays (see fields)
_QUARTER, _MINUS_TWO = np.array(0.25), np.array(-2.0)
_H35, _H84, _H70, _H20 = map(np.array, (35.0, -84.0, 70.0, 20.0))


@dataclass(frozen=True)
class ModelParams:
    """Physical and cost coefficients of the three-field system.

    alpha, beta   relaxation coefficients of the mu- and phi-equations
    chi           chemotaxis coupling
    p_rate        proliferation rate P
    a_rate        apoptosis rate A
    b_rate        nutrient supply rate B
    e_rate        nutrient consumption rate E
    sigma_s       nutrient level of the pre-existing vasculature
    nu            quadratic control weight
    kappa         sparsity weight
    beta1, beta2  tracking weights (distributed / terminal)
    """

    alpha: float
    beta: float
    chi: float
    p_rate: float
    a_rate: float
    b_rate: float
    e_rate: float
    sigma_s: float
    nu: float
    kappa: float
    beta1: float
    beta2: float

    def __post_init__(self):
        for name in ("alpha", "beta", "nu", "kappa"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be strictly positive, got {v!r}")
        for name in ("chi", "p_rate", "a_rate", "b_rate", "e_rate",
                     "sigma_s", "beta1", "beta2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be nonnegative, got {v!r}")


ScalarFunc = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PotentialSpec:
    """Double-well potential F = F1 + F2 with a convex F1.

    ``f1`` holds (F1, F1', F1'') and ``f2`` the same for F2.  For
    singular variants the admissible interval is (r_minus, r_plus); array
    evaluation clamps arguments to (r_minus + CLAMP_MARGIN, r_plus -
    CLAMP_MARGIN).  The state solver keeps its iterates inside that
    interval by a fraction-to-boundary rule and raises SeparationLoss
    rather than clamp phi.

    Made once when the spec is built, since the solvers read them at every
    Newton iteration: is_singular, and the evaluation interval's ends lo
    and hi as 0-d arrays (-inf and inf for a regular potential), with the
    bits of r_minus + CLAMP_MARGIN and r_plus - CLAMP_MARGIN.
    """

    r_minus: float
    r_plus: float
    f1: tuple[ScalarFunc, ScalarFunc, ScalarFunc]
    f2: tuple[ScalarFunc, ScalarFunc, ScalarFunc]
    is_singular: bool = field(init=False, repr=False, compare=False)
    lo: np.ndarray = field(init=False, repr=False, compare=False)
    hi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "is_singular", math.isfinite(self.r_minus)
                           or math.isfinite(self.r_plus))
        object.__setattr__(self, "lo", np.array(self.r_minus + CLAMP_MARGIN))
        object.__setattr__(self, "hi", np.array(self.r_plus - CLAMP_MARGIN))

    def clamp(self, r: np.ndarray) -> np.ndarray:
        """r clipped to the evaluation interval (unchanged if regular)."""
        if not self.is_singular:
            return r
        # np.clip's own definition, at a fraction of its per-call cost
        return np.minimum(np.maximum(r, self.lo), self.hi)

    def margin(self, r: np.ndarray) -> np.ndarray:
        """Least distance of r to the interval ends, along the last axis."""
        return np.minimum(np.minimum.reduce(r, axis=-1) - self.r_minus,
                          self.r_plus - np.maximum.reduce(r, axis=-1))

    def split_eval(self, r: np.ndarray,
                   order: int) -> tuple[np.ndarray, np.ndarray]:
        """(F1^(order), F2^(order)) at clamped r."""
        rc = self.clamp(np.asarray(r, dtype=float))
        return self.f1[order](rc), self.f2[order](rc)


def regular_potential() -> PotentialSpec:
    """Quartic double well F(r) = (1 - r^2)^2 / 4 on the whole real line.

    Split so that F1 is convex with F1(0) = 0:
    F1 = r^4/4 + r^2/2 and F2 = 1/4 - r^2.
    """
    f1 = (lambda r: _QUARTER * r**4 + _HALF * r**2,
          lambda r: r**3 + r,
          lambda r: _THREE * r**2 + _ONE)
    f2 = (lambda r: _QUARTER - r**2,
          lambda r: _MINUS_TWO * r,
          lambda r: _MINUS_TWO * np.ones_like(r))
    return PotentialSpec(-math.inf, math.inf, f1, f2)


def logarithmic_potential(k: float = 2.0) -> PotentialSpec:
    """Logarithmic double well on (-1, 1).

    F1(r) = (1+r)ln(1+r) + (1-r)ln(1-r) is the convex singular part and
    F2(r) = -k r^2 the smooth concave part; k > 1 makes F nonconvex.
    """
    if not k > 1.0:
        raise ValueError(f"logarithmic potential requires k > 1, got {k!r}")
    minus_k, minus_2k = np.array(-k), np.array(-2.0 * k)
    f1 = (lambda r: (_ONE + r) * np.log1p(r) + (_ONE - r) * np.log1p(-r),
          lambda r: np.log1p(r) - np.log1p(-r),
          lambda r: _TWO / (_ONE - r**2))
    f2 = (lambda r: minus_k * r**2,
          lambda r: minus_2k * r,
          lambda r: minus_2k * np.ones_like(r))
    return PotentialSpec(-1.0, 1.0, f1, f2)


@dataclass(frozen=True)
class InterpolantSpec:
    """Interpolation function h with h(-1) = 0, h(1) = 1 and bounded h'."""

    h: ScalarFunc
    hd: ScalarFunc


def smoothstep7() -> InterpolantSpec:
    """Default interpolant: 7th-order smoothstep in y = (r+1)/2.

    h = 35 y^4 - 84 y^5 + 70 y^6 - 20 y^7 on [-1, 1], constant outside.
    The first three derivatives vanish at both endpoints, so the constant
    extension is C^3 and h' is globally bounded.
    """
    def _y(r):  # y clipped to [0, 1] as PotentialSpec.clamp clips
        return np.minimum(np.maximum(
            _HALF * (np.asarray(r, dtype=float) + _ONE), _ZERO), _ONE)

    def h(r):
        y = _y(r)
        return y**4 * (_H35 + y * (_H84 + y * (_H70 - _H20 * y)))

    def hd(r):
        y = _y(r)
        return _H70 * y**3 * (_ONE - y) ** 3  # 70 = 0.5 * 140

    return InterpolantSpec(h, hd)


@dataclass(frozen=True)
class BoxBounds:
    """One scalar box lo_i <= u_i <= hi_i per control; lo > hi and array
    bounds are refused.  Sparsity also needs lo_i < 0 < hi_i (BadBounds)."""

    lo1: float
    hi1: float
    lo2: float
    hi2: float

    def __post_init__(self):
        for lo, hi, i in ((self.lo1, self.hi1, 1), (self.lo2, self.hi2, 2)):
            if lo > hi:
                raise ValueError(f"bounds for control {i} violate lo <= hi")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_setup: a list of (code, message) violations."""

    violations: tuple = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.passed:
            return "setup valid"
        return "; ".join(f"{c}: {m}" for c, m in self.violations)


def validate_setup(params: ModelParams, pot: PotentialSpec, init,
                   hspec: InterpolantSpec) -> ValidationReport:
    """Check the model assumptions on a concrete setup.

    Verifies strict interior separation of the initial phase field, the
    sampled F1 (convex, F1(0) = 0, F(0) finite) and the interpolant axioms:
    what a PotentialSpec or InterpolantSpec does not check when it is built.
    The parameter signs and the shared grid need no check here, because
    ModelParams and StateTriple refuse to build without them.  Returns a
    report instead of raising, so callers can surface every violated
    assumption at once.
    """
    bad = []

    def check(cond, code, msg):
        if not cond:
            bad.append((code, msg))

    phi0 = init.phi.values
    lo, hi = float(np.min(phi0)), float(np.max(phi0))
    check(pot.r_minus < lo and hi < pot.r_plus, "initial separation",
          f"phi0 range [{lo:g}, {hi:g}] not strictly inside "
          f"({pot.r_minus:g}, {pot.r_plus:g})")

    # sampled potential axioms on the interior of the admissible interval
    a = pot.r_minus if math.isfinite(pot.r_minus) else -3.0
    b = pot.r_plus if math.isfinite(pot.r_plus) else 3.0
    span = b - a
    rs = np.linspace(a + 1e-6 * span, b - 1e-6 * span, SETUP_SAMPLES)
    f1dd, _ = pot.split_eval(rs, 2)
    check(np.all(f1dd >= -1e-12), "F1 convex",
          "sampled F1'' has negative values")
    f1_0, f2_0 = pot.split_eval(np.asarray(0.0), 0)
    check(abs(float(f1_0)) <= 1e-12, "F1(0) zero", f"F1(0) = {float(f1_0)!r}")
    check(math.isfinite(float(f1_0 + f2_0)), "F(0) finite", "F(0) not finite")

    rh = rs[(rs >= -1.0) & (rs <= 1.0)]
    hs, hds = hspec.h(rh), hspec.hd(rh)
    check(np.all((hs >= -1e-12) & (hs <= 1.0 + 1e-12)), "h range",
          "h must take values in [0, 1]")
    inner = np.linspace(-1.0 + 1e-6, 1.0 - 1e-6, SETUP_SAMPLES)
    hv = hspec.h(inner)
    check(np.all(hv > 0.0), "h positive", "h must be positive on (-1, 1)")
    check(np.all(np.isfinite(hds)), "h' bounded", "h' must be finite")

    return ValidationReport(tuple(bad))
