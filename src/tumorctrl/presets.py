"""Settings table, problem bundles, field recipes and the named presets.

SETTINGS declares every problem setting once: its config section and key,
its default and the converter that validates its config text.  Converters
report failures as located ConfigIssues, collected into one ConfigError.

A Problem collects everything one experiment needs (parameters, potential,
interpolant, grids, initial data, targets, bounds, sparsity mode, starting
control) and remembers the flat settings it was built from, so verification
studies can refine it: with_resolution re-samples the initial data and
targets from the settings' recipes, prolongs the starting control and keeps
every other part.

Field recipes are small textual descriptions evaluated on a grid:

  constant V            uniform value
  cosine OFF AMP        OFF + AMP * prod_i cos(pi x_i / L_i)
  bump OFF AMP          OFF + AMP * prod_i sin(pi x_i / L_i)
  pulse OFF AMP T0 T1   bump profile active only for T0 <= t <= T1
  random AMP            uniform(-AMP, AMP), drawn from the problem seed
  values v1 v2 ...      inline cell values (space-only)

A recipe with the wrong number of arguments raises ValueError.

make_problem refuses, with a ConfigError naming grid.n and time.n_steps, a
problem whose node fields ((n_steps + 1) x cells float64 values, its
largest arrays) would each take more than MAX_FIELD_BYTES, before it
allocates anything.

Node fields sample recipes at node times, interval fields at interval
midpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from types import MappingProxyType

import numpy as np

from .fields import (Field, GridSpec, ShapeMismatch, SpaceTimeField,
                     StateTriple, TimeGrid, prolong)
from .model import (BoxBounds, InterpolantSpec, ModelParams, PotentialSpec,
                    logarithmic_potential, regular_potential, smoothstep7)
from .solver import ControlPair
from .sparsity import SparsityMode


def _spatial_profile(kind: str, grid: GridSpec) -> np.ndarray:
    coords = grid.cell_centers()
    prof = np.ones(grid.n_cells)
    fn = np.cos if kind == "cosine" else np.sin
    for x, L in zip(coords, grid.length):
        prof = prof * fn(np.pi * x / L)
    return prof


# recipe kind -> number of arguments it takes ("values" takes one per cell)
_RECIPE_ARITY = {"constant": 1, "cosine": 2, "bump": 2, "pulse": 4,
                 "random": 1}


def _recipe_parts(recipe: str) -> list:
    """Split a recipe into its kind and arguments, checking their count."""
    parts = recipe.split()
    if not parts:
        raise ValueError("empty field recipe")
    need = _RECIPE_ARITY.get(parts[0])
    if need is not None and len(parts) - 1 != need:
        raise ValueError(f"recipe {recipe!r} needs {need} argument(s) after "
                         f"{parts[0]!r}, got {len(parts) - 1}")
    return parts


def eval_space_recipe(recipe: str, grid: GridSpec,
                      rng: np.random.Generator) -> np.ndarray:
    """Evaluate a space-only recipe to one value per cell."""
    parts = _recipe_parts(recipe)
    kind = parts[0]
    if kind == "constant":
        return np.full(grid.n_cells, float(parts[1]))
    if kind in ("cosine", "bump"):
        off, amp = float(parts[1]), float(parts[2])
        return off + amp * _spatial_profile(kind, grid)
    if kind == "random":
        return float(parts[1]) * rng.uniform(-1.0, 1.0, grid.n_cells)
    if kind == "values":
        vals = np.array([float(v) for v in parts[1:]])
        if vals.size != grid.n_cells:
            raise ValueError(
                f"inline recipe has {vals.size} values, grid has "
                f"{grid.n_cells} cells")
        return vals
    raise ValueError(f"unknown spatial recipe {recipe!r}")


def eval_spacetime_recipe(recipe: str, grid: GridSpec, timegrid: TimeGrid,
                          on_nodes: bool,
                          rng: np.random.Generator) -> SpaceTimeField:
    """Evaluate a recipe to a node or interval space-time field."""
    times = timegrid.node_times() if on_nodes else timegrid.slice_times()
    parts = _recipe_parts(recipe)
    kind = parts[0]
    if kind == "pulse":
        off, amp, t0, t1 = (float(v) for v in parts[1:])
        prof = _spatial_profile("bump", grid)
        gate = ((times >= t0) & (times <= t1)).astype(float)
        vals = off + amp * gate[:, None] * prof[None, :]
    elif kind == "random":
        vals = float(parts[1]) * rng.uniform(-1.0, 1.0,
                                             (times.size, grid.n_cells))
    else:
        row = eval_space_recipe(recipe, grid, rng)
        vals = np.tile(row, (times.size, 1))
    return SpaceTimeField(timegrid, grid, vals)


_POTENTIALS = {
    "regular": lambda s: regular_potential(),
    "logarithmic": lambda s: logarithmic_potential(float(s["log_k"])),
}

@dataclass(frozen=True)
class ConfigIssue:
    key: str
    line: int
    message: str
    kind: str  # parse | unknown-key | unknown-value | range

    def __str__(self):
        where = f" (line {self.line})" if self.line else ""
        return f"{self.kind}: {self.key}{where}: {self.message}"


class ConfigError(ValueError):
    """Carries every located config problem at once."""

    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


# Converters turn one config string into a setting value; on failure they
# append a located ConfigIssue and return None.

def _float_key(lo=None, lo_strict=False):
    def conv(raw, key, line, issues):
        try:
            v = float(raw)
        except ValueError:
            issues.append(ConfigIssue(key, line, f"not a number: {raw!r}",
                                      "parse"))
            return None
        if not np.isfinite(v):
            issues.append(ConfigIssue(key, line, "must be finite", "range"))
            return None
        if lo is not None and (v < lo or (lo_strict and v == lo)):
            cmp = ">" if lo_strict else ">="
            issues.append(ConfigIssue(key, line, f"must be {cmp} {lo}",
                                      "range"))
            return None
        return v
    return conv


def _int_key(lo=None):
    def conv(raw, key, line, issues):
        try:
            v = int(raw)
        except ValueError:
            issues.append(ConfigIssue(key, line, f"not an integer: {raw!r}",
                                      "parse"))
            return None
        if lo is not None and v < lo:
            issues.append(ConfigIssue(key, line, f"must be >= {lo}", "range"))
            return None
        return v
    return conv


def _choice_key(options):
    def conv(raw, key, line, issues):
        if raw not in options:
            issues.append(ConfigIssue(
                key, line, f"unknown value {raw!r}; one of {sorted(options)}",
                "unknown-value"))
            return None
        return raw
    return conv


def _str_key(raw, key, line, issues):
    return raw


def _tuple_key(conv_item, max_len=2):
    def conv(raw, key, line, issues):
        parts = raw.split()
        if not 1 <= len(parts) <= max_len:
            issues.append(ConfigIssue(key, line,
                                      f"expected 1..{max_len} values", "parse"))
            return None
        out = []
        for p in parts:
            v = conv_item(p, key, line, issues)
            if v is None:
                return None
            out.append(v)
        return tuple(out)
    return conv


def _floats_key(raw, key, line, issues):
    try:
        return tuple(float(p) for p in raw.split())
    except ValueError:
        issues.append(ConfigIssue(key, line, "expected numbers", "parse"))
        return None


# the bytes one node field may take: a run holds tens of them (states,
# adjoints, trial points), so a problem above this cannot be run here
MAX_FIELD_BYTES = 1 << 28

_POSITIVE = _float_key(lo=0, lo_strict=True)
_NONNEG = _float_key(lo=0)

# setting name -> (config section, config key, default, converter); the one
# declaration of every problem setting
SETTINGS = {
    "seed": ("run", "seed", 20260808, _int_key(lo=0)),
    "alpha": ("model", "alpha", 1.0, _POSITIVE),
    "beta": ("model", "beta", 1.0, _POSITIVE),
    "chi": ("model", "chi", 0.3, _NONNEG),
    "p_rate": ("model", "p_rate", 0.5, _NONNEG),
    "a_rate": ("model", "a_rate", 0.1, _NONNEG),
    "b_rate": ("model", "b_rate", 0.5, _NONNEG),
    "e_rate": ("model", "e_rate", 0.5, _NONNEG),
    "sigma_s": ("model", "sigma_s", 0.6, _NONNEG),
    "nu": ("model", "nu", 0.1, _POSITIVE),
    "kappa": ("model", "kappa", 0.02, _POSITIVE),
    "beta1": ("model", "beta1", 1.0, _NONNEG),
    "beta2": ("model", "beta2", 0.0, _NONNEG),
    "potential": ("potential", "variant", "regular", _choice_key(_POTENTIALS)),
    "log_k": ("potential", "log_k", 2.0, _float_key(lo=1, lo_strict=True)),
    "dim": ("grid", "dim", 1, _int_key(lo=1)),
    "n": ("grid", "n", (32,), _tuple_key(_int_key(lo=1))),
    "length": ("grid", "length", (1.0,), _tuple_key(_POSITIVE)),
    "t_final": ("time", "t_final", 0.25, _POSITIVE),
    "n_steps": ("time", "n_steps", 64, _int_key(lo=1)),
    "init_mu": ("init", "mu", "constant 0", _str_key),
    "init_phi": ("init", "phi", "constant 0", _str_key),
    "init_sigma": ("init", "sigma", "constant 0.5", _str_key),
    "target_phi_q": ("targets", "phi_q", "constant 0", _str_key),
    "target_phi_omega": ("targets", "phi_omega", "constant 0", _str_key),
    "lo1": ("bounds", "lo1", -1.0, _float_key()),
    "hi1": ("bounds", "hi1", 1.0, _float_key()),
    "lo2": ("bounds", "lo2", -1.0, _float_key()),
    "hi2": ("bounds", "hi2", 1.0, _float_key()),
    "mode": ("sparsity", "mode", "none",
             _choice_key([m.value for m in SparsityMode])),
    "u0_1": ("controls", "u0_1", "constant 0", _str_key),
    "u0_2": ("controls", "u0_2", "constant 0", _str_key),
    "max_iters": ("optimizer", "max_iters", 400, _int_key(lo=1)),
    "tol_vi": ("optimizer", "tol_vi", 1e-8, _POSITIVE),
}

DEFAULT_SETTINGS = {name: d for name, (_, _, d, _) in SETTINGS.items()}


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


@dataclass(frozen=True)
class Problem:
    """One fully-specified experiment instance.

    The optimizer layer and the verification checks take it whole; a run
    with other parts (a start, a kappa, no sparsity, a stopping rule) is a
    dataclasses.replace copy.  The optimizer stops at VI residual <= tol_vi
    (converged) or after max_iters steps.
    """

    params: ModelParams
    pot: PotentialSpec
    hspec: InterpolantSpec
    grid: GridSpec
    timegrid: TimeGrid
    init: StateTriple
    targets: Targets
    bounds: BoxBounds
    mode: SparsityMode
    u0: ControlPair
    max_iters: int
    tol_vi: float
    seed: int
    settings: MappingProxyType

    def __post_init__(self):
        if not self.tol_vi > 0.0:
            raise ValueError("tol_vi must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")

    def with_resolution(self, space_scale: int = 1,
                        time_scale: int = 1) -> "Problem":
        """This problem on grids refined by space_scale and time_scale.

        init and targets are re-sampled from the settings' recipes, u0 is
        prolonged piecewise-constant, and every other part is kept, so a
        replace copy refines as itself.  A copy whose init or targets are
        not the ones its settings build here raises ValueError naming the
        part, since the recipes would refine other data.
        """
        built = make_problem(self.settings)
        for part in ("init.mu", "init.phi", "init.sigma", "targets.phi_q",
                     "targets.phi_omega"):
            values = attrgetter(part + ".values")
            if values(self).tobytes() != values(built).tobytes():
                raise ValueError(f"with_resolution: {part} is not the one the "
                                 "settings build, so they cannot refine it")
        s = dict(self.settings)
        s["n"] = tuple(int(v) * int(space_scale) for v in s["n"])
        s["n_steps"] = int(s["n_steps"]) * int(time_scale)
        fine = make_problem(s)
        u0 = ControlPair.from_arrays(fine.timegrid, fine.grid, *(
            prolong(u.values, self.grid, space_scale, time_scale)
            for u in (self.u0.u1, self.u0.u2)))
        return replace(self, grid=fine.grid, timegrid=fine.timegrid,
                       init=fine.init, targets=fine.targets, u0=u0,
                       settings=fine.settings)


def _from_fields(cls, s):
    return cls(**{f.name: float(s[f.name]) for f in fields(cls)})


def make_problem(settings: dict) -> Problem:
    """Build a Problem from flat settings (missing keys take defaults)."""
    s = {**DEFAULT_SETTINGS, **settings}
    unknown = set(s) - set(DEFAULT_SETTINGS)
    if unknown:
        raise ValueError(f"unknown settings: {sorted(unknown)}")

    params = _from_fields(ModelParams, s)
    if s["potential"] not in _POTENTIALS:
        raise ValueError(f"unknown potential {s['potential']!r}")
    pot = _POTENTIALS[s["potential"]](s)
    hspec = smoothstep7()

    # a scalar n or length is one axis; settings keep the tuples to refine
    for key, conv in (("n", int), ("length", float)):
        s[key] = tuple(map(conv, s[key] if hasattr(s[key], "__len__")
                           else (s[key],)))
    grid = GridSpec(int(s["dim"]), s["n"], s["length"])
    timegrid = TimeGrid(float(s["t_final"]), int(s["n_steps"]))
    shape = (timegrid.n_steps + 1, math.prod(grid.n))
    if 8 * math.prod(shape) > MAX_FIELD_BYTES:
        raise ConfigError([ConfigIssue(
            "grid.n, time.n_steps", 0,
            f"a node field of {shape[0]} x {shape[1]} float64 values takes "
            f"{8 * math.prod(shape) / 2 ** 30:.4g} GiB, over the budget of "
            f"{MAX_FIELD_BYTES / 2 ** 30:g} GiB (presets.MAX_FIELD_BYTES)",
            "range")])

    rng = np.random.default_rng(int(s["seed"]))
    init = StateTriple(
        Field(grid, eval_space_recipe(s["init_mu"], grid, rng)),
        Field(grid, eval_space_recipe(s["init_phi"], grid, rng)),
        Field(grid, eval_space_recipe(s["init_sigma"], grid, rng)))
    targets = Targets(
        eval_spacetime_recipe(s["target_phi_q"], grid, timegrid, True, rng),
        Field(grid, eval_space_recipe(s["target_phi_omega"], grid, rng)))
    bounds = _from_fields(BoxBounds, s)
    mode = SparsityMode(str(s["mode"]))
    u0 = ControlPair(
        eval_spacetime_recipe(s["u0_1"], grid, timegrid, False, rng),
        eval_spacetime_recipe(s["u0_2"], grid, timegrid, False, rng))

    return Problem(params, pot, hspec, grid, timegrid, init, targets, bounds,
                   mode, u0, int(s["max_iters"]), float(s["tol_vi"]),
                   int(s["seed"]), MappingProxyType(dict(s)))


PRESET_SETTINGS = {
    # exact stationary solution (0, 1, 0): every residual vanishes
    "stationary-trivial": {
        "alpha": 1.0, "beta": 1.0, "chi": 1.0, "p_rate": 1.0, "a_rate": 0.0,
        "b_rate": 1.0, "e_rate": 1.0, "sigma_s": 0.0, "nu": 0.1,
        "kappa": 0.01, "beta1": 1.0, "beta2": 1.0,
        "potential": "regular", "dim": 1, "n": (8,), "length": (1.0,),
        "t_final": 0.1, "n_steps": 8,
        "init_mu": "constant 0", "init_phi": "constant 1",
        "init_sigma": "constant 0",
        "target_phi_q": "constant 1", "target_phi_omega": "constant 1",
        "mode": "none",
    },
    # workhorse 1D instance with the singular potential
    "1D-logarithmic-default": {
        "alpha": 1.0, "beta": 1.0, "chi": 0.3, "p_rate": 0.8, "a_rate": 0.2,
        "b_rate": 0.5, "e_rate": 0.6, "sigma_s": 0.6, "nu": 0.1,
        "kappa": 0.02, "beta1": 1.0, "beta2": 0.5,
        "potential": "logarithmic", "log_k": 2.0,
        "dim": 1, "n": (64,), "length": (1.0,),
        "t_final": 0.25, "n_steps": 128,
        "init_mu": "constant 0", "init_phi": "cosine 0.0 0.3",
        "init_sigma": "constant 0.5",
        "target_phi_q": "cosine -0.1 0.2", "target_phi_omega": "constant 0",
        "mode": "time",
        "u0_1": "cosine 0.05 0.15", "u0_2": "cosine -0.05 0.1",
    },
    # small 2D instance with the regular potential and full sparsity
    "2D-regular-default": {
        "alpha": 1.0, "beta": 1.0, "chi": 0.3, "p_rate": 0.6, "a_rate": 0.1,
        "b_rate": 0.5, "e_rate": 0.5, "sigma_s": 0.6, "nu": 0.1,
        "kappa": 0.02, "beta1": 1.0, "beta2": 0.5,
        "potential": "regular",
        "dim": 2, "n": (12, 12), "length": (1.0, 1.0),
        "t_final": 0.2, "n_steps": 32,
        "init_mu": "constant 0", "init_phi": "cosine 0.0 0.4",
        "init_sigma": "constant 0.5",
        "target_phi_q": "cosine -0.1 0.2", "target_phi_omega": "constant 0",
        "mode": "full",
        "u0_1": "cosine 0.05 0.1", "u0_2": "cosine -0.05 0.1",
    },
    # drives the control early, then lets sparsity switch it off
    "time-sparsity-demo": {
        "alpha": 1.0, "beta": 1.0, "chi": 0.2, "p_rate": 0.5, "a_rate": 0.1,
        "b_rate": 0.5, "e_rate": 0.4, "sigma_s": 0.5, "nu": 0.05,
        "beta1": 1.0, "beta2": 0.0,
        "potential": "regular",
        "dim": 1, "n": (16,), "length": (1.0,),
        "t_final": 0.5, "n_steps": 40,
        "init_mu": "constant 0", "init_phi": "constant 0",
        "init_sigma": "constant 0.5",
        "target_phi_q": "pulse 0.0 0.6 0.0 0.15",
        "target_phi_omega": "constant 0",
        "lo1": -2.0, "hi1": 2.0, "lo2": -2.0, "hi2": 2.0,
        "mode": "time", "kappa": 5e-4,
        "max_iters": 800, "tol_vi": 1e-9,
    },
    # aggressive cytotoxic drive squeezing phi toward the singular wall.
    # `verify` is meant to fail here, and only in separation_monitor: phi
    # comes within 8.4e-8 of the wall at step 81, under the monitor's 1e-6
    # floor but above the solver's 1e-11, so the margin is kept and
    # reported, never clamped.
    "stress-separation": {
        "alpha": 1.0, "beta": 1.0, "chi": 0.5, "p_rate": 10.0, "a_rate": 0.0,
        "b_rate": 2.0, "e_rate": 0.0, "sigma_s": 1.0, "nu": 0.1,
        "kappa": 0.02, "beta1": 1.0, "beta2": 0.0,
        "potential": "logarithmic", "log_k": 2.0,
        "dim": 1, "n": (32,), "length": (1.0,),
        "t_final": 0.6, "n_steps": 96,
        "init_mu": "constant 0", "init_phi": "constant 0",
        "init_sigma": "constant 1",
        "target_phi_q": "constant 0", "target_phi_omega": "constant 0",
        "lo1": -30.0, "hi1": 30.0, "lo2": -30.0, "hi2": 30.0,
        "mode": "time",
        "u0_1": "constant -16", "u0_2": "constant 0",
    },
}


def preset_names() -> tuple:
    return tuple(sorted(PRESET_SETTINGS))


def preset_settings(name: str) -> dict:
    if name not in PRESET_SETTINGS:
        raise KeyError(f"unknown preset {name!r}; known: {preset_names()}")
    return dict(PRESET_SETTINGS[name])


def preset_problem(name: str, **overrides) -> Problem:
    s = preset_settings(name)
    s.update(overrides)
    return make_problem(s)

