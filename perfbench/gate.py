"""Correctness gate: compare each op's artifacts with the recorded reference.

``reference.json`` holds, per op kind, the values this gate reads from the
artifacts of one run at the commit that recorded it (see record_reference.py):

- simulate: manifest passed, every per-step balance residual within
  BALANCE_TOL relative, final-state samples and norms within REL_TOL;
- optimize: converged (last VI residual <= the config's tol_vi), cost within
  REL_TOL of the reference and support measures equal.  The optimum does not
  depend on the seeded random start, so one reference serves every seed;
- verify: every check passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
REL_TOL = 1e-8
# the PCG tolerance; the recorded balances are all below 5e-16
BALANCE_TOL = 1e-12
SAMPLES = 16


class GateFailure(AssertionError):
    """An op's output disagrees with its reference."""


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def _manifest(out: Path) -> dict:
    entries = {}
    for line in (out / "manifest.txt").read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        entries[key] = value
    return entries


def _last_row(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    return dict(zip(lines[0].split(","), lines[-1].split(",")))


def _final_state(path: Path, n_cells: int) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [float(line.rsplit(",", 1)[1]) for line in lines[-n_cells:]]


def observe(manifest) -> dict:
    """The values of one run that the gate compares with the reference."""
    out = manifest.out_dir
    entries = _manifest(out)
    listed = [v for k, v in entries.items() if k.startswith("artifact.")]
    obs = {"passed": manifest.passed and entries["passed"] == "1"
           and sorted(listed) == sorted(manifest.artifacts)
           and all((out / name).is_file() for name in listed)}
    if manifest.command == "simulate":
        worst = 0.0
        with open(out / "balance.csv", encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                _, _, _, rel_mu, rel_sigma = line.split(",")
                worst = max(worst, float(rel_mu), float(rel_sigma))
        obs["balance_max_relative"] = worst
        n_cells = math.prod(int(v) for v in entries["config.grid.n"].split())
        final = {}
        for name in ("mu", "phi", "sigma"):
            vals = _final_state(out / f"{name}.csv", n_cells)
            idx = sorted({round(i * (n_cells - 1) / (SAMPLES - 1))
                          for i in range(SAMPLES)})
            final[name] = {"norm": math.sqrt(sum(v * v for v in vals)),
                           "max_abs": max(abs(v) for v in vals),
                           "sample": [vals[i] for i in idx]}
        obs["final"] = final
    elif manifest.command == "optimize":
        row = _last_row(out / "convergence.csv")
        obs.update(cost=float(row["cost"]),
                   vi_residual=float(row["vi_residual"]),
                   tol_vi=float(entries["config.optimizer.tol_vi"]),
                   support1=float(row["support1"]),
                   support2=float(row["support2"]))
    return obs


def _close(a, b, scale):
    return abs(a - b) <= REL_TOL * scale


def check(kind: str, manifest, reference: dict | None) -> dict:
    """Raise GateFailure if the op's artifacts disagree with the reference.

    Probe kinds have no recorded output (they fail at the recording commit):
    a probe that succeeds must pass its manifest and balance checks.
    """
    obs = observe(manifest)
    if not obs["passed"]:
        raise GateFailure(f"{kind}: manifest or checks did not pass")
    if manifest.command == "simulate":
        if not obs["balance_max_relative"] <= BALANCE_TOL:
            raise GateFailure(f"{kind}: balance residual "
                              f"{obs['balance_max_relative']:.3e}")
        for name, got in obs["final"].items() if reference else ():
            want = reference["final"][name]
            scale = max(want["max_abs"], 1e-300)
            if not (_close(got["norm"], want["norm"], want["norm"])
                    and all(_close(a, b, scale) for a, b
                            in zip(got["sample"], want["sample"]))):
                raise GateFailure(f"{kind}: final {name} differs from the "
                                  "reference")
    elif manifest.command == "optimize":
        if not obs["vi_residual"] <= obs["tol_vi"]:
            raise GateFailure(f"{kind}: not converged, VI residual "
                              f"{obs['vi_residual']:.3e}")
        if not _close(obs["cost"], reference["cost"], abs(reference["cost"])):
            raise GateFailure(f"{kind}: cost {obs['cost']!r} != reference "
                              f"{reference['cost']!r}")
        if (obs["support1"], obs["support2"]) != (reference["support1"],
                                                  reference["support2"]):
            raise GateFailure(f"{kind}: support measures differ")
    return obs
