"""Workload definitions: seeded experiment configs, grouped into rounds.

Every op is one CLI-style experiment: a config text that the harness parses
with ``runner.parse_config_text`` and executes with ``runner.run``.  A round
is the fixed list of timed ops a workload repeats; probe ops run once per
run, after the timed rounds, and count only towards the error rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    kind: str  # key into KINDS; names the reference the gate compares with
    text: str  # config text as a user would write it
    probe: bool = False


def config_text(sections: dict) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
        lines.append("")
    return "\n".join(lines)


def _merge(base: dict, **sections) -> dict:
    out = {sec: dict(keys) for sec, keys in base.items()}
    for sec, keys in sections.items():
        out.setdefault(sec, {}).update(keys)
    return out


def _log_1d(n, steps, command="simulate", **sections):
    return _merge({"run": {"command": command,
                           "preset": "1D-logarithmic-default"},
                   "grid": {"n": str(n)}, "time": {"n_steps": str(steps)}},
                  **sections)


def _reg_2d(n, steps):
    return {"run": {"command": "simulate", "preset": "2D-regular-default"},
            "grid": {"n": f"{n} {n}"}, "time": {"n_steps": str(steps)}}


_OPT_SPARSE_DEMO = {"run": {"command": "optimize",
                            "preset": "time-sparsity-demo"},
                    "controls": {"u0_1": "random 0.5", "u0_2": "random 0.5"}}

# kind -> base sections; the op's seed is added as run.seed
KINDS = {
    # optimize-1d
    "optimize-1d-log": _log_1d(64, 32, "optimize",
                               model={"kappa": "0.001", "nu": "0.05"},
                               controls={"u0_1": "random 0.2",
                                         "u0_2": "random 0.2"}),
    "optimize-1d-regular": _OPT_SPARSE_DEMO,
    # optimize-2d-space: 1024 spatial groups per control component
    "optimize-2d-space": _merge(
        _OPT_SPARSE_DEMO,
        grid={"dim": "2", "n": "32 32", "length": "1.0 1.0"},
        time={"n_steps": "8"}, targets={"phi_q": "bump 0.0 0.6"},
        model={"kappa": "0.0025"}, sparsity={"mode": "space"}),
    # simulate-ladder
    "simulate-1d-log-128": _log_1d(128, 16),
    "simulate-1d-log-256": _log_1d(256, 16),
    "simulate-1d-log-512": _log_1d(512, 16),
    "simulate-2d-regular-24": _reg_2d(24, 16),
    "simulate-2d-regular-48": _reg_2d(48, 16),
    "simulate-2d-regular-96": _reg_2d(96, 8),
    # probes: the phi-Newton floor rejects these grids for both potentials
    "probe-1d-log-1024": _log_1d(1024, 2),
    "probe-1d-log-2048": _log_1d(2048, 2),
    "probe-1d-regular-1024": _log_1d(1024, 2,
                                     potential={"variant": "regular"}),
    "probe-1d-regular-2048": _log_1d(2048, 2,
                                     potential={"variant": "regular"}),
    # verify-1d
    "verify-1d": {"run": {"command": "verify",
                          "preset": "time-sparsity-demo"}},
}


@dataclass(frozen=True)
class Workload:
    name: str
    round_kinds: tuple  # timed ops of one round, in canonical order
    shuffle: bool = False  # permute each round's order by the seed
    probe_kinds: tuple = ()


WORKLOADS = {w.name: w for w in (
    # two log ops per regular op keep the median inside the log cluster,
    # whose longer ops average over more of the host's speed swings
    Workload("optimize-1d", ("optimize-1d-log", "optimize-1d-log",
                             "optimize-1d-regular")),
    Workload("optimize-2d-space", ("optimize-2d-space",)),
    Workload("simulate-ladder",
             ("simulate-1d-log-128", "simulate-1d-log-256",
              "simulate-1d-log-512", "simulate-2d-regular-24",
              "simulate-2d-regular-48", "simulate-2d-regular-96"),
             shuffle=True,
             probe_kinds=("probe-1d-log-1024", "probe-1d-log-2048",
                          "probe-1d-regular-1024", "probe-1d-regular-2048")),
    Workload("verify-1d", ("verify-1d",)),
)}


def make_op(kind: str, seed: int, probe: bool = False) -> Op:
    sections = _merge(KINDS[kind], run={"seed": str(seed)})
    return Op(kind, config_text(sections), probe)


class OpSource:
    """Deterministic op stream of one workload: the same seed, the same ops."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self._rng = random.Random(seed)

    def next_round(self) -> list:
        kinds = list(self.workload.round_kinds)
        if self.workload.shuffle:
            self._rng.shuffle(kinds)
        return [make_op(k, self._rng.randrange(2 ** 31)) for k in kinds]

    def probes(self) -> list:
        return [make_op(k, self._rng.randrange(2 ** 31), probe=True)
                for k in self.workload.probe_kinds]


def warmup_ops(workload: Workload) -> list:
    """Tiny versions of the workload's op kinds, run once before timing."""
    ops = []
    for kind in dict.fromkeys(workload.round_kinds):
        sections = _merge(KINDS[kind], run={"seed": "1"},
                          time={"n_steps": "4"})
        dim = sections.get("grid", {}).get("dim")
        preset = sections["run"]["preset"]
        two_d = dim == "2" or preset.startswith("2D")
        sections.setdefault("grid", {})["n"] = "6 6" if two_d else "8"
        ops.append(Op(kind, config_text(sections)))
    return ops
