"""Configuration ingestion, experiment orchestration and persistence.

Experiments are described by a sectioned key = value text file; a config may
name a preset whose values are merged underneath the explicit keys.  The
problem settings' sections, keys and defaults are declared in
presets.SETTINGS; this module adds the run keys (command, preset, kappas).
Every run writes its CSV artifacts into a subdirectory of the output
directory named by the hash of the fully-defaulted config, plus a flat
key = value manifest listing the artifacts, versions and the config echo.
Artifacts are deterministic: two runs of one config produce byte-identical
files.  A run that fails, in its command or while it writes, removes its
run directory, whether it made it or an earlier run did, so no cut-short
artifact stays beside an older manifest.  simulate and optimize write their
field CSVs from two processes when they hold FIELD_FORK_ROWS values or more
in all (_write_fields): a forked child writes the second half of every
file, with the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .fields import _write_snapshots, write_csv, write_field_csv
from .forking import _fork_helps, _forked
from .model import validate_setup
from .optim import (kappa_sweep, proximal_gradient_solve, support_measure,
                    zero_control_threshold)
from .presets import (SETTINGS, ConfigError, ConfigIssue, Problem, _choice_key,
                      _floats_key, make_problem, preset_names,
                      preset_settings)
from .solver import solve_state, state_balance_report
from .sparsity import SparsityMode, certificate, certificate_to_csv
from .verify import separation_monitor, verify_checks, write_check_csv

_STATE_NAMES = ("mu", "phi", "sigma")
# field values (CSV rows) of a run's field files from which a forked child
# writes the second half of every file (_write_fields).  Whole runs timed on
# two CPUs, forked against in-process in interleaved pairs (median ratios):
# runs of 10k and 13k values took 4 % and 11 % longer forked, runs of 26k
# and 29k values 4 % and 8 % less but longer in a third of the pairs or
# more, runs of 44k 7 % less and of 117k about 25 % less
FIELD_FORK_ROWS = 40_000


def _fields(owner, names, prefix=""):
    """(file stem, field, column name) of each named attribute of owner."""
    return [(prefix + name, getattr(owner, name), name) for name in names]


def _write_parts(parts):
    """The forked child's share of _write_fields: each (path, field, start)
    gets the field's rows from snapshot start on."""
    for path, u, start in parts:
        _write_snapshots(path, u, start)


def _write_fields(out, fields):
    """One field CSV per (file stem, field, column name); returns the paths.

    With FIELD_FORK_ROWS values or more in all, where a fork helps
    (forking._fork_helps), every file is split at snapshot n_slices // 2:
    one forked child writes the second halves to sibling <stem>.csv.part
    files while this process writes each header and first half into its
    file, then appends each part and deletes it.  So the bytes are
    write_field_csv's.  A failure in the child's share is raised here by
    writing that share again (forking._forked), and no part is left behind.
    """
    files = [out / f"{stem}.csv" for stem, _, _ in fields]
    if sum(u.values.size for _, u, _ in fields) < FIELD_FORK_ROWS \
            or not _fork_helps():
        for p, (_, u, name) in zip(files, fields):
            write_field_csv(p, u, name)
        return files
    parts = [(p.with_name(p.name + ".part"), u, u.n_slices // 2)
             for p, (_, u, _) in zip(files, fields)]
    try:
        with _forked(True, _write_parts, parts) as second_halves:
            for p, (_, u, name), (_, _, stop) in zip(files, fields, parts):
                write_field_csv(p, u, name, stop)
            second_halves()
        for p, (part, _, _) in zip(files, parts):
            with open(p, "ab") as fh, open(part, "rb") as rest:
                shutil.copyfileobj(rest, fh)
    finally:
        for part, _, _ in parts:
            part.unlink(missing_ok=True)
    return files


def _run_simulate(problem: Problem, out: Path, kappas):
    stats: dict = {}
    traj = solve_state(problem.params, problem.pot, problem.hspec, problem.u0,
                       problem.init, stats=stats)
    files = _write_fields(out, _fields(traj, _STATE_NAMES))
    p = out / "solver_manifest.json"
    p.write_text(json.dumps(stats, sort_keys=True, indent=1) + "\n",
                 encoding="utf-8")
    files.append(p)
    bal = state_balance_report(traj, problem.params, problem.u0, problem.hspec)
    p = out / "balance.csv"
    names = ("residual_mu", "residual_sigma", "relative_mu", "relative_sigma")
    write_csv(p, ("step",) + names,
              [np.arange(bal["residual_mu"].size)] + [bal[k] for k in names])
    files.append(p)
    sep = separation_monitor(traj, problem.pot)
    p = out / "separation.csv"
    write_check_csv(sep, p)
    files.append(p)
    return files, sep.passed


def _run_optimize(problem: Problem, out: Path, kappas):
    res = proximal_gradient_solve(problem)
    files = _write_fields(out, _fields(res.control, ("u1", "u2"), "control_")
                          + _fields(res.trajectory, _STATE_NAMES))
    p = out / "convergence.csv"
    # one row per VI evaluation; the last row repeats the last accepted step
    etas = res.eta_history
    n = res.vi_history.size
    write_csv(p, ("iter", "cost", "vi_residual", "step_size", "support1",
                  "support2", "state_solves"),
              [np.arange(n), res.cost_history, res.vi_history,
               np.append(etas, etas[-1] if etas.size else np.nan),
               *(np.full(n, s)
                 for s in support_measure(problem.mode, res.control)),
               res.state_solves])
    files.append(p)
    if problem.mode is not SparsityMode.NONE:
        cert = certificate(problem.mode, res.d, problem.params.kappa,
                           problem.bounds)
        p = out / "certificate.csv"
        certificate_to_csv(cert, p)
        files.append(p)
    return files, res.converged


def _run_threshold(problem: Problem, out: Path, kappas):
    rep = zero_control_threshold(problem)
    p = out / "threshold.csv"
    write_csv(p, ("quantity", "value"),
              [("kappa1", "kappa2", "kappa0_estimate"),
               (rep.kappa1, rep.kappa2, rep.kappa0_estimate)])
    return [p], True


def _run_sweep(problem: Problem, out: Path, kappas):
    ks = list(kappas)
    if not ks:
        k0 = zero_control_threshold(problem).kappa0_estimate
        ks = [0.0, 0.5 * k0, 2.0 * k0] if k0 > 0 else [0.0]
    rows = kappa_sweep(problem, ks)
    p = out / "kappa_sweep.csv"
    names = ("kappa", "cost", "vi_residual", "support1", "support2",
             "control_norm", "iterations")
    write_csv(p, names, [[r[k] for r in rows] for k in names])
    return [p], all(r["converged"] for r in rows)


def _run_verify(problem: Problem, out: Path, kappas):
    checks = verify_checks(problem)
    files = []
    for rep in checks:
        p = out / f"check_{rep.name}.csv"
        write_check_csv(rep, p)
        files.append(p)
    p = out / "verify_summary.csv"
    write_csv(p, ("check", "passed"),
              [[c.name for c in checks], [c.passed for c in checks]])
    files.append(p)
    return files, all(c.passed for c in checks)


# command name -> handler(problem, out, kappas) -> (artifact paths, passed);
# optimize and sweep-kappa pass when the optimizer converged (at every kappa)
_COMMANDS = {"simulate": _run_simulate, "optimize": _run_optimize,
             "verify": _run_verify, "sweep-kappa": _run_sweep,
             "threshold": _run_threshold}
COMMANDS = tuple(_COMMANDS)


def _canonical(value) -> str:
    if isinstance(value, tuple):
        return " ".join(_canonical(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _kappas_key(raw, key, line, issues):
    """sweep-kappa's list: finite, non-negative and ascending, as
    kappa_sweep needs."""
    ks = _floats_key(raw, key, line, issues)
    if ks is not None and not all(map(math.isfinite, ks)):
        issues.append(ConfigIssue(key, line, "must be finite", "range"))
        return None
    if ks is not None and (any(k < 0.0 for k in ks)
                           or any(b < a for a, b in zip(ks, ks[1:]))):
        issues.append(ConfigIssue(key, line, "must be ascending and >= 0",
                                  "range"))
        return None
    return ks


# the run keys, declared like presets.SETTINGS; they select what to run and
# are not problem settings
_RUN_KEYS = {
    "command": ("run", "command", "simulate", _choice_key(COMMANDS)),
    "preset": ("run", "preset", "", _choice_key(("",) + preset_names())),
    "kappas": ("run", "kappas", (), _kappas_key),
}
_KEYS = {**SETTINGS, **_RUN_KEYS}
# (section, key) -> (settings name, converter)
SCHEMA = {(sec, key): (name, conv)
          for name, (sec, key, _, conv) in _KEYS.items()}
_DEFAULTS = {(sec, key): _canonical(d) for sec, key, d, _ in _KEYS.values()}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully-defaulted, validated experiment description."""

    values: tuple  # sorted ((section, key), canonical-string) pairs

    def serialize(self) -> str:
        lines = []
        section = None
        for (s, k), v in self.values:
            if s != section:
                if section is not None:
                    lines.append("")
                lines.append(f"[{s}]")
                section = s
            lines.append(f"{k} = {v}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()[:12]

    def to_settings(self) -> dict:
        issues: list = []
        out = {}
        for (sec, key), raw in self.values:
            name, conv = SCHEMA[(sec, key)]
            v = conv(raw, f"{sec}.{key}", 0, issues)
            if v is not None:
                out[name] = v
        if issues:
            raise ConfigError(issues)
        out.pop("preset")
        command = out.pop("command")
        kappas = out.pop("kappas", ())
        return command, kappas, out


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate config text; raises ConfigError with locations."""
    issues = []
    raw: dict = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            continue
        if "=" not in stripped:
            issues.append(ConfigIssue(stripped[:20], lineno,
                                      "expected key = value", "parse"))
            continue
        key, _, val = stripped.partition("=")
        key, val = key.strip(), val.split("#")[0].split(";")[0].strip()
        if section is None:
            issues.append(ConfigIssue(key, lineno, "key outside any section",
                                      "parse"))
            continue
        if (section, key) not in SCHEMA:
            issues.append(ConfigIssue(f"{section}.{key}", lineno,
                                      "unknown key", "unknown-key"))
            continue
        if (section, key) in raw:
            first = raw[section, key][1]
            issues.append(ConfigIssue(f"{section}.{key}", lineno, "set again "
                                      f"(first on line {first})", "parse"))
            continue
        raw[(section, key)] = (val, lineno)

    # validate explicit values with their line numbers
    for (sec, key), (val, lineno) in raw.items():
        _, conv = SCHEMA[(sec, key)]
        conv(val, f"{sec}.{key}", lineno, issues)
    if issues:
        raise ConfigError(issues)

    # global defaults, then the preset, then the explicit keys as written
    given = {sk: val for sk, (val, _) in raw.items()}
    preset = given.get(("run", "preset"), "")
    from_preset = preset_settings(preset) if preset else {}
    merged = {**_DEFAULTS,
              **{_KEYS[name][:2]: _canonical(v)
                 for name, v in from_preset.items()},
              **given}
    values = tuple(sorted(merged.items()))
    return ExperimentConfig(values)


def load_config(path) -> ExperimentConfig:
    """Read (dropping a UTF-8 byte-order mark), parse and validate a file."""
    return parse_config_text(Path(path).read_text(encoding="utf-8-sig"))


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    command: str
    out_dir: Path
    artifacts: tuple
    passed: bool
    elapsed_s: float


def run(config: ExperimentConfig, out_dir) -> RunManifest:
    """Execute the configured command and persist artifacts + manifest."""
    t0 = time.perf_counter()
    command, kappas, settings = config.to_settings()
    try:
        problem = make_problem(settings)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError([ConfigIssue("<problem>", 0, str(exc), "range")]) \
            from exc

    report = validate_setup(problem.params, problem.pot, problem.init,
                            problem.hspec)
    if not report.passed:
        raise ConfigError([ConfigIssue(code, 0, msg, "range")
                           for code, msg in report.violations])

    if command in ("threshold", "sweep-kappa") \
            and problem.mode is SparsityMode.NONE:
        raise ConfigError([ConfigIssue(
            "sparsity.mode", 0,
            f"command {command!r} needs a sparsity mode other than 'none'",
            "range")])
    # the sparsity prox, and the threshold's zero control, need 0 strictly
    # inside the box
    if command in ("optimize", "threshold", "sweep-kappa") \
            and problem.mode is not SparsityMode.NONE:
        issues = [ConfigIssue(f"bounds.{key}", 0,
                              f"sparsity mode {problem.mode.value!r} needs "
                              f"{key} {op} 0, got "
                              f"{getattr(problem.bounds, key)!r}",
                              "range")
                  for key, op, sign in (("lo1", "<", -1.0), ("hi1", ">", 1.0),
                                        ("lo2", "<", -1.0), ("hi2", ">", 1.0))
                  if not sign * getattr(problem.bounds, key) > 0.0]
        if issues:
            raise ConfigError(issues)

    out = Path(out_dir) / config.config_hash()
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # say an output directory that is a file
        raise ConfigError([ConfigIssue(
            "<out>", 0, f"cannot make {out}: {exc.strerror}", "range")]) \
            from exc
    try:
        files, passed = _COMMANDS[command](problem, out, kappas)
        echo = out / "config.echo.cfg"
        echo.write_text(config.serialize(), encoding="utf-8")
        files.append(echo)

        elapsed = time.perf_counter() - t0
        manifest = RunManifest(config.config_hash(), command, out,
                               tuple(sorted(f.name for f in files)), passed,
                               elapsed)
        lines = [f"config_hash = {manifest.config_hash}",
                 f"command = {command}",
                 f"passed = {int(passed)}",
                 f"artifact_count = {len(manifest.artifacts)}"]
        lines += [f"artifact.{i} = {name}"
                  for i, name in enumerate(manifest.artifacts)]
        lines += [f"version.tumorctrl = {__version__}",
                  f"version.numpy = {np.__version__}"]
        lines += [f"config.{s}.{k} = {v}" for (s, k), v in config.values]
        (out / "manifest.txt").write_text("\n".join(lines) + "\n",
                                          encoding="utf-8")
    except BaseException:
        shutil.rmtree(out, ignore_errors=True)  # even one made before
        raise
    return manifest
