"""The command line's failure contract, one row per repro.

Each row runs `tumorctrl <command> --config <cfg> --out <out>` in process
(cli_run) and gives the exit code, the exact stderr lines and whether the
run leaves a directory under --out; no exception may escape and nothing
may be warned.  A run that fails after making its run directory removes
it, also where the directory was there before the run.  A new repro is
one more row.  In an expected line, {cfg} and {out} stand for the config's
path and for --out.
"""

import contextlib
import io
import warnings

import pytest

from tumorctrl.cli import main


def _tree(out):
    """out's bytes if it is a file, else the set of paths under it."""
    if out.is_file():
        return out.read_bytes()
    return set(out.rglob("*"))


def cli_run(command, text, tmp, plant=None):
    """Run the command in process on the config text (str, or bytes written
    as they are) at tmp/exp.cfg with --out tmp/out, after plant(cfg, out)
    if given: (exit code, stderr lines, whether a directory is left under
    out).  Asserts that nothing was warned, that no field part is left and
    that an --out which is a file keeps its bytes; an exception escapes."""
    cfg, out = tmp / "exp.cfg", tmp / "out"
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    else:
        cfg.write_text(text, encoding="utf-8")
    if plant is not None:
        plant(cfg, out)
    before = _tree(out)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as warned, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([command, "--config", str(cfg), "--out", str(out)])
    assert [str(w.message) for w in warned] == []
    lines = err.getvalue().splitlines()
    if isinstance(before, bytes):
        assert _tree(out) == before
        return code, lines, False
    after = _tree(out)
    assert [p for p in after if p.name.endswith(".part")] == []
    return code, lines, any(p.is_dir() for p in after)


def no_config(cfg, out):
    cfg.unlink()


def config_is_a_directory(cfg, out):
    cfg.unlink()
    cfg.mkdir()


def out_is_a_file(cfg, out):
    out.write_text("")


def directory_at(path):
    """A plant that puts a directory at out/path, say where an artifact
    goes."""
    def plant(cfg, out):
        (out / path).mkdir(parents=True)
    return plant


def preset(name, body=""):
    return f"[run]\npreset = {name}\n{body}"


def row(id, command, text, code, *err, left=False, plant=None):
    return pytest.param(command, text, code, list(err), left, plant, id=id)


MINIMAL = "[run]\ncommand = simulate\npreset = stationary-trivial\n"
TSD = "time-sparsity-demo"
LOG = "1D-logarithmic-default"
REG2 = "2D-regular-default"
STRESS = "stress-separation"
PIVOT = ("solver error: 1D Helmholtz solve: pivot of cell 15 vanished "
         "(diagonal {0}, off-diagonal -{0})")
H2 = ("config error: range: <problem>: cell width {} has h^2 = inf: need a "
      "finite positive h^2 and 1/h^2")
RECIPE = ("config error: range: <problem>: recipe {!r} needs {} argument(s) "
          "after {!r}, got {}")
BOX = ("config error: range: bounds.lo1: sparsity mode 'time' needs lo1 < 0, "
       "got 0.5")
ADJOINT = "solver error: adjoint solve overflows at time step 22"
THRESHOLD = ("solver error: zero-control threshold of u1 overflows: its "
             "largest time mode norm is inf")
SEPARATION = "solver error: separation lost at time step 82: margin 8.411e-12"
LINEARIZED = "solver error: linearized_fd_refinement level "
VERIFY_FAILED = "verification checks FAILED (see verify_summary.csv)"

ROWS = [
    # a config that cannot be read
    row("simulate-missing-config", "simulate", "", 2,
        "config error: [Errno 2] No such file or directory: '{cfg}'",
        plant=no_config),
    row("simulate-config-is-a-directory", "simulate", "", 2,
        "config error: [Errno 21] Is a directory: '{cfg}'",
        plant=config_is_a_directory),
    row("simulate-latin-1-config", "simulate",
        "[run]\n# d\xe9j\xe0 vu\n".encode("latin-1"), 2,
        "config error: 'utf-8' codec can't decode byte 0xe9 in position 9: "
        "invalid continuation byte"),
    # a bad key or value
    row("simulate-nu-0", "simulate", "[model]\nnu = 0\n", 2,
        "config error: range: model.nu (line 2): must be > 0"),
    # banana never was a key; the others were removed
    *[row(f"optimize-unknown-{sec}.{key}", "optimize",
          preset(TSD, f"\n[{sec}]\n{key} = {value}\n"), 2,
          f"config error: unknown-key: {sec}.{key} (line 5): unknown key")
      for sec, key, value in (("model", "banana", "1"),
                              ("optimizer", "eta0", "0.0"),
                              ("optimizer", "backtrack", "0.5"),
                              ("optimizer", "decrease", "0.0001"),
                              ("optimizer", "tol_cost", "0.0"),
                              ("potential", "h", "smoothstep7"))],
    row("simulate-model.nu-set-twice", "simulate",
        preset(TSD, "[model]\nnu = 0.2\n[model]\nnu = 0.3\n"), 2,
        "config error: parse: model.nu (line 6): set again (first on line 4)"),
    row("simulate-run.preset-set-twice", "simulate",
        preset(TSD, f"preset = {STRESS}\n"), 2,
        "config error: parse: run.preset (line 3): set again (first on line "
        "2)"),
    row("sweep-kappa-nan-kappa", "sweep-kappa",
        preset(TSD, "kappas = 0 nan 0.1\n"), 2,
        "config error: range: run.kappas (line 3): must be finite"),
    # a problem the settings cannot build
    row("simulate-dim-3", "simulate", "[grid]\ndim = 3\n", 2,
        "config error: range: <problem>: dim must be 1 or 2, got 3"),
    row("simulate-dim-2-1d-n", "simulate", "[grid]\ndim = 2\n", 2,
        "config error: range: <problem>: n and length must have one entry "
        "per dimension"),
    row("simulate-unknown-recipe", "simulate", "[init]\nphi = bogus 1\n", 2,
        "config error: range: <problem>: unknown spatial recipe 'bogus 1'"),
    row("simulate-lo1-above-hi1", "simulate", "[bounds]\nlo1 = 2\n", 2,
        "config error: range: <problem>: bounds for control 1 violate "
        "lo <= hi"),
    row("simulate-recipe-cosine-0", "simulate", "[init]\nphi = cosine 0\n",
        2, RECIPE.format("cosine 0", 2, "cosine", 1)),
    row("simulate-recipe-constant", "simulate", "[init]\nphi = constant\n",
        2, RECIPE.format("constant", 1, "constant", 0)),
    row("simulate-recipe-empty", "simulate", "[init]\nphi =\n", 2,
        "config error: range: <problem>: empty field recipe"),
    row("simulate-recipe-pulse-3", "simulate",
        "[targets]\nphi_q = pulse 0 0.6 0\n", 2,
        RECIPE.format("pulse 0 0.6 0", 4, "pulse", 3)),
    row("simulate-recipe-random", "simulate", "[controls]\nu0_1 = random\n",
        2, RECIPE.format("random", 1, "random", 0)),
    # a cell width whose h^2 or 1/h^2, or a time step whose tau or 1/tau,
    # is no finite positive float
    row("simulate-h2-1d", "simulate",
        preset(TSD, "[grid]\nlength = 1e160\n"), 2, H2.format("6.25e+158")),
    row("simulate-h2-2d", "simulate",
        preset(REG2, "[grid]\nlength = 1e300 1\n"), 2,
        H2.format("8.33333e+298")),
    row("simulate-tau-underflows", "simulate",
        preset(TSD, "[time]\nt_final = 5e-324\n"), 2,
        "config error: range: <problem>: time.t_final = 4.94066e-324 over "
        "time.n_steps = 40 gives tau = 0: need a finite positive tau and "
        "1/tau"),
    # a node field of 1024 GiB, over presets.MAX_FIELD_BYTES
    row("simulate-field-over-budget", "simulate",
        preset(LOG, "[time]\nn_steps = 2147483648\n"), 2,
        "config error: range: grid.n, time.n_steps: a node field of "
        "2147483649 x 64 float64 values takes 1024 GiB, over the budget of "
        "0.25 GiB (presets.MAX_FIELD_BYTES)"),
    # the command line's command wins over the file's; threshold needs a
    # sparsity mode, and every sparsity mode 0 strictly inside the box
    row("threshold-mode-none", "threshold", MINIMAL, 2,
        "config error: range: sparsity.mode: command 'threshold' needs a "
        "sparsity mode other than 'none'"),
    *[row(f"{command}-box-without-0", command,
          preset(LOG, "[bounds]\nlo1 = 0.5\n"), 2, BOX)
      for command in ("optimize", "sweep-kappa", "threshold")],
    # an --out under which the run directory cannot be made, and an
    # artifact that cannot be written: by one process (mu.csv) and by the
    # forked field writer of a 48 x 48 simulate (phi.csv).  The plant makes
    # the run directory, and the failed run removes it all the same
    row("simulate-out-is-a-file", "simulate", preset(TSD), 2,
        "config error: range: <out>: cannot make {out}/d6927e71ec4b: Not a "
        "directory", plant=out_is_a_file),
    row("verify-out-is-a-file", "verify", MINIMAL, 2,
        "config error: range: <out>: cannot make {out}/8f289015d9de: Not a "
        "directory", plant=out_is_a_file),
    row("simulate-artifact-is-a-directory", "simulate", preset(TSD), 2,
        "config error: [Errno 21] Is a directory: "
        "'{out}/d6927e71ec4b/mu.csv'",
        plant=directory_at("d6927e71ec4b/mu.csv")),
    row("simulate-48x48-artifact-is-a-directory", "simulate",
        preset(REG2, "[grid]\nn = 48 48\n"), 2,
        "config error: [Errno 21] Is a directory: "
        "'{out}/8e98f3f07462/phi.csv'",
        plant=directory_at("8e98f3f07462/phi.csv")),
    # alpha/tau h^2 below round-off: the 1D solve meets -Lap.  The row
    # sweep meets it in simulate and optimize; in verify the column sweep
    # of the 49-member batch does, and the first control, solved alone,
    # prints the line
    *[row(f"{command}-pivot-t_final", command,
          preset(TSD, "[time]\nt_final = 1e17\n"), 1,
          PIVOT.format("2.560e+02"))
      for command in ("simulate", "optimize", "verify")],
    row("simulate-pivot-length", "simulate",
        preset(TSD, "[grid]\nlength = 1e-150\n"), 1,
        PIVOT.format("2.560e+302")),
    # a prox step eta = 1/nu that overflows; a small nu that floating point
    # carries converges (kappa above the threshold zeroes the control)
    row("optimize-prox-nu-5e-324", "optimize",
        preset(TSD, "[model]\nnu = 5e-324\n"), 1,
        "solver error: prox step overflows at iteration 0 with eta inf"),
    row("optimize-prox-nu-1e-200", "optimize",
        preset(TSD, "[model]\nnu = 1e-200\n"), 1,
        "solver error: prox step overflows at iteration 0 with eta "
        "1.000e+200"),
    row("optimize-prox-beta1-1e300", "optimize",
        preset(TSD, "[model]\nbeta1 = 1e300\n"), 1,
        "solver error: prox step overflows at iteration 0 with eta "
        "2.000e+01"),
    row("optimize-nu-1e-12", "optimize",
        preset(TSD, "[model]\nnu = 1e-12\nkappa = 1\n"), 0, left=True),
    # a forward state, a threshold or an adjoint that overflows
    row("simulate-newton-t_final-1e300", "simulate",
        preset(REG2, "[time]\nt_final = 1e300\n"), 1,
        "solver error: phi-step Newton stalled at step 1: |G| = 2.031e+297"),
    row("simulate-state-overflows-mu", "simulate",
        preset(STRESS, "[model]\na_rate = 1.7e308\n"), 1,
        "solver error: state solve overflows at time step 0: mu is not "
        "finite"),
    row("simulate-state-overflows-sigma", "simulate",
        preset(LOG, "[model]\nsigma_s = 1.7e308\n"), 1,
        "solver error: state solve overflows at time step 0: sigma is not "
        "finite"),
    *[row(f"{command}-threshold-overflows", command,
          preset(LOG, "[targets]\nphi_q = random 1e300\n"), 1, THRESHOLD)
      for command in ("threshold", "sweep-kappa")],
    *[row(f"{command}-adjoint-overflows", command,
          preset(TSD, "[model]\nbeta1 = 1e308\n"), 1, ADJOINT)
      for command in ("threshold", "sweep-kappa", "optimize", "verify")],
    # phi loses separation at step 82; verify's checks march u0 in one
    # batch with their points, so its failure reads as u0's own solve
    *[row(f"{command}-separation-lost", command,
          preset(STRESS, "[controls]\nu0_1 = constant -40\n"), 1,
          SEPARATION)
      for command in ("simulate", "verify")],
    # u0 solves on the preset's grid; a solve of the linearized check
    # fails on a refined level: a ladder point of level 1 (-32), level 1's
    # u0 (-32.2), or only the finest level, in verify's forked child (-31.9,
    # where duality_gap level 2 fails too but comes later)
    row("verify-linearized-level-1-point", "verify",
        preset(STRESS, "[controls]\nu0_1 = constant -32\n"), 1,
        LINEARIZED + "1, eps 0.01: separation lost at time step 191: margin "
        "9.966e-12"),
    row("verify-linearized-level-1", "verify",
        preset(STRESS, "[controls]\nu0_1 = constant -32.2\n"), 1,
        LINEARIZED + "1: separation lost at time step 191: margin "
        "9.016e-12"),
    row("verify-linearized-level-2", "verify",
        preset(STRESS, "[controls]\nu0_1 = constant -31.9\n"), 1,
        LINEARIZED + "2: separation lost at time step 383: margin "
        "9.606e-12"),
    # a failed check names its artifact and keeps the run's directory:
    # phi comes within 8.4e-8 of the singular wall on stress-separation,
    # and a target of 1e300 overflows the cost, so the gradient error is NaN
    row("simulate-stress-separation", "simulate", preset(STRESS), 1,
        "separation check FAILED: phi came too close to the potential's "
        "singular interval ends (see separation.csv)", left=True),
    row("verify-stress-separation", "verify", preset(STRESS), 1,
        VERIFY_FAILED, left=True),
    row("verify-nan-gradient-error", "verify",
        preset(LOG, "[targets]\nphi_q = random 1e300\n"), 1, VERIFY_FAILED,
        left=True),
    # runs that pass: mode none and simulate take a box without 0
    row("simulate-minimal", "simulate", MINIMAL, 0, left=True),
    row("threshold-time-sparsity-demo", "threshold", preset(TSD), 0,
        left=True),
    row("simulate-box-without-0", "simulate",
        preset(LOG, "[bounds]\nlo1 = 0.5\n"), 0, left=True),
    row("optimize-mode-none-box-without-0", "optimize",
        MINIMAL + "[bounds]\nlo1 = 0.5\n", 0, left=True),
]


@pytest.mark.parametrize("command,text,code,err,left,plant", ROWS)
def test_contract(command, text, code, err, left, plant, tmp_path):
    expected = [line.replace("{cfg}", str(tmp_path / "exp.cfg"))
                .replace("{out}", str(tmp_path / "out")) for line in err]
    assert cli_run(command, text, tmp_path, plant) == (code, expected, left)
