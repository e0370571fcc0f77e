import dataclasses
import errno
import hashlib
import math
import os
from pathlib import Path

import numpy as np
import pytest

from tumorctrl import fields, presets, runner
from tumorctrl.cli import main as cli_main
from tumorctrl.fields import Field, SpaceTimeField
from tumorctrl.presets import (_POTENTIALS, PRESET_SETTINGS, SETTINGS,
                               make_problem, preset_names, preset_problem)
from tumorctrl.runner import (ConfigError, load_config, parse_config_text,
                              run)
from tumorctrl.solver import ControlPair, SeparationLoss
from tumorctrl.sparsity import SparsityMode


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


MINIMAL = "[run]\ncommand = simulate\npreset = stationary-trivial\n"
GOLDEN_SIMULATE = {
    "balance.csv": "4b39570b9794e7b99eaa91ba1aeed361"
                   "64412b08ef74180fcf2f0ec2d14691bd",
    "config.echo.cfg": "04d19a9dd467acea1d40aa4674abb9c6"
                       "f40085f22cfed77e547a41f03e58f23d",
    "mu.csv": "e7083cad40facb8977fc3087239f4635"
              "77007f04724868fa60e5878190d35351",
    "phi.csv": "fd6887d01ed64d53ceedb92bb0ebb919"
               "4201a62bbbddedcf82edc3db25346670",
    "separation.csv": "7f3ec3bcb08bb2dcd6bf5c9b24136e14"
                      "a80677437d7f6db31550518b4ed71421",
    "sigma.csv": "708e58b2435b4987ff57c43d5d241205"
                 "23ce9c7c5c220f3758e2a4fc80dfc2bf",
    "solver_manifest.json": "bd4829e129884724cd8876fba49e8ba7"
                            "84ae7e17f7061b0958f1ac2cb9a20e1e",
}


def artifacts(text, out):
    """Run the config text into out: {name: path} of every file the run
    left in its directory (manifest.txt too), after checking that no field
    part is left anywhere under out."""
    out_dir = run(parse_config_text(text), out).out_dir
    assert not list(Path(out).rglob("*.part"))
    return {p.name: p for p in sorted(out_dir.iterdir())}


class TestConfigParsing:
    def test_minimal_with_defaults(self, tmp_path):
        values = dict(load_config(write_cfg(tmp_path, MINIMAL)).values)
        assert values["run", "command"] == "simulate"
        assert values["model", "nu"] == "0.1"  # preset default filled

    def test_explicit_overrides_preset(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL + "[model]\nnu = 0.7\n"))
        assert dict(cfg.values)["model", "nu"] == "0.7"

    def test_round_trip_identity(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL))
        again = parse_config_text(cfg.serialize())
        assert again.values == cfg.values
        assert again.config_hash() == cfg.config_hash()

    def test_range_error_names_key_and_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("[model]\nnu = 0\n")
        issue = exc.value.issues[0]
        assert issue.kind == "range"
        assert issue.key == "model.nu"
        assert issue.line == 2

    def test_unknown_value(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("[sparsity]\nmode = banana\n")
        assert exc.value.issues[0].kind == "unknown-value"

    # banana never was a key; the others were removed, and a config that
    # still sets one is refused rather than silently ignored
    @pytest.mark.parametrize("setting", [
        "model.banana = 1", "optimizer.eta0 = 0.0",
        "optimizer.backtrack = 0.5", "optimizer.decrease = 0.0001",
        "optimizer.tol_cost = 0.0", "potential.h = smoothstep7",
    ], ids=["model.banana", "optimizer.eta0", "optimizer.backtrack",
            "optimizer.decrease", "optimizer.tol_cost", "potential.h"])
    def test_unknown_key(self, setting):
        name, _, value = setting.partition(" = ")
        sec, _, key = name.partition(".")
        text = (f"[run]\npreset = time-sparsity-demo\n\n"
                f"[{sec}]\n{key} = {value}\n")
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        issue = exc.value.issues[0]
        assert (issue.kind, issue.key, issue.line) == ("unknown-key", name, 5)

    @pytest.mark.parametrize("text,key,line", [
        ("[run]\npreset = time-sparsity-demo\n[model]\nnu = 0.2\n"
         "[model]\nnu = 0.3\n", "model.nu", 6),
        ("[run]\npreset = time-sparsity-demo\npreset = stress-separation\n",
         "run.preset", 3)], ids=["model.nu", "run.preset"])
    def test_key_set_twice(self, text, key, line):
        # a repeated section header is fine; a repeated key is not, rather
        # than the last value silently winning
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        issue = exc.value.issues[0]
        assert (issue.kind, issue.key, issue.line) == ("parse", key, line)

    def test_byte_order_mark(self, tmp_path):
        # Windows editors may start a UTF-8 file with U+FEFF
        text = "[run]\npreset = time-sparsity-demo\n[model]\nnu = 0.2\n"
        plain = load_config(write_cfg(tmp_path, text))
        marked = load_config(write_cfg(tmp_path, "\ufeff" + text, "bom.cfg"))
        assert marked == plain
        assert marked.config_hash() == plain.config_hash()

    def test_multiple_errors_collected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("[model]\nnu = 0\nkappa = -1\n")
        assert len(exc.value.issues) == 2

    def test_unknown_preset(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("[run]\npreset = nope\n")
        issue = exc.value.issues[0]
        assert (issue.kind, issue.key, issue.line) == \
            ("unknown-value", "run.preset", 2)

    def test_all_presets_buildable(self):
        for name in preset_names():
            prob = preset_problem(name)
            assert prob.grid.n_cells >= 1

    def test_scalar_n_refines(self):
        # a scalar n or length means one axis, and refines like a tuple
        prob = preset_problem("time-sparsity-demo", n=16, length=1.0)
        fine = prob.with_resolution(2, 2)
        assert (fine.grid.n, fine.timegrid.n_steps) == ((32,), 80)
        assert fine.grid.length == (1.0,)

    def test_refined_copy_keeps_its_parts(self):
        # a replace copy refines as itself: its start prolonged piecewise
        # constant in space and time, its parameters kept, and only its
        # initial data and targets re-sampled from the settings
        prob = preset_problem("2D-regular-default")
        u1, u2 = np.random.default_rng(1).uniform(-1.0, 1.0, (2, 32, 144))
        copy = dataclasses.replace(
            prob, u0=ControlPair.from_arrays(prob.timegrid, prob.grid, u1, u2),
            params=dataclasses.replace(prob.params, kappa=0.5))
        fine = copy.with_resolution(2, 3)
        assert (fine.grid.n, fine.timegrid.n_steps) == ((24, 24), 96)
        assert fine.params == copy.params
        t, x, y = np.ix_(np.arange(96) // 3, np.arange(24) // 2,
                         np.arange(24) // 2)
        for coarse, refined in ((u1, fine.u0.u1), (u2, fine.u0.u2)):
            assert np.array_equal(refined.values.reshape(96, 24, 24),
                                  coarse.reshape(32, 12, 12)[t, x, y])
        sampled = preset_problem("2D-regular-default", n=(24, 24), n_steps=96)
        assert fine.settings == sampled.settings
        for got, want in ((fine.init.phi, sampled.init.phi),
                          (fine.init.sigma, sampled.init.sigma),
                          (fine.targets.phi_q, sampled.targets.phi_q)):
            assert np.array_equal(got.values, want.values)

    def test_a_copy_with_other_data_is_not_refined(self):
        # the settings' recipes would refine a copy's own targets or initial
        # data to the settings' ones: a constant phi_q of 0.3 to the
        # preset's pulse, of maximum 0.599.  Such a copy is refused, with
        # the part named
        prob = preset_problem("time-sparsity-demo")
        q = prob.targets.phi_q
        flat = dataclasses.replace(prob, targets=dataclasses.replace(
            prob.targets, phi_q=SpaceTimeField(q.timegrid, q.grid,
                                               np.full_like(q.values, 0.3))))
        with pytest.raises(ValueError, match=r"^with_resolution: "
                           r"targets\.phi_q is not the one the settings"):
            flat.with_resolution(2, 2)
        other = dataclasses.replace(prob, init=dataclasses.replace(
            prob.init, sigma=Field.full(prob.grid, 0.3)))
        with pytest.raises(ValueError, match=r"init\.sigma is not"):
            other.with_resolution(1, 2)
        # the same data, built again, refines
        same = dataclasses.replace(prob, init=make_problem(prob.settings).init)
        assert same.with_resolution(2, 2).grid.n == (32,)


# config_hash() and sha256 of serialize() for each text, recorded when
# potential.h and the optimizer's eta0, backtrack, decrease and tol_cost
# keys were removed; the serialized texts lost exactly those five lines
GOLDEN_CONFIGS = {
    "stationary-trivial": (
        "[run]\npreset = stationary-trivial\n", "04d19a9dd467",
        "04d19a9dd467acea1d40aa4674abb9c6f40085f22cfed77e547a41f03e58f23d"),
    "1D-logarithmic-default": (
        "[run]\npreset = 1D-logarithmic-default\n", "c5be5c861910",
        "c5be5c861910627640340da71dabbd72ea28b9d581e21afa42a1e50795a22e6f"),
    "2D-regular-default": (
        "[run]\npreset = 2D-regular-default\n", "f93cb679cd5e",
        "f93cb679cd5e96b61b09b297843985d8e8a5eaefdadfe96da681a10e36645eb9"),
    "time-sparsity-demo": (
        "[run]\npreset = time-sparsity-demo\n", "d6927e71ec4b",
        "d6927e71ec4b079d109879669969bd05c43e4af3054a1280a226443de9f666c4"),
    "stress-separation": (
        "[run]\npreset = stress-separation\n", "22ff832f4128",
        "22ff832f41286f9e179d20892637e3bec9aa2c237295d5940b850d9aeac65c4e"),
    "kappa-1e-3": (
        "[model]\nkappa = 1e-3\n", "44beae4345c4",
        "44beae4345c48b00bcfda45f950301d5c5227023ecd2f73314244b46fc745010"),
    # the optimize-2d-space benchmark op without its seed
    "optimize-2d-space": (
        "[run]\ncommand = optimize\npreset = time-sparsity-demo\n\n"
        "[controls]\nu0_1 = random 0.5\nu0_2 = random 0.5\n\n"
        "[grid]\ndim = 2\nn = 32 32\nlength = 1.0 1.0\n\n"
        "[time]\nn_steps = 8\n\n[targets]\nphi_q = bump 0.0 0.6\n\n"
        "[model]\nkappa = 0.0025\n\n[sparsity]\nmode = space\n",
        "0744df23bcf8",
        "0744df23bcf8c4b90ae04b8a91fcb5c3dc0a6d7a8df6affe645f52c2e324775a"),
}

# the fully-defaulted config; the explicit kappa is kept as written
DEFAULT_KAPPA_TEXT = (
    "[bounds]\nhi1 = 1.0\nhi2 = 1.0\nlo1 = -1.0\nlo2 = -1.0\n\n"
    "[controls]\nu0_1 = constant 0\nu0_2 = constant 0\n\n"
    "[grid]\ndim = 1\nlength = 1.0\nn = 32\n\n"
    "[init]\nmu = constant 0\nphi = constant 0\nsigma = constant 0.5\n\n"
    "[model]\na_rate = 0.1\nalpha = 1.0\nb_rate = 0.5\nbeta = 1.0\n"
    "beta1 = 1.0\nbeta2 = 0.0\nchi = 0.3\ne_rate = 0.5\nkappa = 1e-3\n"
    "nu = 0.1\np_rate = 0.5\nsigma_s = 0.6\n\n"
    "[optimizer]\nmax_iters = 400\ntol_vi = 1e-08\n\n"
    "[potential]\nlog_k = 2.0\nvariant = regular\n\n"
    "[run]\ncommand = simulate\nkappas = \npreset = \nseed = 20260808\n\n"
    "[sparsity]\nmode = none\n\n"
    "[targets]\nphi_omega = constant 0\nphi_q = constant 0\n\n"
    "[time]\nn_steps = 64\nt_final = 0.25\n")


class TestSettingsTable:
    @pytest.mark.parametrize("text,config_hash,text_sha",
                             GOLDEN_CONFIGS.values(), ids=GOLDEN_CONFIGS)
    def test_golden_config_hash(self, text, config_hash, text_sha):
        cfg = parse_config_text(text)
        assert cfg.config_hash() == config_hash
        digest = hashlib.sha256(cfg.serialize().encode()).hexdigest()
        assert digest == text_sha

    def test_golden_default_text(self):
        cfg = parse_config_text("[model]\nkappa = 1e-3\n")
        assert cfg.serialize() == DEFAULT_KAPPA_TEXT

    def test_preset_keys_are_settings(self):
        for name, preset in PRESET_SETTINGS.items():
            assert set(preset) <= set(SETTINGS), name

    def test_optimizer_defaults_are_the_config_defaults(self):
        # a library caller's make_problem runs the CLI's default stopping rule
        p = make_problem({})
        assert (p.max_iters, p.tol_vi) == (400, 1e-8)

    @pytest.mark.parametrize("change,message", [
        ({"tol_vi": 0.0}, "tol_vi must be positive"),
        ({"max_iters": 0}, "max_iters must be at least 1")])
    def test_problem_refuses_a_stopping_rule_that_never_stops(self, change,
                                                              message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(make_problem({}), **change)

    def test_defaults_round_trip(self):
        for name, (sec, key, default, conv) in runner._KEYS.items():
            issues = []
            value = conv(runner._canonical(default), f"{sec}.{key}", 0,
                         issues)
            assert not issues and repr(value) == repr(default), name

    @pytest.mark.parametrize("sec,key,owner", [
        ("potential", "variant", _POTENTIALS),
        ("sparsity", "mode", [m.value for m in SparsityMode]),
        ("run", "command", runner._COMMANDS),
        ("run", "preset", ("",) + preset_names()),
    ], ids=["potential.variant", "sparsity.mode", "run.command", "run.preset"])
    def test_choices_come_from_owner(self, sec, key, owner):
        _, conv = runner.SCHEMA[(sec, key)]
        issues = []
        for option in owner:
            assert conv(option, key, 0, issues) == option
        assert conv("banana", key, 0, issues) is None
        # the rejection lists every accepted value
        assert issues[0].message.endswith(f"one of {sorted(owner)}")


class TestRun:
    def test_simulate_manifest(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL))
        manifest = run(cfg, tmp_path / "out")
        assert manifest.passed
        out = manifest.out_dir
        for name in manifest.artifacts:
            f = out / name
            assert f.exists() and f.stat().st_size > 0
        text = (out / "manifest.txt").read_text()
        assert f"config_hash = {cfg.config_hash()}" in text
        assert "config.model.nu = 0.1" in text
        # stationary preset: constant trajectory in the CSV
        lines = (out / "phi.csv").read_text().strip().splitlines()[1:]
        vals = {line.split(",")[-1] for line in lines}
        assert vals == {"1.0"}

    def test_simulate_golden_bytes(self, tmp_path):
        # stationary-trivial's solution is exactly (0, 1, 0), so these bytes
        # do not depend on BLAS rounding; manifest.txt names the numpy version
        manifest = run(parse_config_text(MINIMAL), tmp_path / "out")
        assert set(manifest.artifacts) == set(GOLDEN_SIMULATE)
        for name, digest in GOLDEN_SIMULATE.items():
            data = (manifest.out_dir / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    def test_forked_writer_keeps_the_golden_bytes(self, tmp_path,
                                                  monkeypatch,
                                                  forked_and_in_process):
        # every field file split, even the smallest
        monkeypatch.setattr(runner, "FIELD_FORK_ROWS", 0)
        (digests, n_forked), _ = forked_and_in_process(lambda: {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in artifacts(MINIMAL, tmp_path / "out").values()})
        assert n_forked == 1
        assert {k: digests[k] for k in GOLDEN_SIMULATE} == GOLDEN_SIMULATE

    def test_optimize_zero_target_writes_zero_controls(self, tmp_path):
        text = ("[run]\ncommand = optimize\npreset = time-sparsity-demo\n"
                "[model]\nbeta1 = 0\nbeta2 = 0\n")
        cfg = load_config(write_cfg(tmp_path, text))
        manifest = run(cfg, tmp_path / "out")
        lines = (manifest.out_dir / "control_u1.csv").read_text().splitlines()[1:]
        assert all(line.rsplit(",", 1)[1] in ("0.0", "-0.0") for line in lines)

    def test_threshold_and_sweep(self, tmp_path):
        cfg = load_config(write_cfg(
            tmp_path, "[run]\ncommand = threshold\npreset = time-sparsity-demo\n"))
        manifest = run(cfg, tmp_path / "out")
        text = (manifest.out_dir / "threshold.csv").read_text()
        assert "kappa0_estimate" in text
        cfg2 = load_config(write_cfg(
            tmp_path,
            "[run]\ncommand = sweep-kappa\npreset = time-sparsity-demo\n",
            name="sweep.cfg"))
        manifest2 = run(cfg2, tmp_path / "out")
        rows = (manifest2.out_dir / "kappa_sweep.csv").read_text().splitlines()
        assert len(rows) >= 3
        # last row: support zero beyond the threshold
        last = rows[-1].split(",")
        assert float(last[3]) == 0.0 and float(last[4]) == 0.0

    def test_verify_command(self, tmp_path):
        text = ("[run]\ncommand = verify\npreset = 1D-logarithmic-default\n"
                "[grid]\nn = 12\n[time]\nn_steps = 16\n")
        cfg = load_config(write_cfg(tmp_path, text))
        manifest = run(cfg, tmp_path / "out")
        assert manifest.passed
        summary = (manifest.out_dir / "verify_summary.csv").read_text()
        for name in ("fd_gradient_check", "linearized_fd_refinement",
                     "duality_gap", "separation_monitor"):
            assert f"{name},1" in summary

    def test_simulate_writes_solver_manifest(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL))
        manifest = run(cfg, tmp_path / "out")
        import json
        stats = json.loads((manifest.out_dir / "solver_manifest.json").read_text())
        assert stats["scheme"] == "semi-implicit-euler"
        assert stats["n_steps"] == 8
        assert stats["cg_rtol"] == 1e-12

    def test_invalid_setup_rejected(self, tmp_path):
        text = ("[run]\ncommand = simulate\n"
                "[potential]\nvariant = logarithmic\n"
                "[init]\nphi = constant 1\n")
        cfg = load_config(write_cfg(tmp_path, text))
        with pytest.raises(ConfigError) as exc:
            run(cfg, tmp_path / "out")
        assert any("separation" in i.key for i in exc.value.issues)

    def test_failed_manifest_write_leaves_no_run_directory(self, tmp_path,
                                                           monkeypatch):
        # a disk that fills up at the run's last write: its own directory
        # goes, as after a solver error
        write_text = Path.write_text

        def full_at_manifest(path, *args, **kwargs):
            if path.name == "manifest.txt":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", full_at_manifest)
        with pytest.raises(OSError, match="No space left on device"):
            run(parse_config_text(MINIMAL), tmp_path / "o")
        assert list((tmp_path / "o").iterdir()) == []


# 2D runs whose field files hold 57k (simulate) and 94k (optimize) values,
# over runner.FIELD_FORK_ROWS
FORKED_RUNS = {
    command: f"[run]\ncommand = {command}\npreset = 2D-regular-default\n"
             "[grid]\nn = 24 24\n" for command in ("simulate", "optimize")}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
class TestForkedFieldWriter:
    # a forked child writes the second half of every field file of a large
    # run; the files are those of the in-process writer, byte for byte

    @pytest.mark.parametrize("command", sorted(FORKED_RUNS))
    def test_artifacts_are_bytewise_equal(self, command, tmp_path,
                                          forked_and_in_process):
        outs = iter(["forked", "in-process"])
        (forked, n_forked), (in_process, n_in_process) = \
            forked_and_in_process(lambda: {
                name: p.read_bytes() for name, p in artifacts(
                    FORKED_RUNS[command], tmp_path / next(outs)).items()})
        assert (n_forked, n_in_process) == (1, 0)
        assert forked == in_process
        assert "phi.csv" in forked

    def test_one_cpu_forks_nothing(self, tmp_path, monkeypatch,
                                   forked_and_in_process):
        text = FORKED_RUNS["simulate"]

        def files(out):
            return {name: p.read_bytes()
                    for name, p in artifacts(text, tmp_path / out).items()}

        (forked, n_forked), _ = forked_and_in_process(lambda: files("two"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        (one_cpu, n_one_cpu), _ = forked_and_in_process(lambda: files("one"))
        assert (n_forked, n_one_cpu) == (1, 0)
        assert one_cpu == forked

    @pytest.mark.parametrize("existing", [False, True],
                             ids=["new-directory", "existing-directory"])
    def test_child_failure_is_the_serial_one(self, existing, tmp_path,
                                             monkeypatch,
                                             forked_and_in_process):
        # the last snapshot, t = t_final = 0.2, is always the child's share;
        # formatting its time fails, in the child and then here
        text = FORKED_RUNS["simulate"]
        out = tmp_path / "out"
        run_dir = out / parse_config_text(text).config_hash()
        if existing:
            run_dir.mkdir(parents=True)

        def planted(x):
            if x == 0.2:
                raise ValueError(f"cannot format {x!r}")
            return repr(x)

        monkeypatch.setattr(fields, "repr", planted, raising=False)

        def outcome():
            try:
                run(parse_config_text(text), out)
            except ValueError as exc:
                # a failed run removes its run directory, made or not
                assert not run_dir.exists()
                assert not list(out.rglob("*.part"))
                return type(exc), str(exc)

        (forked, n_forked), (in_process, _) = forked_and_in_process(outcome)
        assert n_forked == 1
        assert forked == in_process == (ValueError, "cannot format 0.2")


class TestCli:
    def test_unconverged_optimize_exits_1(self, tmp_path, capsys):
        # one step leaves the VI residual far above tol_vi
        cfgp = write_cfg(tmp_path, "[run]\npreset = time-sparsity-demo\n"
                                   "[optimizer]\nmax_iters = 1\n")
        assert cli_main(["optimize", "--config", str(cfgp),
                         "--out", str(tmp_path / "o")]) == 1
        assert "optimizer did not converge" in capsys.readouterr().err
        out = next((tmp_path / "o").iterdir())
        assert "passed = 0" in (out / "manifest.txt").read_text()
        rows = (out / "convergence.csv").read_text().splitlines()
        assert rows[0].endswith(",state_solves")
        assert [r.rsplit(",", 1)[1] for r in rows[1:]] == ["1", "2"]

    @pytest.mark.parametrize("max_iters,code,passed", [
        ("1", 1, "0"), ("800", 0, "1")], ids=["max_iters-1", "preset"])
    def test_sweep_kappa_exit_follows_convergence(self, tmp_path, capsys,
                                                  max_iters, code, passed):
        # one step leaves the VI residual far above tol_vi at every kappa
        cfgp = write_cfg(tmp_path, "[run]\npreset = time-sparsity-demo\n"
                                   f"[optimizer]\nmax_iters = {max_iters}\n")
        assert cli_main(["sweep-kappa", "--config", str(cfgp),
                         "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert ("optimizer did not converge at some kappa" in err) \
            == (code == 1)
        assert "verification checks FAILED" not in err
        out = next((tmp_path / "o").iterdir())
        assert f"passed = {passed}" in (out / "manifest.txt").read_text()
        header = (out / "kappa_sweep.csv").read_text().splitlines()[0]
        assert header == ("kappa,cost,vi_residual,support1,support2,"
                          "control_norm,iterations")

    @pytest.mark.parametrize("kappas", ["0.01 0.001", "-0.001 0.01",
                                        "0 nan 0.1", "0.001 inf",
                                        "1e308 1e309"])
    def test_bad_kappas_is_config_error(self, tmp_path, capsys, monkeypatch,
                                        kappas):
        def no_run(*args):
            raise AssertionError("run() reached with an invalid kappa list")

        monkeypatch.setattr("tumorctrl.cli.run", no_run)
        cfgp = write_cfg(tmp_path, "[run]\npreset = time-sparsity-demo\n"
                                   f"kappas = {kappas}\n")
        assert cli_main(["sweep-kappa", "--config", str(cfgp),
                         "--out", str(tmp_path / "o")]) == 2
        # nan passes both order tests and 1e309 reads as inf
        finite = all(math.isfinite(float(k)) for k in kappas.split())
        rule = "must be ascending and >= 0" if finite else "must be finite"
        assert capsys.readouterr().err == \
            f"config error: range: run.kappas (line 3): {rule}\n"

    def test_solver_failure_leaves_no_run_directory(self, tmp_path):
        # phi loses separation at step 82; a run directory that was there
        # before the failed run goes too, with the manifest an earlier run
        # left in it (one the run made goes: the contract table's rows)
        cfg = parse_config_text("[run]\npreset = stress-separation\n"
                                "[controls]\nu0_1 = constant -40\n")
        earlier = tmp_path / "o" / cfg.config_hash()
        earlier.mkdir(parents=True)
        (earlier / "manifest.txt").write_text("command = simulate\n")
        with pytest.raises(SeparationLoss):
            run(cfg, tmp_path / "o")
        assert list((tmp_path / "o").iterdir()) == []

    def test_nan_gradient_error_fails_verify(self, tmp_path, capsys):
        # phi_q = 1e300 overflows the tracking term, so every central
        # difference is inf - inf: a NaN error fails the gradient check
        cfgp = write_cfg(tmp_path, "[run]\npreset = 1D-logarithmic-default\n"
                                   "[grid]\nn = 12\n[time]\nn_steps = 16\n"
                                   "[targets]\nphi_q = random 1e300\n")
        assert cli_main(["verify", "--config", str(cfgp),
                         "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == \
            "verification checks FAILED (see verify_summary.csv)\n"
        out = next((tmp_path / "o").iterdir())
        assert (out / "verify_summary.csv").read_text().splitlines()[1] \
            == "fd_gradient_check,0"
        assert "metric,max_best_rel_error,nan,0.0001,0," in \
            (out / "check_fd_gradient_check.csv").read_text()

    @pytest.mark.parametrize("text,shape,size", [
        ("[run]\npreset = 1D-logarithmic-default\n"
         "[time]\nn_steps = 2147483648\n", "2147483649 x 64", "1024"),
        ("[run]\npreset = 2D-regular-default\n[grid]\nn = 65536 65536\n",
         "33 x 4294967296", "1056")], ids=["n_steps", "n"])
    def test_unallocatable_grid_is_config_error(self, tmp_path, capsys,
                                                monkeypatch, text, shape,
                                                size):
        # refused before any field is allocated: no recipe is evaluated
        def allocates(*args):
            raise AssertionError("a field was allocated")

        monkeypatch.setattr(presets, "eval_space_recipe", allocates)
        monkeypatch.setattr(presets, "eval_spacetime_recipe", allocates)
        cfgp = write_cfg(tmp_path, text)
        assert cli_main(["simulate", "--config", str(cfgp),
                         "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"config error: range: grid.n, time.n_steps: a node field of "
            f"{shape} float64 values takes {size} GiB, over the budget of "
            "0.25 GiB (presets.MAX_FIELD_BYTES)\n")
        assert not (tmp_path / "o").exists()

    def test_field_budget_is_inclusive(self, monkeypatch):
        # time-sparsity-demo's node fields hold 41 x 16 values
        settings = PRESET_SETTINGS["time-sparsity-demo"]
        monkeypatch.setattr(presets, "MAX_FIELD_BYTES", 8 * 41 * 16)
        make_problem(settings)
        monkeypatch.setattr(presets, "MAX_FIELD_BYTES", 8 * 41 * 16 - 1)
        with pytest.raises(ConfigError) as exc:
            make_problem(settings)
        assert [i.key for i in exc.value.issues] == ["grid.n, time.n_steps"]
