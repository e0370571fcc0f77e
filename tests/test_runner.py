import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tumorctrl
from tumorctrl import runner
from tumorctrl.cli import main as cli_main
from tumorctrl.fields import Field, SpaceTimeField
from tumorctrl.optim import OptimizeOptions
from tumorctrl.presets import (_POTENTIALS, DEFAULT_SETTINGS, PRESET_SETTINGS,
                               SETTINGS, make_problem, preset_names,
                               preset_problem)
from tumorctrl.runner import (ConfigError, load_config, parse_config_text,
                              run)
from tumorctrl.solver import ControlPair, SeparationLoss
from tumorctrl.sparsity import SparsityMode


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


MINIMAL = "[run]\ncommand = simulate\npreset = stationary-trivial\n"


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
    def test_unknown_key(self, tmp_path, capsys, setting):
        name, _, value = setting.partition(" = ")
        sec, _, key = name.partition(".")
        text = (f"[run]\npreset = time-sparsity-demo\n\n"
                f"[{sec}]\n{key} = {value}\n")
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        issue = exc.value.issues[0]
        assert (issue.kind, issue.key, issue.line) == ("unknown-key", name, 5)
        cfgp = write_cfg(tmp_path, text)
        assert cli_main(["optimize", "--config", str(cfgp),
                         "--out", str(tmp_path / "o")]) == 2
        assert f"config error: unknown-key: {name} (line 5): unknown key" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("text,key,line,first", [
        ("[run]\npreset = time-sparsity-demo\n[model]\nnu = 0.2\n"
         "[model]\nnu = 0.3\n", "model.nu", 6, 4),
        ("[run]\npreset = time-sparsity-demo\npreset = stress-separation\n",
         "run.preset", 3, 2)], ids=["model.nu", "run.preset"])
    def test_key_set_twice(self, tmp_path, capsys, text, key, line, first):
        # a repeated section header is fine; a repeated key is not, rather
        # than the last value silently winning
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        issue = exc.value.issues[0]
        assert (issue.kind, issue.key, issue.line) == ("parse", key, line)
        assert cli_main(["simulate", "--config", str(write_cfg(tmp_path, text)),
                         "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"config error: parse: {key} (line {line}): set again (first on "
            f"line {first})\n")

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
        # a library caller's OptimizeOptions() runs the CLI's default cap
        assert make_problem(DEFAULT_SETTINGS).opts == OptimizeOptions()
        assert OptimizeOptions().max_iters == 400

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
        golden = {
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
        manifest = run(parse_config_text(MINIMAL), tmp_path / "out")
        assert set(manifest.artifacts) == set(golden)
        for name, digest in golden.items():
            data = (manifest.out_dir / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

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


class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        cfgp = write_cfg(tmp_path, MINIMAL)
        assert cli_main(["simulate", "--config", str(cfgp),
                         "--out", str(tmp_path / "o")]) == 0
        bad = write_cfg(tmp_path, "[model]\nnu = 0\n", name="bad.cfg")
        assert cli_main(["simulate", "--config", str(bad),
                         "--out", str(tmp_path / "o")]) == 2
        missing = tmp_path / "nope.cfg"
        assert cli_main(["simulate", "--config", str(missing),
                         "--out", str(tmp_path / "o")]) == 2
        # a config that cannot be read is a config error, not a traceback
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes("[run]\n# d\xe9j\xe0 vu\n".encode("latin-1"))
        capsys.readouterr()
        for unreadable in (tmp_path, latin1):
            assert cli_main(["simulate", "--config", str(unreadable),
                             "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err.startswith("config error: ")

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

    @pytest.mark.parametrize("text", [
        "[grid]\ndim = 3\n",
        "[grid]\ndim = 2\n",
        "[init]\nphi = bogus 1\n",
        "[bounds]\nlo1 = 2\n",
    ], ids=["dim-3", "dim-2-1d-n", "unknown-recipe", "lo1-above-hi1"])
    def test_invalid_problem_is_config_error(self, tmp_path, capsys, text):
        # these pass the schema but fail when the problem is built
        cfgp = write_cfg(tmp_path, text)
        assert cli_main(["simulate", "--config", str(cfgp),
                         "--out", str(tmp_path / "o")]) == 2
        assert "config error: range: <problem>: " in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("[init]\nphi = cosine 0\n",
         "recipe 'cosine 0' needs 2 argument(s) after 'cosine', got 1"),
        ("[init]\nphi = constant\n",
         "recipe 'constant' needs 1 argument(s) after 'constant', got 0"),
        ("[init]\nphi =\n", "empty field recipe"),
        ("[targets]\nphi_q = pulse 0 0.6 0\n",
         "recipe 'pulse 0 0.6 0' needs 4 argument(s) after 'pulse', got 3"),
        ("[controls]\nu0_1 = random\n",
         "recipe 'random' needs 1 argument(s) after 'random', got 0"),
    ], ids=["cosine-0", "constant", "empty", "pulse-3", "random"])
    def test_short_recipe_is_config_error(self, tmp_path, capsys, text,
                                          message):
        cfgp = write_cfg(tmp_path, text)
        assert cli_main(["simulate", "--config", str(cfgp),
                         "--out", str(tmp_path / "o")]) == 2
        assert f"config error: range: <problem>: {message}" \
            in capsys.readouterr().err

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

    def test_out_that_is_a_file_is_config_error(self, tmp_path, capsys):
        cfgp = write_cfg(tmp_path, MINIMAL)
        out = tmp_path / "o"
        out.write_text("")
        for command in ("simulate", "verify"):
            assert cli_main([command, "--config", str(cfgp),
                             "--out", str(out)]) == 2
            err = capsys.readouterr().err
            # the run directory is named by the hash of the config the
            # command runs
            assert err.startswith(
                f"config error: range: <out>: cannot make {out}{os.sep}")
            assert err.endswith(": Not a directory\n")
            assert err.count("\n") == 1
        assert out.read_text() == ""

    def test_sparsity_mode_needs_zero_inside_the_box(self, tmp_path, capsys):
        # the sparsity prox refuses such a box, and the zero control the
        # threshold is computed at lies outside it
        cfgp = write_cfg(tmp_path, "[run]\npreset = 1D-logarithmic-default\n"
                                   "[bounds]\nlo1 = 0.5\n")
        for command in ("optimize", "sweep-kappa", "threshold"):
            assert cli_main([command, "--config", str(cfgp),
                             "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == (
                "config error: range: bounds.lo1: sparsity mode 'time' needs "
                "lo1 < 0, got 0.5\n")
        assert cli_main(["simulate", "--config", str(cfgp),
                         "--out", str(tmp_path / "o")]) == 0
        # mode none has no prox: the box may exclude 0
        none = write_cfg(tmp_path, MINIMAL + "[bounds]\nlo1 = 0.5\n",
                         name="none.cfg")
        assert cli_main(["optimize", "--config", str(none),
                         "--out", str(tmp_path / "o")]) == 0

    def test_solver_failure_is_one_line(self, tmp_path, capsys):
        cfgp = write_cfg(tmp_path, "[run]\npreset = stress-separation\n"
                                   "[controls]\nu0_1 = constant -40\n")
        assert cli_main(["simulate", "--config", str(cfgp),
                         "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("solver error: separation lost at time step 82")
        assert err.count("\n") == 1
        # verify's checks march u0 in one batch with their points; its
        # failure reads as u0's own solve, naming no check
        assert cli_main(["verify", "--config", str(cfgp),
                         "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "solver error: separation lost at time step 82: margin "
            "8.411e-12\n")

    @pytest.mark.parametrize("u0_1,where", [
        ("-32", "linearized_fd_refinement level 1, eps 0.01: separation "
                "lost at time step 191: margin 9.966e-12"),
        ("-32.2", "linearized_fd_refinement level 1: separation lost at time "
                  "step 191: margin 9.016e-12")])
    def test_verify_failure_names_its_check(self, tmp_path, capsys, u0_1,
                                            where):
        # u0 solves on the preset's grid; a solve on the linearized check's
        # first refined level fails: a ladder point, or that level's u0
        cfgp = write_cfg(tmp_path, "[run]\npreset = stress-separation\n"
                                   f"[controls]\nu0_1 = constant {u0_1}\n")
        assert cli_main(["verify", "--config", str(cfgp),
                         "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"solver error: {where}\n"

    def test_solver_failure_leaves_no_run_directory(self, tmp_path, capsys):
        cfgp = write_cfg(tmp_path, "[run]\npreset = stress-separation\n"
                                   "[controls]\nu0_1 = constant -40\n")
        out = tmp_path / "o"
        assert cli_main(["simulate", "--config", str(cfgp),
                         "--out", str(out)]) == 1
        assert list(out.iterdir()) == []
        # a run directory that was there before the failed run stays
        cfg = load_config(cfgp)
        kept = out / cfg.config_hash()
        kept.mkdir()
        with pytest.raises(SeparationLoss):
            run(cfg, out)
        assert list(out.iterdir()) == [kept]

    def test_stress_preset_fails_loudly(self, tmp_path, capsys):
        cfgp = write_cfg(tmp_path, "[run]\npreset = stress-separation\n")
        rc = cli_main(["simulate", "--config", str(cfgp),
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        # simulate's one check is the separation monitor; verify runs four
        err = capsys.readouterr().err
        assert err.startswith("separation check FAILED: ")
        assert err.endswith(" (see separation.csv)\n")
        assert cli_main(["verify", "--config", str(cfgp),
                         "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == \
            "verification checks FAILED (see verify_summary.csv)\n"

    def test_nan_gradient_error_fails_verify(self, tmp_path, capsys):
        # phi_q = 1e300 overflows the smooth cost, so every central
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

    def test_overflowing_step_is_a_solver_error(self, tmp_path, capsys):
        # eta = 1/nu = 1e200 overflows the group norms of the first prox
        cfgp = write_cfg(tmp_path, "[run]\npreset = time-sparsity-demo\n"
                                   "[model]\nnu = 1e-200\n")
        out = tmp_path / "o"
        assert cli_main(["optimize", "--config", str(cfgp),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "solver error: prox step overflows at iteration 0 with eta "
            "1.000e+200\n")
        assert list(out.iterdir()) == []
        # a small nu that floating point can carry still converges: kappa
        # above the threshold zeroes the control in one step of 1e12
        cfgp = write_cfg(tmp_path, "[run]\npreset = time-sparsity-demo\n"
                                   "[model]\nnu = 1e-12\nkappa = 1\n")
        assert cli_main(["optimize", "--config", str(cfgp),
                         "--out", str(out)]) == 0

    @pytest.mark.parametrize("preset,length,width", [
        ("time-sparsity-demo", "1e160", "6.25e+158"),
        ("2D-regular-default", "1e300 1", "8.33333e+298")],
        ids=["1d", "2d"])
    def test_grid_without_float_h2_is_config_error(self, tmp_path, capsys,
                                                   preset, length, width):
        cfgp = write_cfg(tmp_path, f"[run]\npreset = {preset}\n"
                                   f"[grid]\nlength = {length}\n")
        assert cli_main(["simulate", "--config", str(cfgp),
                         "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"config error: range: <problem>: cell width {width} has h^2 = "
            "inf: need a finite positive h^2 and 1/h^2\n")

    @pytest.mark.parametrize("section,diagonal", [
        ("[time]\nt_final = 1e17\n", "2.560e+02"),
        ("[grid]\nlength = 1e-150\n", "2.560e+302")],
        ids=["t_final", "length"])
    def test_vanished_pivot_is_a_solver_error(self, tmp_path, capsys,
                                              section, diagonal):
        # alpha/tau h^2 falls below round-off: the 1D solve meets -Lap
        cfgp = write_cfg(tmp_path, "[run]\npreset = time-sparsity-demo\n"
                                   + section)
        assert cli_main(["simulate", "--config", str(cfgp),
                         "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "solver error: 1D Helmholtz solve: pivot of cell 15 vanished "
            f"(diagonal {diagonal}, off-diagonal -{diagonal})\n")

    @pytest.mark.parametrize("command,preset,section", [
        ("optimize", "time-sparsity-demo", "[model]\nnu = 5e-324\n"),
        ("optimize", "time-sparsity-demo", "[model]\nbeta1 = 1e300\n"),
        ("simulate", "2D-regular-default", "[time]\nt_final = 1e300\n")],
        ids=["nu", "beta1", "t_final-2d"])
    def test_overflow_prints_no_numpy_warning(self, tmp_path, command,
                                              preset, section):
        # pytest captures warnings before capsys sees them: run the CLI
        cfgp = write_cfg(tmp_path, f"[run]\npreset = {preset}\n" + section)
        src = str(Path(tumorctrl.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "tumorctrl.cli", command, "--config",
             str(cfgp), "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stderr.startswith("solver error: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("command,preset,section,code,err", [
        ("simulate", "stress-separation", "[model]\na_rate = 1.7e308\n", 1,
         "solver error: state solve overflows at time step 0: mu is not "
         "finite"),
        ("simulate", "1D-logarithmic-default",
         "[model]\nsigma_s = 1.7e308\n", 1,
         "solver error: state solve overflows at time step 0: sigma is not "
         "finite"),
        ("simulate", "time-sparsity-demo", "[time]\nt_final = 5e-324\n", 2,
         "config error: range: <problem>: time.t_final = 4.94066e-324 over "
         "time.n_steps = 40 gives tau = 0: need a finite positive tau and "
         "1/tau"),
        ("threshold", "1D-logarithmic-default",
         "[targets]\nphi_q = random 1e300\n", 1,
         "solver error: zero-control threshold of u1 overflows: its largest "
         "time mode norm is inf"),
        ("sweep-kappa", "1D-logarithmic-default",
         "[targets]\nphi_q = random 1e300\n", 1,
         "solver error: zero-control threshold of u1 overflows: its largest "
         "time mode norm is inf")],
        ids=["a_rate", "sigma_s", "t_final", "threshold", "sweep-kappa"])
    def test_unusable_run_ends_in_one_line(self, tmp_path, command, preset,
                                           section, code, err):
        # a forward state that overflows, a tau that underflows and an
        # infinite threshold: one stderr line, no warning, no run directory
        cfgp = write_cfg(tmp_path, f"[run]\npreset = {preset}\n" + section)
        src = str(Path(tumorctrl.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "tumorctrl.cli", command, "--config",
             str(cfgp), "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == code
        assert proc.stderr == err + "\n"
        assert not out.exists() or list(out.iterdir()) == []

    def test_command_override(self, tmp_path):
        # stationary preset has mode none: threshold must refuse it cleanly
        cfgp = write_cfg(tmp_path, MINIMAL)
        assert cli_main(["threshold", "--config", str(cfgp),
                         "--out", str(tmp_path / "o")]) == 2
        cfgp2 = write_cfg(tmp_path, "[run]\npreset = time-sparsity-demo\n",
                          name="t.cfg")
        assert cli_main(["threshold", "--config", str(cfgp2),
                         "--out", str(tmp_path / "o")]) == 0
