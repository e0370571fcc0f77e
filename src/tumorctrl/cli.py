"""Command-line interface.

    tumorctrl simulate|optimize|verify|sweep-kappa|threshold \
        --config <path> [--out <dir>]

Exit codes: 0 success; 1 check failure, an optimize or sweep-kappa whose
optimizer did not converge, or a solver failure (one "solver error:" line);
2 config error: a config file that cannot be read as UTF-8 text, a bad key,
value or section, a problem the settings cannot build, an optimize,
threshold or sweep-kappa whose sparsity mode meets a box that does not hold
0 strictly inside, an --out under which the run directory cannot be made
(say a file), or an artifact that cannot be written (a directory in its
place, a full disk, no permission).  A run that fails once its run
directory is made removes it, even one an earlier run left; a failed check
keeps its artifacts.  Every config key, its section and its default are in
tumorctrl.presets.SETTINGS.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .runner import COMMANDS, ConfigError, load_config, run
from .solver import SolveFailure

# what a failed run means, per command (threshold always passes)
_FAILURES = {
    "simulate": "separation check FAILED: phi came too close to the "
                "potential's singular interval ends (see separation.csv)",
    "optimize": "optimizer did not converge: VI residual above tol_vi (see "
                "convergence.csv)",
    "verify": "verification checks FAILED (see verify_summary.csv)",
    "sweep-kappa": "optimizer did not converge at some kappa: VI residual "
                   "above tol_vi (see kappa_sweep.csv)",
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tumorctrl",
        description="Sparse optimal control of a tumor-growth phase-field "
                    "system: simulate, optimize, verify.")
    p.add_argument("command", choices=COMMANDS,
                   help="command to run (overrides the config's run.command)")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", default="runs", help="output directory root")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        # the positional command wins over the file's run.command
        values = tuple((sk, args.command if sk == ("run", "command") else v)
                       for sk, v in cfg.values)
        cfg = type(cfg)(values)
        # non-finite values end in a typed error, not in numpy's warnings
        with np.errstate(all="ignore"):
            manifest = run(cfg, args.out)
    except (OSError, UnicodeDecodeError) as exc:
        # a config that cannot be read, or an artifact that cannot be written
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        for issue in exc.issues:
            print(f"config error: {issue}", file=sys.stderr)
        return 2
    except SolveFailure as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.command}: wrote {len(manifest.artifacts)} artifacts to "
          f"{manifest.out_dir} ({manifest.elapsed_s:.2f}s)")
    if not manifest.passed:
        print(_FAILURES[args.command], file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
