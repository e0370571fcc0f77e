"""Record the correctness gate's reference values from the library as is.

    python3 perfbench/record_reference.py

Runs every op kind of every workload once and writes perfbench/reference.json
with what gate.observe reads from its artifacts.  Optimize kinds run from
three seeded starts and must agree, since the gate uses one reference for all
starts; probe kinds record how they end (at the recording commit the fine-grid
probes fail, which the reference keeps for the record only).
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads and puts the library on the path

from tumorctrl import runner  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402

START_SEEDS = (0, 1, 2)


def observe(kind, seed):
    tmp = tempfile.mkdtemp(dir=run.OUT, prefix="ref-")
    try:
        op = workloads.make_op(kind, seed)
        manifest = runner.run(runner.parse_config_text(op.text), tmp)
        return gate.observe(manifest)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    kinds = {}
    for w in workloads.WORKLOADS.values():
        for kind in w.round_kinds:
            if kind in kinds:
                continue
            if kind.startswith("optimize"):
                obs = [observe(kind, s) for s in START_SEEDS]
                costs = [o["cost"] for o in obs]
                spread = (max(costs) - min(costs)) / abs(costs[0])
                supports = {(o["support1"], o["support2"]) for o in obs}
                if spread > gate.REL_TOL or len(supports) != 1:
                    raise SystemExit(f"{kind}: optimum depends on the start")
                kinds[kind] = dict(obs[0], start_relative_spread=spread)
            else:
                kinds[kind] = observe(kind, 0)
            print(kind, {k: v for k, v in kinds[kind].items()
                         if k != "final"}, flush=True)
        for kind in w.probe_kinds:
            try:
                kinds[kind] = {"outcome": "ok", **observe(kind, 0)}
            except Exception as exc:  # the record keeps how a probe ends
                kinds[kind] = {"outcome": type(exc).__name__,
                               "message": str(exc)}
            print(kind, kinds[kind], flush=True)
    gate.REFERENCE.write_text(json.dumps(
        {"env": run.environment(), "kinds": kinds}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
