"""Set-up work of one workload in a fresh process; run.py times it.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports the library, then generates, parses and builds the problems of the
workload's first round and of its probes, the way runner.run does before it
solves anything.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tumorctrl import make_problem, runner, validate_setup  # noqa: E402

import workloads  # noqa: E402


def main(name: str, seed: str) -> None:
    source = workloads.OpSource(workloads.WORKLOADS[name], int(seed))
    for op in source.next_round() + source.probes():
        _, _, settings = runner.parse_config_text(op.text).to_settings()
        problem = make_problem(settings)
        report = validate_setup(problem.params, problem.pot, problem.init,
                                problem.hspec)
        if not report.passed:
            raise SystemExit(f"{op.kind}: {report}")


if __name__ == "__main__":
    main(*sys.argv[1:])
