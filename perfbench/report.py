"""Run every workload untraced and traced with one seed; print the summary.

    python3 perfbench/report.py [--seed N] [--seconds S]

For each workload this prints every end-to-end metric by name with its unit
and sample count, the measured (not normalized) wall_s and op_p50_s, the
error rate and probe outcomes, the correctness verdict, the tracing overhead
(traced over untraced measured wall_s, minus 1) and the per-layer metrics of
the traced run.  Exits 1 if any run is not correct.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}"
                         ".json").read_text())
    return result, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    args = ap.parse_args()
    all_correct = True
    for name in WORKLOADS:
        plain, detail = run(name, args.seed, args.seconds, 0)
        traced, tdetail = run(name, args.seed, args.seconds, 1)
        s = detail["summary"]
        m = plain["metrics"]
        all_correct &= plain["correct"] and traced["correct"]
        print(f"== {name} (seed {args.seed}, correct: untraced "
              f"{plain['correct']}, traced {traced['correct']})")
        rounds = f"{s['rounds']} rounds"
        ops = f"{s['op_latency_samples']} ops"
        samples = {"wall_norm_s": rounds, "op_p50_norm_s": ops,
                   "peak_rss_mb": "1 process",
                   "setup_s": f"{len(detail['setup_s_samples'])} processes"}
        for key, v in m.items():
            print(f"  {key:<14} {v['value']:>12.4f} {v['unit']:<4} "
                  f"(n = {samples[key]})")
        print(f"  {'wall_s':<14} {s['wall_s']:>12.4f} s    (n = {rounds}, "
              f"not normalized; median host speed {s['speed_median']:.3f})")
        print(f"  {'op_p50_s':<14} {s['op_p50_s']:>12.4f} s    (n = {ops}, "
              "not normalized)")
        p90 = s["op_p90_s"]
        print(f"  {'op_p90_s':<14} "
              + (f"{p90:>12.4f} s" if p90 is not None else
                 f"{'n/a':>12}      (needs 100 ops, has "
                 f"{s['op_latency_samples']})"))
        attempted = s["timed_ops"] + s["probe_ops"]
        print(f"  {'error_rate':<14} {s['error_rate']:>12.4f} share "
              f"(n = {attempted} ops, {s['probe_ops']} probes)")
        for op in detail["ops"]:
            if not op["ok"]:
                print(f"    {'probe' if op['probe'] else 'FAILED'} "
                      f"{op['kind']}: {op['error']}: {op['message']}")
        overhead = traced["metrics"]["trace.wall_s"]["value"] \
            / s["wall_s"] - 1.0
        print(f"  tracing overhead {overhead:+.2%} (traced wall_s "
              f"{traced['metrics']['trace.wall_s']['value']:.4f} s); "
              f"self-checks {tdetail['checks']}")
        for key, v in traced["metrics"].items():
            print(f"    {key:<40} {v['value']:>14.6g} {v['unit']}")
    env = detail["env"]
    print("env:", json.dumps(env))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
