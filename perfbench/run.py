"""tumorctrl benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Drives the library as the CLI does: seeded
config texts are parsed with runner.parse_config_text and executed with
runner.run into a scratch directory under perfbench/out, one op at a time
(one closed-loop client, BLAS pinned to one thread).  Every op's artifacts
pass the correctness gate (gate.py) before it counts.

--trace 0 reports the end-to-end metrics, with op times normalized for the
host's speed (see SpeedSampler); --trace 1 reports the per-layer metrics
from a separate traced run.  The last line of standard output is the result
JSON; a detail file with every op, probe, raw time and the environment goes
to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in children
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402


def _setup_times(workload: str, seed: int) -> list:
    """Wall time of fresh processes that import and build the problems."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls in steps of up to 50 ms
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                        workload, str(seed)], check=True)
        times.append(time.perf_counter() - t0)
    return times


# The host's speed swings by up to 2x for stretches lasting from
# milliseconds to minutes; process CPU time swings with it and steal time
# stays 0.  So every timed op also samples the host's speed: a timer signal
# runs a fixed numpy kernel, shaped like the library's small-vector PCG
# loops, every SAMPLE_PERIOD_S.  The op's latency excludes the samples, and
# its normalized latency is scaled by CAL_REF_S over the median sample, i.e.
# expressed in seconds on a host where the kernel takes CAL_REF_S.
CAL_REF_S = 1e-3
CAL_ITERATIONS = 250
SAMPLE_PERIOD_S = 0.1


class SpeedSampler:
    """Times the calibration kernel at entry, exit and every period."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._x0 = np.linspace(0.0, 1.0, 64)
        self._ones = np.ones(64)
        self.samples = []
        self.spent = 0.0  # seconds inside samples since entry

    def _sample(self, *_):
        dot, ones, x = self._np.dot, self._ones, self._x0
        t0 = time.perf_counter()
        for _ in range(CAL_ITERATIONS):
            x = 0.5 * x + 1e-3 * ones - 1e-6 * float(dot(x, ones))
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self.samples = []
        self._sample()
        self.spent = 0.0
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def speed(self):
        return CAL_REF_S / statistics.median(self.samples)


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"commit": _commit(), "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}


_ABS_G = re.compile(r"\|G\| = ([-+0-9.eE]+)")


class Harness:
    """Executes ops, times them, gates them and keeps a record of each."""

    def __init__(self, runner, reference, tracer=None):
        self.runner = runner
        self.reference = reference
        self.tracer = tracer
        self.records = []
        self.sampler = SpeedSampler()
        OUT.mkdir(exist_ok=True)

    def _run(self, op, out_dir):
        return self.runner.run(self.runner.parse_config_text(op.text), out_dir)

    def warm(self, op):
        """Run an op untimed and ungated, to load code and fill caches."""
        tmp = tempfile.mkdtemp(dir=OUT, prefix="warm-")
        try:
            self._run(op, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def execute(self, op):
        """Run, time and gate one op and record it.  Never raises."""
        op_id = len(self.records)
        rec = {"id": op_id, "kind": op.kind, "probe": op.probe, "ok": False}
        traced = self.tracer is not None and not op.probe
        tmp = tempfile.mkdtemp(dir=OUT, prefix="op-")
        stage = "run"
        try:
            if traced:
                t0 = time.perf_counter()
                with self.tracer.op(op_id):
                    manifest = self._run(op, tmp)
                rec["latency_s"] = time.perf_counter() - t0
            elif op.probe:
                manifest = self._run(op, tmp)
            else:
                with self.sampler as sampler:
                    t0 = time.perf_counter()
                    manifest = self._run(op, tmp)
                    rec["latency_s"] = time.perf_counter() - t0 - sampler.spent
                rec["speed"] = sampler.speed()
                rec["norm_latency_s"] = rec["latency_s"] * rec["speed"]
            stage = "gate"
            ref = None if op.probe else self.reference["kinds"][op.kind]
            obs = gate.check(op.kind, manifest, ref)
            if traced:
                self.tracer.counts[op_id]["runner.artifact_bytes"] += sum(
                    p.stat().st_size for p in manifest.out_dir.iterdir()
                    if p.name != "manifest.txt")
            rec.update(ok=True, observed={k: v for k, v in obs.items()
                                          if k != "final"})
        except Exception as exc:  # every failure is recorded, none aborts
            rec.update(stage=stage, error=type(exc).__name__,
                       message=str(exc))
            match = _ABS_G.search(str(exc))
            if match:
                rec["abs_G"] = float(match.group(1))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self.records.append(rec)
        return rec


def measure(harness, source, seconds):
    """Timed rounds until another round would pass the time budget."""
    rounds = []
    start = time.perf_counter()
    while True:
        recs = [harness.execute(op) for op in source.next_round()]
        rounds.append({
            "ops": [r["id"] for r in recs],
            "wall_s": sum(r.get("latency_s", 0.0) for r in recs),
            "norm_wall_s": sum(r.get("norm_latency_s", 0.0) for r in recs)})
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r["wall_s"] for r in rounds) > seconds:
            return rounds


def _value(x, unit):
    return {"value": x, "unit": unit}


def traced_checks(harness, tracer, first_op):
    """Self-checks of a traced run; adds no record and no timed op."""
    first_id = harness.records[0]["id"]
    again = harness.execute(first_op)
    harness.records.remove(again)
    per_op = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        per_op[span[4]] = per_op.get(span[4], 0.0) + self_s
    return {
        # deterministic counters: the same op again counts the same
        "counters_repeat": tracer.counts[first_id] == tracer.counts[again["id"]],
        # the self times of each op's spans add up to the op's duration
        "self_time_sums": all(abs(per_op[s[4]] - (s[2] - s[1])) <= 1e-9
                              for s in tracer.spans if s[0] == "op"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import tumorctrl
        from tumorctrl import runner
        reference = gate.load_reference()
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot load the library or its reference: {exc}",
              file=sys.stderr)
        return 2
    from tracing import Tracer, layer_metrics, unit

    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    setup_times = [] if args.trace else _setup_times(args.workload,
                                                      args.seed)
    harness = Harness(runner, reference)
    for op in workloads.warmup_ops(workload):
        harness.warm(op)

    source = workloads.OpSource(workload, args.seed)
    checks = {}
    if args.trace:
        tracer = harness.tracer = Tracer(tumorctrl)
        tracer.install()
        try:
            rounds = measure(harness, source, args.seconds)
            first = workloads.OpSource(workload, args.seed).next_round()[0]
            checks = traced_checks(harness, tracer, first)
        finally:
            tracer.uninstall()
    else:
        rounds = measure(harness, source, args.seconds)
        for op in source.probes():
            harness.execute(op)

    timed = [r for r in harness.records if not r["probe"]]
    probes = [r for r in harness.records if r["probe"]]
    failed = [r for r in timed if not r["ok"]]
    latencies = [r["latency_s"] for r in timed if r["ok"]] or [0.0]
    walls = [r["wall_s"] for r in rounds]
    summary = {
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(latencies),
        "rounds": len(rounds), "timed_ops": len(timed),
        "probe_ops": len(probes),
        "error_rate": sum(not r["ok"] for r in harness.records)
        / len(harness.records),
        "op_latency_samples": len(latencies),
        "op_p90_s": (statistics.quantiles(latencies, n=10)[-1]
                     # at least ten samples above the p90
                     if len(latencies) >= 100 else None),
    }
    if args.trace:
        metrics = {k: _value(v, unit(k)) for k, v in layer_metrics(
            tracer, [r["id"] for r in timed]).items()}
        metrics["trace.wall_s"] = _value(statistics.median(walls), "s")
        # the tracer's own cost per op, from its measured cost per span
        metrics["trace.overhead_share"] = _value(
            metrics["trace.spans_per_op"]["value"] * tracer.span_cost()
            / statistics.median(latencies), "share")
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        norm = [r["norm_latency_s"] for r in timed if r["ok"]] or [0.0]
        summary["speed_median"] = statistics.median(
            [r["speed"] for r in timed if "speed" in r] or [0.0])
        metrics = {
            "wall_norm_s": _value(statistics.median(
                r["norm_wall_s"] for r in rounds), "s"),
            "op_p50_norm_s": _value(statistics.median(norm), "s"),
            "peak_rss_mb": _value(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": _value(statistics.median(setup_times), "s"),
        }
    # a probe may fail to run, but what it writes must be right
    bad_probes = [r for r in probes if r.get("stage") == "gate"]
    correct = not failed and not bad_probes and all(checks.values())

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "summary": summary, "checks": checks,
              "setup_s_samples": setup_times, "rounds": rounds,
              "ops": harness.records, "metrics": metrics}
    detail_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{summary['rounds']} rounds, {summary['timed_ops']} timed ops, "
          f"{summary['probe_ops']} probe ops, error_rate "
          f"{summary['error_rate']:.4f}; detail in "
          f"{detail_path.relative_to(ROOT)}")
    for r in harness.records:
        if not r["ok"]:
            what = "probe" if r["probe"] else "FAILED"
            print(f"  {what} {r['kind']}: {r['error']}: {r['message']}")
    print(json.dumps({"correct": correct, "attempted": len(timed),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
