"""Benchmark of the passiveqkd pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload simulate-io --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout: the package is imported from the
checkout's ``src/`` and scratch files go to ``.bench_work/`` at its root.
With ``--trace 0`` the run prints the end-to-end metrics: ``setup_s``
(median wall time of a fresh interpreter running ``import passiveqkd``)
and, from a child process running the workload, ``wall_s``,
``throughput`` and that child's ``peak_rss_mb``. With ``--trace 1`` it
prints the per-layer metrics instead, including import times from
``python -X importtime``. Every output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 whenever that line is
printed, and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, IMPORT_METRICS, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/passiveqkd/__init__.py",
            "scenarios/correlation_vs_photon_number.json",
            "scenarios/correlation_vs_attenuation.json",
            "scenarios/keyrate_vs_distance.json")
WORKLOAD_NAMES = ("simulate-io", "sweep", "keyrate-curve")
SETUP_PROBES_EACH_SIDE = 3
IMPORT_PROBE_REPEATS = 3
# The whole run must end within 180 s.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _env():
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _python(args, timeout):
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(), timeout=timeout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} failed:\n{proc.stderr.strip()}")
    return proc


def time_setup(repeats):
    """Wall times of fresh interpreters importing the package."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _python(["-c", "import passiveqkd"], timeout=60)
        times.append(time.perf_counter() - start)
    return times


def parse_importtime(stderr):
    """{module: (self_s, cumulative_s)} from ``-X importtime`` output."""
    times = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative_us, module = line[len("import time:"):].split("|")
        times[module.strip()] = (int(self_us) / 1e6, int(cumulative_us) / 1e6)
    return times


def measure_imports():
    """Import-time metrics, each the median of a few fresh interpreters.

    ``import.<package>.self_s`` sums the self time of the package's own
    modules; ``import.passiveqkd.cumulative_s`` is the whole import.
    """
    samples = {name: [] for name in IMPORT_METRICS}
    for _ in range(IMPORT_PROBE_REPEATS):
        times = parse_importtime(
            _python(["-X", "importtime", "-c", "import passiveqkd"], timeout=60).stderr)
        samples["import.passiveqkd.cumulative_s"].append(times["passiveqkd"][1])
        for package in ("passiveqkd", "numpy", "scipy"):
            samples[f"import.{package}.self_s"].append(sum(
                t[0] for m, t in times.items() if m.split(".")[0] == package))
    return {name: statistics.median(values) for name, values in samples.items()}


def run_worker(args, deadline):
    """Run the workload in a child process; return (result, peak RSS in MB)."""
    work = ROOT / ".bench_work"
    result_path = work / f"result-{args.workload}-{args.trace}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result_path)]
    if args.smoke:
        cmd.append("--smoke")
    with open(work / "worker.log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=log)
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                raise BenchError("workload did not finish in time")
            time.sleep(0.02)
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as f:
        result = json.load(f)
    # ru_maxrss is in KiB on Linux.
    return result, rusage.ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: the program is not in this checkout (missing {missing})",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    try:
        if args.trace:
            imports = measure_imports()
            result, peak_rss_mb = run_worker(args, deadline)
        else:
            # Half the set-up probes run before the workload and half after,
            # so that their median spans the run rather than its first seconds.
            setups = time_setup(SETUP_PROBES_EACH_SIDE)
            result, peak_rss_mb = run_worker(args, deadline)
            setups += time_setup(SETUP_PROBES_EACH_SIDE)
            setup_s = statistics.median(setups)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics = dict(result["metrics"])
    if args.trace:
        metrics.update(imports)
        names = PER_LAYER
    else:
        metrics.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
        names = END_TO_END
    if set(metrics) != set(names):
        print(f"perfbench: metric set mismatch {sorted(set(metrics) ^ set(names))}",
              file=sys.stderr)
        return 2

    walls = result["walls_s"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(walls)} untraced iterations of {result['work_per_iteration']} "
          f"{result['work_label']}")
    for name, unit in names.items():
        print(f"  {name:48s} {metrics[name]:.6g} {unit}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':48s} {fail_frac:.6g} "
          f"({result['failed']} of {result['attempted']} operations failed)")
    if "spans" in result:
        print(f"  spans written to {result['spans']}")
    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
