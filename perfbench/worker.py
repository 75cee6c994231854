"""Run one workload in this process and write its result as JSON.

Started by run.py as a child process, so that the child's peak resident
memory is the workload's own. Untraced (``--trace 0``) it times whole
iterations; traced (``--trace 1``) it alternates untraced and traced
iterations, derives the per-layer metrics from the traced ones and
writes their spans next to the result.

    python3 perfbench/worker.py --workload sweep --seed 1 --seconds 20 \
        --trace 0 --result .bench_work/result.json
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

from metrics import IMPORT_METRICS, PER_LAYER
from tracing import RunSummary, Tracer
from workloads import PHOTON_SCENARIO, SMOKE_SAMPLES, WORKLOADS, untraced

MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 2
PROBE_REPEATS = 3
MAX_PROBLEMS = 20


class Tally:
    """Attempted and failed operations, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.restore_failed = False

    def problem(self, message):
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def record(self, iteration, outcome, checks):
        """Count the ops of one iteration; an op whose output digest differs
        from the first iteration's fails the determinism check."""
        for op in outcome.ops:
            self.attempted += 1
            problems = []
            if op in outcome.errors:
                problems.append(outcome.errors[op])
            else:
                problems, digest = checks.get(op, (["output was not checked"], None))
                problems = list(problems)
                first = self.digests.setdefault(op, digest)
                if digest != first:
                    problems.append("output differs from the first iteration's")
            if problems:
                self.failed += 1
                self.problem(f"iteration {iteration}, {op}: " + "; ".join(problems))


def run_iteration(workload, tally, iteration, span=untraced, tracer=None, pkg=None):
    """Run, time and check one iteration; return its wall time in seconds."""
    workload.clean()
    if tracer is not None:
        tracer.run_id = iteration
        tracer.install(pkg)
    start = time.perf_counter()
    try:
        outcome = workload.iterate(span)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            left = tracer.uninstall()
            if left:
                tally.problem(f"iteration {iteration}: names not restored: {left}")
                tally.restore_failed = True
    try:
        checks = workload.check(outcome)
    except Exception as exc:  # an unreadable output fails every op that made one
        checks = {op: ([f"check raised {type(exc).__name__}: {exc}"], None)
                  for op in outcome.values}
    tally.record(iteration, outcome, checks)
    return wall


def workers_probe(pkg, root, seed, smoke, tally):
    """Time simulate_batch with one and two workers on the simulate-io batch
    and require bit-identical columns; return the two-worker speedup."""
    simulate = pkg.sampling.simulate_batch
    if "n_workers" not in inspect.signature(simulate).parameters:
        return 1.0  # the sampler has no worker pool to compare
    scenario = pkg.scenario.load_scenario(str(root / PHOTON_SCENARIO))
    config = scenario.system_config()
    run = scenario.run_spec(seed=seed, n_samples=SMOKE_SAMPLES if smoke else None)
    times = {1: [], 2: []}
    digests = set()
    tally.attempted += 1
    try:
        for _ in range(PROBE_REPEATS):
            for n_workers in (1, 2):
                start = time.perf_counter()
                batch = simulate(config, run, n_workers=n_workers)
                times[n_workers].append(time.perf_counter() - start)
                digests.add(hashlib.sha256(b"".join(
                    col.tobytes() for col in batch.columns())).hexdigest())
                del batch
    except Exception as exc:
        tally.failed += 1
        tally.problem(f"workers probe raised {type(exc).__name__}: {exc}")
        return 0.0
    if len(digests) != 1:
        tally.failed += 1
        tally.problem("simulate_batch columns differ between n_workers=1 and 2")
    return statistics.median(times[1]) / statistics.median(times[2])


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summaries, workload):
    """Per-layer metrics from the traced iterations' span summaries."""
    def med(fn):
        return statistics.median(fn(s) for s in summaries)

    def calls(name):
        return med(lambda s: s.calls.get(name, 0))

    def self_s(name):
        return med(lambda s: s.self_ns.get(name, 0) / 1e9)

    m = {}
    for name in ("sampling.simulate_batch", "estimation.blocked_correlation",
                 "model.correlation_coefficient", "scenario.load_scenario",
                 "keyrate.optimize_attenuation", "keyrate.distance_cutoff",
                 "keyrate.key_rate_from_measurement"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("sampling.write_sample_csv", "sampling.read_sample_csv",
                 "estimation.read_points_csv", "estimation.fit_mode_overlap",
                 "estimation.write_fit_report"):
        m[f"{name}.self_s"] = self_s(name)
    m["sampling.simulate_batch.trials_per_s"] = med(lambda s: _ratio(
        workload.trials_per_iteration * 1e9, s.total_ns.get("sampling.simulate_batch", 0)))
    m["sampling.write_sample_csv.bytes"] = med(
        lambda s: s.nbytes.get("sampling.write_sample_csv", 0))
    for name in ("sampling.write_sample_csv", "sampling.read_sample_csv"):
        m[f"{name}.mb_per_s"] = med(lambda s: _ratio(
            s.nbytes.get(name, 0) * 1e3, s.self_ns.get(name, 0)))
    kr = "keyrate.key_rate_point"
    m[f"{kr}.calls"] = calls(kr)
    m[f"{kr}.self_us"] = med(lambda s: _ratio(s.self_ns.get(kr, 0) / 1e3, s.calls.get(kr, 0)))
    opt, cut = "keyrate.optimize_attenuation", "keyrate.distance_cutoff"
    m[f"{opt}.evals_per_call"] = med(lambda s: _ratio(s.child_calls(opt, kr),
                                                      s.calls.get(opt, 0)))
    m[f"{cut}.optimize_calls_per_call"] = med(lambda s: _ratio(s.child_calls(cut, opt),
                                                               s.calls.get(cut, 0)))
    for cmd in ("simulate", "sweep-n0", "sweep-attenuation", "fit", "keyrate"):
        m[f"cli.{cmd}.s"] = med(lambda s: s.total_ns.get(f"cli.{cmd}", 0) / 1e9)
        m[f"cli.{cmd}.self_s"] = self_s(f"cli.{cmd}")
    sweeps = ("cli.sweep-n0", "cli.sweep-attenuation")
    m["cli.sweep.parallelism"] = med(lambda s: _ratio(
        sum(s.child_ns(c) for c in sweeps), sum(s.total_ns.get(c, 0) for c in sweeps)))
    return m


def run(pkg, root, work_dir, name, seed, seconds, trace, smoke=False):
    """Run workload ``name`` for ``seconds``; return the result dictionary."""
    seed %= 2**64  # the package's seed domain
    tally = Tally()
    workload = WORKLOADS[name](pkg, root, work_dir, seed, smoke=smoke)
    walls, traced_walls, summaries = [], [], []
    tracer = Tracer() if trace else None
    probe = workers_probe(pkg, root, seed, smoke, tally) if trace else None
    # An untimed warm-up iteration, checked like the others, lets lazy
    # imports and first-touch costs settle before timing starts.
    run_iteration(workload, tally, "warm-up")
    start = time.perf_counter()
    iteration = 0
    while True:
        if trace and iteration % 2:
            traced_walls.append(run_iteration(workload, tally, iteration, tracer.call,
                                              tracer, pkg))
        else:
            walls.append(run_iteration(workload, tally, iteration))
        iteration += 1
        if trace and iteration % 2:
            continue  # an untraced iteration is always followed by a traced one
        done = len(traced_walls) >= MIN_TRACED_PAIRS if trace else (
            len(walls) >= MIN_ITERATIONS)
        # Start no iteration (or traced pair) that would end past ``seconds``,
        # so a run takes no longer than asked for.
        step = statistics.median(walls) * (2 if trace else 1)
        if done and time.perf_counter() - start + step > seconds:
            break
    workload.clean()
    result = {
        "workload": name,
        "seed": seed,
        "work_label": workload.work_label,
        "work_per_iteration": workload.work_per_iteration,
        "walls_s": walls,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": tally.failed == 0 and not tally.restore_failed,
        "problems": tally.problems,
    }
    wall = statistics.median(walls)
    if trace:
        for run_id in range(1, iteration, 2):
            summaries.append(RunSummary([s for s in tracer.spans if s.run == run_id]))
        metrics = layer_metrics(summaries, workload)
        metrics["sampling.simulate_batch.workers2_speedup"] = probe
        metrics["trace_overhead_frac"] = statistics.median(traced_walls) / wall - 1.0
        result["traced_walls_s"] = traced_walls
        result["spans"] = str(work_dir / f"spans-{name}.jsonl")
        tracer.write_jsonl(result["spans"])
        expected = set(PER_LAYER) - set(IMPORT_METRICS)
        if set(metrics) != expected:
            raise RuntimeError(f"per-layer metrics mismatch: {set(metrics) ^ expected}")
    else:
        metrics = {"wall_s": wall, "throughput": workload.work_per_iteration / wall}
    result["metrics"] = metrics
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    import passiveqkd
    import passiveqkd.cli  # noqa: F401  (the workloads drive the CLI in-process)
    source = Path(passiveqkd.__file__).resolve()
    if root / "src" not in source.parents:
        raise SystemExit(f"passiveqkd was imported from {source}, not from {root / 'src'}")
    work_dir = Path(args.result).resolve().parent
    result = run(passiveqkd, root, work_dir, args.workload, args.seed, args.seconds,
                 bool(args.trace), smoke=args.smoke)
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    sys.exit(main())
