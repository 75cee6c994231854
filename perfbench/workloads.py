"""The benchmark's workloads: inputs from the seed, timed work, output checks.

Each workload prepares its inputs in ``__init__`` (untimed), runs one
iteration of operations in ``iterate`` (timed) and checks that
iteration's outputs in ``check`` (untimed). An operation fails when it
raises, when the CLI exits non-zero, or when its output fails a check.

Statistical checks allow 5 standard deviations of the quantity checked,
with the deviation taken from the model rather than from the estimate,
so a correct program fails one with negligible probability on any seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

N_SIGMA = 5.0
# Optimised rate of the shipped paper point (n0 = 900, a = 0.96) at 80 km,
# as pinned by the package's own test of optimize_attenuation.
PINNED_RATE_80KM = 7.325963949318562e-06
XTOL_KM = 1e-3
SMOKE_SAMPLES = 20_000

PHOTON_SCENARIO = "scenarios/correlation_vs_photon_number.json"
ATTENUATION_SCENARIO = "scenarios/correlation_vs_attenuation.json"
KEYRATE_SCENARIO = "scenarios/keyrate_vs_distance.json"


def untraced(name, fn, *args):
    return fn(*args)


class OpFailed(Exception):
    pass


class Outcome:
    """Results and errors of the operations of one iteration, in order."""

    def __init__(self):
        self.errors = {}
        self.values = {}

    def run(self, op, fn, *args, needs=()):
        for dep in needs:
            if dep not in self.values:
                self.errors[op] = f"not run: {dep} failed"
                return None
        try:
            value = fn(*args)
        except Exception as exc:  # any failure of the program counts against it
            self.errors[op] = f"{type(exc).__name__}: {exc}"
            return None
        self.values[op] = value
        return value

    @property
    def ops(self):
        return list(self.values) + list(self.errors)


def _sha256(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def _read_csv(path, schema):
    """Return (header, rows, trailing comments) of a package CSV file,
    checking its schema line against ``passiveqkd/<schema> v<N>``."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or not re.fullmatch(rf"# schema: passiveqkd/{schema} v\d+", lines[0]):
        raise OpFailed(f"{path}: bad schema line {lines[:1]!r}")
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    comments = [ln for ln in lines[1:] if ln.startswith("#")]
    rows = list(csv.reader(body))
    return rows[0], rows[1:], comments


def _close(actual, expected, *, rel=0.0, abs_tol=0.0):
    return math.isfinite(actual) and abs(actual - expected) <= max(rel * abs(expected),
                                                                   abs_tol)


class Workload:
    """One workload; subclasses set the class attributes and three methods."""

    name = ""
    work_label = ""           # what ``throughput`` counts
    work_per_iteration = 0
    trials_per_iteration = 0  # sampler trials in one iteration

    def __init__(self, pkg, work_dir):
        self.pkg = pkg
        self.work_dir = work_dir

    def _path(self, suffix):
        return str(self.work_dir / f"{self.name}{suffix}")

    def _cli(self, span, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = span(f"cli.{argv[0]}", self.pkg.cli.main, argv)
        if code != 0:
            raise OpFailed(f"{argv[0]} exited with {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def outputs(self):
        """Files an iteration writes; removed before each iteration."""
        return []

    def clean(self):
        for path in self.outputs():
            Path(path).unlink(missing_ok=True)

    def iterate(self, span=untraced):
        raise NotImplementedError

    def check(self, outcome):
        """Return {op: (problems, digest)} for the ops that produced a value.

        ``digest`` fingerprints the op's output; the same seed must give
        the same digest on every iteration, traced or not.
        """
        raise NotImplementedError


class SimulateIO(Workload):
    """``simulate`` on the photon-number scenario, then read the sample CSV
    back and estimate the blocked correlation of the columns read."""

    name = "simulate-io"
    work_label = "trials"

    def __init__(self, pkg, root, work_dir, seed, smoke=False):
        super().__init__(pkg, work_dir)
        scenario_path = str(root / PHOTON_SCENARIO)
        scenario = pkg.scenario.load_scenario(scenario_path)
        run = scenario.run_spec(seed=seed, n_samples=SMOKE_SAMPLES if smoke else None)
        self.n_samples, self.n_blocks = run.n_samples, run.n_blocks
        self.work_per_iteration = self.trials_per_iteration = run.n_samples
        self.csv_path = self._path(".csv")
        self.moments_path = self._path(".moments.csv")
        self.argv = ["simulate", "--scenario", scenario_path, "--out", self.csv_path,
                     "--seed", str(seed)]
        if smoke:
            self.argv += ["--samples", str(run.n_samples)]
        # The sample CSV must round-trip the sampler's doubles exactly.
        batch = pkg.sampling.simulate_batch(scenario.system_config(), run)
        self.reference = _column_digests(batch)

    def outputs(self):
        return [self.csv_path, self.moments_path]

    def iterate(self, span=untraced):
        o = Outcome()
        o.run("simulate", self._cli, span, self.argv)
        batch = o.run("read_sample_csv",
                      lambda: self.pkg.sampling.read_sample_csv(self.csv_path),
                      needs=["simulate"])
        o.run("blocked_correlation",
              lambda: self.pkg.estimation.blocked_correlation(batch.x2, batch.x3,
                                                              self.n_blocks),
              needs=["read_sample_csv"])
        return o

    def _moments(self):
        header, rows, _ = _read_csv(self.moments_path, "moments")
        if header != ["moment", "sample", "model"]:
            raise OpFailed(f"moments header {header!r}")
        return {name: (float(sample), float(model)) for name, sample, model in rows}

    def check(self, o):
        results = {}
        n = self.n_samples
        moments = {}
        if "simulate" in o.values:
            problems = []
            with open(self.csv_path, "rb") as f:
                schema, header = f.readline(), f.readline()
                newlines = 2 + sum(chunk.count(b"\n")
                                   for chunk in iter(lambda: f.read(1 << 20), b""))
            if not re.fullmatch(rb"# schema: passiveqkd/samples v\d+\n", schema):
                problems.append(f"sample CSV schema line {schema!r}")
            if header != b"x1,x2,x3,p1,p2,p3\n":
                problems.append(f"sample CSV header {header!r}")
            if newlines != n + 2:
                problems.append(f"sample CSV has {newlines - 2} rows, expected {n}")
            try:
                moments = self._moments()
            except (OpFailed, ValueError) as exc:
                problems.append(str(exc))
            problems += _moment_problems(moments, n)
            results["simulate"] = (problems, _sha256(self.csv_path, self.moments_path))
        batch = o.values.get("read_sample_csv")
        if batch is not None:
            problems = []
            if _column_digests(batch) != self.reference:
                problems.append("read-back columns differ from the sampler's columns")
            if "corr_x2_x3" in moments:
                corr = float(np.corrcoef(batch.x2, batch.x3)[0, 1])
                if not _close(corr, moments["corr_x2_x3"][0], rel=1e-9):
                    problems.append(f"read-back corr {corr!r} != moments corr_x2_x3 "
                                    f"{moments['corr_x2_x3'][0]!r}")
            else:
                problems.append("moments file has no corr_x2_x3 row to compare with")
            results["read_sample_csv"] = (problems, None)
        est = o.values.get("blocked_correlation")
        if est is not None:
            problems = []
            used = self.n_blocks * (n // self.n_blocks)
            if (est.n_blocks, est.block_size, est.n_dropped) != (
                    self.n_blocks, n // self.n_blocks, n - used):
                problems.append(f"blocking {est!r}")
            if "corr_x2_x3" in moments:
                rho = moments["corr_x2_x3"][1]
                tol = N_SIGMA * (1.0 - rho * rho) / math.sqrt(used)
                if not _close(est.mean_corr, rho, abs_tol=tol):
                    problems.append(f"blocked corr {est.mean_corr!r} vs model {rho!r} "
                                    f"(tolerance {tol:.3g})")
            if not (est.std_dev > 0.0):
                problems.append(f"blocked std_dev {est.std_dev!r}")
            results["blocked_correlation"] = (problems, repr((est.mean_corr, est.std_dev)))
        return results


def _column_digests(batch):
    return {name: hashlib.sha256(col.tobytes()).hexdigest()
            for name, col in zip(batch.column_names(), batch.columns())}


def _moment_problems(moments, n):
    """Each moment row against its model column, within 5 sigma."""
    needed = [f"{kind}_{q}{cols}" for q in "xp" for kind, cols in (
        ("var", "1"), ("var", "2"), ("var", "3"), ("cov", f"2_{q}3"), ("corr", f"2_{q}3"))]
    missing = [name for name in needed if name not in moments]
    if missing:
        return [f"moments file lacks rows {missing}"]
    problems = []
    for name, (sample, model) in moments.items():
        kind, _, cols = name.partition("_")
        if kind == "var":
            sigma = model * math.sqrt(2.0 / n)
        elif kind == "cov":
            q = cols[0]
            var2, var3 = moments[f"var_{q}2"][1], moments[f"var_{q}3"][1]
            sigma = math.sqrt((var2 * var3 + model * model) / n)
        elif kind == "corr":
            sigma = (1.0 - model * model) / math.sqrt(n)
        else:
            problems.append(f"unknown moment row {name!r}")
            continue
        if not _close(sample, model, abs_tol=N_SIGMA * sigma):
            problems.append(f"moment {name}: sample {sample!r} vs model {model!r} "
                            f"(tolerance {N_SIGMA * sigma:.3g})")
    return problems


class Sweep(Workload):
    """``sweep-n0``, ``fit`` on its output, then ``sweep-attenuation``."""

    name = "sweep"
    work_label = "trials"

    def __init__(self, pkg, root, work_dir, seed, smoke=False):
        super().__init__(pkg, work_dir)
        photon = str(root / PHOTON_SCENARIO)
        attenuation = str(root / ATTENUATION_SCENARIO)
        with open(photon, encoding="utf-8") as f:
            photon_doc = json.load(f)
        with open(attenuation, encoding="utf-8") as f:
            attenuation_doc = json.load(f)
        self.overlap = photon_doc["system"]["source"]["mode_overlap"]
        self.grids = {"sweep-n0": photon_doc["sweep"]["values"],
                      "sweep-attenuation": attenuation_doc["sweep"]["values"]}
        runs = {"sweep-n0": photon_doc["run"], "sweep-attenuation": attenuation_doc["run"]}
        self.n_samples = {cmd: SMOKE_SAMPLES if smoke else run["n_samples"]
                          for cmd, run in runs.items()}
        self.n_blocks = {cmd: run["n_blocks"] for cmd, run in runs.items()}
        self.trials_per_iteration = self.work_per_iteration = sum(
            self.n_samples[cmd] * len(self.grids[cmd]) for cmd in self.grids)
        self.paths = {"sweep-n0": self._path("-n0.csv"), "fit": self._path("-fit.csv"),
                      "sweep-attenuation": self._path("-attenuation.csv")}
        extra = ["--seed", str(seed)]
        if smoke:
            extra += ["--samples", str(SMOKE_SAMPLES)]
        self.argvs = {
            "sweep-n0": ["sweep-n0", "--scenario", photon,
                         "--out", self.paths["sweep-n0"], *extra],
            "fit": ["fit", "--scenario", photon, "--points", self.paths["sweep-n0"],
                    "--out", self.paths["fit"], *extra],
            "sweep-attenuation": ["sweep-attenuation", "--scenario", attenuation,
                                  "--out", self.paths["sweep-attenuation"], *extra],
        }

    def outputs(self):
        return list(self.paths.values())

    def iterate(self, span=untraced):
        o = Outcome()
        o.run("sweep-n0", self._cli, span, self.argvs["sweep-n0"])
        o.run("fit", self._cli, span, self.argvs["fit"], needs=["sweep-n0"])
        o.run("sweep-attenuation", self._cli, span, self.argvs["sweep-attenuation"])
        return o

    def _sweep_problems(self, cmd):
        x_name = "n0" if cmd == "sweep-n0" else "eta_tot_db"
        header, rows, _ = _read_csv(self.paths[cmd], cmd)
        if header != [x_name, "corr_mc", "corr_std", "corr_model"]:
            return [f"{cmd} header {header!r}"]
        problems = []
        xs = [float(row[0]) for row in rows]
        if xs != [float(v) for v in self.grids[cmd]]:
            problems.append(f"{cmd} grid {xs!r}")
        n = self.n_samples[cmd]
        used = self.n_blocks[cmd] * (n // self.n_blocks[cmd])
        for row in rows:
            x, mc, std, model = map(float, row)
            tol = N_SIGMA * (1.0 - model * model) / math.sqrt(used)
            if not _close(mc, model, abs_tol=tol):
                problems.append(f"{cmd} at {x}: corr_mc {mc!r} vs corr_model {model!r} "
                                f"(tolerance {tol:.3g})")
            if not (math.isfinite(std) and std > 0.0):
                problems.append(f"{cmd} at {x}: corr_std {std!r}")
        return problems

    def _fit_problems(self):
        header, rows, comments = _read_csv(self.paths["fit"], "fit-report")
        fields = dict(item.split("=", 1) for item in comments[-1][1:].split()) \
            if comments else {}
        problems = []
        if len(rows) != len(self.grids["sweep-n0"]):
            problems.append(f"fit report has {len(rows)} rows")
        try:
            a_hat, std_err = float(fields["a_hat"]), float(fields["std_err"])
        except (KeyError, ValueError):
            return problems + [f"fit summary line {comments[-1:]!r}"]
        if fields.get("clamped") != "false":
            problems.append("fit was clamped")
        if not (std_err > 0.0 and _close(a_hat, self.overlap, abs_tol=N_SIGMA * std_err)):
            problems.append(f"a_hat {a_hat!r} vs {self.overlap} with std_err {std_err!r}")
        return problems

    def check(self, o):
        results = {}
        for op in o.values:
            try:
                problems = self._fit_problems() if op == "fit" else self._sweep_problems(op)
            except (OpFailed, ValueError, IndexError) as exc:
                problems = [f"{op}: unreadable output: {exc}"]
            results[op] = (problems, _sha256(self.paths[op]))
        return results


class KeyrateCurve(Workload):
    """``keyrate`` and ``distance_cutoff`` at operating points drawn from the
    seed; the measured points carry their correlations, so nothing is sampled."""

    name = "keyrate-curve"
    work_label = "points"
    POINTS = 4

    def __init__(self, pkg, root, work_dir, seed, smoke=False):
        super().__init__(pkg, work_dir)
        rng = random.Random(seed)
        points = [(900.0, 0.96)]
        while len(points) < (1 if smoke else self.POINTS):
            n0 = math.exp(rng.uniform(math.log(100.0), math.log(5000.0)))
            points.append((n0, rng.uniform(0.95, 0.97)))
        self.work_per_iteration = len(points)
        with open(root / KEYRATE_SCENARIO, encoding="utf-8") as f:
            template = json.load(f)
        self.grid = [float(v) for v in template["sweep"]["values"]]
        self.points = []
        for i, (n0, a) in enumerate(points):
            doc = json.loads(json.dumps(template))
            doc["system"]["source"] = {"mean_photon_number": n0, "mode_overlap": a}
            for mp in doc["measured_points"]:
                mp["corr_mean"] = pkg.model.correlation_coefficient(
                    n0, a, _channel(pkg, doc, "alice_detector"),
                    _channel(pkg, doc, "bob_detector"),
                    mp["alice_attenuation"] * mp["transmittance"])
                mp["corr_std"] = 1e-3
            scenario_path = self._path(f"-{i}.json")
            with open(scenario_path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            scenario = pkg.scenario.load_scenario(scenario_path)
            self.points.append({
                "doc": doc,
                "curve": self._path(f"-{i}.csv"),
                "points": self._path(f"-{i}.points.csv"),
                "argv": ["keyrate", "--scenario", scenario_path,
                         "--out", self._path(f"-{i}.csv"), "--seed", str(seed)],
                "config": scenario.system_config(alice_attenuation=1.0),
                "efficiency": scenario.efficiency,
                "gamma": scenario.keyrate.attenuation_db_per_km,
            })

    def outputs(self):
        return [p[k] for p in self.points for k in ("curve", "points")]

    def _cutoff(self, p):
        return self.pkg.keyrate.distance_cutoff(
            p["config"], efficiency=p["efficiency"], attenuation_db_per_km=p["gamma"],
            xtol_km=XTOL_KM)

    def iterate(self, span=untraced):
        o = Outcome()
        for i, p in enumerate(self.points):
            o.run(f"keyrate[{i}]", self._cli, span, p["argv"])
            o.run(f"distance_cutoff[{i}]", self._cutoff, p)
        return o

    def _curve(self, p):
        header, rows, _ = _read_csv(p["curve"], "keyrate")
        if header != ["L_km", "T", "eps_A", "I_AB", "chi_BE", "R", "eta0"]:
            raise OpFailed(f"keyrate header {header!r}")
        return [dict(zip(header, map(float, row))) for row in rows]

    def _keyrate_problems(self, i, p):
        curve = self._curve(p)
        problems = []
        if [row["L_km"] for row in curve] != self.grid:
            problems.append(f"curve grid {[row['L_km'] for row in curve]!r}")
        for row in curve:
            if not all(math.isfinite(v) for v in row.values()):
                problems.append(f"non-finite curve row {row!r}")
            if not 1e-8 <= row["eta0"] <= 1.0:
                problems.append(f"eta0 {row['eta0']!r} outside [1e-8, 1]")
        if i == 0:
            at80 = [row["R"] for row in curve if row["L_km"] == 80.0]
            if not (at80 and _close(at80[0], PINNED_RATE_80KM, rel=1e-9)):
                problems.append(f"paper point R(80 km) {at80!r} != {PINNED_RATE_80KM!r}")
        header, rows, _ = _read_csv(p["points"], "keyrate-points")
        measured = p["doc"]["measured_points"]
        if len(rows) != len(measured):
            return problems + [f"{len(rows)} measured-point rows"]
        for spec, row in zip(measured, rows):
            r = dict(zip(header, row))
            corr, corr_model = float(r["corr_mean"]), float(r["corr_model"])
            rate, lower, upper = float(r["R"]), float(r["R_lower"]), float(r["R_upper"])
            if not _close(corr, spec["corr_mean"], rel=1e-12):
                problems.append(f"corr_mean {corr!r} != input {spec['corr_mean']!r}")
            if not _close(corr_model, corr, rel=1e-9):
                problems.append(f"corr_model {corr_model!r} != corr_mean {corr!r}")
            if not _close(rate, float(r["R_model"]), rel=1e-9, abs_tol=1e-12):
                problems.append(f"R {rate!r} != R_model {r['R_model']!r}")
            if not lower <= rate <= upper:
                problems.append(f"R {rate!r} outside [{lower!r}, {upper!r}]")
        return problems

    def _cutoff_problems(self, p, cutoff):
        if not (math.isfinite(cutoff) and 0.0 < cutoff < 200.0):
            return [f"cutoff {cutoff!r} outside (0, 200) km"]
        problems = []
        keyrate = self.pkg.keyrate
        for length, want_key in ((cutoff - XTOL_KM, True), (cutoff + XTOL_KM, False)):
            t = keyrate.transmittance_from_length(length, p["gamma"])
            rate = keyrate.optimize_attenuation(p["config"], efficiency=p["efficiency"],
                                                transmittance=t, length_km=length).rate
            if (rate > 0.0) != want_key:
                problems.append(f"R({length!r} km) = {rate!r} around cutoff {cutoff!r}")
        for row in self._curve(p):
            if (row["L_km"] < cutoff - XTOL_KM and not row["R"] > 0.0) or (
                    row["L_km"] > cutoff + XTOL_KM and row["R"] > 0.0):
                problems.append(f"curve R({row['L_km']} km) = {row['R']!r} "
                                f"disagrees with cutoff {cutoff!r}")
        return problems

    def check(self, o):
        results = {}
        for i, p in enumerate(self.points):
            op = f"keyrate[{i}]"
            if op in o.values:
                try:
                    problems = self._keyrate_problems(i, p)
                except (OpFailed, ValueError, KeyError) as exc:
                    problems = [f"{op}: unreadable output: {exc}"]
                results[op] = (problems, _sha256(p["curve"], p["points"]))
            op = f"distance_cutoff[{i}]"
            if op in o.values:
                cutoff = o.values[op]
                try:
                    problems = self._cutoff_problems(p, cutoff)
                except (OpFailed, ValueError, KeyError) as exc:
                    problems = [f"{op}: {exc}"]
                results[op] = (problems, repr(cutoff))
        return results


def _channel(pkg, doc, detector):
    x = doc["system"][detector]["x"]
    return pkg.model.DetectorChannel(efficiency=x["efficiency"],
                                     noise_variance=x["noise_variance"])


WORKLOADS = {cls.name: cls for cls in (SimulateIO, Sweep, KeyrateCurve)}
