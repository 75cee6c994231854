"""Command-line interface: scenario-driven simulation and analysis runs.

Five subcommands cover the reproduction workflow:

* ``simulate``: one Monte Carlo batch -> sample CSV + moments report.
* ``sweep-n0``: correlation vs source photon number.
* ``sweep-attenuation``: correlation vs combined path attenuation (dB).
* ``fit``: mode-overlap fit from a points CSV.
* ``keyrate``: key rate vs fibre distance, plus measured-correlation
  key-rate points when the scenario lists them.

Every command is a pure function of (scenario file, seed): outputs are
byte-identical across re-runs and worker counts. Only CSV is emitted,
in the format of :mod:`passiveqkd.tables`; plotting is left to the caller.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
domain error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import estimation, keyrate, model, sampling, tables
from .errors import (
    BatchSizeError,
    DegenerateDataError,
    ModelInconsistencyError,
    NumericalDomainError,
    ParameterError,
    UnidentifiableFitError,
    check_args,
    raise_violations,
)
from .scenario import (
    DEFAULT_ETA_TOT_DB_GRID,
    DEFAULT_LENGTH_KM_GRID,
    DEFAULT_N0_GRID,
    db_from_linear,
    linear_from_db,
    load_scenario,
)

# Threads of the sweep's point pool. On a 2-core host 4 threads were faster
# than the package's pool of 2 (``tables._WORKERS``) or than serial points.
_SWEEP_WORKERS = 4


def _derived_path(out_path, suffix):
    stem, ext = os.path.splitext(out_path)
    return f"{stem}.{suffix}{ext or '.csv'}"


def _moment_rows(batch, config):
    """(name, sample, model) triples comparing batch moments to closed forms."""
    n0 = config.source.mean_photon_number
    a = config.source.mode_overlap
    e0 = config.alice_attenuation
    t = config.channel.transmittance
    eta_tot = e0 * t
    rows = []
    for quad, alice_ch, bob_ch in (("x", config.alice_detector.x, config.bob_detector.x),
                                   ("p", config.alice_detector.p, config.bob_detector.p)):
        out = getattr(batch, quad + "1")
        alice = getattr(batch, quad + "2")
        bob = getattr(batch, quad + "3")
        tap = getattr(batch, quad + "4")
        moments = model.quadrature_second_moments(n0, alice_ch, bob_ch, a, eta_tot)
        corr = model.correlation_coefficient(n0, a, alice_ch, bob_ch, eta_tot)
        sample_corr = float(np.corrcoef(alice, bob)[0, 1])
        rows += [
            (f"var_{quad}1", float(np.mean(out * out)),
             model.outgoing_quadrature_variance(e0, n0)),
            (f"var_{quad}2", float(np.mean(alice * alice)), moments.alice_var),
            (f"var_{quad}3", float(np.mean(bob * bob)), moments.bob_var),
            (f"cov_{quad}2_{quad}3", float(np.mean(alice * bob)), moments.cross),
            (f"corr_{quad}2_{quad}3", sample_corr, corr),
        ]
        if tap is not None:
            rows.append((f"var_{quad}4", float(np.mean(tap * tap)),
                         model.tap_quadrature_variance(e0, n0, t)))
    return rows


def _run_spec(scenario, args):
    return scenario.run_spec(seed=args.seed, n_samples=args.samples,
                             n_blocks=args.blocks)


def _bench_config(scenario, eta_tot):
    # A combined attenuation is measured back-to-back: a single
    # attenuator at the sender followed by a lossless bench link. Any
    # attenuator/channel split is declared for analysis only.
    return scenario.system_config(alice_attenuation=eta_tot,
                                  channel=model.ChannelParams(1.0))


def _measure(config, run, index):
    """Simulate point ``index`` of ``run`` and estimate its blocked
    X-quadrature Alice-Bob correlation. The point's seed is
    ``derive_point_seed(run.seed, index)``, so a row can be rerun alone."""
    estimation._blocking(run.n_samples, run.n_blocks)
    spec = sampling.RunSpec(run.n_samples,
                            sampling.derive_point_seed(run.seed, index),
                            run.n_blocks)
    batch = sampling.simulate_batch(config, spec)
    return estimation.blocked_correlation(batch.x2, batch.x3, spec.n_blocks)


def _cmd_simulate(args, scenario):
    config = scenario.system_config()
    batch = sampling.simulate_batch(config, _run_spec(scenario, args))
    sampling.write_sample_csv(args.out, batch)
    moments_path = _derived_path(args.out, "moments")
    tables.write_table(moments_path, "moments", ("moment", "sample", "model"),
                       _moment_rows(batch, config))
    print(f"wrote {batch.n_samples} trials to {args.out}; moments to {moments_path}")
    return 0


def _sweep_grid(scenario, command, variable, default_grid):
    if scenario.sweep is None:
        return default_grid
    if scenario.sweep.variable != variable:
        raise ParameterError(
            [f"sweep variable '{scenario.sweep.variable}' does not apply to "
             f"{command}; expected '{variable}'"])
    return scenario.sweep.values


def _per_entry(scenario, variable, grid, fn):
    """``fn`` of every grid value, all evaluated before any sampling or
    rate work; a violation names the grid entry it came from."""
    where = "sweep.values" if scenario.sweep else "default grid"
    violations, results = [], []
    for i, value in enumerate(grid):
        try:
            results.append(fn(value))
        except ParameterError as exc:
            violations += [f"{where}[{i}] ({variable} {value:g}): {violation}"
                           for violation in exc.violations]
    raise_violations(violations)
    return results


def _sweep(args, scenario, command, variable, grid, point_config):
    """Correlation sweep over ``grid``: one measured and one model
    correlation per grid value, whose config is ``point_config(value)``."""
    run = _run_spec(scenario, args)
    configs = _per_entry(scenario, variable, grid, point_config)

    def point(index):
        config = configs[index]
        est = _measure(config, run, index)
        corr_model = model.correlation_coefficient(
            config.source.mean_photon_number, config.source.mode_overlap,
            config.alice_detector.x, config.bob_detector.x,
            config.path_transmittance)
        return (grid[index], est.mean_corr, est.std_dev, corr_model)

    # Rows come back in grid order, so the worker count never changes the CSV.
    # Each point samples in its own thread: marked, its sampler nests no pool.
    with ThreadPoolExecutor(max_workers=min(_SWEEP_WORKERS, len(grid)),
                            initializer=tables.mark_pool_thread) as pool:
        rows = list(pool.map(point, range(len(grid))))
    tables.write_table(args.out, command,
                       (variable, "corr_mc", "corr_std", "corr_model"), rows)
    print(f"wrote {len(rows)} sweep points to {args.out}")
    return 0


def _cmd_sweep_n0(args, scenario):
    grid = _sweep_grid(scenario, "sweep-n0", "n0", DEFAULT_N0_GRID)
    base = scenario.system_config()
    return _sweep(args, scenario, "sweep-n0", "n0", grid, lambda n0: base.replace(
        source=model.SourceParams(n0, base.source.mode_overlap)))


def _cmd_sweep_attenuation(args, scenario):
    grid = _sweep_grid(scenario, "sweep-attenuation", "eta_tot_db",
                       DEFAULT_ETA_TOT_DB_GRID)
    bad = [db for db in grid if db > 0]
    if bad:
        raise ParameterError(
            [f"eta_tot_db values must be <= 0 dB (attenuation), got {bad}"])
    return _sweep(args, scenario, "sweep-attenuation", "eta_tot_db", grid,
                  lambda db: _bench_config(scenario, linear_from_db(db)))


def _cmd_fit(args, scenario):
    config = scenario.system_config()
    points = estimation.read_points_csv(args.points)
    fit = estimation.fit_mode_overlap(
        points, config.alice_detector.x, config.bob_detector.x,
        config.path_transmittance)
    estimation.write_fit_report(args.out, points, fit, config.alice_detector.x,
                                config.bob_detector.x, config.path_transmittance)
    flag = " (clamped)" if fit.clamped else ""
    print(f"a_hat={fit.mode_overlap:.6f} std_err={fit.std_err:.2e} "
          f"residual_norm={fit.residual_norm:.6g} n_points={fit.n_points}{flag}")
    print(f"wrote fit report to {args.out}")
    return 0


def _measured_point_rows(scenario, args):
    needs_run = any(p.corr_mean is None for p in scenario.measured_points)
    run = _run_spec(scenario, args) if needs_run else None
    rows = []
    for index, spec in enumerate(scenario.measured_points):
        eta_tot = spec.path_transmittance
        split = scenario.system_config(
            alice_attenuation=spec.alice_attenuation,
            channel=model.ChannelParams(spec.transmittance))
        if spec.corr_mean is None:
            est = _measure(_bench_config(scenario, eta_tot), run, index)
            mean, std = est.mean_corr, est.std_dev
        else:
            mean, std = spec.corr_mean, spec.corr_std
        measured = keyrate.key_rate_from_measurement(
            (mean, std), split, eta_tot, efficiency=scenario.efficiency)
        rows.append((
            db_from_linear(eta_tot), eta_tot, spec.alice_attenuation,
            spec.transmittance, mean, std, measured.predicted_correlation,
            measured.result.mutual_info, measured.result.holevo_info,
            measured.result.rate, measured.rate_lower, measured.rate_upper,
            measured.predicted_rate, measured.result.has_key,
        ))
    return rows


def _cmd_keyrate(args, scenario):
    grid = _sweep_grid(scenario, "keyrate", "length_km", DEFAULT_LENGTH_KM_GRID)
    options = scenario.keyrate
    optimize = options.optimize_alice_attenuation
    if not optimize and scenario.alice_attenuation is None:
        raise ParameterError(
            ["keyrate needs system.alice_attenuation unless "
             "keyrate.optimize_alice_attenuation is true"])
    base = scenario.system_config(
        alice_attenuation=scenario.alice_attenuation if not optimize else 1.0)
    gamma = options.attenuation_db_per_km
    ts = _per_entry(scenario, "length_km", grid, lambda length: check_args(
        model._ARGS, transmittance=model.transmittance_from_length(length, gamma))[0])
    e0, c = keyrate._curve(base, scenario.efficiency, ts, optimize)
    columns = (c.eps, c.mutual, c.chi, c.rate, e0)
    rows = list(zip(grid, ts, *(np.broadcast_to(x, len(ts)).tolist() for x in columns)))
    point_rows = _measured_point_rows(scenario, args)  # before any file is written
    tables.write_table(args.out, "keyrate",
                       ("L_km", "T", "eps_A", "I_AB", "chi_BE", "R", "eta0"), rows)
    messages = [f"wrote {len(rows)} key-rate points to {args.out}"]
    if point_rows:
        points_path = _derived_path(args.out, "points")
        tables.write_table(points_path, "keyrate-points",
                           ("eta_tot_db", "eta_tot", "eta0", "T", "corr_mean",
                            "corr_std", "corr_model", "I_AB", "chi_BE", "R",
                            "R_lower", "R_upper", "R_model", "has_key"),
                           point_rows)
        messages.append(f"measured points to {points_path}")
    print("; ".join(messages))
    return 0


_COMMANDS = (
    ("simulate", _cmd_simulate, "generate one Monte Carlo batch"),
    ("sweep-n0", _cmd_sweep_n0, "correlation vs source photon number"),
    ("sweep-attenuation", _cmd_sweep_attenuation,
     "correlation vs combined path attenuation"),
    ("fit", _cmd_fit, "fit the mode overlap from a points CSV"),
    ("keyrate", _cmd_keyrate, "key rate vs fibre distance"),
)


@functools.cache  # built once per process; parsing never changes it
def build_parser():
    parser = argparse.ArgumentParser(
        prog="passiveqkd",
        description="Simulation, estimation, and security analysis for a "
                    "passively encoded CV-QKD link.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True,
                       help="path to the scenario JSON file")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.seed from the scenario")
        p.add_argument("--samples", type=int, default=None,
                       help="override run.n_samples from the scenario")
        p.add_argument("--blocks", type=int, default=None,
                       help="override run.n_blocks from the scenario")
        if func is _cmd_fit:
            p.add_argument("--points", required=True,
                           help="points CSV (from sweep-n0, or any "
                                "n0/corr_mean/corr_std file)")
        p.set_defaults(func=func)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, load_scenario(args.scenario))
    except (ParameterError, BatchSizeError) as exc:
        violations = getattr(exc, "violations", None) or [str(exc)]
        print("configuration error:", file=sys.stderr)
        for violation in violations:
            print(f"  - {violation}", file=sys.stderr)
        return 2
    except (NumericalDomainError, ModelInconsistencyError, DegenerateDataError,
            UnidentifiableFitError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
