"""Command line: golden headers, exit codes, determinism, and overrides.

Commands run in-process through ``main`` so return values are the exit
codes; one subprocess smoke test covers the installed entry point.
"""

import hashlib
import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import passiveqkd as pq
from passiveqkd.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def base_document():
    return {
        "system": {
            "source": {"mean_photon_number": 100.0, "mode_overlap": 0.9},
            "alice_attenuation": 1.0,
            "channel": {"transmittance": 1.0},
            "alice_detector": {"x": {"efficiency": 0.43, "noise_variance": 0.17},
                               "p": {"efficiency": 0.38, "noise_variance": 0.19}},
            "bob_detector": {"x": {"efficiency": 0.54, "noise_variance": 0.24},
                             "p": {"efficiency": 0.51, "noise_variance": 0.23}},
        },
        "run": {"n_samples": 4000, "seed": 3, "n_blocks": 4},
    }


def document_config(doc, alice_attenuation, n0=None):
    """The back-to-back SystemConfig of ``doc``'s system section, built
    independently of the CLI, with the given attenuator and photon number."""
    system = doc["system"]
    source = system["source"]
    detector = {party: pq.ConjugateDetector(
        **{q: pq.DetectorChannel(**system[party][q]) for q in ("x", "p")})
        for party in ("alice_detector", "bob_detector")}
    return pq.SystemConfig(
        source=pq.SourceParams(source["mean_photon_number"] if n0 is None else n0,
                               source["mode_overlap"]),
        alice_attenuation=alice_attenuation,
        channel=pq.ChannelParams(1.0), **detector)


def rerun_row(config, doc, index):
    """Row ``index`` measured alone: the run seed derived for that row."""
    run = doc["run"]
    spec = pq.RunSpec(run["n_samples"], pq.derive_point_seed(run["seed"], index),
                      run["n_blocks"])
    batch = pq.simulate_batch(config, spec)
    return pq.blocked_correlation(batch.x2, batch.x3, spec.n_blocks)


def csv_rows(path):
    """The first six columns of each data row, as floats."""
    return [[float(v) for v in line.split(",")[:6]]
            for line in path.read_text().splitlines()[2:]]


def assert_rows_match(rows, point_at):
    """Each keyrate row's eps_A, I_AB, chi_BE, R and eta0 equal those of
    the single-point result ``point_at(T)`` at the row's T."""
    for row in rows:
        res = point_at(row[1])
        want = (res.budget.prep_excess_noise, res.mutual_info, res.holevo_info,
                res.rate, res.alice_attenuation)
        assert row[2:] == pytest.approx(want, rel=1e-15)


@pytest.fixture()
def scenario_file(tmp_path):
    def write(document, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(document), encoding="utf-8")
        return str(path)
    return write


def test_simulate_outputs(tmp_path, scenario_file, capsys):
    out = tmp_path / "samples.csv"
    rc = main(["simulate", "--scenario", scenario_file(base_document()),
               "--out", str(out)])
    assert rc == 0
    assert "wrote 4000 trials" in capsys.readouterr().out
    batch = pq.read_sample_csv(out)
    assert batch.n_samples == 4000
    assert batch.x4 is None
    moments = (tmp_path / "samples.moments.csv").read_text().splitlines()
    assert moments[0] == "# schema: passiveqkd/moments v1"
    assert moments[1] == "moment,sample,model"
    names = [line.split(",")[0] for line in moments[2:]]
    assert names == ["var_x1", "var_x2", "var_x3", "cov_x2_x3", "corr_x2_x3",
                     "var_p1", "var_p2", "var_p3", "cov_p2_p3", "corr_p2_p3"]
    var_x1 = moments[2].split(",")
    assert float(var_x1[2]) == pytest.approx(101.0, rel=1e-12)  # e0*n0 + 1
    assert float(var_x1[1]) == pytest.approx(101.0, rel=0.1)


def test_simulate_tap_moment_rows(tmp_path, scenario_file):
    doc = base_document()
    doc["system"]["alice_attenuation"] = 0.5
    doc["system"]["channel"] = {"transmittance": 0.5}
    doc["system"]["eavesdropper_tap"] = True
    out = tmp_path / "tap.csv"
    assert main(["simulate", "--scenario", scenario_file(doc),
                 "--out", str(out)]) == 0
    lines = (tmp_path / "tap.moments.csv").read_text().splitlines()
    names = [line.split(",")[0] for line in lines[2:]]
    assert "var_x4" in names and "var_p4" in names
    batch = pq.read_sample_csv(out)
    assert batch.x4 is not None


def test_cli_byte_determinism(tmp_path, scenario_file):
    doc = scenario_file(base_document())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--scenario", doc, "--out", str(a)]) == 0
    assert main(["simulate", "--scenario", doc, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    sa, sb = tmp_path / "sa.csv", tmp_path / "sb.csv"
    assert main(["sweep-n0", "--scenario", doc, "--out", str(sa)]) == 0
    assert main(["sweep-n0", "--scenario", doc, "--out", str(sb)]) == 0
    assert sa.read_bytes() == sb.read_bytes()
    assert main(["sweep-attenuation", "--scenario", doc, "--out", str(sa)]) == 0
    assert main(["sweep-attenuation", "--scenario", doc, "--out", str(sb)]) == 0
    assert sa.read_bytes() == sb.read_bytes()
    measured = base_document()
    measured["measured_points"] = [{"alice_attenuation": 0.5, "transmittance": 0.5}]
    doc = scenario_file(measured, "measured.json")
    ka, kb = tmp_path / "ka.csv", tmp_path / "kb.csv"
    assert main(["keyrate", "--scenario", doc, "--out", str(ka)]) == 0
    assert main(["keyrate", "--scenario", doc, "--out", str(kb)]) == 0
    assert ka.read_bytes() == kb.read_bytes()
    assert ((tmp_path / "ka.points.csv").read_bytes()
            == (tmp_path / "kb.points.csv").read_bytes())


@pytest.mark.parametrize("tap, sha256", [
    (False, "fa19c89b947eb3ab7dda24607d70cf9cfea6c4b314aeec90f7299f2e5e249778"),
    (True, "cd43233753b650875dab578e725ff0f2512fbaf7c1fe27989faea892619787c4"),
])
def test_sample_csv_golden_bytes(tmp_path, scenario_file, tap, sha256):
    """The sample stream and its text are pinned for ``passiveqkd/samples v1``:
    a change to either must fail here and bump the schema tag. The moments
    file is not pinned, because its correlation goes through BLAS."""
    doc = json.loads((SCENARIOS / "correlation_vs_photon_number.json").read_text())
    doc["system"]["eavesdropper_tap"] = tap
    out = tmp_path / "samples.csv"
    assert main(["simulate", "--scenario", scenario_file(doc), "--out", str(out),
                 "--samples", "2000", "--seed", "7"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_derived_path_splits_the_file_name_only(tmp_path, scenario_file,
                                                monkeypatch):
    """A dot in a directory name or a leading ./ does not move derived files."""
    doc = scenario_file(base_document())
    nested = tmp_path / "v1.2"
    nested.mkdir()
    assert main(["simulate", "--scenario", doc, "--out", str(nested / "samples"),
                 "--samples", "100", "--blocks", "2"]) == 0
    assert (nested / "samples.moments.csv").is_file()
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["simulate", "--scenario", doc, "--out", "./samples",
                 "--samples", "100", "--blocks", "2"]) == 0
    assert sorted(p.name for p in work.iterdir()) == ["samples",
                                                      "samples.moments.csv"]


def test_sweep_n0_row_reproduced_alone(tmp_path, scenario_file):
    doc = base_document()
    doc["sweep"] = {"variable": "n0", "values": [50, 200]}
    out = tmp_path / "sweep.csv"
    assert main(["sweep-n0", "--scenario", scenario_file(doc),
                 "--out", str(out)]) == 0
    for index, row in enumerate(csv_rows(out)):
        est = rerun_row(document_config(doc, 1.0, n0=row[0]), doc, index)
        assert (row[1], row[2]) == (est.mean_corr, est.std_dev)


def test_sweep_attenuation_row_reproduced_alone(tmp_path, scenario_file):
    doc = base_document()
    doc["sweep"] = {"variable": "eta_tot_db", "values": [0, -10, -20]}
    out = tmp_path / "att.csv"
    assert main(["sweep-attenuation", "--scenario", scenario_file(doc),
                 "--out", str(out)]) == 0
    for index, row in enumerate(csv_rows(out)):
        config = document_config(doc, pq.linear_from_db(row[0]))
        est = rerun_row(config, doc, index)
        assert (row[1], row[2]) == (est.mean_corr, est.std_dev)


def test_keyrate_measured_point_reproduced_alone(tmp_path, scenario_file):
    """Measured point 1 is simulated on the back-to-back bench with the seed
    of row 1; the inline point 0 still takes up index 0."""
    doc = base_document()
    doc["system"]["alice_attenuation"] = 0.0009
    doc["sweep"] = {"variable": "length_km", "values": [0]}
    doc["measured_points"] = [
        {"alice_attenuation": 0.0009, "transmittance": 0.69,
         "corr_mean": 0.315, "corr_std": 0.004},
        {"alice_attenuation": 0.5, "transmittance": 0.5},
    ]
    assert main(["keyrate", "--scenario", scenario_file(doc),
                 "--out", str(tmp_path / "rate.csv")]) == 0
    rows = csv_rows(tmp_path / "rate.points.csv")
    assert (rows[0][4], rows[0][5]) == (0.315, 0.004)
    est = rerun_row(document_config(doc, 0.5 * 0.5), doc, 1)
    assert (rows[1][4], rows[1][5]) == (est.mean_corr, est.std_dev)


def test_seed_and_size_overrides(tmp_path, scenario_file):
    doc = scenario_file(base_document())
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["simulate", "--scenario", doc, "--out", str(a)]) == 0
    assert main(["simulate", "--scenario", doc, "--out", str(b),
                 "--seed", "4"]) == 0
    assert a.read_bytes() != b.read_bytes()
    assert main(["simulate", "--scenario", doc, "--out", str(c),
                 "--samples", "100"]) == 0
    assert pq.read_sample_csv(c).n_samples == 100


def test_sweep_n0_output(tmp_path, scenario_file):
    doc = base_document()
    doc["sweep"] = {"variable": "n0", "values": [50, 100]}
    out = tmp_path / "sweep.csv"
    assert main(["sweep-n0", "--scenario", scenario_file(doc),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema: passiveqkd/sweep-n0 v1"
    assert lines[1] == "n0,corr_mc,corr_std,corr_model"
    assert len(lines) == 4
    ax = pq.DetectorChannel(0.43, 0.17)
    bx = pq.DetectorChannel(0.54, 0.24)
    for line, n0 in zip(lines[2:], (50.0, 100.0)):
        fields = [float(v) for v in line.split(",")]
        assert fields[0] == n0
        model = pq.correlation_coefficient(n0, 0.9, ax, bx)
        assert fields[3] == pytest.approx(model, rel=1e-15)
        assert abs(fields[1] - model) < 5.0 * fields[2]


def test_sweep_n0_default_grid(tmp_path, scenario_file):
    out = tmp_path / "sweep.csv"
    assert main(["sweep-n0", "--scenario", scenario_file(base_document()),
                 "--out", str(out), "--samples", "400", "--blocks", "2"]) == 0
    lines = out.read_text().splitlines()
    assert [float(l.split(",")[0]) for l in lines[2:]] == \
        list(pq.DEFAULT_N0_GRID)


def test_sweep_wrong_variable_exits_2(tmp_path, scenario_file, capsys):
    doc = base_document()
    doc["sweep"] = {"variable": "eta_tot_db", "values": [0]}
    rc = main(["sweep-n0", "--scenario", scenario_file(doc),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "does not apply to sweep-n0" in err


def test_sweep_attenuation_output(tmp_path, scenario_file):
    doc = base_document()
    doc["system"]["source"]["mean_photon_number"] = 900.0
    del doc["system"]["alice_attenuation"]
    del doc["system"]["channel"]
    doc["sweep"] = {"variable": "eta_tot_db", "values": [0, -10]}
    doc["run"]["n_samples"] = 20000
    out = tmp_path / "att.csv"
    assert main(["sweep-attenuation", "--scenario", scenario_file(doc),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema: passiveqkd/sweep-attenuation v1"
    assert lines[1] == "eta_tot_db,corr_mc,corr_std,corr_model"
    ax = pq.DetectorChannel(0.43, 0.17)
    bx = pq.DetectorChannel(0.54, 0.24)
    for line, db in zip(lines[2:], (0.0, -10.0)):
        fields = [float(v) for v in line.split(",")]
        assert fields[0] == db
        model = pq.correlation_coefficient(900.0, 0.9, ax, bx, 10.0 ** (db / 10.0))
        assert fields[3] == pytest.approx(model, rel=1e-15)
        assert abs(fields[1] - model) < 5.0 * fields[2]


def test_sweep_attenuation_rejects_positive_db(tmp_path, scenario_file):
    doc = base_document()
    doc["sweep"] = {"variable": "eta_tot_db", "values": [3.0]}
    rc = main(["sweep-attenuation", "--scenario", scenario_file(doc),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_fit_from_handmade_points(tmp_path, scenario_file, capsys):
    ax = pq.DetectorChannel(0.43, 0.17)
    bx = pq.DetectorChannel(0.54, 0.24)
    rows = ["n0,corr_mean,corr_std"]
    for n0 in (50.0, 200.0, 880.0):
        corr = pq.correlation_coefficient(n0, 0.9, ax, bx)
        rows.append(f"{n0},{corr!r},0.001")
    points = tmp_path / "points.csv"
    points.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    rc = main(["fit", "--scenario", scenario_file(base_document()),
               "--points", str(points), "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "a_hat=0.900000" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema: passiveqkd/fit-report v1"
    assert lines[1] == "n0,corr_mean,corr_std,model_corr"
    assert "n_points=3" in lines[-1]


def test_fit_integrates_with_sweep_output(tmp_path, scenario_file, capsys):
    doc = base_document()
    doc["sweep"] = {"variable": "n0", "values": [50, 200, 880]}
    doc["run"]["n_samples"] = 20000
    scenario = scenario_file(doc)
    sweep_out = tmp_path / "sweep.csv"
    assert main(["sweep-n0", "--scenario", scenario, "--out", str(sweep_out)]) == 0
    fit_out = tmp_path / "fit.csv"
    assert main(["fit", "--scenario", scenario, "--points", str(sweep_out),
                 "--out", str(fit_out)]) == 0
    a_hat = float(capsys.readouterr().out.split("a_hat=")[1].split()[0])
    assert abs(a_hat - 0.9) < 0.05


def test_fit_unidentifiable_exits_3(tmp_path, scenario_file, capsys):
    points = tmp_path / "points.csv"
    points.write_text("n0,corr_mean,corr_std\n0,0.0,0.01\n", encoding="utf-8")
    rc = main(["fit", "--scenario", scenario_file(base_document()),
               "--points", str(points), "--out", str(tmp_path / "r.csv")])
    assert rc == 3
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["100,0.5", "100,0.5,abc"])
def test_fit_malformed_points_exits_2(tmp_path, scenario_file, capsys, row):
    """A short row or a non-numeric field is a configuration error."""
    points = tmp_path / "points.csv"
    points.write_text(f"n0,corr_mean,corr_std\n50,0.4,0.01\n{row}\n",
                      encoding="utf-8")
    rc = main(["fit", "--scenario", scenario_file(base_document()),
               "--points", str(points), "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err
    assert "points CSV has a malformed row" in err


def test_keyrate_fixed_split(tmp_path, scenario_file):
    doc = base_document()
    doc["system"]["source"]["mean_photon_number"] = 900.0
    doc["system"]["source"]["mode_overlap"] = 0.96
    doc["system"]["alice_attenuation"] = 0.0009
    doc["sweep"] = {"variable": "length_km", "values": [0, 40]}
    out = tmp_path / "rate.csv"
    assert main(["keyrate", "--scenario", scenario_file(doc),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema: passiveqkd/keyrate v1"
    assert lines[1] == "L_km,T,eps_A,I_AB,chi_BE,R,eta0"
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    assert rows[0][0] == 0.0 and rows[0][1] == 1.0
    assert rows[1][1] == pytest.approx(10.0 ** -0.8, rel=1e-12)
    assert all(row[6] == 0.0009 for row in rows)
    assert rows[0][5] > 0.0  # back to back the split yields key
    config = pq.SystemConfig(
        source=pq.SourceParams(900.0, 0.96), alice_attenuation=0.0009,
        channel=pq.ChannelParams(1.0),
        alice_detector=pq.ConjugateDetector(pq.DetectorChannel(0.43, 0.17),
                                            pq.DetectorChannel(0.38, 0.19)),
        bob_detector=pq.ConjugateDetector(pq.DetectorChannel(0.54, 0.24),
                                          pq.DetectorChannel(0.51, 0.23)))
    direct = pq.key_rate_point(config, transmittance=1.0)
    assert rows[0][5] == pytest.approx(direct.rate, rel=1e-15)
    assert_rows_match(rows, lambda t: pq.key_rate_point(config, transmittance=t))


def test_keyrate_optimized(tmp_path, scenario_file):
    doc = base_document()
    doc["system"]["source"]["mean_photon_number"] = 900.0
    doc["system"]["source"]["mode_overlap"] = 0.96
    doc["system"]["alice_attenuation"] = 0.0009
    doc["sweep"] = {"variable": "length_km", "values": [20, 60]}
    fixed_out = tmp_path / "fixed.csv"
    assert main(["keyrate", "--scenario", scenario_file(doc),
                 "--out", str(fixed_out)]) == 0
    doc["keyrate"] = {"optimize_alice_attenuation": True}
    opt_out = tmp_path / "opt.csv"
    assert main(["keyrate", "--scenario", scenario_file(doc, "opt.json"),
                 "--out", str(opt_out)]) == 0
    fixed = [[float(v) for v in l.split(",")]
             for l in fixed_out.read_text().splitlines()[2:]]
    opt = [[float(v) for v in l.split(",")]
           for l in opt_out.read_text().splitlines()[2:]]
    for frow, orow in zip(fixed, opt):
        assert orow[5] >= frow[5]
        assert orow[6] != 0.0009
    config = document_config(doc, 0.0009)
    assert_rows_match(fixed, lambda t: pq.key_rate_point(config, transmittance=t))
    assert_rows_match(opt, lambda t: pq.optimize_attenuation(config, transmittance=t))


def test_keyrate_requires_attenuation_exits_2(tmp_path, scenario_file, capsys):
    doc = base_document()
    del doc["system"]["alice_attenuation"]
    rc = main(["keyrate", "--scenario", scenario_file(doc),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "optimize_alice_attenuation" in capsys.readouterr().err


@pytest.mark.parametrize("optimize", [False, True])
def test_keyrate_bad_distance_names_its_entry(tmp_path, scenario_file, capsys,
                                              optimize):
    """A distance whose T underflows to 0, or a negative one, is rejected
    before any rate work, naming its entry in the sweep."""
    doc = base_document()
    doc["system"]["alice_attenuation"] = 0.0009
    doc["keyrate"] = {"optimize_alice_attenuation": optimize}
    out = tmp_path / "rate.csv"
    for values, violation in (
            ([0, 20000], "sweep.values[1] (length_km 20000): "
                         "transmittance must be > 0, got 0.0"),
            ([0, 5, -5], "sweep.values[2] (length_km -5): "
                         "length_km must be finite and >= 0, got -5.0")):
        doc["sweep"] = {"variable": "length_km", "values": values}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["keyrate", "--scenario", scenario_file(doc),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error:\n  - {violation}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, variable, values, violation", [
    ("sweep-n0", "n0", [10, -5], "sweep.values[1] (n0 -5): "
     "mean_photon_number must be finite and >= 0, got -5.0"),
    ("sweep-attenuation", "eta_tot_db", [-3, -4000], "sweep.values[1] "
     "(eta_tot_db -4000): alice_attenuation must be > 0, got 0.0"),
])
def test_sweep_bad_value_names_its_entry(tmp_path, scenario_file, capsys, command,
                                         variable, values, violation):
    """A grid value that gives no valid configuration is rejected before
    any sampling, naming its entry in the sweep."""
    doc = base_document()
    doc["sweep"] = {"variable": variable, "values": values}
    out = tmp_path / "sweep.csv"
    assert main([command, "--scenario", scenario_file(doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error:\n  - {violation}\n"
    assert not out.exists()


def test_sweep_errors_keep_their_order(tmp_path, scenario_file, capsys):
    """Positive dB values are reported before any bad entry, and a missing
    seed before a bad entry too."""
    doc = base_document()
    doc["sweep"] = {"variable": "eta_tot_db", "values": [3, -4000]}
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep-attenuation", "--scenario", scenario_file(doc),
                 "--out", out]) == 2
    assert capsys.readouterr().err == (
        "configuration error:\n"
        "  - eta_tot_db values must be <= 0 dB (attenuation), got [3.0]\n")
    doc["sweep"]["values"] = [-3, -4000]
    del doc["run"]
    assert main(["sweep-attenuation", "--scenario", scenario_file(doc),
                 "--out", out]) == 2
    assert capsys.readouterr().err == (
        "configuration error:\n  - a seed is required: set run.seed in the "
        "scenario or pass --seed\n")


def test_keyrate_measured_points_inline(tmp_path, scenario_file):
    doc = base_document()
    doc["system"]["source"]["mean_photon_number"] = 900.0
    doc["system"]["source"]["mode_overlap"] = 0.96
    doc["system"]["alice_attenuation"] = 0.0009
    doc["sweep"] = {"variable": "length_km", "values": [0]}
    doc["measured_points"] = [
        {"alice_attenuation": 0.0009, "transmittance": 0.69,
         "corr_mean": 0.315, "corr_std": 0.004},
    ]
    del doc["run"]  # inline estimates need no sampling
    out = tmp_path / "rate.csv"
    assert main(["keyrate", "--scenario", scenario_file(doc),
                 "--out", str(out)]) == 0
    lines = (tmp_path / "rate.points.csv").read_text().splitlines()
    assert lines[0] == "# schema: passiveqkd/keyrate-points v1"
    assert lines[1] == ("eta_tot_db,eta_tot,eta0,T,corr_mean,corr_std,"
                        "corr_model,I_AB,chi_BE,R,R_lower,R_upper,R_model,has_key")
    fields = lines[2].split(",")
    assert fields[-1] in ("true", "false")
    assert float(fields[1]) == pytest.approx(0.000621, rel=1e-12)
    assert float(fields[4]) == 0.315
    assert float(fields[10]) < float(fields[9]) < float(fields[11])


def test_keyrate_measured_points_need_seed_exits_2(tmp_path, scenario_file,
                                                   capsys):
    doc = base_document()
    doc["system"]["alice_attenuation"] = 0.0009
    doc["measured_points"] = [
        {"alice_attenuation": 0.0009, "transmittance": 0.69},
    ]
    doc["sweep"] = {"variable": "length_km", "values": [0]}
    del doc["run"]
    rc = main(["keyrate", "--scenario", scenario_file(doc),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "seed is required" in capsys.readouterr().err


def test_bad_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope", encoding="utf-8")
    rc = main(["simulate", "--scenario", str(bad),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("digits", [401, 5000])
def test_huge_json_integer_exits_2(tmp_path, capsys, digits):
    """An integer beyond the float range, or too long for Python to read,
    is a configuration error, not a traceback."""
    text = json.dumps(base_document()).replace(
        '"mean_photon_number": 100.0', '"mean_photon_number": 1' + "0" * (digits - 1))
    path = tmp_path / "huge.json"
    path.write_text(text, encoding="utf-8")
    rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_unwritable_out_exits_4(scenario_file, capsys):
    rc = main(["simulate", "--scenario", scenario_file(base_document()),
               "--out", "/nonexistent-dir/x.csv"])
    assert rc == 4
    assert "i/o error" in capsys.readouterr().err


def test_shipped_scenarios_run(tmp_path):
    """Every scenario in scenarios/ runs with the commands it is written for."""
    n0 = str(SCENARIOS / "correlation_vs_photon_number.json")
    att = str(SCENARIOS / "correlation_vs_attenuation.json")
    rate = str(SCENARIOS / "keyrate_vs_distance.json")
    runs = [
        (["simulate", "--scenario", n0], "s.csv", {
            "s.csv": ("samples", "x1,x2,x3,p1,p2,p3"),
            "s.moments.csv": ("moments", "moment,sample,model")}),
        (["sweep-n0", "--scenario", n0], "n0.csv", {
            "n0.csv": ("sweep-n0", "n0,corr_mc,corr_std,corr_model")}),
        (["fit", "--scenario", n0, "--points", str(tmp_path / "n0.csv")], "fit.csv", {
            "fit.csv": ("fit-report", "n0,corr_mean,corr_std,model_corr")}),
        (["sweep-attenuation", "--scenario", att], "att.csv", {
            "att.csv": ("sweep-attenuation", "eta_tot_db,corr_mc,corr_std,corr_model")}),
        (["keyrate", "--scenario", rate], "rate.csv", {
            "rate.csv": ("keyrate", "L_km,T,eps_A,I_AB,chi_BE,R,eta0"),
            "rate.points.csv": ("keyrate-points",
                                "eta_tot_db,eta_tot,eta0,T,corr_mean,corr_std,"
                                "corr_model,I_AB,chi_BE,R,R_lower,R_upper,R_model,"
                                "has_key")}),
    ]
    for argv, out, outputs in runs:
        assert main(argv + ["--out", str(tmp_path / out),
                            "--samples", "2000", "--blocks", "2"]) == 0, argv[0]
        for name, (schema, header) in outputs.items():
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[:2] == [f"# schema: passiveqkd/{schema} v1", header], name


def test_module_entry_point_smoke():
    proc = subprocess.run([sys.executable, "-m", "passiveqkd.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for command in ("simulate", "sweep-n0", "sweep-attenuation", "fit",
                    "keyrate"):
        assert command in proc.stdout
