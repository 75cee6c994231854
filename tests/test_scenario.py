"""Scenario documents: parsing, validation, unit rules, and defaults."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

import passiveqkd as pq


def detector_node(eff_x=0.43, nu_x=0.17, eff_p=0.38, nu_p=0.19):
    return {"x": {"efficiency": eff_x, "noise_variance": nu_x},
            "p": {"efficiency": eff_p, "noise_variance": nu_p}}


def full_document():
    return {
        "system": {
            "source": {"mean_photon_number": 900.0, "mode_overlap": 0.96},
            "alice_attenuation": 0.0009,
            "channel": {"transmittance": 0.69},
            "alice_detector": detector_node(),
            "bob_detector": detector_node(0.54, 0.24, 0.51, 0.23),
            "eavesdropper_tap": True,
        },
        "run": {"n_samples": 500000, "seed": 1, "n_blocks": 10},
        "reconciliation_efficiency": 0.9,
        "sweep": {"variable": "n0", "values": [10, 100, 880]},
        "keyrate": {"optimize_alice_attenuation": True,
                    "attenuation_db_per_km": 0.21},
        "measured_points": [
            {"alice_attenuation": 0.0009, "transmittance": 0.69,
             "corr_mean": 0.31, "corr_std": 0.01},
            {"alice_attenuation_db": -30.0, "transmittance_db": -10.0},
        ],
    }


def test_parse_full_document():
    sc = pq.parse_scenario(full_document())
    assert sc.source.mean_photon_number == 900.0
    assert sc.source.mode_overlap == 0.96
    assert sc.alice_attenuation == 0.0009
    assert sc.channel.transmittance == 0.69
    assert sc.alice_detector.p.noise_variance == 0.19
    assert sc.bob_detector.x.efficiency == 0.54
    assert sc.eavesdropper_tap is True
    assert sc.run == pq.RunSpec(n_samples=500000, seed=1, n_blocks=10)
    assert sc.efficiency == 0.9
    assert sc.sweep.variable == "n0"
    assert sc.sweep.values == (10.0, 100.0, 880.0)
    assert sc.keyrate.optimize_alice_attenuation is True
    assert sc.keyrate.attenuation_db_per_km == 0.21
    pt1, pt2 = sc.measured_points
    assert pt1.corr_mean == 0.31 and pt1.corr_std == 0.01
    assert pt1.path_transmittance == pytest.approx(0.000621, rel=1e-15)
    assert pt2.corr_mean is None and pt2.corr_std is None
    assert pt2.alice_attenuation == pytest.approx(1e-3, rel=1e-12)
    assert pt2.transmittance == pytest.approx(0.1, rel=1e-12)


def test_parse_minimal_document():
    doc = {"system": {
        "source": {"mean_photon_number": 100.0, "mode_overlap": 0.9},
        "alice_detector": detector_node(),
        "bob_detector": detector_node(),
    }}
    sc = pq.parse_scenario(doc)
    assert sc.alice_attenuation is None
    assert sc.channel is None
    assert sc.run is None
    assert sc.efficiency == 0.95
    assert sc.sweep is None
    assert sc.keyrate == pq.KeyRateOptions()
    assert sc.keyrate.attenuation_db_per_km == 0.2
    assert sc.measured_points == ()


def test_db_conversion_round_trip():
    for x in (1.0, 0.69, 0.000621, 1e-6):
        assert pq.linear_from_db(pq.db_from_linear(x)) == pytest.approx(x,
                                                                        rel=1e-12)
    assert pq.db_from_linear(pq.linear_from_db(-32.1)) == pytest.approx(-32.1,
                                                                        rel=1e-12)
    with pytest.raises(pq.ParameterError):
        pq.db_from_linear(0.0)
    with pytest.raises(pq.ParameterError):
        pq.linear_from_db(float("nan"))
    with pytest.raises(pq.ParameterError):
        pq.linear_from_db(4000)


def test_db_keys():
    doc = full_document()
    doc["system"]["alice_attenuation_db"] = -30.0
    del doc["system"]["alice_attenuation"]
    doc["system"]["channel"] = {"transmittance_db": -10.0}
    sc = pq.parse_scenario(doc)
    assert sc.alice_attenuation == pytest.approx(1e-3, rel=1e-12)
    assert sc.channel.transmittance == pytest.approx(0.1, rel=1e-12)


def test_db_and_linear_keys_are_exclusive():
    doc = full_document()
    doc["system"]["alice_attenuation_db"] = -30.0  # linear key still present
    with pytest.raises(pq.ParameterError) as err:
        pq.parse_scenario(doc)
    assert any("exactly one of 'alice_attenuation' and 'alice_attenuation_db'"
               in v for v in err.value.violations)


def test_positive_db_rejected():
    doc = full_document()
    doc["system"]["channel"] = {"transmittance_db": 3.0}
    with pytest.raises(pq.ParameterError) as err:
        pq.parse_scenario(doc)
    assert any("transmittance_db" in v for v in err.value.violations)


def test_collects_all_violations():
    doc = {
        "surprise": 1,
        "system": {
            "source": {"mode_overlap": 1.5},
            "alice_detector": {"x": {"efficiency": 0.4, "noise_variance": 0.1}},
            "bob_detector": detector_node(),
        },
        "run": {"n_samples": 100},
        "sweep": {"variable": "bogus", "values": [1]},
    }
    with pytest.raises(pq.ParameterError) as err:
        pq.parse_scenario(doc)
    text = "\n".join(err.value.violations)
    assert "unknown key 'surprise' in scenario" in text
    assert "system.source.mean_photon_number is required" in text
    assert "system.source.mode_overlap must be <= 1" in text
    assert "alice_detector.p is required" in text
    assert "run.seed is required" in text
    assert "sweep.variable must be one of" in text
    assert len(err.value.violations) >= 6


def test_huge_integer_is_a_violation():
    """An int beyond the float range is not a finite number, to the parser
    and to the record alike."""
    doc = full_document()
    doc["system"]["source"]["mean_photon_number"] = 10**400
    with pytest.raises(pq.ParameterError) as err:
        pq.parse_scenario(doc)
    assert err.value.violations == [
        f"system.source.mean_photon_number must be a finite number, got {10**400!r}"]
    with pytest.raises(pq.ParameterError, match="mean_photon_number"):
        pq.SourceParams(10**400, 0.9)


def _channel_db(doc):
    doc["system"]["channel"] = {"transmittance_db": -4000}


def _channel_fibre(doc):
    doc["system"]["channel"] = {"length_km": 1e6}


def _attenuation_db(doc):
    del doc["system"]["alice_attenuation"]
    doc["system"]["alice_attenuation_db"] = -4000


def _point_attenuation_db(doc):
    doc["measured_points"][1]["alice_attenuation_db"] = -4000


def _point_transmittance_db(doc):
    doc["measured_points"][1]["transmittance_db"] = -4000


@pytest.mark.parametrize("where, edit", [
    ("system.channel.transmittance", _channel_db),
    ("system.channel.transmittance", _channel_fibre),
    ("system.alice_attenuation", _attenuation_db),
    ("measured_points[1].alice_attenuation", _point_attenuation_db),
    ("measured_points[1].transmittance", _point_transmittance_db),
])
def test_underflow_to_zero_is_a_path_violation(where, edit):
    """A dB value or fibre length whose linear value underflows to 0.0 is
    one more violation under its path, collected with the others."""
    doc = full_document()
    edit(doc)
    doc["reconciliation_efficiency"] = 1.5
    with pytest.raises(pq.ParameterError) as err:
        pq.parse_scenario(doc)
    assert sorted(err.value.violations) == sorted([
        f"{where} must be > 0, got 0.0",
        "scenario.reconciliation_efficiency must be <= 1, got 1.5"])


def _config(value):
    return replace(pq.parse_scenario(full_document()).system_config(),
                   alice_attenuation=value)


def _scenario(value):
    return replace(pq.parse_scenario(full_document()), efficiency=value)


def _parent(doc, path):
    """The node holding the last key of a dotted ``path``, and that key."""
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    node = doc
    for key in keys[1 if keys[0] == "scenario" else 0:-1]:
        node = node[key]
    return node, keys[-1]


# (scenario path, record field, bad value, the record built with it)
PARITY_CASES = [
    ("system.alice_detector.x.efficiency", "efficiency", 0.0,
     lambda v: pq.DetectorChannel(v, 0.17)),
    ("system.bob_detector.p.efficiency", "efficiency", 1.5,
     lambda v: pq.DetectorChannel(v, 0.17)),
    ("system.alice_detector.p.noise_variance", "noise_variance", -0.1,
     lambda v: pq.DetectorChannel(0.43, v)),
    ("system.source.mean_photon_number", "mean_photon_number", -1.0,
     lambda v: pq.SourceParams(v, 0.96)),
    ("system.source.mode_overlap", "mode_overlap", 1.5,
     lambda v: pq.SourceParams(900.0, v)),
    ("system.source.mode_overlap", "mode_overlap", -0.5,
     lambda v: pq.SourceParams(900.0, v)),
    ("system.alice_attenuation", "alice_attenuation", 0.0, _config),
    ("system.alice_attenuation", "alice_attenuation", 1.5, _config),
    ("system.channel.transmittance", "transmittance", 1.5,
     lambda v: pq.ChannelParams(v)),
    ("system.channel.length_km", "length_km", -10.0,
     lambda v: pq.ChannelParams(0.5, length_km=v)),
    ("system.channel.attenuation_db_per_km", "attenuation_db_per_km", -0.2,
     lambda v: pq.ChannelParams(0.5, attenuation_db_per_km=v)),
    ("run.n_samples", "n_samples", 0, lambda v: pq.RunSpec(v, 1)),
    ("run.seed", "seed", -1, lambda v: pq.RunSpec(100, v)),
    ("run.seed", "seed", 2**64, lambda v: pq.RunSpec(100, v)),
    ("run.n_blocks", "n_blocks", 0, lambda v: pq.RunSpec(100, 1, v)),
    ("scenario.reconciliation_efficiency", "efficiency", 0.0, _scenario),
    ("scenario.reconciliation_efficiency", "efficiency", 1.1, _scenario),
    ("keyrate.attenuation_db_per_km", "attenuation_db_per_km", -0.2,
     lambda v: pq.KeyRateOptions(attenuation_db_per_km=v)),
    ("measured_points[0].alice_attenuation", "alice_attenuation", 1.5,
     lambda v: pq.MeasuredPointSpec(v, 0.69)),
    ("measured_points[0].transmittance", "transmittance", 0.0,
     lambda v: pq.MeasuredPointSpec(0.0009, v)),
    ("measured_points[0].corr_mean", "corr_mean", 1.5,
     lambda v: pq.MeasuredPointSpec(0.0009, 0.69, v, 0.01)),
    ("measured_points[0].corr_std", "corr_std", -0.01,
     lambda v: pq.MeasuredPointSpec(0.0009, 0.69, 0.31, v)),
]


@pytest.mark.parametrize("path, field, value, build", PARITY_CASES)
def test_parser_reports_the_record_rule(path, field, value, build):
    """Each range rule lives once, on its record: the parser's violation is
    the record's own, with the dotted path in place of the field name."""
    with pytest.raises(pq.ParameterError) as own:
        build(value)
    [message] = own.value.violations
    assert message.startswith(field + " ")

    doc = full_document()
    if path.startswith("system.channel.") and field != "transmittance":
        doc["system"]["channel"] = {"length_km": 10.0}
    node, key = _parent(doc, path)
    node[key] = value
    with pytest.raises(pq.ParameterError) as parsed:
        pq.parse_scenario(doc)
    assert parsed.value.violations == [path + message[len(field):]]


# (scenario path, its new value or None to drop the key, the one violation)
SHAPE_CASES = [(path, [], f"{path} must be a JSON object, got list") for path in (
    "scenario", "system", "system.source", "system.alice_detector",
    "system.alice_detector.x", "system.channel", "run", "sweep", "keyrate",
    "measured_points[0]")] + [
    ("system", None, "scenario.system is required"),
    ("system.source", None, "system.source is required"),
    ("system.bob_detector", None, "system.bob_detector is required"),
]


@pytest.mark.parametrize("path, value, violation", SHAPE_CASES)
def test_parser_reports_shape_errors(path, value, violation):
    """A section that is not a JSON object, or a required one that is
    missing, is exactly one violation naming its path."""
    doc = full_document()
    if path == "scenario":
        doc = value
    else:
        node, key = _parent(doc, path)
        if value is None:
            del node[key]
        else:
            node[key] = value
    with pytest.raises(pq.ParameterError) as err:
        pq.parse_scenario(doc)
    assert err.value.violations == [violation]


def test_unknown_keys_rejected_at_every_level():
    doc = full_document()
    doc["system"]["source"]["bandwidth"] = 1.0
    doc["system"]["alice_detector"]["x"]["gain"] = 2.0
    doc["run"]["threads"] = 4
    doc["keyrate"]["plot"] = True
    doc["measured_points"][0]["label"] = "first"
    with pytest.raises(pq.ParameterError) as err:
        pq.parse_scenario(doc)
    text = "\n".join(err.value.violations)
    for fragment in ("'bandwidth' in system.source",
                     "'gain' in system.alice_detector.x",
                     "'threads' in run",
                     "'plot' in keyrate",
                     "'label' in measured_points[0]"):
        assert fragment in text


def test_channel_description_rules():
    doc = full_document()
    doc["system"]["channel"] = {"transmittance": 0.5, "length_km": 10.0}
    with pytest.raises(pq.ParameterError) as err:
        pq.parse_scenario(doc)
    assert any("not both" in v for v in err.value.violations)

    doc = full_document()
    doc["system"]["channel"] = {"attenuation_db_per_km": 0.2}
    with pytest.raises(pq.ParameterError) as err:
        pq.parse_scenario(doc)
    assert any("requires length_km" in v for v in err.value.violations)

    doc = full_document()
    doc["system"]["channel"] = {"length_km": 80.0}
    sc = pq.parse_scenario(doc)
    assert sc.channel.transmittance == pytest.approx(10.0 ** -1.6, rel=1e-15)
    assert sc.channel.attenuation_db_per_km == 0.2


def test_run_parsing_rules():
    doc = full_document()
    doc["run"] = {"seed": 2**64}
    with pytest.raises(pq.ParameterError) as err:
        pq.parse_scenario(doc)
    assert any("< 2^64" in v for v in err.value.violations)

    doc = full_document()
    doc["run"] = {"seed": 1, "n_samples": True}
    with pytest.raises(pq.ParameterError) as err:
        pq.parse_scenario(doc)
    assert any("must be an integer" in v for v in err.value.violations)

    doc = full_document()
    doc["run"] = {"seed": 5}
    sc = pq.parse_scenario(doc)
    assert sc.run == pq.RunSpec(n_samples=500000, seed=5, n_blocks=10)


def test_sweep_parsing_rules():
    doc = full_document()
    doc["sweep"] = {"variable": "length_km", "values": []}
    with pytest.raises(pq.ParameterError):
        pq.parse_scenario(doc)
    doc["sweep"] = {"variable": "length_km", "values": [0, "ten"]}
    with pytest.raises(pq.ParameterError):
        pq.parse_scenario(doc)
    doc["sweep"] = {"variable": "eta_tot_db", "values": [0, -10.5]}
    sc = pq.parse_scenario(doc)
    assert sc.sweep.values == (0.0, -10.5)


def test_measured_point_rules():
    doc = full_document()
    doc["measured_points"][0].pop("corr_std")
    with pytest.raises(pq.ParameterError) as err:
        pq.parse_scenario(doc)
    assert any("corr_mean and corr_std together" in v
               for v in err.value.violations)

    doc = full_document()
    doc["measured_points"][0]["corr_mean"] = 1.5
    with pytest.raises(pq.ParameterError):
        pq.parse_scenario(doc)

    doc = full_document()
    doc["measured_points"] = "nope"
    with pytest.raises(pq.ParameterError) as err:
        pq.parse_scenario(doc)
    assert any("must be a list" in v for v in err.value.violations)


def test_efficiency_bounds():
    doc = full_document()
    doc["reconciliation_efficiency"] = 0.0
    with pytest.raises(pq.ParameterError):
        pq.parse_scenario(doc)
    doc["reconciliation_efficiency"] = 1.1
    with pytest.raises(pq.ParameterError):
        pq.parse_scenario(doc)


def test_system_config_building():
    sc = pq.parse_scenario(full_document())
    config = sc.system_config()
    assert config.alice_attenuation == 0.0009
    assert config.channel.transmittance == 0.69
    assert config.eavesdropper_tap is True
    override = sc.system_config(alice_attenuation=0.5,
                                channel=pq.ChannelParams(1.0))
    assert override.alice_attenuation == 0.5
    assert override.channel.transmittance == 1.0

    doc = full_document()
    del doc["system"]["alice_attenuation"]
    del doc["system"]["channel"]
    sc = pq.parse_scenario(doc)
    with pytest.raises(pq.ParameterError) as err:
        sc.system_config()
    assert "alice_attenuation is required" in str(err.value)
    assert sc.system_config(alice_attenuation=1.0).channel.transmittance == 1.0


def test_run_spec_overrides():
    sc = pq.parse_scenario(full_document())
    assert sc.run_spec() == pq.RunSpec(n_samples=500000, seed=1, n_blocks=10)
    assert sc.run_spec(seed=9, n_samples=100, n_blocks=4) == \
        pq.RunSpec(n_samples=100, seed=9, n_blocks=4)

    doc = full_document()
    del doc["run"]
    sc = pq.parse_scenario(doc)
    assert sc.run_spec(seed=3) == pq.RunSpec(n_samples=500000, seed=3, n_blocks=10)
    with pytest.raises(pq.ParameterError) as err:
        sc.run_spec()
    assert "a seed is required" in str(err.value)


def test_load_scenario(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(full_document()), encoding="utf-8")
    sc = pq.load_scenario(path)
    assert sc.source.mean_photon_number == 900.0

    bad = tmp_path / "broken.json"
    bad.write_text("{ nope", encoding="utf-8")
    with pytest.raises(pq.ParameterError) as err:
        pq.load_scenario(bad)
    assert any("not valid JSON" in v for v in err.value.violations)


def test_deeply_nested_json_is_not_valid_json(tmp_path):
    """Nesting past the recursion limit is a violation, not a RecursionError."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    with pytest.raises(pq.ParameterError) as err:
        pq.load_scenario(path)
    [violation] = err.value.violations
    assert violation.startswith("scenario file is not valid JSON: ")


def test_default_grids():
    assert pq.DEFAULT_N0_GRID == (10.0, 25.0, 50.0, 100.0, 200.0, 400.0, 880.0)
    assert pq.DEFAULT_ETA_TOT_DB_GRID == tuple(float(-5 * k) for k in range(10))
    assert pq.DEFAULT_ETA_TOT_DB_GRID[0] == 0.0
    assert pq.DEFAULT_ETA_TOT_DB_GRID[-1] == -45.0
    assert pq.DEFAULT_LENGTH_KM_GRID[0] == 0.0
    assert pq.DEFAULT_LENGTH_KM_GRID[-1] == 120.0
    assert len(pq.DEFAULT_LENGTH_KM_GRID) == 25


def test_numpy_scalars_and_bools():
    assert pq.linear_from_db(np.int64(-3)) == pq.linear_from_db(-3)
    assert pq.db_from_linear(np.float32(0.5)) == pq.db_from_linear(0.5)
    doc = full_document()
    doc["system"]["source"]["mean_photon_number"] = True
    with pytest.raises(pq.ParameterError, match="mean_photon_number"):
        pq.parse_scenario(doc)
