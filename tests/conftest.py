"""Shared fixtures: the reference hardware parameter set used throughout."""

import os
from pathlib import Path

import pytest

import passiveqkd as pq

# pytest's ``pythonpath`` setting reaches only this process; the tests that
# start a fresh interpreter find the package through its environment.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
_PATH = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if _SRC not in _PATH:
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC] + [p for p in _PATH if p])


@pytest.fixture(scope="session")
def alice_x():
    return pq.DetectorChannel(efficiency=0.43, noise_variance=0.17)


@pytest.fixture(scope="session")
def alice_p():
    return pq.DetectorChannel(efficiency=0.38, noise_variance=0.19)


@pytest.fixture(scope="session")
def bob_x():
    return pq.DetectorChannel(efficiency=0.54, noise_variance=0.24)


@pytest.fixture(scope="session")
def bob_p():
    return pq.DetectorChannel(efficiency=0.51, noise_variance=0.23)


@pytest.fixture(scope="session")
def alice_detector(alice_x, alice_p):
    return pq.ConjugateDetector(x=alice_x, p=alice_p)


@pytest.fixture(scope="session")
def bob_detector(bob_x, bob_p):
    return pq.ConjugateDetector(x=bob_x, p=bob_p)


@pytest.fixture(scope="session")
def bench_config(alice_detector, bob_detector):
    """Back-to-back link: no attenuator, lossless channel, n0 = 880."""
    return pq.SystemConfig(
        source=pq.SourceParams(mean_photon_number=880.0, mode_overlap=0.96),
        alice_attenuation=1.0,
        channel=pq.ChannelParams(transmittance=1.0),
        alice_detector=alice_detector,
        bob_detector=bob_detector,
    )


@pytest.fixture(scope="session")
def link_config(alice_detector, bob_detector):
    """Deployed link template: n0 = 900, split set per test."""
    return pq.SystemConfig(
        source=pq.SourceParams(mean_photon_number=900.0, mode_overlap=0.96),
        alice_attenuation=0.0009,
        channel=pq.ChannelParams(transmittance=1.0),
        alice_detector=alice_detector,
        bob_detector=bob_detector,
    )
