"""Simulation, estimation, and security analysis for a passively encoded
continuous-variable QKD link.

The package models a sender whose quadrature information is imprinted by
passive optics on a thermal source, a lossy fibre channel, and noisy
heterodyne receivers at both ends. It provides

* closed-form second moments, correlations, and noise figures
  (:mod:`passiveqkd.model`),
* a deterministic Monte Carlo sampler of the same linear model
  (:mod:`passiveqkd.sampling`),
* blocked correlation estimates and a mode-overlap fit
  (:mod:`passiveqkd.estimation`),
* asymptotic secure key rates against collective attacks
  (:mod:`passiveqkd.keyrate`),
* a JSON scenario format, the CSV wire format, and a command line
  (:mod:`passiveqkd.scenario`, :mod:`passiveqkd.tables`, :mod:`passiveqkd.cli`).

All variances are expressed in shot-noise units (vacuum variance 1) and
all rates in bits per channel use.
"""

from . import errors, estimation, keyrate, model, sampling, scenario
from .errors import *
from .estimation import *
from .keyrate import *
from .model import *
from .sampling import *
from .scenario import *

__version__ = "0.1.0"

# Each module lists its public names once, in its own __all__; the
# package exports their union.
__all__ = sorted(name for module in (errors, estimation, keyrate, model, sampling,
                                     scenario)
                 for name in module.__all__)
