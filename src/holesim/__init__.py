"""Numerical experiments on decoherence of superposed gravitational
branches: branch evolution, the complex interference observable, its
collapse under one-sided coordinate changes, and reconstruction of the
shared background from overlap data.

The package re-exports each module's ``__all__`` (``errors``: its classes);
``holesim.cli`` stays out, so importing the package does not import PyYAML."""

from .background_recover import *
from .diffeo import *
from .errors import *
from .evolve import *
from .grid import *
from .harmonic import *
from .hole_experiment import *
from .observable import *

__version__ = "0.1.0"
