"""Simulation and analytic evaluation lab for match search under noisy
machine representations of people.

Candidates live in the k-dimensional unit ball; a platform sees each of
them only through a Gaussian-noised proxy. The package computes the
closed-form match-quality benchmarks of both search regimes, runs the
Monte Carlo protocols that estimate them, verifies the structural
properties that tie the two together, and reproduces the reference
tables through a deterministic CLI harness.
"""

__version__ = "0.1.0"

from .analytic import GroupSpec, NumericError
from .quadrature import QuadratureError
from .simulate import FIXED_SUBJECT_CLONE, PER_INTERACTION, Estimate, SeqSearchPolicy
from .streams import StreamKey

__all__ = [
    "Estimate",
    "FIXED_SUBJECT_CLONE",
    "GroupSpec",
    "NumericError",
    "PER_INTERACTION",
    "QuadratureError",
    "SeqSearchPolicy",
    "StreamKey",
    "__version__",
]
