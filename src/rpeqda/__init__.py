"""Random projection ensemble QDA for ultrahigh-dimensional classification.

Library surface:

* :mod:`rpeqda.linalg`     dense kernels (Cholesky, quadratic forms, QR)
* :mod:`rpeqda.randproj`   seeded Gaussian / sparse three-point projections
* :mod:`rpeqda.qda`        array-form QDA, shared by every ensemble member
* :mod:`rpeqda.rpe`        the projection-ensemble classifier (+ population mode)
* :mod:`rpeqda.schemes`    synthetic benchmark populations and KL oracles
* :mod:`rpeqda.evaluate`   benchmark/LOOCV harness and diagnostics
* :mod:`rpeqda.cli`        command-line entry points
"""

__version__ = "0.1.0"

from .dataset import Dataset
from .randproj import ProjectionFamily
from .rpe import RpeConfig, RpeModel, rpe_classify, rpe_fit, rpe_scores

__all__ = [
    "Dataset",
    "ProjectionFamily",
    "RpeConfig",
    "RpeModel",
    "rpe_classify",
    "rpe_fit",
    "rpe_scores",
    "__version__",
]
