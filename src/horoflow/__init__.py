"""Numerical laboratory for weak metrics, metric functionals, and
generalized Lyapunov exponents of nonexpansive cocycles."""

__version__ = "0.1.0"

from .core import MetricDomainError, DegenerateInputError, WeakMetricSpace
from .cocycle import (ErgodicDriver, constant_driver, estimate_top_exponent,
                      hyperbolic_walk_gap, LyapunovEstimate)
from .lyapunov import qr_spectrum, filtration_probe
from .operator_cone import (squared_positive_part_lognorm, tau_estimate,
                            extract_vector_state, state_ratio_check, segal_check)
from .deepnet import (spectral_normalize, make_layer, apply_chain, resnet_drift,
                      lipschitz_profile, max_stretch, jacobian_cocycle_dist)
