"""Achievable-rate tools for PSK over time-correlated Rayleigh fading with
prediction-based channel estimates and a mismatched nearest-neighbor decoder,
plus an end-to-end simulator of interleaved recursive decision-directed
training."""

from .capacity import (CapacityEstimate, RateLadder, psk_capacity,
                       psk_capacity_quadrature, rate_ladder)
from .decoder import (DecodeOutcome, UndercutEstimate, decode, metric,
                      pairwise_undercut_probability)
from .errors import ConfigurationError, NumericalConsistencyError
from .fading import (Ar1Fading, ClarkeFading, FadingModel, TabulatedFading,
                     generate_path)
from .gmi import GmiReport, gmi, lambda_hat
from .prediction import (PredictionResult, PredictorSpec, effective_snr,
                         predictor_coefficients, rho_sequence,
                         schedule_lag_pattern, schedule_predictors,
                         solve_hermitian_toeplitz)
from .psk import (Codebook, PscBlock, PskConstellation, generate_codebook,
                  make_constellation, synthesize_block_at_rho,
                  synthesize_psc_block)
from .simulate import RtReport, SchemeConfig, budget_check, run
from .utils import complex_normal, compensated_mean, derive_seed

__version__ = "0.1.0"

__all__ = [
    "Ar1Fading", "CapacityEstimate", "ClarkeFading", "Codebook",
    "ConfigurationError", "DecodeOutcome", "FadingModel",
    "GmiReport", "NumericalConsistencyError", "PredictionResult",
    "PredictorSpec", "PscBlock", "PskConstellation",
    "RateLadder", "RtReport", "SchemeConfig", "TabulatedFading",
    "UndercutEstimate", "budget_check", "complex_normal", "compensated_mean",
    "decode", "derive_seed", "effective_snr", "generate_codebook",
    "generate_path", "gmi", "lambda_hat",
    "make_constellation", "metric", "pairwise_undercut_probability",
    "predictor_coefficients", "psk_capacity", "psk_capacity_quadrature",
    "rate_ladder", "rho_sequence",
    "schedule_lag_pattern", "schedule_predictors", "solve_hermitian_toeplitz",
    "synthesize_block_at_rho", "synthesize_psc_block", "run",
]
