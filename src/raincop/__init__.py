"""Spatially coherent probabilistic rainfall modelling.

Zero-gamma mixture marginals tied to features through link-linear
regression, a censored latent Gaussian copula with Matérn spatial
correlation for joint forecasts, minimum energy-score estimation of the
kernel lengthscale, a verification-diagnostics suite, and a synthetic-data
harness with known ground truth.
"""

__version__ = "0.1.0"

from .copula import censor, censor_thresholds, joint_forecast, obs_to_gaussian, substream
from .diagnostics import (EnsembleBlock, RocCurve, crps_sample, cross_correlation,
                          ecdf_curve, rank_histogram, rmsb_mab, roc_auc,
                          variogram_score)
from .estimation import (EstimateResult, ProfilePoint, ScoreConfig, ThetaSearchSpec,
                         energy_score_unbiased, estimate_theta, sr_objective)
from .marginals import (FitResult, GammaMixture, IdentityTransform, JglmCoefficients,
                        MarginalField, StandardizeTransform, gm_cdf, gm_quantile,
                        gm_sample, jglm_fit, predict_field)
from .numerics import NotPositiveDefinite, SpdFactor, bessel_k, spd_factorize
from .panel import IngestError, RainPanel
from .spatial import (CovarianceMatrix, DistanceMatrix, LocationTable, MaternParams,
                      build_covariance, build_distance_matrix, matern_kernel,
                      repaired_correlation)
from .synth import SynthSpec, SynthResult, generate_locations, simulate_dataset
