"""Spatially coherent probabilistic rainfall modelling.

Zero-gamma mixture marginals tied to features through link-linear
regression, a censored latent Gaussian copula with Matérn spatial
correlation for joint forecasts, minimum energy-score estimation of the
kernel lengthscale, a verification-diagnostics suite, and a synthetic-data
harness with known ground truth.
"""

__version__ = "0.1.0"

from .copula import joint_forecast, substream
from .diagnostics import crps_sample, rank_histogram, roc_auc, variogram_score
from .estimation import ScoreConfig, ThetaSearchSpec, estimate_theta
from .marginals import GammaMixture, JglmCoefficients, MarginalField, jglm_fit
from .spatial import MaternParams, build_covariance
from .synth import SynthSpec, simulate_dataset
