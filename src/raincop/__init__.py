"""Spatially coherent probabilistic rainfall modelling.

Zero-gamma mixture marginals tied to features through link-linear
regression, a censored latent Gaussian copula with Matérn spatial
correlation for joint forecasts, minimum energy-score estimation of the
kernel lengthscale, a verification-diagnostics suite, and a synthetic-data
harness with known ground truth.

Importing the package pins numpy's OpenBLAS to one thread, since its thread
count reaches the last bits of every matrix product: the variable covers a
numpy loaded later and every child process, the ctypes call into numpy's
bundled library a numpy imported before raincop. It also fixes glibc's
allocator thresholds, so that freed chunk-sized blocks stay in the heap.
"""

import ctypes
import glob
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as _np

for _lib in glob.glob(os.path.join(os.path.dirname(os.path.dirname(_np.__file__)),
                                   "numpy.libs", "libscipy_openblas64_*.so")):
    _set_threads = ctypes.CDLL(_lib).scipy_openblas_set_num_threads64_
    _set_threads.argtypes, _set_threads.restype = [ctypes.c_int], None
    _set_threads(1)

# glibc lifts its mmap threshold to the largest block freed and gives the top
# of the heap back once twice that is free, so the budget-sized temporaries
# of the chunked loops (512 KiB) were faulted in again on nearly every call:
# 69k minor faults in estimate-theta on 20 sites x 1500 days, 12k with these
# fixed thresholds.
_mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
if _mallopt is not None:
    _mallopt.argtypes, _mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    _mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD: blocks below 4 MiB come from the heap
    _mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD: its top goes back once 16 MiB are free

__version__ = "0.1.0"

from .copula import joint_forecast, substream
from .diagnostics import crps_sample, rank_histogram, roc_auc, variogram_score
from .estimation import ScoreConfig, ThetaSearchSpec, estimate_theta
from .marginals import GammaMixture, JglmCoefficients, MarginalField, jglm_fit
from .spatial import MaternParams, build_covariance
from .synth import SynthSpec, simulate_dataset
