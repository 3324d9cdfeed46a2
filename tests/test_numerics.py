"""Special-function and factorization tests against independent oracles.

Frozen constants were computed with mpmath at 40 digits (quadrature for the
incomplete gamma, besselk for the Bessel values) so the checks here do not
share code with the implementation under test. The Bessel values are those
of scipy.special.kv, which the general-order Matérn kernel calls directly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from raincop.marginals import GammaMixture, mixture_cdf
from raincop.numerics import NotPositiveDefinite, is_symmetric, spd_factorize
from raincop.spatial import MaternParams, matern_kernel

# mpmath oracles (40-digit evaluation, rounded to double)
P_2_5_AT_3_7 = 0.80744956692060424     # quadrature of t^{s-1} e^{-t} / Gamma(s)
K_HALF_AT_1 = 0.46106850444789456
K_3HALF_AT_2 = 0.17990665795209217
K_5HALF_AT_0_7 = 8.4863415928013836
K_7HALF_AT_0_001 = 594499035190.997
K_7HALF_AT_7 = 0.00095334765937837541
K_7HALF_AT_50 = 3.8497764618961209e-23
K_1_2_AT_0_5 = 2.1086579232338186
K_4_8_AT_3_3 = 0.42053859838987891


def reg_lower_inc_gamma(shape, x):
    """P(shape, x) as the package evaluates it: the mixture CDF of an always-wet
    law whose gamma part has this shape and unit scale."""
    return mixture_cdf(1.0, shape, 1.0 / shape, x)


class TestRegLowerIncGamma:
    def test_exponential_cdf(self):
        assert reg_lower_inc_gamma(1.0, 1.0) == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)

    def test_zero(self):
        assert reg_lower_inc_gamma(3.7, 0.0) == 0.0

    def test_quadrature_oracle(self):
        assert reg_lower_inc_gamma(2.5, 3.7) == pytest.approx(P_2_5_AT_3_7, abs=1e-10)

    def test_monotone_and_limit(self):
        rng = np.random.default_rng(7)
        for s in rng.uniform(0.2, 8.0, size=20):
            x = np.linspace(0.0, 50.0 * s, 300)
            vals = reg_lower_inc_gamma(s, x)
            assert np.all(np.diff(vals) >= -1e-15)
            # the exact tail at x = 50 s is ~1e-6 for the smallest shapes
            assert vals[-1] == pytest.approx(1.0, abs=1e-4)
            assert reg_lower_inc_gamma(s, 50.0 * s + 200.0) == pytest.approx(1.0, abs=1e-10)

    def test_domain_errors(self):
        # shape 0 is an infinite dispersion, which the law rejects
        with pytest.raises(ValueError):
            GammaMixture(p=1.0, mu=1.0, phi=np.inf)
        with pytest.raises(ValueError):
            reg_lower_inc_gamma(1.0, -0.5)


class TestBesselK:
    def test_closed_form_half(self):
        assert special.kv(0.5, 1.0) == pytest.approx(K_HALF_AT_1, rel=1e-12)

    def test_recurrence_oracle_3half(self):
        assert special.kv(1.5, 2.0) == pytest.approx(K_3HALF_AT_2, rel=1e-12)

    def test_half_integer_spot_values(self):
        assert special.kv(2.5, 0.7) == pytest.approx(K_5HALF_AT_0_7, rel=1e-9)
        assert special.kv(3.5, 7.0) == pytest.approx(K_7HALF_AT_7, rel=1e-9)
        assert special.kv(3.5, 50.0) == pytest.approx(K_7HALF_AT_50, rel=1e-9)

    def test_small_argument_large_value(self):
        # ratio to the mpmath oracle within 1e-6
        assert special.kv(3.5, 0.001) / K_7HALF_AT_0_001 == pytest.approx(1.0, abs=1e-6)

    def test_general_order(self):
        assert special.kv(1.2, 0.5) == pytest.approx(K_1_2_AT_0_5, rel=1e-9)
        assert special.kv(4.8, 3.3) == pytest.approx(K_4_8_AT_3_3, rel=1e-9)

    def test_against_upward_recurrence(self):
        # K_{v+1}(x) = K_{v-1}(x) + (2v/x) K_v(x), seeded from the exact
        # K_{1/2} closed form: an independent route to nu = 3.5.
        rng = np.random.default_rng(3)
        for x in rng.uniform(1e-4, 50.0, size=50):
            k_m = np.sqrt(np.pi / (2.0 * x)) * np.exp(-x)  # K_{-1/2} = K_{1/2}
            k_0 = k_m
            for v in (0.5, 1.5, 2.5):
                k_m, k_0 = k_0, k_m + (2.0 * v / x) * k_0
            assert special.kv(3.5, x) == pytest.approx(k_0, rel=1e-9)

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(11)
        for nu in (0.5, 1.5, 2.5, 3.5, 1.7):
            x = np.sort(rng.uniform(1e-3, 30.0, size=50))
            vals = np.atleast_1d(special.kv(nu, x))
            assert np.all(np.diff(vals) < 0.0)

    def test_overflow_signal(self):
        # below nu = 1 the kernel evaluates K_nu at every x > 0; at x ~ 1.4e-315
        # K_0.99 is beyond double range, and the kernel says so
        with pytest.raises(OverflowError, match="overflows double precision"):
            matern_kernel(np.array([0.0, 1e-15, 1.0]), MaternParams(theta=1e300, nu=0.99))

    def test_domain_errors(self):
        # the kernel's orders are (0, 10]; K_nu at its smallest argument stays finite there
        for nu in (0.0, -1.0, 10.5, np.inf, np.nan):
            with pytest.raises(ValueError):
                MaternParams(theta=1.0, nu=nu)
        assert np.isfinite(special.kv(10.0, 1e-8))
        with pytest.raises(ValueError):
            matern_kernel(-1.0, MaternParams(theta=1.0, nu=1.2))


class TestSpdFactorize:
    def test_identity(self):
        f = spd_factorize(np.eye(5))
        assert f.jitter_applied == 0.0
        assert np.array_equal(f.lower, np.eye(5))

    def test_matern_points(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 3.0, size=(20, 2))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        x = np.sqrt(7.0) * d
        sigma = np.exp(-x) * (1.0 + x + 0.4 * x ** 2 + x ** 3 / 15.0)
        np.fill_diagonal(sigma, 1.0)
        assert np.linalg.eigvalsh(sigma)[0] > 0.0  # eigenvalue oracle
        f = spd_factorize(sigma)
        assert f.jitter_applied <= 1e-8
        recon = f.lower @ f.lower.T
        assert np.allclose(recon, sigma, atol=f.jitter_applied + 1e-10)
        assert np.all(np.diag(f.lower) > 0.0)

    def test_negative_eigenvalue_rejected(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = (q * np.array([1.0, 0.7, 0.3, -0.1])) @ q.T
        a = 0.5 * (a + a.T)
        with pytest.raises(NotPositiveDefinite):
            spd_factorize(a)

    def test_asymmetric_rejected(self):
        a = np.eye(3)
        a[0, 1] = 1e-3
        with pytest.raises(ValueError):
            spd_factorize(a)

    def test_jitter_retry_holds_one_copy(self, traced_peak):
        # a rank-5 correlation matrix: the plain factor fails and 1e-10 jitter takes
        n = 300
        v = np.random.default_rng(17).standard_normal((n, 5))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        a = v @ v.T
        a = 0.5 * (a + a.T)
        np.fill_diagonal(a, 1.0)
        peak, f = traced_peak(lambda: spd_factorize(a))
        assert f.jitter_applied == 1e-10
        assert peak <= 2.1 * n * n * 8  # the jittered copy and the factor
        assert np.linalg.cholesky(a + 1e-10 * np.eye(n)).tobytes() == f.lower.tobytes()

    def test_gram_plus_ridge_needs_no_jitter(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            b = rng.standard_normal((8, 8))
            a = b @ b.T + 1e-6 * np.eye(8)
            assert spd_factorize(a).jitter_applied == 0.0


class TestIsSymmetric:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 2, 5, 81, 82, 150]), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 1e-13, 1e-12, 2e-12, 1e-6]),
           st.sampled_from([None, np.nan, np.inf, -np.inf]), st.booleans())
    def test_same_answer_as_allclose(self, n, seed, noise, special, mirrored):
        # n = 82 and 150 span several row blocks; the noise straddles the tolerance
        rng = np.random.default_rng(seed)
        a = rng.uniform(-3.0, 3.0, (n, n))
        a += a.T
        i, j = rng.integers(0, n, 2)
        a[i, j] += noise * rng.choice([-1.0, 1.0]) * rng.choice([1.0, abs(a[i, j])])
        if special is not None:
            a[i, j] = special
            if mirrored:
                a[j, i] = special
        assert is_symmetric(a) == np.allclose(a, a.T, rtol=1e-12, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([1, 2, 3, 40, 82, 150]), st.integers(0, 2**32 - 1),
           st.integers(0, 3), st.booleans(), st.sampled_from([None, np.nan, np.inf, -np.inf]))
    def test_exact_blocks_same_answer_as_allclose(self, n, seed, edits, mirrored, special):
        # an exactly symmetric matrix of cells that tie, differ only in the sign
        # of zero or straddle the tolerance, with a few cells changed and perhaps
        # one non-finite pair: each block passes on its exact test or falls back
        # to np.isclose, and the answer is allclose's either way
        rng = np.random.default_rng(seed)
        pool = np.array([0.0, -0.0, 1.0, 1.0 + 5e-13, 1.0 + 3e-12, 2.0, 5e-13])
        a = rng.choice(pool, (n, n))
        a = np.where(np.triu(np.ones((n, n), dtype=bool)), a, a.T)
        for _ in range(edits):
            a[tuple(rng.integers(0, n, 2))] = rng.choice(pool)
        if special is not None:
            i, j = rng.integers(0, n, 2)
            a[i, j] = special
            if mirrored:
                a[j, i] = special
        assert is_symmetric(a) == np.allclose(a, a.T, 1e-12, 1e-12)
