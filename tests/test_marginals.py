"""Mixture-law and joint-fit tests.

The frozen constants come from 40-digit mpmath evaluation (quadrature of the
gamma density for the CDF case, the log-density formula evaluated directly
for the likelihood case); synthetic-recovery truths are known by
construction.
"""

import re
from dataclasses import astuple

import numpy as np
import pytest
from scipy import integrate, optimize, stats
from scipy.special import digamma, expit, logit

from raincop import marginals
from raincop.marginals import (GammaMixture, IdentityTransform, JglmCoefficients,
                               MarginalField, StandardizeTransform, _joint_loss,
                               jglm_fit, mixture_cdf, mixture_quantile,
                               predict_field, read_coefficients, write_coefficients)
from raincop.panel import IngestError

GM_CDF_CASE = 0.87261367275819719     # p=.5, mu=3, phi=.5 at y=4 (quadrature)
GAMMA_NLL_CASE = 1.4511163689897168   # mu=3, phi=.5 at y=2 (direct formula)


def observation_loss(y, p, mu, phi):
    """Joint loss of one intercept-only observation under the law (p, mu, phi)."""
    vec = np.array([logit(p), np.log(mu), np.log(phi)])
    y = np.array([y], dtype=float)
    loss, _ = _joint_loss(vec, np.empty((1, 0)), y, y > 0, 0, want_grad=False)
    return loss


class TestGmCdf:
    """mixture_cdf of one law, its p, mu and phi passed as scalars."""

    def test_pure_exponential(self):
        law = GammaMixture(p=1.0, mu=2.0, phi=1.0)
        assert mixture_cdf(*astuple(law), 2.0) == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)

    def test_mass_at_zero_exact(self):
        law = GammaMixture(p=0.3, mu=5.0, phi=2.0)
        assert mixture_cdf(*astuple(law), 0.0) == 1.0 - 0.3

    def test_quadrature_oracle(self):
        law = GammaMixture(p=0.5, mu=3.0, phi=0.5)
        assert mixture_cdf(*astuple(law), 4.0) == pytest.approx(GM_CDF_CASE, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            mixture_cdf(0.5, 1.0, 1.0, -0.1)

    def test_monotone_to_one(self):
        law = GammaMixture(p=0.7, mu=2.5, phi=0.8)
        y = np.linspace(0.0, 200.0, 500)
        vals = np.array([mixture_cdf(*astuple(law), v) for v in y])
        assert np.all(np.diff(vals) >= -1e-15)
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)

    def test_pdf_integrates_to_p(self):
        # a wet observation's likelihood exp(-loss) is the continuous part p * f(y)
        total, err = integrate.quad(lambda y: np.exp(-observation_loss(y, 0.6, 3.0, 1.2)),
                                    0.0, np.inf)
        assert total == pytest.approx(0.6, abs=1e-6)


class TestGmQuantile:
    """mixture_quantile of one law, its p, mu and phi passed as scalars."""

    def test_below_mass(self):
        assert mixture_quantile(0.3, 1.0, 1.0, 0.5) == 0.0

    def test_exponential_inverse(self):
        law = GammaMixture(p=1.0, mu=2.0, phi=1.0)
        assert mixture_quantile(*astuple(law), 1.0 - np.exp(-1.0)) == pytest.approx(2.0, abs=1e-8)

    def test_round_trip_bisection_case(self):
        law = GammaMixture(p=0.8, mu=5.0, phi=0.7)
        y = mixture_quantile(*astuple(law), 0.95)
        assert mixture_cdf(*astuple(law), y) == pytest.approx(0.95, abs=1e-9)

    def test_round_trip_grid(self):
        law = GammaMixture(p=0.3, mu=2.0, phi=1.5)
        for u in (0.701, 0.9, 0.99, 1.0 - 1e-6):
            y = mixture_quantile(*astuple(law), u)
            assert mixture_cdf(*astuple(law), y) == pytest.approx(u, abs=1e-8)


class TestGmSample:
    """Draws from one law: mixture_quantile at uniform draws."""

    def test_p_zero_always_dry(self):
        law = GammaMixture(p=0.0, mu=1.0, phi=1.0)
        rng = np.random.default_rng(0)
        draws = mixture_quantile(*astuple(law), rng.random(1000))
        assert np.all(draws == 0.0)

    def test_mc_mean(self):
        law = GammaMixture(p=1.0, mu=2.0, phi=1.0)  # exponential, sd = 2
        draws = mixture_quantile(*astuple(law), np.random.default_rng(1).random(100_000))
        assert draws.mean() == pytest.approx(2.0, abs=3.0 * 2.0 / np.sqrt(100_000))

    def test_dry_fraction_binomial(self):
        law = GammaMixture(p=0.6, mu=3.0, phi=1.2)
        draws = mixture_quantile(*astuple(law), np.random.default_rng(2).random(100_000))
        dry = np.mean(draws == 0.0)
        sigma = np.sqrt(0.4 * 0.6 / 100_000)
        assert dry == pytest.approx(0.4, abs=3.0 * sigma)

    def test_determinism(self):
        law = GammaMixture(p=0.5, mu=1.0, phi=0.5)
        a = mixture_quantile(*astuple(law), np.random.default_rng(7).random(50))
        b = mixture_quantile(*astuple(law), np.random.default_rng(7).random(50))
        assert np.array_equal(a, b)


class TestLosses:
    """Terms of the joint loss, isolated on one intercept-only observation."""

    def test_logistic_values(self):
        # the gamma term of a wet observation comes from scipy's gamma density
        def gamma_term(y, mu, phi):
            return -stats.gamma.logpdf(y, a=1.0 / phi, scale=phi * mu)
        assert observation_loss(0.0, 0.5, 2.0, 0.7) == pytest.approx(np.log(2.0), abs=1e-12)
        assert (observation_loss(3.2, 0.5, 2.0, 0.7) - gamma_term(3.2, 2.0, 0.7)
                == pytest.approx(np.log(2.0), abs=1e-12))
        assert (observation_loss(1.0, 0.9, 1.0, 1.0) - gamma_term(1.0, 1.0, 1.0)
                == pytest.approx(-np.log(0.9), abs=1e-12))

    def test_logistic_clipping(self):
        # p rounds to 0 (wet) or to 1 (dry); the clip keeps the loss finite
        for alpha0, y in ((-800.0, 1.0), (800.0, 0.0)):
            y = np.array([y])
            loss, _ = _joint_loss(np.array([alpha0, 0.0, 0.0]), np.empty((1, 0)), y, y > 0,
                                  0, want_grad=False)
            assert np.isfinite(loss)

    def test_gamma_nll_values(self):
        # at p = 1/2 the occurrence term of a wet observation is exactly log 2
        assert observation_loss(1.0, 0.5, 1.0, 1.0) - np.log(2.0) == pytest.approx(
            1.0, abs=1e-12)
        assert observation_loss(2.0, 0.5, 2.0, 1.0) - np.log(2.0) == pytest.approx(
            1.0 + np.log(2.0), abs=1e-12)
        assert observation_loss(2.0, 0.5, 3.0, 0.5) - np.log(2.0) == pytest.approx(
            GAMMA_NLL_CASE, abs=1e-10)

    def test_dry_loss_is_logistic_only(self):
        # per-observation joint loss at y = 0 has no gamma term
        coeffs = JglmCoefficients(alpha0=0.4, alpha=[0.2], beta0=0.1, beta=[-0.3],
                                  gamma0=-0.2, gamma=[0.5])
        z = np.array([[1.3]])
        y = np.array([0.0])
        loss, _ = _joint_loss(coeffs.pack(), z, y, y > 0, 1, want_grad=False)
        p = expit(0.4 + 0.2 * 1.3)
        assert loss == pytest.approx(-np.log(1.0 - p), abs=1e-12)


class TestPredictField:
    """The link map on one feature row: logit p, log mu and log phi."""

    @staticmethod
    def law(features, coeffs):
        z = np.asarray(features, dtype=float).reshape(1, -1)
        field = predict_field(coeffs, IdentityTransform(), z, 1, 1)
        return GammaMixture(p=field.p[0, 0], mu=field.mu[0, 0], phi=field.phi[0, 0])

    def test_links_at_zero(self):
        law = self.law(np.zeros(2), JglmCoefficients.zeros(2))
        assert (law.p, law.mu, law.phi) == (0.5, 1.0, 1.0)

    def test_intercept_only(self):
        coeffs = JglmCoefficients(alpha0=2.0, alpha=[], beta0=0.0, beta=[],
                                  gamma0=0.0, gamma=[])
        law = self.law(np.empty(0), coeffs)
        assert law.p == pytest.approx(1.0 / (1.0 + np.exp(-2.0)), abs=1e-12)

    def test_hand_link_inversion(self):
        coeffs = JglmCoefficients(alpha0=0.3, alpha=[0.5, -0.2], beta0=1.0,
                                  beta=[0.1, 0.4], gamma0=-0.5, gamma=[0.2, 0.0])
        z = np.array([0.7, -1.1])
        law = self.law(z, coeffs)
        assert law.p == pytest.approx(expit(0.3 + 0.5 * 0.7 - 0.2 * -1.1), rel=1e-12)
        assert law.mu == pytest.approx(np.exp(1.0 + 0.1 * 0.7 + 0.4 * -1.1), rel=1e-12)
        assert law.phi == pytest.approx(np.exp(-0.5 + 0.2 * 0.7), rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            self.law(np.zeros(3), JglmCoefficients.zeros(2))


TRUTH = JglmCoefficients(alpha0=0.25, alpha=[0.5, -0.35, 0.3],
                         beta0=0.6, beta=[0.25, -0.15, 0.35],
                         gamma0=-0.6, gamma=[0.15, 0.1, -0.12])


def synthetic_observations(n_obs=5000, seed=4):
    rng = np.random.default_rng(seed)
    x = 1.5 * rng.standard_normal((n_obs, 3))
    p = expit(TRUTH.alpha0 + x @ TRUTH.alpha)
    mu = np.exp(TRUTH.beta0 + x @ TRUTH.beta)
    phi = np.exp(TRUTH.gamma0 + x @ TRUTH.gamma)
    wet = rng.random(n_obs) < p
    shape = 1.0 / phi
    y = np.where(wet, rng.gamma(shape, phi * mu), 0.0)
    # avoid exact-zero positives from floating underflow
    y[wet] = np.maximum(y[wet], 1e-12)
    return x, y


def lbfgs_reference(x, y):
    """Maximum-likelihood [intercept, slopes] of alpha, beta and gamma on raw features.

    An independent reference for jglm_fit: the occurrence and amount terms
    share no coefficient, so each is minimized apart by L-BFGS-B with its own
    analytic gradient.
    """
    z = np.column_stack([np.ones(len(x)), x])
    wet = y > 0.0
    zw, yw = z[wet], y[wet]
    d1 = z.shape[1]

    def occurrence(a):
        t = z @ a
        return np.logaddexp(0.0, t).sum() - t[wet].sum(), z.T @ (expit(t) - wet)

    def amount(v):
        mu, phi = np.exp(zw @ v[:d1]), np.exp(zw @ v[d1:])
        k, r = 1.0 / phi, yw / mu
        nll = -stats.gamma.logpdf(yw, a=k, scale=phi * mu).sum()
        d_log_mu = k * (1.0 - r)
        d_log_phi = k * (np.log(k * r) + 1.0 - r - digamma(k))
        return nll, np.concatenate([zw.T @ d_log_mu, zw.T @ d_log_phi])

    opts = {"gtol": 1e-10, "ftol": 1e-16, "maxiter": 20_000}
    a = optimize.minimize(occurrence, np.zeros(d1), jac=True, method="L-BFGS-B",
                          options=opts).x
    bg = optimize.minimize(amount, np.zeros(2 * d1), jac=True, method="L-BFGS-B",
                           options=opts).x
    return np.concatenate([a, bg])


def raw_coefficients(fit):
    """The fit's [intercept, slopes] of alpha, beta and gamma on the raw features."""
    c, t = fit.coeffs, fit.transform
    out = []
    for v0, v in ((c.alpha0, c.alpha), (c.beta0, c.beta), (c.gamma0, c.gamma)):
        if t.name == "standardize":
            v = v / t.scale
            v0 = v0 - v @ t.mean
        out += [v0, *v]
    return np.array(out)


class TestJglmFit:
    def test_synthetic_recovery(self):
        x, y = synthetic_observations()
        fit = jglm_fit(x, y, IdentityTransform())
        truth = TRUTH.pack()
        assert fit.converged
        assert np.all(np.abs(fit.coeffs.pack() - truth) <= 0.05)

    @pytest.mark.parametrize("transform", [IdentityTransform, StandardizeTransform])
    def test_matches_lbfgs_reference(self, transform):
        x, y = synthetic_observations(n_obs=3000, seed=11)
        x = 2.5 * x + 1.0  # shifted/scaled features exercise standardization
        fit = jglm_fit(x, y, transform())
        assert fit.converged
        assert fit.grad_norm <= marginals.GRAD_TOL * y.size
        assert np.max(np.abs(raw_coefficients(fit) - lbfgs_reference(x, y))) <= 1e-6

    def test_intercept_only_closed_forms(self):
        _, y = synthetic_observations(n_obs=2000, seed=6)
        fit = jglm_fit(np.empty((y.size, 0)), y)
        wet = y > 0.0
        assert fit.converged
        assert fit.coeffs.alpha0 == pytest.approx(logit(wet.mean()), abs=1e-9)
        assert fit.coeffs.beta0 == pytest.approx(np.log(y[wet].mean()), abs=1e-9)

    def test_all_dry_rejected(self):
        x = np.zeros((10, 1))
        with pytest.raises(ValueError):
            jglm_fit(x, np.zeros(10))
        with pytest.raises(ValueError):
            jglm_fit(x, np.ones(10))

    def test_loss_path_monotone(self):
        x, y = synthetic_observations(n_obs=800, seed=3)
        fit = jglm_fit(x, y)
        path = np.array(fit.loss_path)
        assert np.all(np.diff(path) <= 1e-9)
        assert fit.final_loss <= path[0]

    def test_transform_equivalence(self):
        x, y = synthetic_observations(n_obs=3000, seed=5)
        x = 2.5 * x + 1.0  # shifted/scaled features exercise standardization
        fit_id = jglm_fit(x, y, IdentityTransform())
        fit_st = jglm_fit(x, y, StandardizeTransform())
        p_id = predict_field(fit_id.coeffs, fit_id.transform, x, x.shape[0], 1).p
        p_st = predict_field(fit_st.coeffs, fit_st.transform, x, x.shape[0], 1).p
        assert np.max(np.abs(p_id - p_st)) < 1e-7

    def test_cap_flags_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(marginals, "MAX_ITER", 3)
        x, y = synthetic_observations(n_obs=500, seed=9)
        with pytest.warns(RuntimeWarning):
            fit = jglm_fit(x, y)
        assert not fit.converged
        assert fit.n_iter == 3
        assert fit.grad_norm > marginals.GRAD_TOL * y.size


class TestFieldAndSerialization:
    def test_homogeneous_field(self):
        law = GammaMixture(p=0.6, mu=3.0, phi=1.2)
        field = MarginalField.homogeneous(law, 4, 7)
        assert field.n_locations == 4 and field.n_days == 7
        assert (field.p[5, 2], field.mu[5, 2], field.phi[5, 2]) == (0.6, 3.0, 1.2)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            MarginalField(np.full((2, 2), 1.5), np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            MarginalField(np.full((2, 2), 0.5), np.zeros((2, 2)), np.ones((2, 2)))

    def test_coefficients_round_trip(self, tmp_path):
        x, _ = synthetic_observations(n_obs=50, seed=1)
        transform = StandardizeTransform().fit(x)
        path = tmp_path / "coefficients.txt"
        write_coefficients(path, TRUTH, transform)
        coeffs, loaded = read_coefficients(path)
        assert np.array_equal(coeffs.pack(), TRUTH.pack())
        assert loaded.name == "standardize"
        assert np.array_equal(loaded.mean, transform.mean)
        assert np.array_equal(loaded.scale, transform.scale)

    def test_identity_round_trip(self, tmp_path):
        path = tmp_path / "coefficients.txt"
        coeffs = JglmCoefficients(alpha0=1.0, alpha=[], beta0=-2.0, beta=[],
                                  gamma0=0.25, gamma=[])
        write_coefficients(path, coeffs, IdentityTransform())
        back, transform = read_coefficients(path)
        assert np.array_equal(back.pack(), coeffs.pack())
        assert transform.name == "identity"

    def test_missing_key_names_file_and_key(self, tmp_path):
        path = tmp_path / "coefficients.txt"
        write_coefficients(path, TRUTH, IdentityTransform())
        lines = path.read_text().splitlines()
        path.write_text("\n".join(line for line in lines if not line.startswith("gamma0=")))
        with pytest.raises(IngestError, match=r"coefficients\.txt: missing key 'gamma0'"):
            read_coefficients(path)

    @pytest.mark.parametrize("key, bad", [("alpha0", "abc"), ("beta.1", "x"),
                                          ("feature_dim", "2.5")])
    def test_malformed_value_names_file_line_and_key(self, tmp_path, key, bad):
        path = tmp_path / "coefficients.txt"
        write_coefficients(path, TRUTH, IdentityTransform())
        lines = path.read_text().splitlines()
        line_no = next(i for i, line in enumerate(lines, 1) if line.startswith(key + "="))
        lines[line_no - 1] = f"{key}={bad}"
        path.write_text("\n".join(lines) + "\n")
        message = f"coefficients.txt: line {line_no}: invalid value '{bad}' for {key}"
        with pytest.raises(IngestError, match=re.escape(message)):
            read_coefficients(path)

    def test_repeated_key_names_file_and_both_lines(self, tmp_path):
        # a pasted or merged file may not silently change the model
        path = tmp_path / "coefficients.txt"
        write_coefficients(path, TRUTH, IdentityTransform())
        lines = path.read_text().splitlines()
        first = next(i for i, line in enumerate(lines, 1) if line.startswith("alpha0="))
        path.write_text("\n".join(lines) + "\nalpha0=5.0\n")
        message = f"coefficients.txt: line {len(lines) + 1}: alpha0 repeats line {first}"
        with pytest.raises(IngestError, match=re.escape(message)):
            read_coefficients(path)
