"""Distance blending and Matérn covariance tests."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from raincop.numerics import NotPositiveDefinite, spd_factorize
from raincop.spatial import (DistanceMatrix, LocationTable,
                             MaternParams, build_covariance, build_distance_matrix,
                             matern_kernel, read_locations, repaired_correlation,
                             write_locations)

MATERN_3_5_AT_450_450 = 0.54494244711287479  # mpmath evaluation of the kernel formula


def uk_locations(n, seed, elev_lo=200.0, elev_hi=200.0):
    rng = np.random.default_rng(seed)
    return LocationTable(
        ids=tuple(f"s{i:04d}" for i in range(n)),
        lat=rng.uniform(49.9, 58.7, size=n),
        lon=rng.uniform(-8.2, 1.8, size=n),
        elev=rng.uniform(elev_lo, elev_hi, size=n),
    )


class TestLocationTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            LocationTable(ids=("a", "a"), lat=[0.0, 1.0], lon=[0.0, 1.0], elev=[0.0, 1.0])
        with pytest.raises(ValueError):
            LocationTable(ids=("a", "b"), lat=[0.0, 95.0], lon=[0.0, 1.0], elev=[0.0, 1.0])
        with pytest.raises(ValueError):
            LocationTable(ids=("a", "b"), lat=[0.0, 1.0], lon=[0.0, 200.0], elev=[0.0, 1.0])

    def test_csv_round_trip(self, tmp_path):
        locs = uk_locations(5, 3, 0.0, 1000.0)
        path = tmp_path / "locations.csv"
        write_locations(path, locs)
        back = read_locations(path)
        assert back.ids == locs.ids
        assert np.array_equal(back.lat, locs.lat)
        assert np.array_equal(back.elev, locs.elev)

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "locations.csv"
        path.write_text("id,lat,lon\nx,1,2\n")
        with pytest.raises(ValueError):
            read_locations(path)

    @pytest.mark.parametrize("bad", ["a,b", " c", "c ", "a\nb", "a\rb", "\tc", "c\x1c"])
    def test_unreadable_id_writes_no_file(self, tmp_path, bad):
        # read_locations would split the row, strip the id or lose its line end
        locs = LocationTable(ids=("s0", bad), lat=[50.0, 51.0], lon=[0.0, 1.0],
                             elev=[0.0, 10.0])
        path = tmp_path / "locations.csv"
        with pytest.raises(ValueError, match=f"location ids \\[{re.escape(repr(bad))}\\]"):
            write_locations(path, locs)
        assert not path.exists()


class TestDistanceMatrix:
    def test_duplicate_locations_warn(self):
        locs = LocationTable(ids=("a", "b"), lat=[50.0, 50.0], lon=[1.0, 1.0],
                             elev=[10.0, 10.0])
        with pytest.warns(UserWarning):
            d = build_distance_matrix(locs, a=0.9)
        assert d.values[0, 1] == 0.0

    def test_blend_endpoint_geo(self):
        locs = LocationTable(ids=("a", "b"), lat=[50.0, 53.0], lon=[0.0, 4.0],
                             elev=[0.0, 700.0])
        d = build_distance_matrix(locs, a=1.0)
        assert d.values[0, 1] == pytest.approx(5.0, rel=1e-12)  # 3-4-5 triangle

    def test_three_point_hand_case(self):
        # spreadsheet-style arithmetic: a = 0.9, topo_scale = 70
        locs = LocationTable(ids=("a", "b", "c"), lat=[50.0, 51.0, 53.0],
                             lon=[0.0, 1.0, -1.0], elev=[100.0, 240.0, 30.0])
        d = build_distance_matrix(locs, a=0.9).values
        assert d[0, 1] == pytest.approx(0.9 * np.sqrt(2.0) + 0.1 * 140.0 / 70.0, rel=1e-12)
        assert d[0, 2] == pytest.approx(0.9 * np.sqrt(10.0) + 0.1 * 70.0 / 70.0, rel=1e-12)
        assert d[1, 2] == pytest.approx(0.9 * np.sqrt(8.0) + 0.1 * 210.0 / 70.0, rel=1e-12)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    def test_allocates_two_matrices(self, traced_peak):
        # the blend is built in two n x n arrays; the checks take blocks of rows
        n = 300
        locs = uk_locations(n, 2, 0.0, 1500.0)
        peak, _ = traced_peak(lambda: build_distance_matrix(locs))
        assert peak <= 2.5 * n * n * 8

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 0.9, 1.0]),
           st.sampled_from([1.0, 70.0, 333.3]), st.booleans())
    def test_matches_broadcast_formula_bitwise(self, n, seed, a, topo_scale, duplicate):
        # the blend as whole-matrix expressions, as before it was built in place
        locs = uk_locations(n, seed, 0.0, 2000.0)
        if duplicate:
            locs = LocationTable(ids=locs.ids, lat=np.append(locs.lat[:-1], locs.lat[0]),
                                 lon=np.append(locs.lon[:-1], locs.lon[0]),
                                 elev=np.append(locs.elev[:-1], locs.elev[0]))
        xy = np.column_stack([locs.lat, locs.lon])
        diff = xy[:, None, :] - xy[None, :, :]
        d_geo = np.sqrt((diff ** 2).sum(axis=2))
        d_topo = np.abs(locs.elev[:, None] - locs.elev[None, :])
        want = a * d_geo + (1.0 - a) * d_topo / topo_scale
        np.fill_diagonal(want, 0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = build_distance_matrix(locs, a=a, topo_scale=topo_scale).values
        assert np.array_equal(got, want)
        assert len(caught) == int(duplicate)  # the zero off-diagonal count, not the diagonal

    def test_elevation_only_blend(self):
        # a = 0: perturbing lat/lon leaves the covariance unchanged
        rng = np.random.default_rng(0)
        locs = uk_locations(8, 1, 0.0, 5000.0)
        moved = LocationTable(ids=locs.ids,
                              lat=locs.lat + rng.uniform(-1, 1, 8),
                              lon=locs.lon + rng.uniform(-1, 1, 8),
                              elev=locs.elev)
        params = MaternParams(theta=30.0)
        sig_a = build_covariance(build_distance_matrix(locs, a=0.0), params).sigma
        sig_b = build_covariance(build_distance_matrix(moved, a=0.0), params).sigma
        assert np.array_equal(sig_a, sig_b)


class TestMaternKernel:
    def test_unit_at_zero(self):
        for nu in (0.5, 1.5, 3.5, 1.3):
            assert matern_kernel(0.0, MaternParams(theta=450.0, nu=nu)) == 1.0

    def test_exponential_special_case(self):
        # nu = 1/2 reduces to exp(-sqrt(2 nu) d / theta) = exp(-d/theta)
        val = matern_kernel(1.0, MaternParams(theta=1.0, nu=0.5))
        assert val == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_bessel_formula_oracle(self):
        # evaluate the general kernel formula through scipy's K_nu (a different
        # code path from the half-integer polynomial used in production)
        params = MaternParams(theta=450.0, nu=3.5)
        got = matern_kernel(450.0, params)
        x = np.sqrt(7.0) * 450.0 / 450.0
        want = 2.0 ** (1.0 - 3.5) / math.gamma(3.5) * x ** 3.5 * special.kv(3.5, x)
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(MATERN_3_5_AT_450_450, rel=1e-12)

    def test_half_vs_general_paths_agree(self):
        d = np.linspace(10.0, 2000.0, 40)
        half = matern_kernel(d, MaternParams(theta=450.0, nu=3.5))
        near = matern_kernel(d, MaternParams(theta=450.0, nu=3.5 + 1e-9))
        assert np.allclose(half, near, atol=1e-7)

    def test_strict_monotonicity(self):
        rng = np.random.default_rng(17)
        params = MaternParams(theta=300.0, nu=3.5)
        for _ in range(200):
            d1, d2 = np.sort(rng.uniform(0.0, 2500.0, size=2))
            if d2 - d1 < 1e-6:
                continue
            assert matern_kernel(d1, params) > matern_kernel(d2, params)

    @pytest.mark.parametrize("nu", [0.5, 2.2, 3.5])
    def test_overflowing_argument_gives_zero(self, nu):
        # sqrt(2 nu) d / theta overflows (or its power does): 0, not NaN
        got = matern_kernel(np.array([0.0, 1.0, 100.0]), MaternParams(theta=1e-300, nu=nu))
        assert np.array_equal(got, [1.0, 0.0, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.05, 9.9).filter(lambda nu: abs(nu - round(nu - 0.5) - 0.5) > 1e-6),
           st.floats(1e-3, 1e4), st.integers(0, 2**32 - 1))
    def test_general_order_matches_whole_array_expression(self, nu, theta, seed):
        # the x^nu K_nu(x) product as one expression, as before it was built in place
        d = np.random.default_rng(seed).uniform(0.0, 3000.0, 60)
        d[:3] = 0.0, 1e-9 * theta, 1e9
        x = np.minimum(np.sqrt(2.0 * nu) * d / theta, 1e3)
        pos = x > 1e-8 if nu >= 1.0 else x > 0.0
        log_pref = (1.0 - nu) * np.log(2.0) - special.gammaln(nu)
        want = np.ones_like(x)
        with np.errstate(under="ignore"):
            want[pos] = np.exp(log_pref + nu * np.log(x[pos])) * special.kv(nu, x[pos])
        got = matern_kernel(d, MaternParams(theta=theta, nu=nu))
        assert got.tobytes() == np.clip(want, 0.0, 1.0).tobytes()

    def test_nu_above_ten_rejected(self):
        # orders end at 10, where K_nu(1e-8) is finite; one rule for both kernel forms
        MaternParams(theta=1.0, nu=10.0)
        for nu in (10.5, 12.3, 100.5):
            with pytest.raises(ValueError, match="nu must be at most 10"):
                MaternParams(theta=1.0, nu=nu)

    def test_theta_monotonicity(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            t1, t2 = np.sort(rng.uniform(50.0, 2000.0, size=2))
            if t2 - t1 < 1e-9:
                continue
            d = rng.uniform(1.0, 1000.0)
            assert (matern_kernel(d, MaternParams(theta=t2))
                    > matern_kernel(d, MaternParams(theta=t1)))


class TestBuildCovariance:
    def test_single_location(self):
        d = DistanceMatrix(values=np.zeros((1, 1)))
        cov = build_covariance(d, MaternParams(theta=450.0))
        assert np.array_equal(cov.sigma, np.ones((1, 1)))

    def test_tiny_lengthscale_limit(self):
        locs = uk_locations(6, 5)
        dist = build_distance_matrix(locs, a=0.9)
        off = dist.values[~np.eye(6, dtype=bool)]
        params = MaternParams(theta=1e-6 * off.min())
        cov = build_covariance(dist, params)
        off_sigma = cov.sigma[~np.eye(6, dtype=bool)]
        assert np.all(off_sigma < 1e-8)
        assert np.all(np.diag(cov.sigma) == 1.0)

    def test_uk_box_pd_with_small_jitter(self):
        # constant elevations: the blend degenerates to a scaled Euclidean
        # metric, the geometry class where the kernel matrix is valid
        locs = uk_locations(50, 7)
        dist = build_distance_matrix(locs, a=0.9)
        cov = build_covariance(dist, MaternParams(theta=450.0))
        assert cov.factor.jitter_applied <= 1e-8
        assert np.linalg.eigvalsh(cov.sigma)[0] > -1e-12  # eigenvalue oracle
        assert np.all(np.diag(cov.sigma) == 1.0)

    def test_permutation_commutes(self):
        locs = uk_locations(9, 11, 0.0, 3000.0)
        perm = np.random.default_rng(1).permutation(9)
        dist = build_distance_matrix(locs, a=0.9)
        cov = build_covariance(dist, MaternParams(theta=5.0))
        cov_p = build_covariance(
            build_distance_matrix(locs.subset(perm), a=0.9), MaternParams(theta=5.0))
        assert np.allclose(cov_p.sigma, cov.sigma[np.ix_(perm, perm)], atol=1e-12)

    def test_repair_restores_validity(self):
        # independent elevations at resolved scales: structurally indefinite
        locs = uk_locations(40, 13, 0.0, 8e5)
        dist = build_distance_matrix(locs, a=0.9)
        raw = matern_kernel(dist.values.ravel(),
                            MaternParams(theta=450.0)).reshape(40, 40)
        np.fill_diagonal(raw, 1.0)
        with pytest.raises(NotPositiveDefinite):
            spd_factorize(raw)
        cov = build_covariance(dist, MaternParams(theta=450.0))
        assert cov.factor.jitter_applied <= 1e-8
        assert np.all(np.diag(cov.sigma) == 1.0)
        # projection stays close to the raw kernel matrix
        assert np.max(np.abs(cov.sigma - raw)) < 0.05

    def test_repaired_correlation_noop_when_valid(self):
        sig = np.eye(4) * 0.2 + 0.8 * np.ones((4, 4))
        assert repaired_correlation(sig) is sig

    def test_repair_overwrites_its_input(self):
        locs = uk_locations(40, 13, 0.0, 8e5)
        raw = matern_kernel(build_distance_matrix(locs).values, MaternParams(theta=450.0))
        np.fill_diagonal(raw, 1.0)
        assert np.linalg.eigvalsh(raw)[0] < 0.0
        assert repaired_correlation(raw) is raw
        assert np.all(np.diag(raw) == 1.0)

    @pytest.mark.parametrize("elev_hi, theta", [(200.0, 1.0), (8e5, 450.0)],
                             ids=["valid", "repaired"])
    def test_peak_at_most_4_35_n2(self, traced_peak, elev_hi, theta):
        # the caller's distances, then the kernel with its sum and term, or
        # sigma with the eigenvectors and their scaled copy
        n = 300
        distance = build_distance_matrix(uk_locations(n, 2, 200.0, elev_hi))
        peak, _ = traced_peak(lambda: build_covariance(distance, MaternParams(theta=theta)))
        assert peak + distance.values.nbytes <= 4.35 * n * n * 8

    def test_general_order_peak_at_most_4_35_n2(self, traced_peak):
        # nu = 2.2 takes the x^nu K_nu(x) form, built in place on x's positive part
        n = 300
        distance = build_distance_matrix(uk_locations(n, 2, 200.0, 200.0))
        peak, _ = traced_peak(lambda: build_covariance(distance,
                                                       MaternParams(theta=450.0, nu=2.2)))
        assert peak + distance.values.nbytes <= 4.35 * n * n * 8

    def test_handed_over_call_keeps_sigma_and_factor(self):
        n = 300
        locs = uk_locations(n, 2, 0.0, 8e5)
        tracemalloc.start()
        try:
            cov = build_covariance(build_distance_matrix(locs), MaternParams(theta=450.0))
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert cov.n == n
        assert live <= 2.25 * n * n * 8

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 2**32 - 1),
           st.sampled_from([0.5, 0.7, 1.0, 1.5, 2.2, 2.5, 3.5, 9.5]),
           st.sampled_from([0.01, 5.0, 300.0, 450.0, 2000.0]), st.sampled_from([200.0, 8e5]))
    def test_matches_whole_array_expressions_bitwise(self, n, seed, nu, theta, elev_hi):
        # the kernel, the repair and the factor as whole-array expressions, as
        # before they were built in place
        distance = build_distance_matrix(uk_locations(n, seed, 0.0, elev_hi))
        x = np.sqrt(2.0 * nu) * distance.values.ravel() / theta
        half = round(nu - 0.5)
        if abs(nu - (half + 0.5)) < 1e-12:
            acc = np.zeros_like(x)
            for k in range(half + 1):
                coef = (math.factorial(half + k)
                        / (math.factorial(k) * math.factorial(half - k)))
                acc += coef * (2.0 * x) ** (half - k)
            kern = np.exp(-x) * (math.factorial(half) / math.factorial(2 * half)) * acc
        else:
            kern = np.ones_like(x)
            pos = x > 1e-8 if nu >= 1.0 else x > 0.0
            log_pref = (1.0 - nu) * np.log(2.0) - special.gammaln(nu)
            with np.errstate(under="ignore"):
                kern[pos] = np.exp(log_pref + nu * np.log(x[pos])) * special.kv(nu, x[pos])
        kern = np.clip(kern, 0.0, 1.0)
        sigma = kern.reshape(n, n).copy()
        np.fill_diagonal(sigma, 1.0)
        w, v = np.linalg.eigh(sigma)
        if w[0] < 1e-10:
            sigma = (v * np.maximum(w, 1e-10)) @ v.T
            d = np.sqrt(np.diag(sigma))
            sigma = sigma / np.outer(d, d)
            sigma = 0.5 * (sigma + sigma.T)
            np.fill_diagonal(sigma, 1.0)
        factor = spd_factorize(sigma)

        params = MaternParams(theta=theta, nu=nu)
        assert np.array_equal(matern_kernel(distance.values.ravel(), params), kern)
        cov = build_covariance(distance, params)
        assert np.array_equal(cov.sigma, sigma)
        assert np.array_equal(cov.factor.lower, factor.lower)
        assert cov.factor.jitter_applied == factor.jitter_applied
