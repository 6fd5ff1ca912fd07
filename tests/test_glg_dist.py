import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import digamma, polygamma

from glgmix.errors import DomainError, MomentExistenceError
from glgmix.glg_dist import (
    GlgParams,
    exp_moment,
    log_pdf,
    log_pdf_grad,
    log_pdf_hess,
    log_pdf_y_derivatives,
    mean,
    pdf,
    sample,
    support_interval,
    variance,
)


def exp_moment_numint(params, k):
    """E(e^{k b}) by direct adaptive quadrature of the defining integral,
    an independent cross-check of the closed-form ``exp_moment``."""

    def integrand(y):
        return np.exp(k * y + log_pdf(y, params))

    # split at zero to help the adaptive rule on skewed shapes
    halves = ((-np.inf, 0.0), (0.0, np.inf))
    return sum(quad(integrand, lo, hi, limit=200)[0] for lo, hi in halves)


EULER_GAMMA = 0.5772156649015329


class TestParams:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(DomainError):
            GlgParams(mu=0.0, sigma=0.0, lam=1.0)
        with pytest.raises(DomainError):
            GlgParams(mu=0.0, sigma=-2.0, lam=1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            GlgParams(mu=math.nan, sigma=1.0, lam=1.0)
        with pytest.raises(DomainError):
            GlgParams(mu=0.0, sigma=1.0, lam=math.inf)

    def test_normal_branch_threshold(self):
        assert GlgParams(0.0, 1.0, 0.0).is_normal
        assert GlgParams(0.0, 1.0, 1e-9).is_normal
        assert not GlgParams(0.0, 1.0, 0.01).is_normal


class TestLogPdf:
    def test_known_value_shape_two(self):
        # log c(2) - 1/4 with c(2) = 2 (1/4)^(1/4) / Gamma(1/4)
        got = log_pdf(0.0, GlgParams(0.0, 1.0, 2.0))
        assert got == pytest.approx(-1.1914489344181047, abs=1e-10)

    def test_normal_limit_matches_gaussian(self):
        p_small = GlgParams(0.3, 1.2, 1e-7)
        z = (0.9 - 0.3) / 1.2
        expect = -0.5 * math.log(2 * math.pi) - math.log(1.2) - 0.5 * z * z
        assert log_pdf(0.9, p_small) == pytest.approx(expect, abs=1e-12)

    def test_continuity_across_lambda_zero(self):
        # density just above the threshold stays close to the normal branch
        y = np.linspace(-3, 3, 13)
        near = log_pdf(y, GlgParams(0.0, 1.0, 1e-4))
        normal = log_pdf(y, GlgParams(0.0, 1.0, 0.0))
        assert np.max(np.abs(near - normal)) < 1e-3

    def test_vectorized_matches_scalar(self):
        p = GlgParams(0.5, 0.8, -0.7)
        ys = np.array([-1.0, 0.0, 0.5, 2.5])
        vec = log_pdf(ys, p)
        assert vec.shape == ys.shape
        for yi, vi in zip(ys, vec):
            assert log_pdf(float(yi), p) == vi

    def test_extreme_value_shape_mode(self):
        # lambda = 1: mode at y = mu with density exp(-1)/sigma
        p = GlgParams(2.0, 0.5, 1.0)
        assert pdf(2.0, p) == pytest.approx(math.exp(-1) / 0.5, rel=1e-12)
        assert pdf(1.9, p) < pdf(2.0, p) > pdf(2.1, p)

    def test_rejects_nonfinite_y(self):
        with pytest.raises(DomainError):
            log_pdf(math.nan, GlgParams(0.0, 1.0, 1.0))

    @pytest.mark.parametrize("lam", [-1.0, -0.3, 0.0, 0.4, 1.0, 2.0])
    def test_integrates_to_one(self, lam):
        p = GlgParams(0.0, 1.0, lam)
        total = sum(
            quad(lambda y: pdf(y, p), lo, hi, limit=200)[0]
            for lo, hi in ((-np.inf, 0.0), (0.0, np.inf))
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_skew_direction(self):
        # negative shape: right skew; positive shape: left skew
        right = GlgParams(0.0, 1.0, -1.0)
        left = GlgParams(0.0, 1.0, 1.0)
        assert mean(right) > 0.0
        assert mean(left) < 0.0


class TestLogPdfGrad:
    """Derivatives in (log sigma, lam) against 40-digit differentiation."""

    @staticmethod
    def reference(y, mu, sigma, lam):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40

        def logf(log_s, lam_):
            z = (mpmath.mpf(y) - mu) / mpmath.exp(log_s)
            q = 1 / lam_ ** 2
            return (mpmath.log(abs(lam_)) + q * mpmath.log(q) - mpmath.loggamma(q) - log_s
                    + z / lam_ - q * mpmath.exp(lam_ * z))

        log_s, lam_ = mpmath.log(sigma), mpmath.mpf(lam)
        return (float(mpmath.diff(lambda t: logf(t, lam_), log_s)),
                float(mpmath.diff(lambda t: logf(log_s, t), lam_)))

    @pytest.mark.parametrize("lam", [-2.1, -1.2, -0.05, 1e-3, 2e-6, 0.01, 0.6, 1.0])
    def test_matches_high_precision(self, lam):
        # small |lam| is where the closed form's lam^-3 terms cancel
        p = GlgParams(mu=0.2, sigma=0.7, lam=lam)
        ys = np.array([-2.5, -1.3, 0.2, 0.9, 2.0])
        d_log_sigma, d_lam = log_pdf_grad(ys, p)
        for y, a, b in zip(ys, d_log_sigma, d_lam):
            want_a, want_b = self.reference(y, 0.2, 0.7, lam)
            assert a == pytest.approx(want_a, rel=1e-12, abs=1e-12)
            assert b == pytest.approx(want_b, rel=1e-9, abs=1e-11)

    def test_normal_branch_is_the_limit(self):
        ys = np.array([-1.5, 0.3, 2.2])
        d_log_sigma, d_lam = log_pdf_grad(ys, GlgParams(mu=0.0, sigma=1.3, lam=0.0))
        z = ys / 1.3
        np.testing.assert_allclose(d_log_sigma, -1.0 + z ** 2, rtol=1e-14)
        np.testing.assert_allclose(d_lam, -(z ** 3) / 6.0, rtol=1e-14)
        near = log_pdf_grad(ys, GlgParams(mu=0.0, sigma=1.3, lam=2e-6))
        np.testing.assert_allclose(near[1], d_lam, atol=1e-5)

    def test_heavy_tail_overflow_is_silent(self):
        with np.errstate(all="raise"):
            d_log_sigma, _ = log_pdf_grad(np.array([2000.0]), GlgParams(0.0, 1.0, 1.0))
        assert d_log_sigma[0] == np.inf


class TestLogPdfYDerivatives:
    """Derivatives in y against 40-digit differentiation of the density."""

    @pytest.mark.parametrize("lam", [-2.8, -1.2, -0.05, 2e-6, 0.0, 0.5, 1.0])
    def test_matches_high_precision(self, lam):
        mpmath = pytest.importorskip("mpmath")
        p = GlgParams(mu=0.2, sigma=0.7, lam=lam)
        ys = np.array([-2.5, -1.3, 0.2, 0.9, 2.0])
        d1, d2 = log_pdf_y_derivatives(ys, p)
        with mpmath.workdps(40):
            def logf(y):
                z = (y - mpmath.mpf(0.2)) / mpmath.mpf(0.7)
                if p.is_normal:
                    return -z * z / 2
                lam_ = mpmath.mpf(lam)
                return z / lam_ - mpmath.exp(lam_ * z) / lam_ ** 2

            for y, a, b in zip(ys, d1, d2):
                y = mpmath.mpf(y)
                assert a == pytest.approx(float(mpmath.diff(logf, y)), rel=1e-13, abs=1e-14)
                assert b == pytest.approx(float(mpmath.diff(logf, y, 2)), rel=1e-13)

    def test_heavy_tail_overflow_is_silent(self):
        with np.errstate(all="raise"):
            d1, d2 = log_pdf_y_derivatives(np.array([2000.0]), GlgParams(0.0, 1.0, 1.0))
        assert d1[0] == -np.inf and d2[0] == -np.inf


class TestLogPdfHess:
    """Second derivatives in (log sigma, lam) against 40-digit differentiation."""

    @staticmethod
    def reference(y, mu, sigma, lam):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40

        def logf(log_s, lam_):
            z = (mpmath.mpf(y) - mu) / mpmath.exp(log_s)
            q = 1 / lam_ ** 2
            return (mpmath.log(abs(lam_)) + q * mpmath.log(q) - mpmath.loggamma(q) - log_s
                    + z / lam_ - q * mpmath.exp(lam_ * z))

        at = (mpmath.log(sigma), mpmath.mpf(lam))
        return tuple(float(mpmath.diff(logf, at, n)) for n in ((2, 0), (1, 1), (0, 2)))

    @pytest.mark.parametrize("lam", [-2.1, -1.2, -0.05, 1e-3, 2e-6, 0.01, 0.6, 1.0])
    def test_matches_high_precision(self, lam):
        # small |lam z| is where the closed forms cancel; y = -2.9, -2.5 at
        # lam = -0.05 and y = 0.45, 0.42 at lam = 0.6 put |lam z| just above
        # and below the series switch at 0.2
        p = GlgParams(mu=0.2, sigma=0.7, lam=lam)
        ys = np.array([-2.9, -2.5, -1.3, 0.2, 0.42, 0.45, 0.9, 2.0])
        hess = log_pdf_hess(ys, p)
        for i, y in enumerate(ys):
            for got, want in zip((h[i] for h in hess), self.reference(y, 0.2, 0.7, lam)):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-11)

    def test_normal_branch_is_the_limit(self):
        ys = np.array([-1.5, 0.3, 2.2])
        h_ss, h_s_lam, h_lam_lam = log_pdf_hess(ys, GlgParams(mu=0.0, sigma=1.3, lam=0.0))
        z = ys / 1.3
        np.testing.assert_allclose(h_ss, -2.0 * z ** 2, rtol=1e-14)
        np.testing.assert_allclose(h_s_lam, z ** 3 / 2.0, rtol=1e-14)
        np.testing.assert_allclose(h_lam_lam, -1.0 / 6.0 - z ** 4 / 12.0, rtol=1e-14)
        # the GLG values differ from the limit by O(lam z^3)
        near = log_pdf_hess(ys, GlgParams(mu=0.0, sigma=1.3, lam=2e-6))
        for a, b in zip(near, (h_ss, h_s_lam, h_lam_lam)):
            np.testing.assert_allclose(a, b, atol=2e-6 * 2.0 * np.max(np.abs(z)) ** 3)

    def test_heavy_tail_overflow_is_silent(self):
        with np.errstate(all="raise"):
            h_ss, _, _ = log_pdf_hess(np.array([2000.0]), GlgParams(0.0, 1.0, 1.0))
        assert h_ss[0] == -np.inf


class TestMoments:
    # digamma/trigamma transform of the gamma representation
    @pytest.mark.parametrize(
        "lam,expect",
        [
            (2.0, -1.4205795861281874),
            (-1.0, EULER_GAMMA),
            (-0.5, 0.2603533853761806),
        ],
    )
    def test_mean_oracle(self, lam, expect):
        assert mean(GlgParams(0.0, 1.0, lam)) == pytest.approx(expect, abs=1e-9)

    def test_mean_location_scale(self):
        base = mean(GlgParams(0.0, 1.0, 0.7))
        assert mean(GlgParams(1.5, 2.0, 0.7)) == pytest.approx(1.5 + 2.0 * base)

    def test_extreme_value_mean_variance(self):
        p = GlgParams(0.0, 1.0, 1.0)
        assert mean(p) == pytest.approx(-EULER_GAMMA, abs=1e-12)
        assert variance(p) == pytest.approx(math.pi ** 2 / 6, abs=1e-12)

    def test_normal_moments(self):
        p = GlgParams(0.4, 1.3, 0.0)
        assert mean(p) == 0.4
        assert variance(p) == pytest.approx(1.69)

    def test_mean_variance_match_quadrature(self):
        for lam in (-0.8, 0.6, 1.5):
            p = GlgParams(0.0, 1.0, lam)
            m_num = sum(
                quad(lambda y: y * pdf(y, p), lo, hi, limit=200)[0]
                for lo, hi in ((-np.inf, 0.0), (0.0, np.inf))
            )
            assert mean(p) == pytest.approx(m_num, abs=1e-7)
            v_num = sum(
                quad(lambda y: (y - m_num) ** 2 * pdf(y, p), lo, hi, limit=200)[0]
                for lo, hi in ((-np.inf, 0.0), (0.0, np.inf))
            )
            assert variance(p) == pytest.approx(v_num, abs=1e-6)


class TestExpMoments:
    @pytest.mark.parametrize(
        "lam,sigma,k,expect",
        [
            (1.0, 1.0, 1, 1.0),
            (1.0, 1.0, 2, 2.0),
            (-0.5, 1.0, 1, 8.0 / 3.0),
            (0.5, 2.0, 1, 3.28125),
            (-0.25, 1.0, 2, 16.55353634020296),
        ],
    )
    def test_closed_form_oracle(self, lam, sigma, k, expect):
        got = exp_moment(GlgParams(0.0, sigma, lam), k)
        assert got == pytest.approx(expect, rel=1e-10)

    def test_lognormal_row(self):
        p = GlgParams(0.0, 1.0, 0.0)
        assert exp_moment(p, 1) == pytest.approx(math.exp(0.5), rel=1e-12)
        assert exp_moment(p, 2) == pytest.approx(math.exp(2.0), rel=1e-12)

    @pytest.mark.parametrize("lam", [-0.6, -0.2, 0.3, 1.0])
    @pytest.mark.parametrize("k", [1, 2])
    def test_closed_form_equals_numeric(self, lam, k):
        p = GlgParams(0.0, 0.7, lam)
        try:
            closed = exp_moment(p, k)
        except MomentExistenceError:
            pytest.skip("moment does not exist at these params")
        assert closed == pytest.approx(exp_moment_numint(p, k), rel=1e-8)

    def test_existence_guard(self):
        # for lam < 0 the k-th moment needs k * sigma * |lam| < 1
        with pytest.raises(MomentExistenceError):
            exp_moment(GlgParams(0.0, 1.0, -1.0), 1)
        with pytest.raises(MomentExistenceError):
            exp_moment(GlgParams(0.0, 1.0, -0.5), 2)
        # boundary is strict
        with pytest.raises(MomentExistenceError):
            exp_moment(GlgParams(0.0, 2.0, -0.5), 1)

    def test_k_validation(self):
        with pytest.raises(DomainError):
            exp_moment(GlgParams(0.0, 1.0, 1.0), 3)


class TestSampling:
    def test_deterministic_given_seed(self):
        p = GlgParams(0.0, 1.0, -0.8)
        a = sample(p, 123, 50)
        b = sample(p, 123, 50)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample(p, 124, 50))

    def test_accepts_generator(self):
        p = GlgParams(0.0, 1.0, 0.5)
        x = sample(p, np.random.default_rng(7), 10)
        assert x.shape == (10,)

    def test_moments_of_draws(self):
        p = GlgParams(0.2, 0.9, 1.2)
        x = sample(p, 99, 400_000)
        se_mean = math.sqrt(variance(p) / x.size)
        assert abs(x.mean() - mean(p)) < 4 * se_mean
        # variance of the sample variance ~ (m4 - v^2)/n
        m4 = np.mean((x - x.mean()) ** 4)
        se_var = math.sqrt((m4 - variance(p) ** 2) / x.size)
        assert abs(x.var() - variance(p)) < 4 * se_var

    def test_normal_branch_draws(self):
        p = GlgParams(1.0, 2.0, 0.0)
        x = sample(p, 5, 200_000)
        assert abs(x.mean() - 1.0) < 0.02
        assert abs(x.std() - 2.0) < 0.02

    def test_n_validation(self):
        with pytest.raises(DomainError):
            sample(GlgParams(0.0, 1.0, 1.0), 1, 0)


class TestSupportInterval:
    def test_normal_interval_symmetric(self):
        lo, hi = support_interval(GlgParams(2.0, 1.5, 0.0), tail=1e-6)
        assert lo + hi == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("lam", [-1.0, 0.0, 0.5, 2.0])
    def test_tail_mass(self, lam):
        p = GlgParams(0.0, 1.0, lam)
        lo, hi = support_interval(p, tail=1e-5)
        assert lo < hi
        left = quad(lambda y: pdf(y, p), lo - 40.0, lo, limit=200)[0]
        right = quad(lambda y: pdf(y, p), hi, hi + 40.0, limit=200)[0]
        assert left == pytest.approx(1e-5, rel=1e-3)
        assert right == pytest.approx(1e-5, rel=1e-3)

    def test_tail_validation(self):
        with pytest.raises(DomainError):
            support_interval(GlgParams(0.0, 1.0, 1.0), tail=0.7)
