import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import digamma, polygamma

from glgmix import glg_dist
from glgmix.errors import DomainError, MomentExistenceError
from glgmix.glg_dist import (
    LAMBDA_EPS,
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


# The per-function formulas that glg_dist._terms evaluates in one pass,
# written as three separate passes with each Taylor series on every point:
# the kernel must reproduce them bit for bit.
def _horner_everywhere(u, coefs):
    out = np.full_like(u, coefs[0])
    for c in coefs[1:]:
        out = out * u + c
    return out


def reference_log_pdf(y, p):
    z = (y - p.mu) / p.sigma
    if p.is_normal:
        return -glg_dist._LOG_SQRT_2PI - np.log(p.sigma) - 0.5 * z * z
    lam = p.lam
    with np.errstate(over="ignore"):
        return glg_dist._log_c(lam) - np.log(p.sigma) + z / lam - lam ** -2.0 * np.exp(lam * z)


def reference_grad(y, p):
    z = (y - p.mu) / p.sigma
    if p.is_normal:
        return -1.0 + z * z, -(z * z * z) / 6.0
    lam = p.lam
    if abs(lam) < 0.1:
        a = -lam / 6.0 + lam ** 5 / 60.0 - lam ** 9 / 126.0
    else:
        a = 1.0 / lam - 2.0 * lam ** -3.0 * (math.log(lam ** -2.0) - glg_dist.digamma(lam ** -2.0))
    u = lam * z
    with np.errstate(over="ignore", invalid="ignore"):
        em1 = np.expm1(u)
        d_log_sigma = -1.0 + (z / lam) * em1
        direct = (2.0 * em1 - u * (em1 + 2.0)) / lam ** 3
    series = -(z * z * z) * (1 / 6 + u * (1 / 12 + u * (1 / 40 + u * (1 / 180 + u / 1008))))
    return d_log_sigma, a + np.where(np.abs(u) < 0.01, series, direct)


def reference_hess(y, p):
    z = (y - p.mu) / p.sigma
    z2 = z * z
    if p.is_normal:
        return -2.0 * z2, 0.5 * z2 * z, -1.0 / 6.0 - z2 * z2 / 12.0
    lam = p.lam
    if abs(lam) < 0.1:
        a_prime = -1.0 / 6.0 + lam ** 4 / 12.0 - lam ** 8 / 14.0
    else:
        q = lam ** -2.0
        a_prime = (-q + 6.0 * q * q * (math.log(q) - glg_dist.digamma(q))
                   + 4.0 * q * q * q * (lam * lam - glg_dist.trigamma(q)))
    u = lam * z
    with np.errstate(over="ignore", invalid="ignore"):
        e_u = np.exp(u)
        em1 = np.expm1(u)
        h_ss = -(z / lam) * em1 - z2 * e_u
        s_lam = (z / (lam * lam)) * (u * e_u - em1)
        lam_lam = (u * (em1 - u * e_u) - 3.0 * (2.0 * em1 - u * em1 - 2.0 * u)) / lam ** 4
    small = np.abs(u) < 0.2
    h_s_lam = np.where(small, z2 * z * _horner_everywhere(u, glg_dist._SERIES_S_LAM), s_lam)
    h_lam_lam = np.where(small, z2 * z2 * _horner_everywhere(u, glg_dist._SERIES_LAM_LAM),
                         lam_lam)
    return h_ss, h_s_lam, a_prime + h_lam_lam


# shapes at the branch edges: the normal branch, either side of LAMBDA_EPS
# and of the |lam| = 0.1 switch of a and a', and a strongly skewed law
EDGE_LAMS = [0.0, 1e-7, -1e-7, 0.0999, 0.1001, -0.0999, -0.1001, 2.5, -2.5] + [
    sign * LAMBDA_EPS * (1.0 + step) for sign in (1.0, -1.0) for step in (1e-3, -1e-3)]
# values of u = lam z: either side of the series switches at 0.01 and 0.2,
# and far enough out that e^u overflows
EDGE_US = [sign * edge * (1.0 + step) for sign in (1.0, -1.0) for edge in (0.01, 0.2)
           for step in (-1e-9, 0.0, 1e-9)] + [0.0, 709.0, 710.0, 800.0, -800.0]


@st.composite
def kernel_cases(draw):
    """(y, params): points y whose u = lam z cross both series switches
    and reach the overflow tail, at a shape from EDGE_LAMS or drawn."""
    lam = draw(st.one_of(st.sampled_from(EDGE_LAMS),
                         st.floats(-3.0, 3.0).filter(lambda v: v == 0.0 or abs(v) > 1e-9)))
    params = GlgParams(mu=draw(st.floats(-2.0, 2.0)), sigma=draw(st.floats(0.05, 5.0)), lam=lam)
    us = draw(st.lists(st.one_of(st.sampled_from(EDGE_US), st.floats(-0.3, 0.3),
                                 st.floats(-800.0, 800.0)), min_size=1, max_size=40))
    zs = draw(st.lists(st.floats(-40.0, 40.0), max_size=10))
    z = np.array(us + zs) / (lam if lam != 0.0 else 1.0)
    return params.mu + params.sigma * z, params


def assert_bits_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)


class TestOnePassKernel:
    """glg_dist._terms against the three separate formulas it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_matches_the_separate_formulas_bit_for_bit(self, case):
        y, p = case
        log_f, grad, hess = glg_dist._terms(y, p)
        assert np.array_equal(log_f, reference_log_pdf(y, p), equal_nan=True)
        assert_bits_equal(grad, reference_grad(y, p))
        assert_bits_equal(hess, reference_hess(y, p))
        assert np.array_equal(glg_dist._terms(y, p, derivatives=False), log_f, equal_nan=True)
        assert_bits_equal(log_pdf_grad(y, p), grad)
        assert_bits_equal(log_pdf_hess(y, p), hess)
        finite = np.isfinite(y)
        assert np.array_equal(log_pdf(y[finite], p), log_f[finite], equal_nan=True)

    @pytest.mark.parametrize("lam", [0.0, -1.2, 0.05, 0.6])
    def test_scalar_points(self, lam):
        p = GlgParams(mu=0.2, sigma=0.7, lam=lam)
        for y in (0.2, 0.21, 0.5, -3.0):
            assert_bits_equal(log_pdf_grad(y, p), reference_grad(np.asarray(y), p))
            assert_bits_equal(log_pdf_hess(y, p), reference_hess(np.asarray(y), p))
            assert log_pdf(y, p) == reference_log_pdf(np.asarray(y), p)


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
