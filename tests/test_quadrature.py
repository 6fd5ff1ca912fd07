import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln, logsumexp, roots_hermite

from glgmix import mnb_model, pglg_model
from glgmix.data_io import ClusterData
from glgmix.errors import DomainError
from glgmix.glg_dist import GlgParams, log_pdf
from glgmix.mnb_model import MnbParams
from glgmix.quadrature import (
    MAX_ORDER,
    _find_mode_batch,
    _logsumexp,
    adaptive_nodes,
    gauss_hermite,
)

SQRT_PI = math.sqrt(math.pi)


def log_integrals(g, dg, rule, init):
    """(values, failed, modes) of :func:`adaptive_nodes`."""
    values, _, _, failed, modes = adaptive_nodes(g, dg, rule, init)
    return values, failed, modes


def posterior_means(g, dg, rule, init):
    """(means of b, failed, modes) from the nodes of :func:`adaptive_nodes`,
    reduced as ``pglg_model.predict_random_effects`` reduces them; a failed
    component's mean is meaningless."""
    _, points, weights, failed, modes = adaptive_nodes(g, dg, rule, init)
    return (weights * points).sum(axis=1), failed, modes


def integrate(g, dg, rule, init=0.0):
    """log int exp(g) for one elementwise integrand with derivatives dg,
    through the batch API."""
    values, failed, _ = log_integrals(g, dg, rule, np.array([init]))
    assert not failed[0]
    return float(values[0])


def posterior_mean(g, dg, rule, init=0.0):
    means, failed, _ = posterior_means(g, dg, rule, np.array([init]))
    assert not failed[0]
    return float(means[0])


def log_pdf_derivatives(b, p):
    """First and second derivatives in b of log_pdf(b, p), written apart
    from the library's integrand."""
    if p.lam == 0.0:
        return -(b - p.mu) / p.sigma ** 2, np.full_like(b, -1.0 / p.sigma ** 2)
    u = p.lam * (b - p.mu) / p.sigma
    return -np.expm1(u) / (p.sigma * p.lam), -np.exp(u) / p.sigma ** 2


def gaussian(center=0.0, scale=1.0):
    """log of an unnormalised N(center, scale^2) density and its derivatives."""
    return (lambda b: -0.5 * ((b - center) / scale) ** 2,
            lambda b: (-(b - center) / scale ** 2, np.full_like(b, -1.0 / scale ** 2)))


class TestRuleConstruction:
    def test_order_one(self):
        rule = gauss_hermite(1)
        assert rule.nodes == pytest.approx([0.0], abs=1e-14)
        assert rule.weights == pytest.approx([SQRT_PI], abs=1e-10)

    def test_order_two(self):
        rule = gauss_hermite(2)
        assert rule.nodes == pytest.approx([-math.sqrt(0.5), math.sqrt(0.5)], abs=1e-9)
        assert rule.weights == pytest.approx([SQRT_PI / 2] * 2, abs=1e-9)

    def test_fourth_moment_order_ten(self):
        rule = gauss_hermite(10)
        got = float(np.sum(rule.weights * rule.nodes ** 4))
        assert got == pytest.approx(0.75 * SQRT_PI, abs=1e-10)

    @pytest.mark.parametrize("order", [3, 17, 40, 200])
    def test_structure(self, order):
        rule = gauss_hermite(order)
        assert rule.order == order
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert np.allclose(rule.nodes, -rule.nodes[::-1], atol=1e-12)
        assert float(rule.weights.sum()) == pytest.approx(SQRT_PI, abs=1e-10)

    def test_polynomial_exactness(self):
        # degree 2*order - 1 is integrated exactly
        rule = gauss_hermite(6)
        # E x^10 under e^{-x^2}: (9)!! / 2^5 * sqrt(pi)
        expect = 945.0 / 32.0 * SQRT_PI
        got = float(np.sum(rule.weights * rule.nodes ** 10))
        assert got == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("order", [0, -3, 201])
    def test_order_range(self, order):
        with pytest.raises(DomainError):
            gauss_hermite(order)

    def test_rule_immutable(self):
        rule = gauss_hermite(5)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0

    def test_built_once_per_order(self):
        assert gauss_hermite(37) is gauss_hermite(37)
        assert gauss_hermite(37) is not gauss_hermite(38)

    def test_matches_scipy_rules(self):
        # SciPy's own log weights at the outermost nodes of orders 50-150
        # are off by up to 3e-12 (see test_outer_log_weights_against_mpmath),
        # so log weights are compared relative to their size
        for order in range(1, MAX_ORDER + 1):
            rule = gauss_hermite(order)
            nodes, weights = roots_hermite(order)
            np.testing.assert_allclose(rule.nodes, nodes, rtol=0, atol=1e-13)
            log_w = np.log(weights)
            assert np.all(np.abs(np.log(rule.weights) - log_w) <= 1e-13 * np.maximum(1.0, np.abs(log_w)))

    def test_equals_numpy_hermgauss_bit_for_bit(self):
        # NumPy's rule is the reference; the module itself never loads
        # numpy.polynomial
        from numpy.polynomial.hermite import hermgauss

        for order in range(1, MAX_ORDER + 1):
            rule = gauss_hermite(order)
            nodes, weights = hermgauss(order)
            assert np.array_equal(rule.nodes.view(np.int64), nodes.view(np.int64)), order
            assert np.array_equal(rule.weights.view(np.int64), weights.view(np.int64)), order

    @pytest.mark.parametrize("order, i", [(58, 0), (147, 3), (150, 0), (200, 0), (200, 5)])
    def test_outer_log_weights_against_mpmath(self, order, i):
        # w = 2^(n-1) n! sqrt(pi) / (n H_(n-1)(x))^2 at the root x of H_n
        rule = gauss_hermite(order)
        with mpmath.workdps(60):
            x = mpmath.mpf(rule.nodes[i])
            for _ in range(5):
                x -= mpmath.hermite(order, x) / (2 * order * mpmath.hermite(order - 1, x))
            log_w = ((order - 1) * mpmath.log(2) + mpmath.loggamma(order + 1)
                     + 0.5 * mpmath.log(mpmath.pi)
                     - 2 * mpmath.log(order * abs(mpmath.hermite(order - 1, x))))
            assert abs(rule.nodes[i] - float(x)) <= 1e-13
            assert abs(math.log(rule.weights[i]) - float(log_w)) <= 1e-12


class TestLogSumExp:
    def test_matches_scipy_on_finite_rows(self):
        terms = np.random.default_rng(3).normal(scale=300.0, size=(7, 40))
        np.testing.assert_allclose(_logsumexp(terms), logsumexp(terms, axis=1), rtol=1e-15)

    def test_edge_rows(self):
        inf, nan = np.inf, np.nan
        terms = np.array([
            [-inf, -inf, -inf],
            [0.0, inf, -inf],
            [0.0, nan, 1.0],
            [-inf, 2.0, -inf],
        ])
        with np.errstate(all="raise"):
            out = _logsumexp(terms)
        assert out[0] == -inf
        assert out[1] == inf
        assert math.isnan(out[2])
        assert out[3] == 2.0


class TestAdaptiveIntegration:
    def test_gaussian_kernel(self):
        got = integrate(*gaussian(), gauss_hermite(3))
        assert got == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_glg_normalization(self):
        # the extreme-value shape has a heavy left tail; convergence in the
        # order is slow but steady
        p = GlgParams(0.0, 1.0, 1.0)

        def g(b):
            return log_pdf(b, p)

        def dg(b):
            return log_pdf_derivatives(b, p)

        got40 = integrate(g, dg, gauss_hermite(40))
        assert got40 == pytest.approx(0.0, abs=1e-5)
        got150 = integrate(g, dg, gauss_hermite(150))
        assert got150 == pytest.approx(0.0, abs=1e-8)
        assert abs(got150) < abs(got40)

    def test_single_observation_closed_form(self):
        # Poisson(y=3 | e^b) mass against the phi=1 mixing law: the
        # marginal is negative binomial, log pmf = log(1/16)
        p = GlgParams(0.0, 1.0, 1.0)

        def g(b):
            return 3.0 * b - np.exp(b) - gammaln(4.0) + log_pdf(b, p)

        def dg(b):
            d1, d2 = log_pdf_derivatives(b, p)
            return 3.0 - np.exp(b) + d1, -np.exp(b) + d2

        got = integrate(g, dg, gauss_hermite(40))
        assert got == pytest.approx(math.log(1.0 / 16.0), abs=1e-8)

    def test_narrow_shifted_gaussian(self):
        # recentring must find a mode far from init and rescale
        got = integrate(*gaussian(9.0, 0.05), gauss_hermite(10), init=0.0)
        assert got == pytest.approx(math.log(math.sqrt(2 * math.pi) * 0.05), abs=1e-10)

    def test_translation_invariance(self):
        rule = gauss_hermite(25)

        def make(shift):
            return (lambda b: -0.25 * (b - shift) ** 4 - 0.5 * (b - shift) ** 2,
                    lambda b: (-(b - shift) ** 3 - (b - shift), -3.0 * (b - shift) ** 2 - 1.0))

        base = integrate(*make(0.0), rule)
        for c in (-4.0, 3.7, 5.0, 40.0):
            assert integrate(*make(c), rule, init=c - 0.5) == pytest.approx(base, abs=1e-10)

    def test_order_20_vs_40_converged(self):
        # Poisson-count contributions at moderate shapes
        for lam, sig in ((-0.3, 0.4), (0.3, 0.4)):
            p = GlgParams(0.0, sig, lam)
            for y in (0, 1, 2, 6, 12):
                for eta0 in (-1.0, 0.0, 1.5):
                    def g(b, y=y, eta0=eta0, p=p):
                        return y * (eta0 + b) - np.exp(eta0 + b) + log_pdf(b, p)

                    def dg(b, y=y, eta0=eta0, p=p):
                        d1, d2 = log_pdf_derivatives(b, p)
                        return y - np.exp(eta0 + b) + d1, -np.exp(eta0 + b) + d2

                    a = integrate(g, dg, gauss_hermite(20))
                    b = integrate(g, dg, gauss_hermite(40))
                    assert abs(a - b) < 1e-6

    def test_mode_search_failure_carries_iterate(self):
        # strictly increasing integrand has no interior mode: the component
        # is failed, its value NaN, and its mode slot holds the last iterate
        values, failed, modes = log_integrals(
            lambda b: b, lambda b: (np.ones_like(b), np.zeros_like(b)), gauss_hermite(10),
            np.zeros(1),
        )
        assert failed[0]
        assert np.isnan(values[0])
        assert np.isfinite(modes[0]) and modes[0] > 0


class TestExactModeSearch:
    """Modes and curvatures of PGLG integrands, checked at 50 digits."""

    @pytest.mark.parametrize("lam, sigma", [(-2.8, 0.25), (-1.2, 0.5), (0.0, 0.5), (0.5, 0.8)])
    def test_modes_are_roots_with_exact_curvature(self, lam, sigma):
        rng = np.random.default_rng(7)
        y_plus = np.concatenate([[0, 0, 1, 40, 200], rng.poisson(4.0, size=35)]).astype(float)
        log_mu_plus = np.concatenate([[-3.0, 2.0, 0.0, 1.0, 6.0], rng.uniform(-1.0, 2.5, 35)])
        params = pglg_model.PglgParams(beta=np.zeros(1), sigma=sigma, lam=lam)
        _, derivatives = pglg_model._integrand(y_plus, log_mu_plus, params)
        cold, _, _ = _find_mode_batch(derivatives, np.zeros(y_plus.size))
        for init in (np.zeros(y_plus.size), cold + rng.normal(size=y_plus.size)):  # cold, warm
            modes, curv, failed = _find_mode_batch(derivatives, init)
            assert not failed.any()
            with mpmath.workdps(50):
                for y, lmp, b, c in zip(y_plus, log_mu_plus, modes, curv):
                    b = mpmath.mpf(b)
                    mu_e = mpmath.exp(b + lmp)
                    if lam == 0.0:
                        d1, d2 = y - mu_e - b / sigma ** 2, -mu_e - 1 / mpmath.mpf(sigma) ** 2
                    else:
                        u = lam * b / sigma
                        d1 = y - mu_e - mpmath.expm1(u) / (sigma * lam)
                        d2 = -mu_e - mpmath.exp(u) / mpmath.mpf(sigma) ** 2
                    # distance to the root, relative to the mode's size
                    assert abs(d1 / d2) <= 1e-10 * max(1.0, abs(b))
                    assert abs(c - d2) <= 1e-10 * abs(d2)

    @pytest.mark.parametrize("lam, sigma, y_plus, log_mu_plus, init", [
        (2.8, 0.25, 200.0, 0.0, 0.0),  # the capped first step lands on the e^(lam b/sigma) wall
        (-2.8, 0.25, 6.0, 1.19, -9.75),  # a start on the left wall, no far end yet
    ])
    def test_crawl_down_exponential_wall(self, lam, sigma, y_plus, log_mu_plus, init):
        # Newton moves about sigma/|lam| = 0.09 per step along the wall:
        # more than 100 steps back to the mode without the rtsafe rule
        params = pglg_model.PglgParams(beta=np.zeros(1), sigma=sigma, lam=lam)
        _, derivatives = pglg_model._integrand(np.array([y_plus]), np.array([log_mu_plus]), params)
        calls = []

        def counted(b):
            calls.append(b)
            return derivatives(b)

        modes, curv, failed = _find_mode_batch(counted, np.array([init]))
        assert not failed[0]
        d1, d2 = derivatives(modes)
        assert abs(d1[0] / d2[0]) <= 1e-12 and curv[0] == d2[0]
        assert len(calls) <= 20

    @pytest.mark.parametrize("lam, sigma, y_plus, log_mu_plus, init, most", [
        (2.8, 0.25, 200.0, 0.0, 0.0, 16),  # crawls, halved by midpoints of the bracket
        # the capped jump off the left wall lands at 0.429, next to the mode
        # at 0.337; the Newton step from there is kept, not bisected
        (-2.8, 0.25, 6.0, 1.19, -9.75, 10),
    ])
    def test_derivative_calls_after_a_crawl(self, lam, sigma, y_plus, log_mu_plus, init, most):
        params = pglg_model.PglgParams(beta=np.zeros(1), sigma=sigma, lam=lam)
        _, derivatives = pglg_model._integrand(np.array([y_plus]), np.array([log_mu_plus]), params)
        calls = []

        def counted(b):
            calls.append(b)
            return derivatives(b)

        _, _, failed = _find_mode_batch(counted, np.array([init]))
        assert not failed[0]
        assert len(calls) <= most

    def test_nan_derivative_fails_where_found(self):
        # g = -log cosh b: Newton from 1.5 overshoots to -3.5, whose step
        # leaves the bracket; the midpoint -1.0 lies in a band where the
        # derivatives are NaN, so that component fails there and the
        # same integrand without the band converges
        def derivatives(b):
            band = (b > -1.2) & (b < -0.8) & np.array([False, True])
            return np.where(band, np.nan, -np.tanh(b)), np.where(band, np.nan, -np.cosh(b) ** -2.0)

        modes, curv, failed = _find_mode_batch(derivatives, np.array([1.5, 1.5]))
        assert not failed[0] and failed[1]
        assert modes[0] == pytest.approx(0.0, abs=1e-15) and curv[0] == -1.0
        overshoot = 1.5 - np.sinh(3.0) / 2.0
        assert modes[1] == pytest.approx(0.5 * (overshoot + 1.5), rel=1e-12)


class TestAdaptiveExpectation:
    def test_gaussian_mean(self):
        rule = gauss_hermite(20)
        g, dg = gaussian(2.5, 1.3)
        assert posterior_mean(g, dg, rule, init=0.0) == pytest.approx(2.5, abs=1e-9)
        log_norm = integrate(g, dg, rule, init=0.0)
        assert log_norm == pytest.approx(math.log(math.sqrt(2 * math.pi) * 1.3), abs=1e-9)

    def test_skewed_density_mean(self):
        # GLG(0,1,1) has mean -EulerGamma; the bare heavy-tailed prior
        # needs a high order (Poisson-tamed posteriors converge much faster)
        p = GlgParams(0.0, 1.0, 1.0)
        m = posterior_mean(lambda b: log_pdf(b, p), lambda b: log_pdf_derivatives(b, p),
                           gauss_hermite(150))
        assert m == pytest.approx(-0.5772156649015329, abs=1e-7)


class TestBatchIntegration:
    def test_tied_matches_closed_form(self):
        # sigma = lam is gamma mixing: each component's integral is the
        # closed-form negative binomial log pmf with phi = lam^-2 (the zero
        # count keeps the heavy left tail of the prior, hence the order)
        rule = gauss_hermite(150)
        lam = 0.7
        p = GlgParams(0.0, lam, lam)
        ys = np.array([0.0, 2.0, 7.0])
        const = gammaln(ys + 1.0)

        def batch(b):
            return ys[:, None] * b - np.exp(b) - const[:, None] + log_pdf(b, p)

        def derivatives(b):
            d1, d2 = log_pdf_derivatives(b, p)
            return ys - np.exp(b) + d1, -np.exp(b) + d2

        values, failed, _ = log_integrals(batch, derivatives, rule, np.zeros(3))
        assert not failed.any()
        params = MnbParams(beta=np.zeros(1), phi=lam ** -2)
        for i, y in enumerate(ys):
            c = ClusterData(id=i, y=np.array([int(y)]), X=np.ones((1, 1)), offset=np.zeros(1))
            assert values[i] == pytest.approx(mnb_model.log_pmf(c, params), abs=1e-12)

    def test_failures_masked_not_raised(self):
        rule = gauss_hermite(10)

        def batch(b):
            # component 0 is a Gaussian kernel, component 1 has no mode
            return np.stack([-0.5 * b[0] ** 2, b[1]])

        def derivatives(b):
            return np.array([-b[0], 1.0]), np.array([-1.0, 0.0])

        values, failed, _ = log_integrals(batch, derivatives, rule, np.zeros(2))
        assert not failed[0] and failed[1]
        assert np.isfinite(values[0]) and np.isnan(values[1])
        means, failed, _ = posterior_means(batch, derivatives, rule, np.zeros(2))
        assert not failed[0] and failed[1]
        assert means[0] == pytest.approx(0.0, abs=1e-12)

    def test_return_modes(self):
        rule = gauss_hermite(10)
        centers = np.array([-3.0, 4.0])

        def batch(b):
            return -0.5 * (b - centers[:, None]) ** 2

        def derivatives(b):
            return -(b - centers), -np.ones_like(b)

        values, failed, modes = log_integrals(batch, derivatives, rule, np.zeros(2))
        assert not failed.any()
        np.testing.assert_array_equal(modes, centers)
        means, failed, mean_modes = posterior_means(batch, derivatives, rule, np.zeros(2))
        np.testing.assert_array_equal(mean_modes, modes)
        assert means == pytest.approx([-3.0, 4.0], abs=1e-12)


class TestSupportCliff:
    """An integrand that is -inf past an edge, where its derivatives are NaN.

    A search started just inside the edge finds the mode, and nodes past
    the edge carry no weight.  A search started on the edge is failed and
    its value NaN, without evaluating anything at a NaN position, and the
    other component of the batch is untouched.
    """

    CLIFF = 8.0

    def _batch_with_cliff(self, b):
        if not np.all(np.isfinite(b)):
            raise DomainError("non-finite position")  # same contract as log_pdf
        clipped = np.where(b[1] < self.CLIFF, -0.5 * b[1] * b[1], -np.inf)
        return np.stack([-0.5 * (b[0] + 1.0) ** 2, clipped])

    def _derivatives_with_cliff(self, b):
        inside = b[1] < self.CLIFF
        return (np.array([-(b[0] + 1.0), -b[1] if inside else np.nan]),
                np.array([-1.0, -1.0 if inside else np.nan]))

    def _run(self, batch, edge_init):
        return batch(self._batch_with_cliff, self._derivatives_with_cliff, gauss_hermite(40),
                     np.array([0.0, edge_init]))

    def test_batch_recovers_near_cliff(self):
        values, failed, _ = self._run(log_integrals, self.CLIFF - 3e-5)
        assert not failed.any()
        assert values == pytest.approx([0.5 * math.log(2.0 * math.pi)] * 2, abs=1e-10)

    def test_batch_masks_component_stuck_at_edge(self):
        values, failed, modes = self._run(log_integrals, self.CLIFF)
        assert not failed[0] and failed[1]
        assert values[0] == pytest.approx(0.5 * math.log(2.0 * math.pi), abs=1e-10)
        assert np.isnan(values[1])
        assert modes[1] == self.CLIFF

    def test_posterior_mean_recovers_near_cliff(self):
        # the truncation at 8 moves the N(0, 1) and N(-1, 1) means by < 1e-14
        means, failed, _ = self._run(posterior_means, self.CLIFF - 3e-5)
        assert not failed.any()
        assert means == pytest.approx([-1.0, 0.0], abs=1e-10)

    def test_posterior_mean_masks_component_stuck_at_edge(self):
        means, failed, _ = self._run(posterior_means, self.CLIFF)
        assert not failed[0] and failed[1]
        assert means[0] == pytest.approx(-1.0, abs=1e-10)
