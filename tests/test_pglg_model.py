import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma, gammaln

from glgmix import glg_dist, mnb_model, pglg_model
from glgmix.data_io import ClusterData, Dataset
from glgmix.errors import CollinearDesignError, DomainError, ModeSearchError
from glgmix.glg_dist import GlgParams
from glgmix.mnb_model import MnbParams
from glgmix.pglg_model import PglgFitOptions, PglgParams
from glgmix.quadrature import DEFAULT_ORDER, gauss_hermite
from glgmix.simulate import SimDesign, simulate_pglg


def one_cluster(y, X=None, offset=None, cid="c0"):
    y = np.atleast_1d(np.asarray(y))
    if X is None:
        X = np.ones((len(y), 1))
    if offset is None:
        offset = np.zeros(len(y))
    return ClusterData(id=cid, y=y, X=np.asarray(X, float), offset=np.asarray(offset, float))


def wrap(clusters, names=None):
    p = clusters[0].p
    names = names or tuple(f"x{j+1}" for j in range(p))
    return Dataset(clusters=tuple(clusters), column_names=names)


def tied_log_marginal(y, mu, lam):
    """Closed form for sigma = lam: gamma mixing with phi = lam^-2."""
    phi = lam ** -2
    y = np.asarray(y, float)
    mu = np.asarray(mu, float)
    y_plus, mu_plus = y.sum(), mu.sum()
    return float(
        gammaln(phi + y_plus)
        - gammaln(phi)
        - gammaln(y + 1.0).sum()
        + phi * math.log(phi)
        + (y * np.log(mu)).sum()
        - (phi + y_plus) * math.log(phi + mu_plus)
    )


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            PglgParams(beta=np.array([0.0]), sigma=0.0, lam=1.0)
        with pytest.raises(DomainError):
            PglgParams(beta=np.array([np.nan]), sigma=1.0, lam=1.0)
        p = PglgParams(beta=np.array([0.2]), sigma=1.0, lam=0.0)
        assert p.lam == 0.0


class TestOrderLimit:
    def test_order_above_half_the_largest_rule_rejected(self):
        PglgFitOptions(order=100)
        with pytest.raises(DomainError, match="at most 100"):
            PglgFitOptions(order=101)

    @pytest.mark.parametrize("order", [0, -3, 40.5, "40", None])
    def test_order_must_be_an_integer_from_one(self, order):
        with pytest.raises(DomainError, match=r"\[1, 100\]"):
            PglgFitOptions(order=order)

    def test_integer_like_order_is_kept_as_int(self):
        options = PglgFitOptions(order=np.int64(30))
        assert options.order == 30 and type(options.order) is int

    @pytest.mark.parametrize("order", [1, 40, 73, 100])
    def test_check_uses_exactly_twice_the_order(self, order, monkeypatch):
        asked = []

        def spy(n):
            asked.append(n)
            return gauss_hermite(n)

        monkeypatch.setattr(pglg_model, "gauss_hermite", spy)
        c = ClusterData(id="c0", y=np.array([1, 0, 2]), X=np.ones((3, 1)), offset=np.zeros(3))
        ds = Dataset(clusters=(c,), column_names=("(intercept)",))
        params = PglgParams(beta=np.array([0.1]), sigma=0.5, lam=0.3)
        pglg_model._order_adequate(ds, params, 0.0, PglgFitOptions(order=order), np.zeros(1))
        assert asked == [2 * order]


class TestClusterLogMarginal:
    def test_tied_zero_count_hand_value(self):
        # sigma = lam = 1 is exponential mixing: P(Y=0) = 1/(1+mu) = 1/2.
        # A zero count leaves the posterior as heavy-tailed as the prior,
        # the hardest case for the quadrature, hence the high order.
        c = one_cluster([0])
        p = PglgParams(beta=np.array([0.0]), sigma=1.0, lam=1.0)
        rule = gauss_hermite(150)
        got = pglg_model.cluster_log_marginal(c, p, rule)
        assert got == pytest.approx(math.log(0.5), abs=1e-8)

    def test_tied_pair_closed_form(self):
        c = one_cluster([1, 2], X=np.ones((2, 1)))
        p = PglgParams(beta=np.array([0.0]), sigma=0.5, lam=0.5)
        got = pglg_model.cluster_log_marginal(c, p, gauss_hermite(60))
        expect = tied_log_marginal([1, 2], [1.0, 1.0], 0.5)
        assert expect == pytest.approx(-2.90279427789, abs=1e-9)
        assert got == pytest.approx(expect, abs=1e-6)

    def test_tied_grid_matches_closed_form(self):
        rule = gauss_hermite(80)
        for lam in (0.5, 1.0):
            p = PglgParams(beta=np.array([0.3]), sigma=lam, lam=lam)
            mu = math.exp(0.3)
            for y1 in (0, 2, 7):
                for y2 in (0, 3):
                    c = one_cluster([y1, y2], X=np.ones((2, 1)))
                    got = pglg_model.cluster_log_marginal(c, p, rule)
                    expect = tied_log_marginal([y1, y2], [mu, mu], lam)
                    assert got == pytest.approx(expect, abs=1e-6)

    def test_degenerate_prior_recovers_poisson(self):
        # sigma -> 0 pins the intercept at zero
        y = np.array([2, 0, 5])
        c = one_cluster(y, X=np.ones((3, 1)))
        p = PglgParams(beta=np.array([0.4]), sigma=1e-8, lam=0.0)
        mu = math.exp(0.4)
        poisson = float((y * math.log(mu) - mu - gammaln(y + 1.0)).sum())
        got = pglg_model.cluster_log_marginal(c, p)
        assert got == pytest.approx(poisson, abs=1e-5)

    def test_rule_refinement_stable(self):
        c = one_cluster([4, 1, 0], X=np.column_stack([np.ones(3), [-1.0, 0.0, 1.0]]))
        p = PglgParams(beta=np.array([0.5, -0.3]), sigma=0.4, lam=-0.3)
        a = pglg_model.cluster_log_marginal(c, p, gauss_hermite(40))
        b = pglg_model.cluster_log_marginal(c, p, gauss_hermite(100))
        assert a == pytest.approx(b, abs=1e-6)


class TestLogLikelihood:
    def test_sums_cluster_marginals(self):
        clusters = [
            one_cluster([1, 3], cid="a"),
            one_cluster([0], cid="b"),
            one_cluster([2, 2, 4], cid="c"),
        ]
        ds = wrap(clusters)
        p = PglgParams(beta=np.array([0.6]), sigma=0.7, lam=0.4)
        total = sum(pglg_model.cluster_log_marginal(c, p) for c in clusters)
        assert pglg_model.log_likelihood(ds, p) == pytest.approx(total, abs=1e-10)

    def test_cluster_order_invariance(self):
        clusters = [
            one_cluster([1, 3], cid="a"),
            one_cluster([0], cid="b"),
            one_cluster([6, 2], cid="c"),
        ]
        p = PglgParams(beta=np.array([0.6]), sigma=0.7, lam=-0.4)
        fwd = pglg_model.log_likelihood(wrap(clusters), p)
        rev = pglg_model.log_likelihood(wrap(clusters[::-1]), p)
        assert fwd == pytest.approx(rev, abs=1e-6)

    def test_truth_beats_perturbation_usually(self):
        # KL positivity: on data from the model, the true parameters out-
        # score a clearly wrong alternative for almost every replicate
        truth = PglgParams(beta=np.array([0.5]), sigma=0.6, lam=0.5)
        wrong = PglgParams(beta=np.array([1.3]), sigma=1.5, lam=0.5)
        wins = 0
        for seed in range(20):
            d = SimDesign(n_clusters=60, cluster_sizes=3, seed=seed)
            ds = simulate_pglg(d, truth)
            if pglg_model.log_likelihood(ds, truth) > pglg_model.log_likelihood(ds, wrong):
                wins += 1
        assert wins >= 18


@st.composite
def tied_cases(draw):
    """Small datasets of 1-5 clusters of 1-4 counts, with sigma = lam > 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    clusters = []
    for i in range(int(rng.integers(1, 6))):
        m = int(rng.integers(1, 5))
        X = np.column_stack([np.ones(m), rng.uniform(-1.0, 1.0, m)])
        clusters.append(one_cluster(rng.integers(0, 25, m), X, rng.normal(scale=0.3, size=m), f"c{i}"))
    lam = draw(st.floats(0.05, 1.5))
    beta = np.array([draw(st.floats(-2.0, 2.0)), draw(st.floats(-1.0, 1.0))])
    return wrap(clusters, ("a", "b")), beta, lam


class TestTiedMatchesMnb:
    """sigma = lam > 0 is the closed-form MNB with phi = lam^-2."""

    @settings(max_examples=60, deadline=None)
    @given(tied_cases())
    def test_log_likelihood_at_random_parameters(self, case):
        # Gauss-Hermite error falls geometrically with the order on these
        # smooth integrands, so whenever doubling the order at least halves
        # the error, |l_n - l| <= |l_n - l_2n| + |l_2n - l| gives
        # |l_n - l| <= 2 |l_n - l_2n|; 1e-10 per cluster covers rounding.
        # Order 2n itself stays within 5e-5 per cluster (the worst seen over
        # the corners of this range is 7.3e-6, at lam = 1.5), so the two
        # rules cannot agree on a wrong value
        ds, beta, lam = case
        tied = PglgParams(beta=beta, sigma=lam, lam=lam)
        n = DEFAULT_ORDER
        coarse = pglg_model.log_likelihood(ds, tied, gauss_hermite(n))
        fine = pglg_model.log_likelihood(ds, tied, gauss_hermite(2 * n))
        exact = mnb_model.log_likelihood(ds, MnbParams(beta=beta, phi=lam ** -2))
        assert abs(coarse - exact) <= 2.0 * abs(coarse - fine) + 1e-10 * ds.n_clusters
        assert abs(fine - exact) <= 5e-5 * ds.n_clusters


class TestPredictRandomEffects:
    def test_tied_posterior_mean_closed_form(self):
        # tied prior is gamma mixing: E[b | y] = psi(y+ + phi) - log(mu+ + phi)
        p = PglgParams(beta=np.array([0.0]), sigma=1.0, lam=1.0)
        ds = wrap([one_cluster([0], cid="z"), one_cluster([5], cid="w")])
        out = pglg_model.predict_random_effects(ds, p, gauss_hermite(150))
        assert out[0][0] == "z"
        assert out[0][1] == pytest.approx(digamma(1.0) - math.log(2.0), abs=1e-8)
        assert out[1][1] == pytest.approx(digamma(6.0) - math.log(2.0), abs=1e-8)

    def test_values(self):
        assert digamma(1.0) - math.log(2.0) == pytest.approx(-1.270362845, abs=1e-8)
        assert digamma(6.0) - math.log(2.0) == pytest.approx(1.012970488, abs=1e-8)

    def test_tight_prior_shrinks_to_zero(self):
        p = PglgParams(beta=np.array([0.0]), sigma=1e-6, lam=0.0)
        ds = wrap([one_cluster([7, 3])])
        out = pglg_model.predict_random_effects(ds, p)
        assert abs(out[0][1]) < 1e-5

    def test_monotone_in_counts(self):
        p = PglgParams(beta=np.array([0.0]), sigma=0.8, lam=-0.5)
        ds = wrap([one_cluster([y], cid=f"c{y}") for y in (0, 1, 4, 9)])
        vals = [v for _, v in pglg_model.predict_random_effects(ds, p)]
        assert vals == sorted(vals)

    def test_skewed_law_matches_fixed_grid(self):
        # right-skewed effects (lam = -1.2) at the default order, against a
        # trapezoid rule on a fixed fine grid
        X = np.column_stack([np.ones(3), [-1.0, 0.0, 1.0]])
        truth = PglgParams(beta=np.array([1.0, -0.3]), sigma=0.5, lam=-1.2)
        ds = simulate_pglg(SimDesign(n_clusters=60, cluster_sizes=3, x_builder=X, seed=8), truth)
        got = np.array([v for _, v in pglg_model.predict_random_effects(ds, truth)])

        b = np.linspace(-12.0, 10.0, 200_001)
        prior = glg_dist.log_pdf(b, GlgParams(0.0, truth.sigma, truth.lam))
        mu_plus = float(np.exp(X @ truth.beta).sum())
        want = []
        for c in ds.clusters:
            with np.errstate(over="ignore"):
                logf = c.y.sum() * b - mu_plus * np.exp(b) + prior
            w = np.exp(logf - logf.max())
            w[[0, -1]] *= 0.5  # trapezoid end weights; the uniform step cancels
            want.append((w * b).sum() / w.sum())
        assert np.max(np.abs(got - np.array(want))) < 1e-6

    def test_strongly_skewed_law_matches_fine_grid(self):
        # lam = -2.1 puts a long right tail on the intercepts; the default
        # (finest) rule must still match the grid far below the 1e-6 that
        # order 40 misses by on such laws
        X = np.column_stack([np.ones(3), [-1.0, 0.0, 1.0]])
        truth = PglgParams(beta=np.array([1.0, -0.3]), sigma=0.35, lam=-2.1)
        ds = simulate_pglg(SimDesign(n_clusters=60, cluster_sizes=3, x_builder=X, seed=4), truth)
        got = np.array([v for _, v in pglg_model.predict_random_effects(ds, truth)])

        b = np.linspace(-12.0, 10.0, 400_001)
        prior = glg_dist.log_pdf(b, GlgParams(0.0, truth.sigma, truth.lam))
        mu_plus = float(np.exp(X @ truth.beta).sum())
        y_plus = ds.cluster_sums(ds.y.astype(float))
        with np.errstate(over="ignore"):
            logf = y_plus[:, None] * b - mu_plus * np.exp(b) + prior
        w = np.exp(logf - logf.max(axis=1, keepdims=True))
        w[:, [0, -1]] *= 0.5
        want = (w * b).sum(axis=1) / w.sum(axis=1)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_failure_names_cluster_and_iterate(self):
        # a mode 2000 units away is out of reach of the capped Newton steps
        ds = wrap([
            one_cluster([2, 1], cid="near"),
            one_cluster([5], offset=[-2000.0], cid="far"),
        ])
        p = PglgParams(beta=np.array([0.0]), sigma=1e4, lam=0.0)
        with pytest.raises(ModeSearchError, match="far") as info:
            pglg_model.predict_random_effects(ds, p)
        assert "near" not in str(info.value)
        assert info.value.last_iterate is not None
        assert info.value.last_iterate.shape == (1,)


class TestPlainIntegrand:
    """The quadrature gets the integrand's derivatives as an argument of
    their own, so a caller that replaces the integrand by a plain function
    of b, as a tracing wrapper does, changes nothing."""

    def test_wrapped_integrand_gives_the_same_results(self, monkeypatch):
        X = np.column_stack([np.ones(3), [-1.0, 0.0, 1.0]])
        truth = PglgParams(beta=np.array([1.0, -0.3]), sigma=0.5, lam=-1.2)
        ds = simulate_pglg(SimDesign(n_clusters=60, cluster_sizes=3, x_builder=X, seed=8), truth)

        def run():
            return (pglg_model.fit(ds), pglg_model.log_likelihood(ds, truth),
                    pglg_model.predict_random_effects(ds, truth))

        want = run()
        engine = pglg_model.adaptive_nodes
        monkeypatch.setattr(pglg_model, "adaptive_nodes",
                            lambda g, *rest: engine(lambda b: g(b), *rest))
        got = run()
        assert got[0].as_dict() == want[0].as_dict()
        assert got[1] == want[1]
        assert got[2] == want[2]


class TestOneNodePath:
    """The objective, the log-likelihood and the order check integrate on
    the same nodes."""

    X = np.column_stack([np.ones(3), [-1.0, 0.0, 1.0]])
    THETA = np.array([1.0, -0.3, math.log(0.5), -1.2])

    def dataset(self):
        truth = PglgParams(beta=self.THETA[:2], sigma=0.5, lam=-1.2)
        return simulate_pglg(SimDesign(n_clusters=80, cluster_sizes=3, x_builder=self.X, seed=3),
                             truth)

    def test_fresh_objective_matches_log_likelihood_bit_for_bit(self):
        ds = self.dataset()
        objective = pglg_model._Objective(ds, PglgFitOptions())
        loglik, _, _ = objective(self.THETA)
        assert loglik == pglg_model.log_likelihood(ds, objective.to_params(self.THETA),
                                                   objective.rule)

    def test_warm_order_check_matches_cold_log_likelihood(self, monkeypatch):
        ds = self.dataset()
        options = PglgFitOptions()
        objective = pglg_model._Objective(ds, options)
        loglik, _, _ = objective(self.THETA)
        params = objective.to_params(self.THETA)
        sums = []
        inner = pglg_model._log_likelihood

        def spy(*args):
            sums.append(inner(*args))
            return sums[-1]

        monkeypatch.setattr(pglg_model, "_log_likelihood", spy)
        pglg_model._order_adequate(ds, params, loglik, options, objective.modes)
        monkeypatch.undo()
        assert len(sums) == 1
        cold = pglg_model.log_likelihood(ds, params, gauss_hermite(2 * options.order))
        assert abs(sums[0] - cold) <= 1e-10 * ds.n_clusters


class TestMarginalMoments:
    def test_normal_prior_lognormal_moments(self):
        c = one_cluster([0])
        p = PglgParams(beta=np.array([0.0]), sigma=1.0, lam=0.0)
        means, variances, cov = pglg_model.marginal_moments(c, p)
        assert means[0] == pytest.approx(math.exp(0.5), rel=1e-10)
        expect_var = (math.e ** 2 - math.e) + math.exp(0.5)
        assert variances[0] == pytest.approx(expect_var, rel=1e-10)
        assert variances[0] == pytest.approx(6.3194955, abs=1e-6)
        assert cov[0, 0] == variances[0]

    def test_tied_exponential_prior_covariance(self):
        # sigma = lam = 1: e^b ~ Exp(1), Var(e^b) = 1, so Cov = mu_j mu_k
        X = np.column_stack([np.ones(2), [0.0, 1.0]])
        c = one_cluster([0, 0], X=X)
        p = PglgParams(beta=np.array([0.3, 0.5]), sigma=1.0, lam=1.0)
        mu = np.exp(X @ p.beta)
        means, variances, cov = pglg_model.marginal_moments(c, p)
        np.testing.assert_allclose(means, mu, rtol=1e-12)
        assert cov[0, 1] == pytest.approx(mu[0] * mu[1], rel=1e-10)
        np.testing.assert_allclose(variances, mu ** 2 + mu, rtol=1e-10)

    def test_overdispersion(self):
        c = one_cluster([0])
        p = PglgParams(beta=np.array([1.0]), sigma=0.6, lam=-0.4)
        means, variances, _ = pglg_model.marginal_moments(c, p)
        assert variances[0] > means[0]

    def test_moment_check_against_simulation(self):
        X = np.ones((2, 1))
        p = PglgParams(beta=np.array([0.4]), sigma=0.5, lam=0.5)
        c = one_cluster([0, 0], X=X)
        means, variances, cov = pglg_model.marginal_moments(c, p)
        d = SimDesign(n_clusters=40000, cluster_sizes=2, seed=3)
        ds = simulate_pglg(d, p)
        ys = np.stack([cl.y for cl in ds.clusters]).astype(float)
        n = ys.shape[0]
        mc_se = np.sqrt(variances / n)
        assert np.all(np.abs(ys.mean(axis=0) - means) < 4 * mc_se)
        samp_cov = float(np.cov(ys[:, 0], ys[:, 1])[0, 1])
        # MC error of a covariance: sqrt(Var(prod)/n) is a fine scale here
        scale = float(np.std(ys[:, 0] * ys[:, 1]) / math.sqrt(n))
        assert abs(samp_cov - cov[0, 1]) < 4 * scale


class TestFit:
    def overdispersed_dataset(self, seed=2, n=80):
        X = np.column_stack([np.ones(3), [-1.0, 0.0, 1.0]])
        d = SimDesign(n_clusters=n, cluster_sizes=3, x_builder=X, seed=seed)
        truth = PglgParams(beta=np.array([0.8, -0.4]), sigma=0.7, lam=0.7)
        return simulate_pglg(d, truth), truth

    def test_tied_fit_matches_closed_form_mnb(self):
        ds, _ = self.overdispersed_dataset()
        tied = pglg_model.fit(ds, options=PglgFitOptions(tie_sigma_lambda=True, order=60))
        closed = mnb_model.fit(ds)
        assert tied.converged
        # same model in two parameterizations: phi = sigma^-2
        sigma = tied.estimate("sigma=lambda")
        np.testing.assert_allclose(
            tied.estimates[:2], closed.estimates[:2], atol=1e-3
        )
        assert sigma ** -2 == pytest.approx(closed.estimate("phi"), rel=1e-2)
        assert tied.loglik == pytest.approx(closed.loglik, abs=1e-3)

    def test_free_fit_nests_fixed(self):
        ds, _ = self.overdispersed_dataset(seed=5, n=50)
        free = pglg_model.fit(ds, options=PglgFitOptions(order=40))
        fixed = pglg_model.fit(ds, options=PglgFitOptions(fix_lambda=0.0, order=40))
        assert free.loglik >= fixed.loglik - 1e-6
        assert free.model == "pglg"
        assert fixed.model == "pglg-normal"
        assert free.names[-1] == "lambda"
        assert "lambda" not in fixed.names

    def test_conflicting_options_rejected(self):
        # when the options are built, so that no objective can tie sigma = lam
        # while lam is also fixed
        for fix_lambda in (0.0, 0.5):
            with pytest.raises(DomainError, match="mutually exclusive"):
                PglgFitOptions(fix_lambda=fix_lambda, tie_sigma_lambda=True)

    def test_trace_and_aic(self):
        ds, _ = self.overdispersed_dataset(seed=9, n=40)
        res = pglg_model.fit(ds, options=PglgFitOptions(tie_sigma_lambda=True, order=40))
        assert res.trace[0].iteration == 0
        assert [t.iteration for t in res.trace] == list(range(len(res.trace)))
        assert res.aic == pytest.approx(-2 * res.loglik + 2 * len(res.names), rel=1e-14)
        assert res.names == ("x1", "x2", "sigma=lambda")
        assert res.z_defined == (True, True, False)

    def test_free_fit_recovers_truth(self):
        X = np.column_stack([np.ones(4), [-1.0, -0.3, 0.3, 1.0]])
        d = SimDesign(n_clusters=300, cluster_sizes=4, x_builder=X, seed=17)
        truth = PglgParams(beta=np.array([1.0, -0.5]), sigma=0.6, lam=0.6)
        ds = simulate_pglg(d, truth)
        res = pglg_model.fit(ds, options=PglgFitOptions(order=40))
        assert res.converged
        se = res.std_errors
        assert se is not None
        target = np.array([1.0, -0.5, 0.6, 0.6])
        assert np.all(np.abs(res.estimates - target) < 3.5 * se)
        assert res.z_defined == (True, True, False, True)

    def test_init_used(self):
        ds, truth = self.overdispersed_dataset(seed=4, n=30)
        res = pglg_model.fit(
            ds,
            init=PglgParams(beta=truth.beta, sigma=truth.sigma, lam=truth.lam),
            options=PglgFitOptions(order=40),
        )
        assert res.converged

    def test_collinear_design_rejected(self):
        x = np.array([0.2, -0.1, 0.7])
        X = np.column_stack([np.ones(3), x, x])
        c = ClusterData(id="c0", y=np.array([1, 0, 2]), X=X, offset=np.zeros(3))
        ds = Dataset(clusters=(c,), column_names=("(intercept)", "a", "b"))
        with pytest.raises(CollinearDesignError):
            pglg_model.fit(ds)


class TestExactScore:
    """The score of the fit is Fisher's identity on the quadrature nodes;
    it must equal the derivative of the log-likelihood it climbs."""

    @staticmethod
    def five_point(f, theta, h=1e-3):
        out = np.empty_like(theta)
        for k in range(theta.size):
            e = np.zeros_like(theta)
            e[k] = h
            d1, d2 = f(theta + e) - f(theta - e), f(theta + 2 * e) - f(theta - 2 * e)
            out[k] = (8 * d1 - d2) / (12 * h)
        return out

    @pytest.mark.parametrize("lam", [-2.1, -1.2, 0.01, 0.6])
    @pytest.mark.parametrize("kind", ["free", "normal", "tied"])
    def test_matches_central_differences(self, lam, kind):
        X = np.column_stack([np.ones(3), [-1.0, 0.0, 1.0]])
        truth = PglgParams(beta=np.array([1.0, -0.3]), sigma=0.4, lam=lam)
        ds = simulate_pglg(SimDesign(n_clusters=40, cluster_sizes=3, x_builder=X, seed=3), truth)
        options = {
            "free": PglgFitOptions(order=100),
            "normal": PglgFitOptions(order=100, fix_lambda=0.0),
            "tied": PglgFitOptions(order=100, tie_sigma_lambda=True),
        }[kind]
        # away from the optimum: the truth has sigma = 0.4, not 0.5
        theta = np.array([0.9, -0.2, math.log(0.5)])
        if kind == "free":
            theta = np.append(theta, lam)
        objective = pglg_model._Objective(ds, options)
        _, score, _ = objective(theta)
        assert np.max(np.abs(score)) > 1.0
        numeric = self.five_point(lambda t: objective(t)[0], theta)
        np.testing.assert_allclose(score, numeric, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("lam", [-2.1, -1.2, 0.01, 0.6])
    @pytest.mark.parametrize("kind", ["free", "normal", "tied"])
    def test_louis_hessian_matches_score_differences(self, lam, kind):
        # Louis' identity on the nodes is the Jacobian of the exact score
        X = np.column_stack([np.ones(3), [-1.0, 0.0, 1.0]])
        truth = PglgParams(beta=np.array([1.0, -0.3]), sigma=0.4, lam=lam)
        ds = simulate_pglg(SimDesign(n_clusters=40, cluster_sizes=3, x_builder=X, seed=3), truth)
        options = {
            "free": PglgFitOptions(order=100),
            "normal": PglgFitOptions(order=100, fix_lambda=0.0),
            "tied": PglgFitOptions(order=100, tie_sigma_lambda=True),
        }[kind]
        theta = np.array([0.9, -0.2, math.log(0.5)])  # away from the optimum
        if kind == "free":
            theta = np.append(theta, lam)
        objective = pglg_model._Objective(ds, options)
        _, _, hess = objective(theta)
        h = 1e-5
        numeric = np.empty_like(hess)
        for k, e in enumerate(np.eye(theta.size) * h):
            numeric[:, k] = (objective(theta + e)[1] - objective(theta - e)[1]) / (2 * h)
        numeric = 0.5 * (numeric + numeric.T)
        np.testing.assert_array_equal(hess, hess.T)
        np.testing.assert_allclose(hess, numeric, rtol=0, atol=1e-6 * np.max(np.abs(numeric)))

    def test_unavailable_point_has_no_value(self):
        ds = simulate_pglg(SimDesign(n_clusters=10, cluster_sizes=3, seed=1),
                           PglgParams(beta=np.array([0.5]), sigma=0.5, lam=0.3))
        objective = pglg_model._Objective(ds, PglgFitOptions())
        assert objective(np.array([0.5, 800.0, 0.3])) is None  # sigma = e^800


class TestFitConvergence:
    X = np.column_stack([np.ones(3), [-1.0, 0.0, 1.0]])

    def test_lambda_zero_calibration(self):
        # normal intercepts: both fits converge and the likelihood-ratio
        # statistic for lam = 0 is never negative
        truth = PglgParams(beta=np.array([1.0, -0.3]), sigma=0.5, lam=0.0)
        for seed in range(100, 110):
            d = SimDesign(n_clusters=300, cluster_sizes=3, x_builder=self.X, seed=seed)
            ds = simulate_pglg(d, truth)
            free = pglg_model.fit(ds)
            normal = pglg_model.fit(ds, options=PglgFitOptions(fix_lambda=0.0))
            assert free.converged and normal.converged, seed
            assert 2.0 * (free.loglik - normal.loglik) >= 0.0, seed
            for res in (free, normal):
                assert all(np.isfinite(t.max_grad) for t in res.trace)
                assert res.trace[-1].max_grad < pglg_model._SCORE_TOL

    def test_order_check_flags_a_coarse_rule(self):
        # strongly right-skewed intercepts: at order 40 the score test
        # passes but the likelihood moves at order 80, so the fit is not
        # reported converged; order 100, checked against order 200, is
        # fine enough
        truth = PglgParams(beta=np.array([1.0, -0.3]), sigma=0.35, lam=-2.0)
        d = SimDesign(n_clusters=300, cluster_sizes=3, x_builder=self.X, seed=9)
        ds = simulate_pglg(d, truth)
        coarse = pglg_model.fit(ds, options=PglgFitOptions(order=40))
        assert coarse.trace[-1].max_grad < pglg_model._SCORE_TOL
        assert not coarse.converged
        fine = pglg_model.fit(ds, options=PglgFitOptions(order=100))
        assert fine.converged

    def test_coarse_rule_still_reaches_the_score_root(self):
        # at order 40 the score and the log-likelihood disagree by the
        # quadrature error; the step that lands below the unchecked score
        # lowers the log-likelihood a little and must still be taken
        truth = PglgParams(beta=np.array([1.0, -0.3]), sigma=0.3, lam=-2.3)
        d = SimDesign(n_clusters=300, cluster_sizes=3, x_builder=self.X, seed=21)
        res = pglg_model.fit(simulate_pglg(d, truth), options=PglgFitOptions(order=40))
        assert res.trace[-1].max_grad < pglg_model._SCORE_TOL

    def test_start_survives_diverging_poisson_start(self):
        # one cluster's huge total sends the independence Poisson fit off
        # to beta = (99.97, -59.4); its start must fall back to zeros
        truth = PglgParams(beta=np.array([1.0, -0.3]), sigma=0.3, lam=-2.5)
        d = SimDesign(n_clusters=300, cluster_sizes=3, x_builder=self.X, seed=5)
        ds = simulate_pglg(d, truth)
        np.testing.assert_array_equal(mnb_model._poisson_irls(ds), [0.0, 0.0])
        res = pglg_model.fit(ds)
        np.testing.assert_allclose(res.estimates[:2], truth.beta, atol=0.1)

    def test_cluster_reversal_invariance(self):
        truth = PglgParams(beta=np.array([1.0, -0.3]), sigma=0.5, lam=-1.2)
        d = SimDesign(n_clusters=200, cluster_sizes=3, x_builder=self.X, seed=21)
        ds = simulate_pglg(d, truth)
        rev = wrap(ds.clusters[::-1], names=ds.column_names)
        for options in (PglgFitOptions(), PglgFitOptions(fix_lambda=0.0)):
            a = pglg_model.fit(ds, options=options)
            b = pglg_model.fit(rev, options=options)
            assert a.converged and b.converged
            np.testing.assert_allclose(a.estimates, b.estimates, rtol=0, atol=1e-7)


@st.composite
def repeated_clusters(draw):
    """1-4 base clusters of 1-3 counts, zero-heavy, each repeated 1-4 times
    under its own id, in a shuffled order: the duplicates share (y+, mu+)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = []
    for _ in range(int(rng.integers(1, 5))):
        m = int(rng.integers(1, 4))
        X = np.column_stack([np.ones(m), rng.uniform(-1.0, 1.0, m)])
        base.append((rng.poisson(rng.choice([0.0, 0.5, 4.0]), m), X, rng.normal(scale=0.3, size=m)))
    copies = [k for k in range(len(base)) for _ in range(int(rng.integers(1, 5)))]
    rng.shuffle(copies)
    clusters = [one_cluster(*base[k], cid=f"c{i}") for i, k in enumerate(copies)]
    theta = np.array([draw(st.floats(-1.0, 1.5)), draw(st.floats(-1.0, 1.0)),
                      math.log(draw(st.floats(0.2, 1.2))), draw(st.floats(-1.5, 1.5))])
    return wrap(clusters, ("a", "b")), theta


class TestIntegrand:
    """The integrand's mode-search derivatives and log values against the
    glg_dist functions they inline."""

    @staticmethod
    def composed_derivatives(b, y_plus, log_mu_plus, prior):
        d1, d2 = glg_dist.log_pdf_y_derivatives(b, prior)
        with np.errstate(over="ignore"):
            mu_e = np.exp(b + log_mu_plus)
        return y_plus - mu_e + d1, d2 - mu_e

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.sampled_from([0.0, 1e-7, -1e-7, 1.001e-6, -1.001e-6, 0.999e-6, -2.5,
                                      2.5]), st.floats(-3.0, 3.0)),
           st.floats(0.05, 5.0),
           st.lists(st.tuples(st.integers(0, 200),
                              st.one_of(st.floats(-30.0, 30.0), st.just(-np.inf)),
                              st.one_of(st.floats(-50.0, 50.0), st.sampled_from([-800.0, 800.0]))),
                    min_size=1, max_size=20))
    def test_mode_search_derivatives_match_the_composition(self, lam, sigma, rows):
        y_plus = np.array([r[0] for r in rows], dtype=float)
        log_mu_plus = np.array([r[1] for r in rows])
        b = np.array([r[2] for r in rows])
        params = PglgParams(beta=np.zeros(1), sigma=sigma, lam=lam)
        prior = GlgParams(mu=0.0, sigma=sigma, lam=lam)
        _, derivatives = pglg_model._integrand(y_plus, log_mu_plus, params)
        with np.errstate(divide="ignore", invalid="ignore"):  # as the mode search runs it
            got = derivatives(b)
            want = self.composed_derivatives(b, y_plus, log_mu_plus, prior)
        for a, w in zip(got, want):
            assert np.array_equal(a, w, equal_nan=True)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([0.0, 1e-7, -0.05, 0.6, -1.2, 2.5]), st.floats(0.05, 5.0),
           st.integers(0, 2 ** 32 - 1))
    def test_one_pass_integrand_matches_log_pdf(self, lam, sigma, seed):
        rng = np.random.default_rng(seed)
        y_plus = rng.integers(0, 50, 4).astype(float)
        log_mu_plus = rng.normal(size=4)
        b = rng.normal(scale=3.0, size=(4, 7))
        params = PglgParams(beta=np.zeros(1), sigma=sigma, lam=lam)
        terms = []
        g_plain, _ = pglg_model._integrand(y_plus, log_mu_plus, params)
        g_terms, _ = pglg_model._integrand(y_plus, log_mu_plus, params, terms)
        assert np.array_equal(g_terms(b), g_plain(b))
        prior = GlgParams(mu=0.0, sigma=sigma, lam=lam)
        separate = glg_dist.log_pdf_grad(b, prior), glg_dist.log_pdf_hess(b, prior)
        for got, want in zip(terms, separate):
            for a, w in zip(got, want):
                assert np.array_equal(a, w)


class TestDistinctClusters:
    """The quadrature runs once per distinct cluster total (y+, log mu+) and
    every cluster gets the result of its pair."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3),
                              st.sampled_from([0.0, -1.5, 2.0, -np.inf, np.nan])),
                    min_size=1, max_size=30))
    def test_distinct_round_trips(self, pairs):
        y_plus = np.array([y for y, _ in pairs], dtype=float)
        log_mu_plus = np.array([v for _, v in pairs])
        by_y = np.argsort(y_plus, kind="stable")
        first, inverse = pglg_model._distinct(y_plus, log_mu_plus, by_y)
        np.testing.assert_array_equal(y_plus[first][inverse], y_plus)
        np.testing.assert_array_equal(log_mu_plus[first][inverse], log_mu_plus)  # NaN == NaN here
        np.testing.assert_array_equal(np.sort(first), np.unique(first))
        assert np.all(first[inverse] <= np.arange(len(pairs)))  # the lowest index stands for all
        keys = {(y, v) for y, v in zip(y_plus[first], log_mu_plus[first]) if not np.isnan(v)}
        n_nan = int(np.isnan(log_mu_plus).sum())
        assert first.size == len(keys) + n_nan  # every NaN is a pair of its own

    @staticmethod
    def lexsort_distinct(y_plus, log_mu_plus):
        """The grouping with one lexsort on (y+, log mu+) on every call."""
        order = np.lexsort((log_mu_plus, y_plus))
        y_sorted, l_sorted = y_plus[order], log_mu_plus[order]
        new = np.empty(order.size, dtype=bool)
        new[0] = True
        np.not_equal(y_sorted[1:], y_sorted[:-1], out=new[1:])
        new[1:] |= l_sorted[1:] != l_sorted[:-1]
        inverse = np.empty_like(order)
        inverse[order] = new.cumsum()
        inverse -= 1
        return order[new], inverse

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=30),
           st.lists(st.sampled_from([0.0, -0.0, -1.5, 2.0, -np.inf, np.nan]), min_size=5,
                    max_size=5),
           st.lists(st.sampled_from([0.0, -0.0, -1.5, 2.0, -np.inf, np.nan]), min_size=30,
                    max_size=30),
           st.booleans())
    def test_grouping_by_sorted_totals_matches_the_lexsort(self, ys, per_total, per_cluster,
                                                           shared):
        # shared: log mu+ is a function of y+ (no run of equal y+ is split),
        # as on a design whose clusters all share mu+; else drawn per cluster
        y_plus = np.array(ys, dtype=float)
        log_mu_plus = np.array([per_total[y] if shared else per_cluster[i]
                                for i, y in enumerate(ys)])
        want = self.lexsort_distinct(y_plus, log_mu_plus)
        got = pglg_model._distinct(y_plus, log_mu_plus, np.argsort(y_plus, kind="stable"))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_shared_mu_plus_runs_no_lexsort(self, monkeypatch):
        X = np.column_stack([np.ones(3), [-1.0, 0.0, 1.0]])
        truth = PglgParams(beta=np.array([1.0, -0.3]), sigma=0.5, lam=-1.2)
        ds = simulate_pglg(SimDesign(n_clusters=50, cluster_sizes=3, x_builder=X, seed=4), truth)
        objective = pglg_model._Objective(ds, PglgFitOptions())
        calls = []
        real = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or real(keys))
        assert objective(np.array([1.0, -0.3, math.log(0.5), -1.2])) is not None
        assert calls == []
        # a continuous covariate splits the runs of equal y+: the lexsort runs
        ds = simulate_pglg(SimDesign(n_clusters=50, cluster_sizes=3, seed=4,
                                     x_builder=lambda rng, m: np.column_stack(
                                         [np.ones(m), rng.normal(size=m)])), truth)
        assert pglg_model._Objective(ds, PglgFitOptions())(
            np.array([1.0, -0.3, math.log(0.5), -1.2])) is not None
        assert calls == [1]

    @settings(max_examples=40, deadline=None)
    @given(repeated_clusters())
    def test_objective_sums_one_cluster_objectives(self, case):
        ds, theta = case
        options = PglgFitOptions()
        whole = pglg_model._Objective(ds, options)(theta)
        parts = [pglg_model._Objective(wrap([c], ds.column_names), options)(theta)
                 for c in ds.clusters]
        assert whole is not None and all(part is not None for part in parts)
        for got, want in zip(whole, (sum(part[k] for part in parts) for k in range(3))):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.max(np.abs(want)))

    @settings(max_examples=40, deadline=None)
    @given(repeated_clusters())
    def test_duplicates_get_bit_equal_predictions(self, case):
        ds, theta = case
        params = pglg_model._Objective(ds, PglgFitOptions()).to_params(theta)
        got = dict(pglg_model.predict_random_effects(ds, params))
        for c in ds.clusters:
            alone = dict(pglg_model.predict_random_effects(wrap([c], ds.column_names), params))
            assert got[c.id] == pytest.approx(alone[c.id], rel=1e-12, abs=1e-12)
        for a in ds.clusters:
            for b in ds.clusters:
                if np.array_equal(a.y, b.y) and np.array_equal(a.X, b.X) and np.array_equal(
                        a.offset, b.offset):
                    assert got[a.id] == got[b.id]

    def test_balanced_design_integrates_each_total_once(self, monkeypatch):
        X = np.column_stack([np.ones(3), [-1.0, 0.0, 1.0]])
        truth = PglgParams(beta=np.array([1.0, -0.3]), sigma=0.5, lam=-1.2)
        ds = simulate_pglg(SimDesign(n_clusters=200, cluster_sizes=3, x_builder=X, seed=4), truth)
        n_distinct = np.unique(ds.cluster_sums(ds.y)).size  # one design: mu+ is shared
        assert n_distinct < ds.n_clusters // 4
        rows = []
        engine = pglg_model.adaptive_nodes

        def counted(g, derivatives, rule, init):
            rows.append(len(init))
            return engine(g, derivatives, rule, init)

        monkeypatch.setattr(pglg_model, "adaptive_nodes", counted)
        pglg_model._Objective(ds, PglgFitOptions())(np.array([1.0, -0.3, math.log(0.5), -1.2]))
        assert rows == [n_distinct]

    def test_failure_names_every_duplicate(self):
        ds = wrap([
            one_cluster([5], offset=[-2000.0], cid="far1"),
            one_cluster([2, 1], cid="near"),
            one_cluster([5], offset=[-2000.0], cid="far2"),
        ])
        p = PglgParams(beta=np.array([0.0]), sigma=1e4, lam=0.0)
        with pytest.raises(ModeSearchError, match=r"\['far1', 'far2'\]") as info:
            pglg_model.predict_random_effects(ds, p)
        assert "near" not in str(info.value)
        assert info.value.last_iterate.shape == (2,)
        assert info.value.last_iterate[0] == info.value.last_iterate[1]
