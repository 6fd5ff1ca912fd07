import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.special import polygamma
from scipy.stats import nbinom

from glgmix import _newton, mnb_model
from glgmix.data_io import ClusterData, Dataset, ungroup
from glgmix.errors import (
    CollinearDesignError,
    DomainError,
    LeverageError,
    NegativeDevianceWarning,
)
from glgmix.mnb_model import MnbParams
from glgmix.simulate import SimDesign, simulate_mnb


def make_dataset(ys, Xs, offsets=None, names=None):
    clusters = []
    for i, (y, X) in enumerate(zip(ys, Xs)):
        y = np.asarray(y)
        X = np.asarray(X, dtype=float)
        off = np.zeros(len(y)) if offsets is None else np.asarray(offsets[i], float)
        clusters.append(ClusterData(id=f"c{i}", y=y, X=X, offset=off))
    if names is None:
        names = tuple(f"x{j+1}" for j in range(Xs[0].shape[1] if hasattr(Xs[0], "shape") else len(Xs[0][0])))
    return Dataset(clusters=tuple(clusters), column_names=names)


def small_dataset():
    # overdispersed by construction (gamma frailty), so phi-hat is interior
    rng = np.random.default_rng(7)
    ys, Xs = [], []
    for i in range(8):
        m = 2 + i % 3
        X = np.column_stack([np.ones(m), rng.normal(scale=0.5, size=m)])
        w = rng.gamma(1.5, 1.0 / 1.5)
        ys.append(rng.poisson(w * np.exp(0.6 * X[:, 0] - 0.4 * X[:, 1])))
        Xs.append(X)
    return make_dataset(ys, Xs, names=("(intercept)", "x"))


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            MnbParams(beta=np.array([0.0]), phi=0.0)
        with pytest.raises(DomainError):
            MnbParams(beta=np.array([np.inf]), phi=1.0)
        with pytest.raises(DomainError):
            MnbParams(beta=np.eye(2), phi=1.0)


class TestLogPmf:
    def test_single_observation_hand_value(self):
        # y=3, mu=1, phi=1: geometric(1/2), P(Y=3) = (1/2)^4
        ds = make_dataset([[3]], [np.ones((1, 1))])
        p = MnbParams(beta=np.array([0.0]), phi=1.0)
        assert mnb_model.log_pmf(ds.clusters[0], p) == pytest.approx(
            math.log(1.0 / 16.0), abs=1e-12
        )

    def test_single_observation_matches_nbinom(self):
        for mu in (0.3, 1.0, 4.5):
            for phi in (0.5, 1.0, 7.0):
                for y in (0, 1, 2, 9):
                    ds = make_dataset([[y]], [np.ones((1, 1))])
                    p = MnbParams(beta=np.array([math.log(mu)]), phi=phi)
                    expect = nbinom.logpmf(y, phi, phi / (phi + mu))
                    got = mnb_model.log_pmf(ds.clusters[0], p)
                    assert got == pytest.approx(expect, rel=1e-12)

    def test_pair_pmf_sums_to_one(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        p = MnbParams(beta=np.array([0.0, math.log(2.0)]), phi=1.5)
        total = 0.0
        for y1 in range(80):
            for y2 in range(120):
                c = ClusterData(
                    id="c", y=np.array([y1, y2]), X=X, offset=np.zeros(2)
                )
                total += math.exp(mnb_model.log_pmf(c, p))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_offset_shifts_mean(self):
        ds1 = make_dataset([[2, 1]], [np.ones((2, 1))], offsets=[[math.log(3), 0.0]])
        ds2_X = np.array([[1.0], [1.0]])
        c2 = ClusterData(
            id="c", y=np.array([2, 1]),
            X=ds2_X, offset=np.array([math.log(3.0), 0.0]),
        )
        p = MnbParams(beta=np.array([0.2]), phi=2.0)
        assert mnb_model.log_pmf(ds1.clusters[0], p) == pytest.approx(
            mnb_model.log_pmf(c2, p), abs=1e-14
        )

    def test_log_likelihood_adds_clusters(self):
        ds = small_dataset()
        p = MnbParams(beta=np.array([0.4, -0.1]), phi=1.3)
        total = sum(mnb_model.log_pmf(c, p) for c in ds.clusters)
        assert mnb_model.log_likelihood(ds, p) == pytest.approx(total, rel=1e-14)


class TestScoreAndInformation:
    def test_score_matches_finite_differences(self):
        ds = small_dataset()
        p = MnbParams(beta=np.array([0.3, -0.2]), phi=1.7)
        info = mnb_model.score(ds, p)
        theta = np.append(p.beta, p.phi)
        for k in range(3):
            h = 1e-6 * max(1.0, abs(theta[k]))
            up, dn = theta.copy(), theta.copy()
            up[k] += h
            dn[k] -= h
            fd = (
                mnb_model.log_likelihood(ds, MnbParams(beta=up[:2], phi=up[2]))
                - mnb_model.log_likelihood(ds, MnbParams(beta=dn[:2], phi=dn[2]))
            ) / (2 * h)
            analytic = info.u_beta[k] if k < 2 else info.u_phi
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_observed_info_beta_matches_score_jacobian(self):
        ds = small_dataset()
        p = MnbParams(beta=np.array([0.3, -0.2]), phi=1.7)
        obs = mnb_model.observed_info_beta(ds, p)
        for k in range(2):
            h = 1e-6
            up = p.beta.copy()
            dn = p.beta.copy()
            up[k] += h
            dn[k] -= h
            fd = -(
                mnb_model.score(ds, MnbParams(beta=up, phi=p.phi)).u_beta
                - mnb_model.score(ds, MnbParams(beta=dn, phi=p.phi)).u_beta
            ) / (2 * h)
            np.testing.assert_allclose(obs[:, k], fd, rtol=1e-6, atol=1e-8)

    def test_phi_curvature_matches_score_derivative(self):
        ds = small_dataset()
        p = MnbParams(beta=np.array([0.3, -0.2]), phi=1.7)
        h = 1e-6 * p.phi
        fd = (
            mnb_model.score(ds, MnbParams(beta=p.beta, phi=p.phi + h)).u_phi
            - mnb_model.score(ds, MnbParams(beta=p.beta, phi=p.phi - h)).u_phi
        ) / (2 * h)
        assert mnb_model.phi_curvature(ds, p) == pytest.approx(fd, rel=1e-6)

    def test_observed_equals_expected_when_totals_match(self):
        # a_i = (phi + y_plus)/(phi + mu_plus) collapses to 1 when each
        # cluster total equals its fitted total
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        p = MnbParams(beta=np.array([0.0, math.log(2.0)]), phi=1.3)  # mu = (1, 2)
        ds = make_dataset([[2, 1], [1, 2]], [X, X])
        obs = mnb_model.observed_info_beta(ds, p)
        exp = mnb_model.score(ds, p).k_beta
        np.testing.assert_allclose(obs, exp, rtol=1e-12)

    def test_k_phi_matches_expectation_route(self):
        # K_phiphi for one cluster, via E[-dU_phi/dphi] with Y_plus
        # enumerated under its negative binomial law
        mu_plus, phi = 1.0, 1.0
        ds = make_dataset([[0]], [np.ones((1, 1))])
        p = MnbParams(beta=np.array([0.0]), phi=phi)
        k_phi = mnb_model.score(ds, p).k_phi

        ks = np.arange(0, 800)
        pmf = nbinom.pmf(ks, phi, phi / (phi + mu_plus))
        e_trigamma = float(pmf @ polygamma(1, phi + ks))
        expect = float(polygamma(1, phi)) - e_trigamma - 1.0 / phi + 1.0 / (phi + mu_plus)
        assert k_phi == pytest.approx(expect, rel=1e-9)
        assert k_phi == pytest.approx(0.08224052647, abs=1e-9)

    def test_k_phi_independent_of_y(self):
        p = MnbParams(beta=np.array([0.1, 0.4]), phi=2.2)
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(3), rng.normal(size=3)])
        a = make_dataset([[0, 0, 0]], [X])
        b = make_dataset([[4, 1, 7]], [X])
        assert mnb_model.score(a, p).k_phi == pytest.approx(
            mnb_model.score(b, p).k_phi, rel=1e-12
        )

    def test_score_zero_mean_under_model(self):
        # E[U] = 0: average the analytic score over many simulated datasets
        p = MnbParams(beta=np.array([0.5, -0.3]), phi=1.5)
        X = np.column_stack([np.ones(3), np.array([-1.0, 0.0, 1.0])])
        reps = 400
        u = np.zeros(3)
        u2 = np.zeros(3)
        for r in range(reps):
            d = SimDesign(n_clusters=40, cluster_sizes=3, x_builder=X, seed=1000 + r)
            ds = simulate_mnb(d, p)
            s = mnb_model.score(ds, p)
            vec = np.append(s.u_beta, s.u_phi)
            u += vec
            u2 += vec ** 2
        mean = u / reps
        se = np.sqrt((u2 / reps - mean ** 2) / reps)
        assert np.all(np.abs(mean) < 4 * se)


def law_dataset(seed, phi, n_clusters=300, beta=(0.8, -0.4)):
    """Clusters of 3 at x = -1, 0, 1 around gamma(phi, 1/phi) frailties."""
    X = np.array([[1.0, -1.0], [1.0, 0.0], [1.0, 1.0]])
    rng = np.random.default_rng(seed)
    w = rng.gamma(phi, 1.0 / phi, size=n_clusters)
    y = rng.poisson(np.exp(X @ np.asarray(beta))[None, :] * w[:, None])
    return make_dataset(list(y), [X] * n_clusters, names=("(intercept)", "x"))


def joint_objective(ds):
    """The fit's stacked objective at one point: (loglik, score, hessian),
    or None where the point is unavailable."""
    evaluate = mnb_model._objective(ds)

    def at(theta):
        loglik, score, hess = evaluate(theta[None], np.zeros(1, dtype=int))
        if not _newton.available(loglik, score, hess)[0]:
            return None
        return loglik[0], score[0], hess[0]

    return at


class TestJointObjective:
    """The fit's objective over theta = (beta, log phi)."""

    @pytest.mark.parametrize("grouped", [True, False])
    @pytest.mark.parametrize("dataset", ["small", "law"])
    def test_hessian_is_the_jacobian_of_the_score(self, grouped, dataset):
        ds = small_dataset() if dataset == "small" else law_dataset([5, 1], 0.7, 60)
        ds = ds if grouped else ungroup(ds)
        objective = joint_objective(ds)
        theta = np.array([0.3, -0.7, math.log(0.6)])  # far from the optimum
        loglik, score, hess = objective(theta)
        assert np.array_equal(hess, hess.T)
        h = 1e-5
        numeric = np.empty_like(hess)
        for k in range(theta.size):
            step = np.zeros(theta.size)
            step[k] = h
            numeric[:, k] = (objective(theta + step)[1] - objective(theta - step)[1]) / (2 * h)
        assert np.max(np.abs(hess - numeric)) < 1e-6 * np.max(np.abs(hess))
        assert np.max(np.abs(hess[:2, 2])) > 1e-3 * np.max(np.abs(hess))  # cross block in play

    def test_blocks_match_the_public_kernels(self):
        ds = small_dataset()
        theta = np.array([0.3, -0.7, math.log(0.6)])
        loglik, score, hess = joint_objective(ds)(theta)
        params = MnbParams(beta=theta[:2], phi=math.exp(theta[2]))
        phi = params.phi
        info = mnb_model.score(ds, params)
        assert loglik == mnb_model.log_likelihood(ds, params)
        np.testing.assert_array_equal(score, np.append(info.u_beta, phi * info.u_phi))
        obs = mnb_model.observed_info_beta(ds, params)
        # equal up to the symmetrisation's rounding
        assert np.max(np.abs(-hess[:2, :2] - obs)) < 1e-14 * np.max(np.abs(obs))
        curv = mnb_model.phi_curvature(ds, params)
        assert hess[2, 2] == phi * phi * curv + phi * info.u_phi

    def test_unavailable_points_give_none(self):
        objective = joint_objective(small_dataset())
        assert objective(np.array([0.0, 0.0, 800.0])) is None  # phi overflows
        assert objective(np.array([0.0, 0.0, -800.0])) is None  # phi underflows to 0
        assert objective(np.array([800.0, 0.0, 0.0])) is None  # means overflow

    def test_start_where_the_means_overflow_raises(self):
        X = np.column_stack([np.ones(3), [-1.0, 0.0, 1.0]])
        ds = make_dataset([[1, 2, 3]] * 4, [X] * 4, offsets=[np.full(3, 750.0)] * 4)
        with pytest.raises(DomainError, match="not finite at the start"):
            mnb_model.fit(ds, init=MnbParams(beta=np.zeros(2), phi=1.0))

    def test_stop_rule_is_the_natural_score(self):
        # at this seed the log phi score phi U_phi drops below 1e-6 one
        # step before U_phi itself does, at phi-hat = 0.33
        ds = law_dataset([99, 2], 0.3)
        res = mnb_model.fit(ds)
        assert res.converged
        info = mnb_model.score(ds, MnbParams(beta=res.estimates[:-1], phi=res.estimates[-1]))
        assert max(np.max(np.abs(info.u_beta)), abs(info.u_phi)) < 1e-6
        assert res.trace[-1].max_grad < 1e-6

        start = mnb_model._poisson_irls(ds)
        theta = np.append(start, math.log(mnb_model._moment_start_phi(ds, start)))
        theta_log = _newton.maximise(mnb_model._objective(ds), theta[None], 1e-6, 100).theta[0]
        at_log = MnbParams(beta=theta_log[:-1], phi=math.exp(theta_log[-1]))
        assert abs(mnb_model.score(ds, at_log).u_phi) >= 1e-6


class TestIntraclassCorr:
    def test_value(self):
        got = mnb_model.intraclass_corr(0.7, 1.2, 1.5)
        assert got == pytest.approx(math.sqrt(0.84 / (2.2 * 2.7)), rel=1e-12)
        assert got == pytest.approx(0.37605072, abs=1e-8)

    def test_limits(self):
        # phi -> infinity kills the correlation; phi -> 0 saturates it
        assert mnb_model.intraclass_corr(1.0, 1.0, 1e8) < 1e-7
        assert mnb_model.intraclass_corr(1.0, 1.0, 1e-8) > 1 - 1e-7

    def test_validation(self):
        with pytest.raises(DomainError):
            mnb_model.intraclass_corr(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            mnb_model.intraclass_corr(1.0, 1.0, -2.0)


class TestFit:
    def test_recovery_within_three_se(self):
        X = np.column_stack([np.ones(3), np.array([-1.0, 0.0, 1.0])])
        design = SimDesign(n_clusters=400, cluster_sizes=3, x_builder=X, seed=21)
        truth = MnbParams(beta=np.array([0.8, -0.4]), phi=1.2)
        ds = simulate_mnb(design, truth)
        res = mnb_model.fit(ds)
        assert res.converged
        est = res.estimates
        se = res.std_errors
        target = np.array([0.8, -0.4, 1.2])
        assert np.all(np.abs(est - target) < 3 * se)

    def test_trace_monotone_and_score_small(self):
        ds = small_dataset()
        res = mnb_model.fit(ds)
        assert res.converged
        logliks = [t.loglik for t in res.trace]
        assert np.all(np.diff(logliks) >= -1e-10)
        assert res.trace[-1].max_grad < 1e-6
        assert res.trace[0].iteration == 0

    def test_final_score_vanishes(self):
        ds = small_dataset()
        res = mnb_model.fit(ds)
        p = MnbParams(beta=res.estimates[:-1], phi=res.estimates[-1])
        info = mnb_model.score(ds, p)
        assert max(np.max(np.abs(info.u_beta)), abs(info.u_phi)) < 1e-6

    def test_identical_designs_converge(self):
        # the Poisson start already solves the beta score here; the fit
        # must still walk phi in without stalling
        X = np.column_stack([np.ones(3), np.array([-1.0, 0.0, 1.0])])
        rng = np.random.default_rng(5)
        ys = [rng.poisson([1.0, 2.0, 4.0]) + rng.poisson(0.5) for _ in range(60)]
        ds = make_dataset(ys, [X] * 60, names=("(intercept)", "x"))
        res = mnb_model.fit(ds)
        assert res.converged
        assert np.all(np.diff([t.loglik for t in res.trace]) >= -1e-10)

    def test_init_respected(self):
        ds = small_dataset()
        base = mnb_model.fit(ds)
        seeded = mnb_model.fit(
            ds, init=MnbParams(beta=np.array([1.0, 1.0]), phi=5.0)
        )
        assert seeded.converged
        np.testing.assert_allclose(seeded.estimates, base.estimates, rtol=1e-5)

    def test_loglik_consistent_with_estimates(self):
        ds = small_dataset()
        res = mnb_model.fit(ds)
        p = MnbParams(beta=res.estimates[:-1], phi=res.estimates[-1])
        assert res.loglik == pytest.approx(mnb_model.log_likelihood(ds, p), rel=1e-12)

    def test_names_and_z_flags(self):
        ds = small_dataset()
        res = mnb_model.fit(ds)
        assert res.names == ("(intercept)", "x", "phi")
        assert res.z_defined == (True, True, False)
        assert res.model == "mnb"
        assert math.isnan(res.z_values()[-1])

    @pytest.mark.parametrize("ungrouped", [False, True])
    def test_all_zero_counts_raise(self, ungrouped):
        # each cluster adds phi log(phi/(phi + mu+)), which rises toward 0 as
        # phi -> 0: no maximum exists, whatever the start
        X = np.column_stack([np.ones(3), [-1.0, 0.0, 1.0]])
        ds = make_dataset([[0, 0, 0]] * 10, [X] * 10)
        if ungrouped:
            ds = ungroup(ds)
        with pytest.raises(DomainError, match="every count is 0"):
            mnb_model.fit(ds)
        with pytest.raises(DomainError, match="every count is 0"):
            mnb_model.fit(ds, init=MnbParams(beta=np.zeros(2), phi=1.0))

    def test_collinear_design_named(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=4)
        X = np.column_stack([np.ones(4), x, 2.0 * x])
        ds = make_dataset(
            [rng.poisson(2.0, 4)], [X], names=("(intercept)", "a", "a_twice")
        )
        with pytest.raises(CollinearDesignError) as info:
            mnb_model.fit(ds)
        msg = str(info.value)
        assert "a" in msg or "a_twice" in msg
        assert info.value.columns

    @staticmethod
    def _null_space_columns(X):
        # SciPy's null space uses the same rank tolerance, max(n, p) eps s_0
        null = scipy.linalg.null_space(X)
        return X.shape[1] - null.shape[1], np.flatnonzero(np.abs(null).max(axis=1) > 1e-8)

    @pytest.mark.parametrize("case", range(6))
    def test_collinear_columns_as_pivoted_qr_names_them(self, case):
        # every column with a non-zero entry in the null space of X is
        # named, not only the ones a pivoted QR would leave last
        rng = np.random.default_rng(case)
        n = 12
        a, b, c = rng.normal(size=(3, n))
        designs = [
            [np.ones(n), a, 2.0 * a],
            [np.ones(n), 3.0 * a, a, b],
            [a, b, a + 2.0 * b, c],
            [np.ones(n), a, b, 2.0 + 0.5 * a - 3.0 * b],
            [a, np.zeros(n), b],
            [np.ones(n), a, b, c, 4.0 * b - c],
        ]
        X = np.column_stack(designs[case])
        names = tuple(f"c{j}" for j in range(X.shape[1]))
        ds = make_dataset([rng.poisson(2.0, n)], [X], names=names)
        rank, involved = self._null_space_columns(X)
        assert rank < X.shape[1]
        with pytest.raises(CollinearDesignError) as info:
            mnb_model._check_design_rank(ds)
        assert list(info.value.columns) == sorted(names[j] for j in involved)
        assert f"rank {rank} < {X.shape[1]}" in str(info.value)

    def test_whole_dependency_named_when_coefficients_tie(self):
        # b and the last column enter the dependency with coefficients of
        # equal size, which left a pivoted QR to name one of them by rounding
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 12))
        X = np.column_stack([np.ones(12), a, b, 1.0 + 0.5 * a - b])
        names = ("one", "a", "b", "mix")
        ds = make_dataset([rng.poisson(2.0, 12)], [X], names=names)
        with pytest.raises(CollinearDesignError) as info:
            mnb_model._check_design_rank(ds)
        assert sorted(info.value.columns) == sorted(names)
        assert list(self._null_space_columns(X)[1]) == [0, 1, 2, 3]
        assert "rank 3 < 4" in str(info.value)

    def test_wide_design_names_the_free_columns(self):
        # fewer rows than columns: the null space has p - n dimensions or more
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(3), rng.normal(size=(3, 4))])
        ds = make_dataset([rng.poisson(2.0, 3)], [X])
        with pytest.raises(CollinearDesignError) as info:
            mnb_model._check_design_rank(ds)
        rank, involved = self._null_space_columns(X)
        assert rank == 3
        assert list(info.value.columns) == sorted(ds.column_names[j] for j in involved)

    def test_full_rank_design_passes(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(9), rng.normal(size=(9, 3))])
        mnb_model._check_design_rank(make_dataset([rng.poisson(2.0, 9)], [X]))


class TestDeviance:
    def test_saturated_fit_is_zero(self):
        # identity design with beta = log y reproduces y exactly (counts
        # chosen so exp(log k) round-trips without rounding)
        y = np.array([2, 1, 4])
        ds = make_dataset([y], [np.eye(3)], names=("d1", "d2", "d3"))
        fitted = MnbParams(beta=np.log(y.astype(float)), phi=2.3)
        assert mnb_model.deviance(ds, fitted) == 0.0

    def test_near_saturated_fit_tiny(self):
        y = np.array([3, 1, 7])
        ds = make_dataset([y], [np.eye(3)], names=("d1", "d2", "d3"))
        fitted = MnbParams(beta=np.log(y.astype(float)), phi=2.3)
        assert abs(mnb_model.deviance(ds, fitted)) < 1e-12

    def test_all_zero_counts_hand_value(self):
        # with every count zero only the dispersion term survives:
        # 2 phi log((phi + mu_plus)/phi) = 4 log 2 for phi=2, mu=(1,1)
        ds = make_dataset([[0, 0]], [np.ones((2, 1))])
        fitted = MnbParams(beta=np.array([0.0]), phi=2.0)
        assert mnb_model.deviance(ds, fitted) == pytest.approx(4 * math.log(2), rel=1e-12)

    @pytest.mark.filterwarnings("ignore::glgmix.errors.NegativeDevianceWarning")
    def test_components_sum_to_cluster_deviance(self):
        ds = small_dataset()
        res = mnb_model.fit(ds)
        fitted = MnbParams(beta=res.estimates[:-1], phi=res.estimates[-1])
        comps = mnb_model.deviance_components(ds, fitted)
        assert comps.shape == (ds.n_obs,)
        assert comps.sum() == pytest.approx(mnb_model.deviance(ds, fitted), abs=1e-10)

    def test_negative_component_with_warning(self):
        # one large and one zero count at a flat fit: the zero observation
        # inherits half the (negative) dispersion term and nothing else
        ds = make_dataset([[5, 0]], [np.ones((2, 1))])
        fitted = MnbParams(beta=np.array([0.0]), phi=1.0)
        with pytest.warns(NegativeDevianceWarning):
            comps = mnb_model.deviance_components(ds, fitted)
        assert comps[1] == pytest.approx(math.log(3.0 / 6.0), rel=1e-12)
        assert comps[1] < 0
        assert comps.sum() == pytest.approx(mnb_model.deviance(ds, fitted), abs=1e-12)

    def test_positive_fit_no_warning(self):
        ds = make_dataset([[2, 2]], [np.ones((2, 1))])
        fitted = MnbParams(beta=np.array([0.0]), phi=1.0)
        comps = mnb_model.deviance_components(ds, fitted)
        assert np.all(comps >= 0)


@pytest.mark.filterwarnings("ignore::glgmix.errors.NegativeDevianceWarning")
class TestResiduals:
    def fitted_small(self):
        ds = small_dataset()
        res = mnb_model.fit(ds)
        return ds, MnbParams(beta=res.estimates[:-1], phi=res.estimates[-1])

    def test_leverages_sum_to_p(self):
        ds, fitted = self.fitted_small()
        rep = mnb_model.residuals(ds, fitted)
        assert rep.leverage.sum() == pytest.approx(ds.p, rel=1e-8)
        assert np.all(rep.leverage >= 0)
        assert np.all(rep.leverage <= 1)

    def test_small_clusters_allowed(self):
        # single-observation clusters have m_i < p; the pooled projection
        # must still produce leverages
        rng = np.random.default_rng(9)
        ys = [[y] for y in rng.poisson(2.0, size=12)]
        Xs = [np.column_stack([[1.0], [x]]) for x in rng.normal(size=12)]
        ds = make_dataset(ys, Xs, names=("(intercept)", "x"))
        fitted = MnbParams(beta=np.array([0.5, 0.1]), phi=1.0)
        rep = mnb_model.residuals(ds, fitted)
        assert rep.leverage.sum() == pytest.approx(2.0, rel=1e-8)

    def test_pearson_formula(self):
        ds, fitted = self.fitted_small()
        rep = mnb_model.residuals(ds, fitted)
        k = 0
        for c in ds.clusters:
            mu = np.exp(c.X @ fitted.beta + c.offset)
            expect = (c.y - mu) / np.sqrt(mu + mu ** 2 / fitted.phi)
            np.testing.assert_allclose(rep.pearson[k : k + c.m], expect, rtol=1e-10)
            k += c.m

    def test_dev_resid_sign_and_nan(self):
        ds = make_dataset([[5, 0]], [np.ones((2, 1))])
        fitted = MnbParams(beta=np.array([0.0]), phi=1.0)
        with pytest.warns(NegativeDevianceWarning):
            rep = mnb_model.residuals(ds, fitted)
        # positive component, y above fit: positive root with the sign of y - mu
        assert rep.dev_resid[0] > 0
        assert math.isnan(rep.dev_resid[1])

    def test_dev_resid_squares_back_to_component(self):
        # dev_comp already carries the deviance's factor 2, so a defined
        # standardized residual satisfies r^2 (1 - h) = dev_comp
        X = np.column_stack([np.ones(3), [-1.0, 0.0, 1.0]])
        d = SimDesign(n_clusters=200, cluster_sizes=3, x_builder=X, seed=11)
        ds = simulate_mnb(d, MnbParams(beta=np.array([0.8, -0.4]), phi=1.5))
        res = mnb_model.fit(ds)
        fitted = MnbParams(beta=res.estimates[:-1], phi=res.estimates[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeDevianceWarning)
            rep = mnb_model.residuals(ds, fitted)
        ok = rep.dev_comp >= 0
        assert ok.sum() > 100
        np.testing.assert_allclose(
            rep.dev_resid[ok] ** 2 * (1.0 - rep.leverage[ok]), rep.dev_comp[ok], rtol=1e-12
        )
        assert rep.dev_comp.sum() == pytest.approx(mnb_model.deviance(ds, fitted), rel=1e-12)

    def test_report_alignment(self):
        ds, fitted = self.fitted_small()
        rep = mnb_model.residuals(ds, fitted)
        assert len(rep.cluster_ids) == ds.n_obs
        assert rep.obs_index[0] == 1
        assert rep.fitted.shape == (ds.n_obs,)
        mus = np.concatenate(
            [np.exp(c.X @ fitted.beta + c.offset) for c in ds.clusters]
        )
        np.testing.assert_allclose(rep.fitted, mus, rtol=1e-12)

    def test_singular_pooled_matrix_raises(self):
        x = np.array([0.4, -0.2, 1.1])
        X = np.column_stack([x, x])
        ds = make_dataset([[1, 2, 0]], [X], names=("a", "b"))
        fitted = MnbParams(beta=np.array([0.1, 0.1]), phi=1.0)
        with pytest.raises(LeverageError):
            mnb_model.residuals(ds, fitted)

    def test_small_scale_pooled_matrix_is_not_singular(self):
        # means near 1e-130 make a well-conditioned pooled matrix whose
        # determinant underflows to 0; only an exact zero pivot is singular
        rng = np.random.default_rng(4)
        Xs = [np.column_stack([np.ones(3), rng.normal(size=(3, 2))]) for _ in range(6)]
        ds = make_dataset([[0, 0, 0]] * 6, Xs, names=("(intercept)", "a", "b"))
        fitted = MnbParams(beta=np.array([-300.0, 0.1, -0.2]), phi=2.0)
        mu, mu_plus = mnb_model._means(ds, fitted.beta)[:2]
        assert np.linalg.det(mnb_model._info_beta(ds, mu, mu_plus, fitted.phi)) == 0.0
        rep = mnb_model.residuals(ds, fitted)
        assert rep.leverage.sum() == pytest.approx(3.0, rel=1e-8)
