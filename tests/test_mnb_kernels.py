"""The MNB array kernels against per-cluster loop references.

The library computes every MNB quantity from per-cluster segment sums over
the flat observation arrays.  The references below walk the clusters one
at a time with the textbook formulas; the two orders of summation agree
to a few ulps.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma, polygamma
from scipy.stats import nbinom

from glgmix import mnb_model
from glgmix.data_io import ClusterData, Dataset
from glgmix.errors import NegativeDevianceWarning, NonPsdWeightWarning
from glgmix.mnb_model import MnbParams


def ref_cluster_mu(c, params):
    return np.exp(c.X @ params.beta + c.offset)


def ref_harmonic_span(y_plus, phi):
    if y_plus > mnb_model._SUM_TERMS_MAX:
        return float(digamma(phi + y_plus) - digamma(phi))
    return float(np.sum(1.0 / (phi + np.arange(y_plus))))


def ref_score(dataset, params):
    """U_beta, U_phi and the expected beta information, cluster by cluster."""
    phi = params.phi
    u_beta = np.zeros(dataset.p)
    u_phi = 0.0
    k_beta = np.zeros((dataset.p, dataset.p))
    for c in dataset.clusters:
        mu = ref_cluster_mu(c, params)
        y_plus, mu_plus = int(c.y.sum()), float(mu.sum())
        u_beta += c.X.T @ (c.y - (phi + y_plus) / (phi + mu_plus) * mu)
        u_phi += (
            ref_harmonic_span(y_plus, phi)
            - y_plus / (phi + mu_plus)
            - math.log1p(mu_plus / phi)
            + mu_plus / (phi + mu_plus)
        )
        xm = c.X.T @ mu
        k_beta += (c.X.T * mu) @ c.X - np.outer(xm, xm) / (phi + mu_plus)
    return u_beta, u_phi, k_beta


def ref_deviance_components(dataset, fitted):
    phi = fitted.phi
    comps = []
    for c in dataset.clusters:
        mu = ref_cluster_mu(c, fitted)
        y_plus, mu_plus = float(c.y.sum()), float(mu.sum())
        shared = (phi / c.m) * math.log((phi + mu_plus) / (phi + y_plus))
        for y, m in zip(c.y.tolist(), mu.tolist()):
            own = y * math.log(y * (phi + mu_plus) / (m * (phi + y_plus))) if y else 0.0
            comps.append(2.0 * (shared + own))
    return np.array(comps)


def ref_leverages(dataset, fitted):
    phi = fitted.phi
    mus = [ref_cluster_mu(c, fitted) for c in dataset.clusters]
    pooled = sum(
        (c.X.T * mu) @ c.X - np.outer(c.X.T @ mu, c.X.T @ mu) / (phi + mu.sum())
        for c, mu in zip(dataset.clusters, mus)
    )
    pooled_inv = np.linalg.inv(pooled)
    lev = []
    for c, mu in zip(dataset.clusters, mus):
        vals, vecs = np.linalg.eigh(np.diag(mu) - np.outer(mu, mu) / (phi + mu.sum()))
        half = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
        a = half @ c.X
        lev.append(np.einsum("ij,jk,ik->i", a, pooled_inv, a))
    return np.concatenate(lev)


@st.composite
def mixed_datasets(draw):
    """Clusters of 1-5 observations with zero-heavy counts and offsets."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n = draw(st.integers(1, 12))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    clusters = []
    for i in range(n):
        m = int(rng.integers(1, 6))
        X = np.column_stack([np.ones(m), rng.normal(size=(m, p - 1))])
        y = rng.poisson(rng.choice([0.0, 0.3, 2.0, 15.0]), size=m)
        clusters.append(ClusterData(id=f"c{i}", y=y, X=X, offset=rng.normal(scale=0.5, size=m)))
    params = MnbParams(beta=rng.normal(scale=0.4, size=p), phi=float(rng.uniform(0.2, 8.0)))
    return Dataset(clusters=clusters, column_names=[f"x{j}" for j in range(p)]), params


def shuffled(dataset, seed):
    order = np.random.default_rng(seed).permutation(dataset.n_clusters)
    clusters = dataset.clusters
    return Dataset(clusters=[clusters[i] for i in order], column_names=dataset.column_names)


def assert_matrix_close(a, b):
    """Equal within 1e-12 of the matrix's largest entry: an entry that is a
    small difference of large sums moves by rounding of that size when the
    sums are taken in another order, however small the entry itself is."""
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.max(np.abs(a)))


def spread_design(mu_plus, phi):
    """One observation per cluster with the given means."""
    clusters = [
        ClusterData(id=f"c{i}", y=[0], X=[[1.0]], offset=[math.log(m)])
        for i, m in enumerate(mu_plus)
    ]
    return Dataset(clusters=clusters, column_names=("x",)), MnbParams(beta=[0.0], phi=phi)


# y+ on both sides of the cumulative tables' end
span_counts = st.one_of(
    st.integers(0, 60),
    st.integers(mnb_model._SUM_TERMS_MAX - 40, mnb_model._SUM_TERMS_MAX + 40),
    st.integers(mnb_model._SUM_TERMS_MAX + 1, 3 * mnb_model._SUM_TERMS_MAX),
)


class TestSpanTables:
    """The log-gamma, digamma and trigamma differences between phi + y+ and
    phi against 30-digit mpmath (SciPy's own differences cancel at large
    phi and small y+)."""

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1e-2, 1e4), st.lists(span_counts, min_size=1, max_size=4))
    def test_against_mpmath(self, phi, counts):
        y_plus = np.array(counts, dtype=float)
        ours = {
            "lgamma": mnb_model._lgamma_spans(y_plus, phi),
            "digamma": mnb_model._digamma_spans(y_plus, phi),
            "trigamma": mnb_model._trigamma_spans(y_plus, phi),
        }
        with mpmath.workdps(30):
            f = mpmath.mpf(phi)
            for i, n in enumerate(counts):
                refs = {
                    "lgamma": mpmath.loggamma(f + n) - mpmath.loggamma(f),
                    "digamma": mpmath.digamma(f + n) - mpmath.digamma(f),
                    "trigamma": mpmath.polygamma(1, f + n) - mpmath.polygamma(1, f),
                }
                for name, ref in refs.items():
                    ref = float(ref)
                    assert abs(ours[name][i] - ref) <= 1e-13 * max(1.0, abs(ref)), (name, n)

    def test_closed_form_only_past_the_table(self):
        def refuse(x):
            raise AssertionError("closed form called for a tabulated count")

        y_plus = np.array([0.0, 3.0, float(mnb_model._SUM_TERMS_MAX)])
        spans = mnb_model._spans(y_plus, 1.5, np.log, refuse)
        np.testing.assert_allclose(spans, [0.0, math.log(1.5 * 2.5 * 3.5), spans[2]])


class TestAgainstClusterLoops:
    @settings(max_examples=60, deadline=None)
    @given(mixed_datasets())
    def test_log_likelihood_is_sum_of_log_pmfs(self, case):
        ds, params = case
        total = sum(mnb_model.log_pmf(c, params) for c in ds.clusters)
        assert mnb_model.log_likelihood(ds, params) == pytest.approx(total, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(mixed_datasets())
    def test_score_matches_reference(self, case):
        ds, params = case
        u_beta, u_phi, k_beta = ref_score(ds, params)
        info = mnb_model.score(ds, params)
        np.testing.assert_allclose(info.u_beta, u_beta, rtol=1e-10, atol=1e-10)
        assert info.u_phi == pytest.approx(u_phi, rel=1e-10, abs=1e-10)
        np.testing.assert_allclose(info.k_beta, k_beta, rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(mixed_datasets())
    def test_deviance_components_match_reference(self, case):
        ds, params = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeDevianceWarning)
            comps = mnb_model.deviance_components(ds, params)
        np.testing.assert_allclose(comps, ref_deviance_components(ds, params), rtol=1e-12, atol=1e-12)
        assert mnb_model.deviance(ds, params) == pytest.approx(comps.sum(), rel=1e-12, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(mixed_datasets(), st.integers(0, 1000))
    def test_invariant_under_cluster_reordering(self, case, seed):
        ds, params = case
        other = shuffled(ds, seed)
        a, b = mnb_model.score(ds, params), mnb_model.score(other, params)
        np.testing.assert_allclose(a.u_beta, b.u_beta, rtol=1e-10, atol=1e-10)
        assert a.u_phi == pytest.approx(b.u_phi, rel=1e-10, abs=1e-10)
        assert_matrix_close(a.k_beta, b.k_beta)
        assert a.k_phi == pytest.approx(b.k_phi, rel=1e-12)
        assert mnb_model.phi_curvature(ds, params) == pytest.approx(
            mnb_model.phi_curvature(other, params), rel=1e-12
        )
        assert_matrix_close(
            mnb_model.observed_info_beta(ds, params), mnb_model.observed_info_beta(other, params)
        )

    def test_both_harmonic_branches_in_one_dataset(self):
        big = mnb_model._SUM_TERMS_MAX + 2500
        ys = [[big // 2, big - big // 2], [0, 3], [mnb_model._SUM_TERMS_MAX], [1], [7, 0, 2]]
        clusters = [
            ClusterData(id=f"c{i}", y=y, X=np.ones((len(y), 1)), offset=np.zeros(len(y)))
            for i, y in enumerate(ys)
        ]
        ds = Dataset(clusters=clusters, column_names=("x",))
        for phi in (0.4, 3.0):
            params = MnbParams(beta=[math.log(50.0)], phi=phi)
            _, u_phi, _ = ref_score(ds, params)
            assert mnb_model.score(ds, params).u_phi == pytest.approx(u_phi, rel=1e-12)

    def test_k_phi_matches_expectation_route_over_wide_means(self):
        # K_phiphi = sum_i psi1(phi) - E psi1(phi + Y+_i) - 1/phi + 1/(phi + mu+_i)
        phi = 2.5
        mu_plus = np.geomspace(0.01, 1e3, 9)
        ds, params = spread_design(mu_plus, phi)
        expect = 0.0
        for m in mu_plus:
            law = nbinom(phi, phi / (phi + m))
            ks = np.arange(int(law.ppf(1.0 - 1e-16)) + 50)
            expect += (
                float(polygamma(1, phi)) - float(law.pmf(ks) @ polygamma(1, phi + ks))
                - 1.0 / phi + 1.0 / (phi + m)
            )
        assert mnb_model.score(ds, params).k_phi == pytest.approx(expect, rel=1e-9)

    def test_k_phi_when_p_zero_underflows(self):
        # P(Y+ = 0) = (phi/(phi + mu+))^phi = exp(-1000 log 3) underflows;
        # the series must still start from it, not from 0
        mu_plus, phi = 2000.0, 1000.0
        ds, params = spread_design([mu_plus], phi)
        law = nbinom(phi, phi / (phi + mu_plus))
        ks = np.arange(int(law.ppf(1.0 - 1e-16)) + 50)
        expect = (
            float(polygamma(1, phi)) - float(law.pmf(ks) @ polygamma(1, phi + ks))
            - 1.0 / phi + 1.0 / (phi + mu_plus)
        )
        assert expect == pytest.approx(2.221974568e-7, rel=1e-9)
        assert mnb_model.score(ds, params).k_phi == pytest.approx(expect, rel=1e-8)


class TestResidualBatching:
    def mixed(self):
        rng = np.random.default_rng(21)
        clusters = []
        for i, m in enumerate([1, 3, 2, 5, 1, 4, 3, 2, 2, 5, 1]):
            X = np.column_stack([np.ones(m), rng.normal(size=m), rng.uniform(size=m)])
            clusters.append(
                ClusterData(id=f"k{i}", y=rng.poisson(3.0, size=m), X=X, offset=rng.normal(scale=0.3, size=m))
            )
        ds = Dataset(clusters=clusters, column_names=("a", "b", "c"))
        return ds, MnbParams(beta=[0.7, -0.2, 0.3], phi=1.8)

    def test_leverages_match_cluster_eigh(self):
        ds, fitted = self.mixed()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeDevianceWarning)
            rep = mnb_model.residuals(ds, fitted)
        np.testing.assert_allclose(rep.leverage, ref_leverages(ds, fitted), rtol=0, atol=1e-12)
        assert rep.leverage.sum() == pytest.approx(ds.p, rel=1e-12)

    def test_layout_matches_cluster_order(self):
        ds, fitted = self.mixed()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeDevianceWarning)
            rep = mnb_model.residuals(ds, fitted)
        assert rep.cluster_ids == tuple(c.id for c in ds.clusters for _ in range(c.m))
        assert rep.obs_index.tolist() == [j + 1 for c in ds.clusters for j in range(c.m)]

    def test_one_non_psd_warning_per_call(self, monkeypatch):
        # W = D(mu) - mu mu'/(phi + mu+) is PSD in exact arithmetic, and
        # which rounding errors push an eigenvalue below -1e-10 is not
        # portable; so every cluster's smallest eigenvalue is replaced by a
        # distinct negative value
        ds, fitted = self.mixed()
        eigh = np.linalg.eigh
        lowest = []

        def negative_eigh(w):
            vals, vecs = eigh(w)
            vals = vals.copy()
            vals[..., 0] = -1e-3 * (1.0 + np.arange(vals[..., 0].size)).reshape(vals.shape[:-1])
            lowest.append(vals.min())
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", negative_eigh)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mnb_model.residuals(ds, fitted)
        psd = [w for w in caught if issubclass(w.category, NonPsdWeightWarning)]
        assert len(psd) == 1
        assert f"eigenvalue {min(lowest):.3e} below" in str(psd[0].message)
