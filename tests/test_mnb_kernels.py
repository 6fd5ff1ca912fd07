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
from glgmix.mnb_model import _KPHI_BLOCK, _KPHI_MAX_TERMS, _KPHI_TAIL, MnbParams, ScoreInfo


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


def ref_k_phi(mu_plus, phi):
    """The dispersion information with one series per cluster, as computed
    before the series ran once per distinct mu+ (kept verbatim but for the
    stop at the tail's rounding floor)."""
    # sum over clusters of sum_{j>=0} (j + phi)^-2 P(Y+ >= j + 1)
    # - mu+/(phi (mu+ + phi)), with Y+ negative binomial of mean mu+ and
    # dispersion phi.  A cluster's series stops after its first term whose
    # tail probability is below _KPHI_TAIL, or below 1 and equal to the
    # next term's (the tail's rounding floor).  All clusters step through the
    # terms together, _KPHI_BLOCK at a time: log P(Y+ = j) and the tail run
    # as cumulative sums along the block, and finished clusters leave the
    # working arrays.  Logs, because P(Y+ = 0) = (phi/(phi + mu+))^phi
    # underflows when phi log1p(mu+/phi) is large.
    log_ratio = np.log(mu_plus / (phi + mu_plus))
    log_p = phi * np.log(phi / (phi + mu_plus))  # log P(Y+ = 0)
    tail = 1.0 - np.exp(log_p)  # P(Y+ >= 1)
    total = 0.0
    for j0 in range(0, _KPHI_MAX_TERMS, _KPHI_BLOCK):
        j = j0 + np.arange(_KPHI_BLOCK)
        # column c holds the state at term j0 + c; column 0 is carried in
        steps = np.empty((log_p.size, _KPHI_BLOCK + 1))
        steps[:, 0] = log_p
        steps[:, 1:] = np.log((phi + j) / (j + 1.0)) + log_ratio[:, None]
        log_probs = np.cumsum(steps, axis=1)
        probs = np.exp(log_probs)  # P(Y+ = j0 + c)
        steps[:, 0] = tail
        steps[:, 1:] = -probs[:, 1:]
        tails = np.maximum(np.cumsum(steps, axis=1), 0.0)  # P(Y+ >= j0 + c + 1)
        below = (tails[:, :-1] < _KPHI_TAIL) | ((tails[:, 1:] == tails[:, :-1]) & (tails[:, :-1] < 1.0))
        taken = np.cumsum(below, axis=1) - below == 0  # up to the first term below
        total += float(np.sum(np.where(taken, tails[:, :-1], 0.0) / (j + phi) ** 2))
        going = ~below.any(axis=1)
        if not going.any():
            break
        log_p, tail, log_ratio = log_probs[going, -1], tails[going, -1], log_ratio[going]
    return total - float(np.sum(mu_plus / (phi * (mu_plus + phi))))


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

    # (mu+, phi, the value of the series that ran on past the tail's rounding
    # floor, up to _KPHI_MAX_TERMS terms)
    @pytest.mark.parametrize("mu_plus, phi, floor_value", [
        (3000.0, 700.0, 6.709081180073656e-7),
        (2050.0, 1050.0, 1.9830181329871886e-7),
        (2200.0, 1100.0, 1.8363612796438566e-7),
    ])
    def test_k_phi_stops_at_the_tails_rounding_floor(self, monkeypatch, mu_plus, phi, floor_value):
        # P(Y+ = 0) underflows and the tail, 1 minus the probabilities so
        # far, stops falling just above _KPHI_TAIL: the series ends there,
        # within 200 blocks, and no further from the exact sum than the
        # series that ran on
        want = k_phi_series_mpmath(mu_plus, phi)
        got = mnb_model._k_phi(np.array([mu_plus]), phi)
        assert abs(got - want) <= abs(floor_value - want)
        assert got == pytest.approx(float(want), rel=1e-9)
        monkeypatch.setattr(mnb_model, "_KPHI_MAX_TERMS", 200 * _KPHI_BLOCK)
        assert mnb_model._k_phi(np.array([mu_plus]), phi) == got


def k_phi_series_mpmath(mu_plus, phi):
    """One cluster's dispersion information, its series summed at 40
    digits until the tail is below 1e-30 past the mean."""
    with mpmath.workdps(40):
        mu, phi = mpmath.mpf(mu_plus), mpmath.mpf(phi)
        prob = (phi / (phi + mu)) ** phi  # P(Y+ = 0)
        tail, total, j = 1 - prob, mpmath.mpf(0), 0
        while j <= mu or tail >= mpmath.mpf(10) ** -30:
            total += tail / (phi + j) ** 2
            prob *= (phi + j) / (j + 1) * mu / (phi + mu)
            tail -= prob
            j += 1
        return total - mu / (phi * (mu + phi))


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


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def mu_plus_stacks(draw, means=log_uniform(1e-2, 1e3)):
    """Cluster totals mu+: copies of a few distinct values (a balanced
    design), all distinct (a continuous covariate) or one cluster; zero
    totals among them at times."""
    kind = draw(st.sampled_from(["repeats", "distinct", "one"]))
    values = st.one_of(means, st.just(0.0)) if draw(st.booleans()) else means
    if kind == "one":
        return np.array([draw(values)])
    if kind == "distinct":
        return np.array(draw(st.lists(values, min_size=2, max_size=60, unique=True)))
    pool = draw(st.lists(values, min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=120))
    return np.array(pool)[picks]


def k_phi_pair(mu_plus, phi):
    with np.errstate(divide="ignore"):  # log(0) for a zero total, in both
        return mnb_model._k_phi(mu_plus, phi), ref_k_phi(mu_plus, phi)


class TestKPhiOncePerDistinctTotal:
    """The dispersion series runs once per distinct mu+ and is bit-equal to
    one series per cluster."""

    @settings(max_examples=60, deadline=None)
    @given(mu_plus_stacks(), log_uniform(0.2, 50.0))
    def test_bit_equal_to_one_series_per_cluster(self, mu_plus, phi):
        got, want = k_phi_pair(mu_plus, phi)
        assert got == want

    @settings(max_examples=10, deadline=None)
    @given(mu_plus_stacks(means=log_uniform(1e-2, 1e4)), st.floats(1e3, 3e3),
           st.integers(0, 200), st.floats(0.5, 3.0))
    def test_bit_equal_when_series_end_in_different_blocks(self, mu_plus, long, at, phi):
        # small phi and totals over six decades, with one long series always
        # among them: series of one block up to hundreds, so distinct rows
        # leave the working arrays at different blocks
        mu_plus = np.insert(mu_plus, min(at, mu_plus.size), long)
        got, want = k_phi_pair(mu_plus, phi)
        assert got == want

    @settings(max_examples=10, deadline=None)
    @given(mu_plus_stacks(means=st.floats(1800.0, 2200.0)), st.floats(900.0, 1100.0))
    def test_bit_equal_when_p_zero_underflows(self, mu_plus, phi):
        # phi log1p(mu+/phi) > 745, as in test_k_phi_when_p_zero_underflows
        got, want = k_phi_pair(mu_plus, phi)
        assert got == want

    def test_duplicated_clusters_fit_standard_errors(self):
        # 120 clusters on 4 design patterns: 4 distinct mu+ at any beta
        rng = np.random.default_rng(8)
        patterns = [np.array([[1.0, -1.0], [1.0, 0.0], [1.0, 1.0]]), np.array([[1.0, 0.5]]),
                    np.array([[1.0, 2.0], [1.0, -2.0]]), np.array([[1.0, 0.0], [1.0, 0.0]])]
        clusters = []
        for i in range(120):
            X = patterns[i % 4]
            mu = np.exp(X @ [0.6, -0.3]) * rng.gamma(2.0, 0.5)
            clusters.append(ClusterData(id=f"c{i}", y=rng.poisson(mu), X=X, offset=np.zeros(len(X))))
        ds = Dataset(clusters=clusters, column_names=("a", "b"))
        result = mnb_model.fit(ds)
        params = MnbParams(beta=result.estimates[:-1], phi=result.estimates[-1])
        mu_plus = mnb_model._means(ds, params.beta)[1]
        assert np.unique(mu_plus).size == 4
        info = mnb_model.score(ds, params)
        reference = ScoreInfo(u_beta=info.u_beta, u_phi=info.u_phi, k_beta=info.k_beta,
                              k_phi=ref_k_phi(mu_plus, params.phi))
        np.testing.assert_array_equal(result.std_errors, mnb_model._standard_errors(reference))
