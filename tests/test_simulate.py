import math
import re

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from glgmix import glg_dist
from glgmix.data_io import INTERCEPT_NAME, ClusterData, Dataset
from glgmix.errors import DomainError
from glgmix.mnb_model import MnbParams
from glgmix.pglg_model import PglgParams
from glgmix.simulate import (
    SimDesign,
    resample_mnb,
    resample_pglg,
    simulate_mnb,
    simulate_pglg,
)


class TestSimDesign:
    def test_validation(self):
        with pytest.raises(DomainError):
            SimDesign(n_clusters=0)
        with pytest.raises(DomainError):
            SimDesign(n_clusters=3, cluster_sizes=(2, 2))
        with pytest.raises(DomainError):
            SimDesign(n_clusters=2, cluster_sizes=(2, 0))
        with pytest.raises(DomainError):
            SimDesign(n_clusters=2, x_builder=np.ones(3))
        with pytest.raises(DomainError):
            # fixed array needs balanced clusters of matching size
            SimDesign(n_clusters=2, cluster_sizes=(2, 3), x_builder=np.ones((2, 1)))
        with pytest.raises(DomainError):
            # so do fixed per-observation offsets, checked when the design is built
            SimDesign(n_clusters=2, cluster_sizes=3, offsets=np.zeros(2))
        with pytest.raises(DomainError):
            SimDesign(n_clusters=2, cluster_sizes=(2, 3), offsets=[0.0, 0.5])
        for n in (2.7, 3.0, "3", None):
            with pytest.raises(DomainError, match="n_clusters must be an integer"):
                SimDesign(n_clusters=n)

    @pytest.mark.parametrize("sizes, bad", [(2.7, 2.7), ([1.9, 3], 1.9), ("2", "2"), ([2, "3"], "3")])
    def test_non_integer_cluster_sizes_rejected(self, sizes, bad):
        with pytest.raises(DomainError, match="must be an integer, got") as info:
            SimDesign(n_clusters=2, cluster_sizes=sizes)
        assert str(info.value).endswith(repr(bad))

    @pytest.mark.parametrize("field, value, message", [
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", "7", "seed must be an integer, got '7'"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("column_names", 5, "column_names must be a sequence of strings, got 5"),
        ("column_names", "ab", "column_names must be a sequence of strings, got 'ab'"),
        ("column_names", ["a", 1], "column_names must be a sequence of strings"),
        ("cluster_sizes", None, "cluster_sizes must be an integer, got None"),
    ])
    def test_malformed_fields_name_themselves(self, field, value, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            SimDesign(n_clusters=2, **{field: value})

    def test_seed_and_names_normalised(self):
        d = SimDesign(n_clusters=2, seed=np.int64(7), column_names=["a"])
        assert type(d.seed) is int and d.seed == 7 and d.column_names == ("a",)

    def test_integer_like_cluster_sizes_become_int(self):
        for sizes in (np.int64(3), [np.int64(3), 3]):
            d = SimDesign(n_clusters=2, cluster_sizes=sizes)
            assert d.cluster_sizes == (3, 3) and all(type(m) is int for m in d.cluster_sizes)

    def test_integer_like_n_clusters_becomes_int(self):
        d = SimDesign(n_clusters=np.int64(3), cluster_sizes=2)
        assert type(d.n_clusters) is int and d.cluster_sizes == (2, 2, 2)

    def test_unbalanced_sizes(self):
        d = SimDesign(n_clusters=3, cluster_sizes=(1, 2, 3), seed=1)
        ds = simulate_mnb(d, MnbParams(beta=np.array([0.0]), phi=1.0))
        assert [c.m for c in ds.clusters] == [1, 2, 3]
        assert ds.column_names == (INTERCEPT_NAME,)

    def test_callable_builder_and_names(self):
        def build(rng, m):
            return np.column_stack([np.ones(m), rng.uniform(-1, 1, m)])

        d = SimDesign(n_clusters=4, cluster_sizes=2, x_builder=build, seed=2)
        ds = simulate_mnb(d, MnbParams(beta=np.array([0.1, 0.2]), phi=2.0))
        assert ds.p == 2
        assert ds.column_names == ("x1", "x2")
        # per-cluster draws differ
        assert not np.array_equal(ds.clusters[0].X, ds.clusters[1].X)

    def test_custom_names_length_checked(self):
        d = SimDesign(n_clusters=2, column_names=("a", "b"))
        with pytest.raises(DomainError):
            simulate_mnb(d, MnbParams(beta=np.array([0.0]), phi=1.0))

    def test_offsets_scalar_and_vector(self):
        d = SimDesign(n_clusters=2, cluster_sizes=2, offsets=math.log(2.0), seed=0)
        ds = simulate_mnb(d, MnbParams(beta=np.array([0.0]), phi=4.0))
        np.testing.assert_allclose(ds.clusters[0].offset, math.log(2.0))

        d2 = SimDesign(
            n_clusters=2, cluster_sizes=2, offsets=np.array([0.0, math.log(3.0)]), seed=0
        )
        ds2 = simulate_mnb(d2, MnbParams(beta=np.array([0.0]), phi=4.0))
        np.testing.assert_allclose(ds2.clusters[1].offset, [0.0, math.log(3.0)])

    def test_extreme_linear_predictor_rejected(self):
        d = SimDesign(n_clusters=1, cluster_sizes=1)
        with pytest.raises(DomainError):
            simulate_mnb(d, MnbParams(beta=np.array([40.0]), phi=1.0))

    def test_cluster_ids_stable(self):
        d = SimDesign(n_clusters=3, seed=0)
        ds = simulate_pglg(d, PglgParams(beta=np.array([0.0]), sigma=0.5, lam=0.0))
        assert [c.id for c in ds.clusters] == ["c00001", "c00002", "c00003"]


_X_ARRAY = np.array([[1.0, -0.5], [1.0, 0.0], [1.0, 0.7]])
_OFFSETS = np.array([0.1, -0.2, 0.4])


class TestSimulateReference:
    """Simulated data against the per-cluster algorithm written out: the
    covariates of every cluster, then one frailty or intercept per
    cluster, then one ``rng.poisson`` per cluster, all in cluster order
    from ``default_rng(seed)``."""

    @pytest.mark.parametrize("law", ["mnb", "pglg"])
    @pytest.mark.parametrize("offsets", ["none", "scalar", "array"])
    @pytest.mark.parametrize("x", ["none", "array", "callable"])
    def test_counts_match_reference(self, x, offsets, law):
        balanced = x == "array" or offsets == "array"
        sizes = (3,) * 5 if balanced else (1, 3, 2, 4, 1)
        builder = {"none": None, "array": _X_ARRAY,
                   "callable": lambda rng, m: rng.normal(size=(m, 2))}[x]
        fixed_offsets = {"none": None, "scalar": 0.3, "array": _OFFSETS}[offsets]
        beta = np.array([0.4]) if x == "none" else np.array([0.4, -0.6])
        design = SimDesign(n_clusters=len(sizes), cluster_sizes=sizes, x_builder=builder,
                           offsets=fixed_offsets, seed=13)

        rng = np.random.default_rng(13)
        if x == "none":
            xs = [np.ones((m, 1)) for m in sizes]
        elif x == "array":
            xs = [_X_ARRAY for m in sizes]
        else:
            xs = [rng.normal(size=(m, 2)) for m in sizes]
        offs = [np.zeros(m) if fixed_offsets is None else np.full(m, 0.3) if offsets == "scalar"
                else _OFFSETS for m in sizes]
        if law == "mnb":
            params = MnbParams(beta=beta, phi=1.7)
            effects = np.log(rng.gamma(1.7, 1.0 / 1.7, size=len(sizes)))
            dataset = simulate_mnb(design, params)
        else:
            params = PglgParams(beta=beta, sigma=0.6, lam=-0.8)
            effects = glg_dist.sample(glg_dist.GlgParams(mu=0.0, sigma=0.6, lam=-0.8), rng, len(sizes))
            dataset = simulate_pglg(design, params)
        expect = [rng.poisson(np.exp(xi @ beta + oi + e)) for xi, oi, e in zip(xs, offs, effects)]

        np.testing.assert_array_equal(dataset.y, np.concatenate(expect))
        np.testing.assert_array_equal(dataset.X, np.vstack(xs))
        np.testing.assert_array_equal(dataset.offset, np.concatenate(offs))
        assert list(dataset.sizes) == list(sizes)
        assert dataset.ids == tuple(f"c{i:05d}" for i in range(1, len(sizes) + 1))


class TestDeterminism:
    def test_same_seed_same_data(self):
        d = SimDesign(n_clusters=20, cluster_sizes=3, seed=42)
        p = PglgParams(beta=np.array([0.3]), sigma=0.6, lam=-0.4)
        a, b = simulate_pglg(d, p), simulate_pglg(d, p)
        for ca, cb in zip(a.clusters, b.clusters):
            assert np.array_equal(ca.y, cb.y)
            assert np.array_equal(ca.X, cb.X)

    def test_different_seeds_differ(self):
        p = MnbParams(beta=np.array([0.5]), phi=1.0)
        a = simulate_mnb(SimDesign(n_clusters=30, cluster_sizes=2, seed=0), p)
        b = simulate_mnb(SimDesign(n_clusters=30, cluster_sizes=2, seed=1), p)
        ya = np.concatenate([c.y for c in a.clusters])
        yb = np.concatenate([c.y for c in b.clusters])
        assert not np.array_equal(ya, yb)


class TestMoments:
    def test_mnb_mean_and_variance(self):
        phi, mu = 1.5, math.exp(0.4)
        p = MnbParams(beta=np.array([0.4]), phi=phi)
        d = SimDesign(n_clusters=60000, cluster_sizes=1, seed=8)
        ds = simulate_mnb(d, p)
        y = np.concatenate([c.y for c in ds.clusters]).astype(float)
        var = mu + mu ** 2 / phi
        se_mean = math.sqrt(var / y.size)
        assert abs(y.mean() - mu) < 4 * se_mean
        se_var = np.std((y - mu) ** 2) / math.sqrt(y.size)
        assert abs(y.var() - var) < 4 * se_var

    def test_mnb_within_cluster_correlation_positive(self):
        p = MnbParams(beta=np.array([0.5]), phi=0.8)
        d = SimDesign(n_clusters=20000, cluster_sizes=2, seed=9)
        ds = simulate_mnb(d, p)
        ys = np.stack([c.y for c in ds.clusters]).astype(float)
        r = np.corrcoef(ys[:, 0], ys[:, 1])[0, 1]
        assert r > 0.2

    def test_pglg_normal_prior_mean(self):
        sigma = 0.8
        p = PglgParams(beta=np.array([0.0]), sigma=sigma, lam=0.0)
        d = SimDesign(n_clusters=60000, cluster_sizes=1, seed=10)
        ds = simulate_pglg(d, p)
        y = np.concatenate([c.y for c in ds.clusters]).astype(float)
        mean = math.exp(sigma ** 2 / 2)
        var = (math.exp(2 * sigma ** 2) - math.exp(sigma ** 2)) + mean
        assert abs(y.mean() - mean) < 4 * math.sqrt(var / y.size)


class TestFamilyAgreement:
    def test_tied_pglg_equals_mnb_in_law(self):
        # sigma = lam = 0.5 makes the frailty gamma with phi = 4; the two
        # simulators must then produce the same count distribution
        n = 40000
        mnb = simulate_mnb(
            SimDesign(n_clusters=n, cluster_sizes=1, seed=100),
            MnbParams(beta=np.array([0.3]), phi=4.0),
        )
        pglg = simulate_pglg(
            SimDesign(n_clusters=n, cluster_sizes=1, seed=200),
            PglgParams(beta=np.array([0.3]), sigma=0.5, lam=0.5),
        )
        ya = np.concatenate([c.y for c in mnb.clusters])
        yb = np.concatenate([c.y for c in pglg.clusters])
        top = max(ya.max(), yb.max())
        edges = list(range(0, 9)) + [top + 1]
        ca, _ = np.histogram(ya, bins=edges)
        cb, _ = np.histogram(yb, bins=edges)
        _, pval, _, _ = chi2_contingency(np.vstack([ca, cb]))
        assert pval > 0.01


class TestResample:
    def test_design_and_ids_kept(self):
        d = SimDesign(n_clusters=15, cluster_sizes=(1, 2, 3) * 5, seed=3)
        truth = MnbParams(beta=np.array([0.4]), phi=2.0)
        ds = simulate_mnb(d, truth)
        new = resample_mnb(ds, truth, rng=7)
        assert [c.id for c in new.clusters] == [c.id for c in ds.clusters]
        assert new.column_names == ds.column_names
        for ca, cb in zip(ds.clusters, new.clusters):
            assert np.array_equal(ca.X, cb.X)
            assert np.array_equal(ca.offset, cb.offset)
        ya = np.concatenate([c.y for c in ds.clusters])
        yb = np.concatenate([c.y for c in new.clusters])
        assert not np.array_equal(ya, yb)

    def test_resample_pglg_deterministic_in_rng(self):
        d = SimDesign(n_clusters=10, cluster_sizes=2, seed=4)
        truth = PglgParams(beta=np.array([0.2]), sigma=0.5, lam=-0.3)
        ds = simulate_pglg(d, truth)
        a = resample_pglg(ds, truth, rng=11)
        b = resample_pglg(ds, truth, rng=11)
        for ca, cb in zip(a.clusters, b.clusters):
            assert np.array_equal(ca.y, cb.y)

    def test_one_poisson_call_keeps_the_stream(self):
        # resampled counts equal those of one rng.poisson call per cluster,
        # in order; TestSimulateReference checks the simulators the same way
        d = SimDesign(n_clusters=4, cluster_sizes=(1, 3, 2, 4), seed=9)
        truth = MnbParams(beta=np.array([0.3]), phi=1.4)
        ds = simulate_mnb(d, truth)
        rng = np.random.default_rng(5)
        w = np.log(rng.gamma(truth.phi, 1.0 / truth.phi, size=ds.n_clusters))
        expect = [rng.poisson(np.exp(c.X @ truth.beta + c.offset + wi)) for c, wi in zip(ds.clusters, w)]
        np.testing.assert_array_equal(resample_mnb(ds, truth, rng=5).y, np.concatenate(expect))

    def test_overflow_names_cluster(self):
        d = SimDesign(n_clusters=3, cluster_sizes=(1, 2, 1), x_builder=lambda rng, m: np.ones((m, 1)) * 3.0,
                      seed=1)
        ds = simulate_pglg(d, PglgParams(beta=np.array([0.1]), sigma=0.5, lam=0.0))
        with pytest.raises(DomainError, match="c00001"):
            resample_mnb(ds, MnbParams(beta=np.array([300.0]), phi=1.0), rng=0)

    def test_linear_predictor_bound_names_cluster(self):
        # eta ~ 50 sits past the bound of 30 and past NumPy's own limit for
        # Poisson means, in cluster 'b' only
        ds = Dataset([ClusterData("a", [0], [[0.0]], [0.0]),
                      ClusterData("b", [0, 0], [[1.0], [1.0]], [0.0, 0.0]),
                      ClusterData("c", [0], [[0.0]], [0.0])], ("x",))
        beta = np.array([50.0])
        with pytest.raises(DomainError, match="cluster 'b'"):
            resample_mnb(ds, MnbParams(beta=beta, phi=50.0), rng=0)
        with pytest.raises(DomainError, match="cluster 'b'"):
            resample_pglg(ds, PglgParams(beta=beta, sigma=0.3, lam=0.0), rng=0)

    def test_wrong_length_beta_names_design_width(self):
        d = SimDesign(n_clusters=4, cluster_sizes=2, x_builder=np.ones((2, 2)), seed=1)
        ds = simulate_mnb(d, MnbParams(beta=np.array([0.1, 0.2]), phi=1.0))
        for beta in ([0.1], [0.1, 0.2, 0.3]):
            mnb, pglg = MnbParams(beta=beta, phi=1.0), PglgParams(beta=beta, sigma=0.5, lam=0.2)
            for draw in (lambda: simulate_mnb(d, mnb), lambda: simulate_pglg(d, pglg),
                         lambda: resample_mnb(ds, mnb, rng=0), lambda: resample_pglg(ds, pglg, rng=0)):
                with pytest.raises(DomainError, match=f"beta has {len(beta)} entries for a design of 2"):
                    draw()

    def test_resample_accepts_generator(self):
        d = SimDesign(n_clusters=5, cluster_sizes=2, seed=4)
        truth = MnbParams(beta=np.array([0.2]), phi=1.0)
        ds = simulate_mnb(d, truth)
        new = resample_mnb(ds, truth, rng=np.random.default_rng(0))
        assert new.n_clusters == 5
