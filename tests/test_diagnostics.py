import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from glgmix import _newton, diagnostics, mnb_model, simulate
from glgmix.diagnostics import compare_aic, qq_points, simulated_envelope
from glgmix.errors import (
    CollinearDesignError,
    DomainError,
    EnvelopeError,
    EnvelopeReplicateWarning,
    LeverageError,
    NegativeDevianceWarning,
)
from glgmix.mnb_model import MnbParams
from glgmix.simulate import SimDesign, resample_mnb, simulate_mnb

# envelope calls surface the base report's warning as a side effect; the
# one test about that warning asserts it explicitly via pytest.warns
pytestmark = pytest.mark.filterwarnings(
    "ignore::glgmix.errors.NegativeDevianceWarning"
)


def fitted_mnb(seed=0, n=40, phi=1.5):
    X = np.column_stack([np.ones(3), [-1.0, 0.0, 1.0]])
    d = SimDesign(n_clusters=n, cluster_sizes=3, x_builder=X, seed=seed)
    truth = MnbParams(beta=np.array([0.8, -0.3]), phi=phi)
    ds = simulate_mnb(d, truth)
    res = mnb_model.fit(ds)
    assert res.converged
    return ds, MnbParams(beta=res.estimates[:-1], phi=res.estimates[-1])


def fitted_singletons(seed, n, b0, phi):
    """Clusters of one observation, whose deviance residuals are defined."""
    def x_builder(rng, m):
        return np.column_stack([np.ones(m), rng.normal(size=m)])

    d = SimDesign(n_clusters=n, cluster_sizes=1, x_builder=x_builder, seed=seed)
    ds = simulate_mnb(d, MnbParams(beta=np.array([b0, -0.3]), phi=phi))
    res = mnb_model.fit(ds)
    assert res.converged
    return ds, MnbParams(beta=res.estimates[:-1], phi=res.estimates[-1])


def reference_replicate(dataset, params, which, seed_seq):
    """Sorted residuals of one replicate redrawn and refitted on its own,
    or the reason it is dropped."""
    sim = resample_mnb(dataset, params, np.random.default_rng(seed_seq))
    if not sim.y.any():
        return diagnostics.ALL_ZERO
    try:
        pars, _, converged, _ = mnb_model._maximise(sim, init=params)
    except DomainError:
        return diagnostics.NOT_STARTED
    if not converged:
        return diagnostics.NOT_CONVERGED
    try:
        report = mnb_model.residuals(sim, pars)
    except LeverageError:
        return diagnostics.SINGULAR
    r = report.pearson if which == "pearson" else report.dev_resid
    if not np.all(np.isfinite(r)):
        return diagnostics.NON_FINITE
    return np.sort(r)


def reference_envelope(dataset, params, which, n_replicates, seed):
    """(kept stack, dropped (index, reason) pairs) replicate by replicate."""
    rows = [reference_replicate(dataset, params, which, s)
            for s in np.random.SeedSequence(seed).spawn(n_replicates)]
    kept = np.vstack([r for r in rows if not isinstance(r, str)])
    return kept, tuple((i, r) for i, r in enumerate(rows) if isinstance(r, str))


class TestQqPoints:
    def test_three_point_quantiles(self):
        pts = qq_points([5.0, -1.0, 2.0])
        q = ndtri((np.arange(1, 4) - 0.375) / 3.25)
        np.testing.assert_allclose(pts[:, 0], q, rtol=1e-12)
        assert pts[0, 0] == pytest.approx(-0.86942377, abs=1e-7)
        assert pts[1, 0] == 0.0
        assert pts[2, 0] == pytest.approx(0.86942377, abs=1e-7)
        assert pts[:, 1].tolist() == [-1.0, 2.0, 5.0]

    def test_quantile_matches_scipy_ndtri(self):
        # enough positions that the end ones reach probabilities of about 1e-6
        n = 625_000
        probs = (np.arange(1, n + 1) - 0.375) / (n + 0.25)
        assert probs[0] == pytest.approx(1e-6, rel=1e-6)
        np.testing.assert_allclose(diagnostics._normal_positions(n), ndtri(probs), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [3, 17, 900])
    def test_positions_match_scipy_ndtri(self, n):
        k = np.arange(1, n + 1)
        np.testing.assert_allclose(
            diagnostics._normal_positions(n), ndtri((k - 0.375) / (n + 0.25)), rtol=0, atol=1e-14
        )

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=50)
        a = qq_points(v)
        b = qq_points(rng.permutation(v))
        np.testing.assert_array_equal(a, b)

    def test_length_preserved_with_ties(self):
        pts = qq_points([1.0, 1.0, 1.0, 2.0])
        assert pts.shape == (4, 2)

    def test_standard_normal_sample_hugs_identity(self):
        rng = np.random.default_rng(1)
        pts = qq_points(rng.normal(size=5000))
        inner = slice(250, 4750)  # tails are noisy by nature
        assert np.max(np.abs(pts[inner, 0] - pts[inner, 1])) < 0.15

    def test_validation(self):
        with pytest.raises(DomainError):
            qq_points([1.0, 2.0])
        with pytest.raises(DomainError):
            qq_points([1.0, np.nan, 2.0])
        with pytest.raises(DomainError):
            qq_points([1.0, np.inf, 2.0, 3.0])


class TestSimulatedEnvelope:
    def test_bands_ordered_and_aligned(self):
        ds, pars = fitted_mnb()
        env = simulated_envelope(ds, pars, residual="pearson", n_replicates=19, seed=1)
        n = ds.n_obs
        for arr in (env.theoretical, env.observed_sorted, env.lower, env.median, env.upper):
            assert arr.shape == (n,)
        assert np.all(env.lower <= env.median + 1e-12)
        assert np.all(env.median <= env.upper + 1e-12)
        assert np.all(np.diff(env.observed_sorted) >= 0)

    def test_full_level_is_min_max_hull(self):
        ds, pars = fitted_mnb(seed=3)
        env = simulated_envelope(
            ds, pars, residual="pearson", n_replicates=19, level=1.0, seed=5
        )
        # reconstruct the replicate stack by hand with the same seeds
        stack, _ = reference_envelope(ds, pars, "pearson", 19, 5)
        np.testing.assert_allclose(env.lower, stack.min(axis=0), rtol=1e-12)
        np.testing.assert_allclose(env.upper, stack.max(axis=0), rtol=1e-12)

    def test_seed_determinism(self):
        ds, pars = fitted_mnb(seed=4)
        a = simulated_envelope(ds, pars, residual="pearson", n_replicates=19, seed=9)
        b = simulated_envelope(ds, pars, residual="pearson", n_replicates=19, seed=9)
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.median, b.median)
        np.testing.assert_array_equal(a.upper, b.upper)
        c = simulated_envelope(ds, pars, residual="pearson", n_replicates=19, seed=10)
        assert not np.array_equal(a.median, c.median)

    def test_well_specified_fit_mostly_inside(self):
        ds, pars = fitted_mnb(seed=6, n=60)
        env = simulated_envelope(ds, pars, residual="pearson", n_replicates=99, seed=2)
        inside = np.mean(
            (env.observed_sorted >= env.lower) & (env.observed_sorted <= env.upper)
        )
        assert inside > 0.8

    @staticmethod
    def negative_components():
        # a huge count next to zeros guarantees negative components
        from glgmix.data_io import ClusterData, Dataset

        clusters = tuple(
            ClusterData(
                id=f"c{i}",
                y=np.array([40, 0]) if i == 0 else np.array([1, 2]),
                X=np.ones((2, 1)),
                offset=np.zeros(2),
            )
            for i in range(12)
        )
        ds = Dataset(clusters=clusters, column_names=("x",))
        return ds, MnbParams(beta=np.array([0.1]), phi=1.0)

    def test_undefined_deviance_residuals_rejected(self):
        ds, pars = self.negative_components()
        with pytest.warns(NegativeDevianceWarning):
            with pytest.raises(EnvelopeError) as info:
                simulated_envelope(ds, pars, residual="deviance", n_replicates=19)
        assert "pearson" in str(info.value)

    def test_undefined_pearson_residuals_name_their_kind(self):
        # every fitted mean underflows to 0, so (y - mu)/sqrt(mu + mu^2/phi) is 0/0
        ds = simulate_mnb(SimDesign(n_clusters=10, cluster_sizes=2, seed=1),
                          MnbParams(beta=np.array([0.5]), phi=2.0))
        pars = MnbParams(beta=np.array([-800.0]), phi=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning escapes
            with pytest.raises(EnvelopeError) as info:
                simulated_envelope(ds, pars, residual="pearson", n_replicates=19)
        message = str(info.value)
        assert "Pearson" in message and "zero" in message
        assert "deviance" not in message and "use residual" not in message

    def test_pearson_envelope_gives_no_deviance_warning(self):
        ds, pars = self.negative_components()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # over the module's ignore filter
            env = simulated_envelope(ds, pars, residual="pearson", n_replicates=19, seed=1)
        assert not [w for w in caught if issubclass(w.category, NegativeDevianceWarning)]
        assert env.observed_sorted.size == ds.n_obs

    def test_pearson_observed_row_needs_no_leverages(self, monkeypatch):
        ds, pars = fitted_singletons(0, 40, 1.0, 1.5)
        real = mnb_model._leverages
        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return real(*args)

        monkeypatch.setattr(mnb_model, "_leverages", counted)
        simulated_envelope(ds, pars, residual="pearson", n_replicates=19, seed=1)
        assert calls == []
        simulated_envelope(ds, pars, residual="deviance", n_replicates=19, seed=1)
        assert calls[0] == 1 and len(calls) == 2  # the observed row, then one block of replicates

    def test_refits_build_no_trace_records(self, monkeypatch):
        ds, pars = fitted_mnb(seed=3)

        def refused(**fields):
            raise AssertionError("an envelope refit built a trace record")

        monkeypatch.setattr(_newton, "TraceRecord", refused)
        env = simulated_envelope(ds, pars, residual="pearson", n_replicates=19, seed=1)
        assert env.n_replicates + env.n_dropped == 19

    def test_all_zero_replicate_is_dropped(self, monkeypatch):
        ds, pars = fitted_mnb(seed=3)
        seeds = np.random.SeedSequence(1).spawn(19)
        [(_, y)] = diagnostics._count_blocks(ds, pars, "pearson", seeds)
        _, reasons = diagnostics._block_residuals(ds, pars, "pearson", y)
        assert diagnostics.ALL_ZERO not in reasons
        zeroed = y.copy()
        zeroed[4] = 0
        _, zeroed_reasons = diagnostics._block_residuals(ds, pars, "pearson", zeroed)
        assert zeroed_reasons == reasons[:4] + [diagnostics.ALL_ZERO] + reasons[5:]

        real = simulate._mnb_counts

        def with_zero_row(dataset, params, rngs):
            counts = real(dataset, params, rngs)
            counts[4] = 0
            return counts

        monkeypatch.setattr(simulate, "_mnb_counts", with_zero_row)
        with pytest.warns(EnvelopeReplicateWarning, match="every count 0: no maximum: 1"):
            env = simulated_envelope(ds, pars, residual="pearson", n_replicates=19, seed=1)
        assert (4, diagnostics.ALL_ZERO) in env.dropped

    def test_replicate_drop_warning_and_failure_cap(self, monkeypatch):
        ds, pars = fitted_mnb(seed=8)
        real = diagnostics._block_residuals

        def flaky(dataset, params, which, y):
            # every 7th replicate of the one block fails
            rows, reasons = real(dataset, params, which, y)
            return rows, [diagnostics.NOT_CONVERGED if (i + 1) % 7 == 0 else r
                          for i, r in enumerate(reasons)]

        monkeypatch.setattr(diagnostics, "_block_residuals", flaky)
        with pytest.warns(EnvelopeReplicateWarning, match="dropped"):
            env = simulated_envelope(ds, pars, residual="pearson", n_replicates=21, seed=0)
        assert env.n_dropped == 3
        assert env.n_replicates == 18

        def broken(dataset, params, which, y):
            rows, reasons = real(dataset, params, which, y)
            return rows, [diagnostics.NOT_CONVERGED] * len(reasons)

        monkeypatch.setattr(diagnostics, "_block_residuals", broken)
        with pytest.warns(EnvelopeReplicateWarning):
            with pytest.raises(EnvelopeError):
                simulated_envelope(ds, pars, residual="pearson", n_replicates=19, seed=0)

    @pytest.mark.parametrize("which", ["pearson", "deviance"])
    @pytest.mark.parametrize("seed, n, b0, phi", [
        (0, 40, 1.0, 1.5),  # nothing dropped
        (7, 6, 0.5, 50.0),  # replicate 3 does not converge
        (2, 8, 1.0, 20.0),  # replicate 20 has an infinite deviance residual
    ])
    def test_matches_replicates_fitted_one_at_a_time(self, which, seed, n, b0, phi):
        ds, pars = fitted_singletons(seed, n, b0, phi)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EnvelopeReplicateWarning)
            env = simulated_envelope(ds, pars, residual=which, n_replicates=39, level=0.9, seed=seed)
        kept, dropped = reference_envelope(ds, pars, which, 39, seed)
        report = mnb_model.residuals(ds, pars)
        observed = report.pearson if which == "pearson" else report.dev_resid
        assert env.observed_sorted.tobytes() == np.sort(observed).tobytes()
        assert env.dropped == dropped
        assert env.n_dropped == len(dropped) and env.n_replicates == 39 - len(dropped)
        want = np.quantile(kept, [0.05, 0.5, 0.95], axis=0)
        for got, ref in zip((env.lower, env.median, env.upper), want):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10)

    def test_warning_counts_each_reason(self):
        ds, pars = fitted_singletons(7, 6, 0.5, 50.0)
        with pytest.warns(EnvelopeReplicateWarning) as record:
            simulated_envelope(ds, pars, residual="pearson", n_replicates=39, seed=7)
        assert str(record[0].message) == (
            "dropped 1 of 39 envelope replicates (not converged: 1)"
        )

    def test_leverages_only_for_rows_with_defined_components(self, monkeypatch):
        # singletons and two larger clusters: the even split of a larger
        # cluster's term gives some replicates a negative component
        def x_builder(rng, m):
            return np.column_stack([np.ones(m), rng.normal(size=m)])

        d = SimDesign(n_clusters=16, cluster_sizes=[1] * 14 + [2, 3], x_builder=x_builder, seed=1)
        pars = MnbParams(beta=np.array([1.0, -0.3]), phi=2.0)
        ds = simulate_mnb(d, pars)
        seeds = np.random.SeedSequence(3).spawn(60)
        [(_, y)] = diagnostics._count_blocks(ds, pars, "deviance", seeds)
        real = mnb_model._leverages
        rows = []

        def counted(dataset, mu, *rest):
            rows.append(len(mu))
            return real(dataset, mu, *rest)

        monkeypatch.setattr(mnb_model, "_leverages", counted)
        resid, reasons = diagnostics._block_residuals(ds, pars, "deviance", y)
        assert rows == [reasons.count(None)]  # no dropped row reached the leverages
        kept, dropped = reference_envelope(ds, pars, "deviance", 60, 3)
        assert 0 < len(kept) < 60 and {r for _, r in dropped} == {diagnostics.NON_FINITE}
        assert [(i, r) for i, r in enumerate(reasons) if r is not None] == list(dropped)
        np.testing.assert_allclose(resid[[r is None for r in reasons]], kept, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("which", ["pearson", "deviance"])
    def test_blocks_give_the_same_bands(self, monkeypatch, which):
        ds, pars = fitted_singletons(2, 8, 1.0, 20.0)
        real = diagnostics._block_residuals
        sizes = []

        def counted(dataset, params, which, y):
            sizes.append(len(y))
            return real(dataset, params, which, y)

        monkeypatch.setattr(diagnostics, "_block_residuals", counted)
        # a replicate's working elements: its design's, or its widest tables
        monkeypatch.setattr(diagnostics, "_BLOCK_ELEMENTS", 10 ** 9)
        [(_, y)] = diagnostics._count_blocks(ds, pars, which, np.random.SeedSequence(2).spawn(39))
        per = max(diagnostics._replicate_elements(ds, which), int(ds.cluster_sums(y, axis=-1).max()) + 1)
        bands, runs = [], []
        for block in (1, 7, 39):
            monkeypatch.setattr(diagnostics, "_BLOCK_ELEMENTS", block * per)
            sizes.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EnvelopeReplicateWarning)
                env = simulated_envelope(ds, pars, residual=which, n_replicates=39, seed=2)
            runs.append(list(sizes))
            bands.append((env.lower, env.median, env.upper, env.dropped))
        assert runs[0] == [1] * 39 and runs[2] == [39] and 1 < max(runs[1]) < 39
        for other in bands[1:]:
            for got, ref in zip(other[:3], bands[0][:3]):
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
            assert other[3] == bands[0][3]

    @staticmethod
    def clusters_of_30(b0):
        def x_builder(rng, m):
            return np.column_stack([np.ones(m), rng.normal(size=m)])

        pars = MnbParams(beta=np.array([b0, 0.2]), phi=2.0)
        d = SimDesign(n_clusters=4, cluster_sizes=30, x_builder=x_builder, seed=3)
        return simulate_mnb(d, pars), pars

    def test_block_size_follows_the_working_set(self, monkeypatch):
        # a deviance replicate's weight matrices (4 clusters x 30^2
        # elements) outgrow its (n_obs, p) products (120 x 2)
        ds, pars = self.clusters_of_30(0.0)
        monkeypatch.setattr(diagnostics, "_BLOCK_ELEMENTS", 5 * 4 * 30 ** 2)
        seeds = np.random.SeedSequence(0).spawn(21)
        sizes = {which: [len(y) for _, y in diagnostics._count_blocks(ds, pars, which, seeds)]
                 for which in ("deviance", "pearson")}
        assert sizes == {"deviance": [5, 5, 5, 5, 1], "pearson": [21]}

    def test_wide_count_tables_cut_a_block(self, monkeypatch):
        # cluster totals near 3000: a replicate's gamma-function tables
        # outgrow its (n_obs, p) products
        ds, pars = self.clusters_of_30(math.log(100.0))
        seeds = np.random.SeedSequence(1).spawn(21)
        monkeypatch.setattr(diagnostics, "_BLOCK_ELEMENTS", 20_000)
        blocks = list(diagnostics._count_blocks(ds, pars, "pearson", seeds))
        assert len(blocks) > 1
        assert [first for first, _ in blocks] == np.cumsum([0] + [len(y) for _, y in blocks[:-1]]).tolist()
        for _, y in blocks:
            assert len(y) * (ds.cluster_sums(y, axis=-1).max() + 1) <= 20_000
        monkeypatch.setattr(diagnostics, "_BLOCK_ELEMENTS", 10 ** 9)
        [(_, whole)] = diagnostics._count_blocks(ds, pars, "pearson", seeds)
        np.testing.assert_array_equal(np.concatenate([y for _, y in blocks]), whole)

    def test_parameter_validation(self):
        ds, pars = fitted_mnb(seed=11, n=10)
        with pytest.raises(DomainError):
            simulated_envelope(ds, pars, n_replicates=5)
        with pytest.raises(DomainError):
            simulated_envelope(ds, pars, n_replicates=19, level=0.0)
        with pytest.raises(DomainError):
            simulated_envelope(ds, pars, n_replicates=19, level=1.5)
        with pytest.raises(DomainError):
            simulated_envelope(ds, pars, residual="anscombe", n_replicates=19)
        # a design with two equal columns is named before any residual is formed
        def twins(rng, m):
            x = rng.normal(size=m)
            return np.column_stack([np.ones(m), x, x])

        d = SimDesign(n_clusters=20, cluster_sizes=3, x_builder=twins, seed=1,
                      column_names=("(intercept)", "a", "b"))
        pars = MnbParams(beta=np.array([0.5, 0.1, 0.1]), phi=2.0)
        ds = simulate_mnb(d, pars)
        for which in ("deviance", "pearson"):
            with pytest.raises(CollinearDesignError) as info:
                simulated_envelope(ds, pars, residual=which, n_replicates=19)
            assert info.value.columns == ("a", "b")


class TestRankQuantiles:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           level=st.one_of(st.just(1.0), st.just(0.95), st.floats(1e-3, 1.0)))
    def test_matches_numpy_quantile_bit_for_bit(self, data, level):
        # ties come from a small pool; + 0.0 leaves no -0.0 to tie with 0.0
        pool = data.draw(st.lists(st.floats(-1e6, 1e6).map(lambda x: x + 0.0), min_size=1,
                                  max_size=6))
        r = data.draw(st.integers(16, 99))
        n = data.draw(st.integers(1, 4))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=r * n,
                                   max_size=r * n))
        stack = np.array(pool)[picks].reshape(r, n)
        alpha = (1.0 - level) / 2.0
        probs = (alpha, 0.5, 1.0 - alpha)
        got = np.array(diagnostics._rank_quantiles(stack, probs))
        assert got.tobytes() == np.quantile(stack, probs, axis=0).tobytes()

    @pytest.mark.parametrize("r", [16, 20, 39, 99])
    @pytest.mark.parametrize("level", [0.95, 0.9, 1.0])
    def test_matches_numpy_on_full_mantissas(self, r, level):
        # differences b - a that round, so the two interpolation forms differ
        rng = np.random.default_rng(r)
        stack = rng.normal(size=(r, 300)) * 10.0 ** rng.uniform(-3, 3, size=300)
        probs = ((1.0 - level) / 2.0, 0.5, 1.0 - (1.0 - level) / 2.0)
        got = np.array(diagnostics._rank_quantiles(stack, probs))
        assert got.tobytes() == np.quantile(stack, probs, axis=0).tobytes()


class TestCompareAic:
    def test_orders_and_deltas(self):
        ds, _ = fitted_mnb(seed=12)
        full = mnb_model.fit(ds)
        rows = compare_aic([full, full])
        assert rows[0]["delta_aic"] == 0.0
        assert rows[1]["delta_aic"] == 0.0
        assert rows[0]["aic"] == pytest.approx(full.aic, rel=1e-14)
        assert set(rows[0]) == {"model", "loglik", "aic", "delta_aic"}

    def test_sorted_best_first(self):
        from glgmix.results import FitResult

        def stub(model, loglik, k):
            return FitResult(
                model=model,
                names=tuple(f"p{j}" for j in range(k)),
                estimates=np.zeros(k),
                std_errors=None,
                loglik=loglik,
                n_iterations=1,
                converged=True,
                trace=(),
                z_defined=(True,) * k,
            )

        rows = compare_aic([stub("a", -100.0, 3), stub("b", -90.0, 3), stub("c", -95.0, 3)])
        assert [r["model"] for r in rows] == ["b", "c", "a"]
        assert rows[0]["delta_aic"] == 0.0
        assert rows[1]["delta_aic"] == pytest.approx(10.0)
        assert rows[2]["delta_aic"] == pytest.approx(20.0)

    def test_needs_two(self):
        ds, _ = fitted_mnb(seed=13, n=10)
        full = mnb_model.fit(ds)
        with pytest.raises(DomainError):
            compare_aic([full])
