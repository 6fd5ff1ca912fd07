"""Synthetic clustered count data for both model families.

One shared ``SimDesign`` describes cluster layout, covariates, and
offsets.  Counts are drawn on one path: ``resample_mnb`` draws
multiplicative gamma frailties and ``resample_pglg`` generalized
log-gamma random intercepts, then Poisson counts, on an existing
dataset's design; this is what the simulated-envelope machinery needs.
``simulate_mnb`` and ``simulate_pglg`` build the design as a dataset and
draw through that same path.  Every draw rejects a linear predictor
above 30 and names the first cluster that has one.
"""

from __future__ import annotations

import operator

import numpy as np

from ._record import record
from .data_io import INTERCEPT_NAME, Dataset
from .errors import DomainError

_ETA_MAX = 30.0  # exp(30) ~ 1e13 counts; anything past this is a design error


def _integer(name, value):
    # 2.7, 3.0 and "3" are not integers; np.int64(3) is
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


@record
class SimDesign:
    """Layout of a simulated dataset.

    ``cluster_sizes`` is either one int (balanced design) or a sequence
    with one size per cluster.  ``x_builder`` supplies covariates: None
    gives an intercept-only design, a fixed (m, p) array is reused for
    every cluster (requires balanced sizes), and a callable
    ``f(rng, m) -> (m, p)`` is invoked per cluster.  ``offsets`` follows
    the same None / scalar / per-observation-array convention.  ``seed``
    is a nonnegative integer, and ``column_names`` None (default names)
    or a sequence of strings.
    """

    n_clusters: int
    cluster_sizes: object = 1
    x_builder: object = None
    offsets: object = None
    seed: int = 0
    column_names: tuple = None

    def __post_init__(self):
        n_clusters = _integer("n_clusters", self.n_clusters)
        if n_clusters < 1:
            raise DomainError(f"n_clusters must be >= 1, got {n_clusters}")
        object.__setattr__(self, "n_clusters", n_clusters)
        if np.isscalar(self.cluster_sizes) or self.cluster_sizes is None:
            sizes = (_integer("cluster_sizes", self.cluster_sizes),) * n_clusters
        else:
            sizes = tuple(_integer("each cluster size", m) for m in self.cluster_sizes)
            if len(sizes) != self.n_clusters:
                raise DomainError(
                    f"cluster_sizes has {len(sizes)} entries for "
                    f"{self.n_clusters} clusters"
                )
        if any(m < 1 for m in sizes):
            raise DomainError("every cluster size must be >= 1")
        object.__setattr__(self, "cluster_sizes", sizes)
        if isinstance(self.x_builder, np.ndarray):
            x = np.asarray(self.x_builder, dtype=float)
            if x.ndim != 2:
                raise DomainError("fixed covariate array must be 2-dimensional")
            if len(set(sizes)) != 1 or x.shape[0] != sizes[0]:
                raise DomainError(
                    "a fixed covariate array requires balanced clusters of "
                    "matching size"
                )
            object.__setattr__(self, "x_builder", x)
        if not (self.offsets is None or np.isscalar(self.offsets)):
            o = np.asarray(self.offsets, dtype=float)
            if len(set(sizes)) != 1 or o.shape != (sizes[0],):
                raise DomainError(
                    "per-observation offsets require balanced clusters of "
                    "matching size"
                )
            object.__setattr__(self, "offsets", o)
        seed = _integer("seed", self.seed)
        if seed < 0:
            raise DomainError(f"seed must be >= 0, got {seed}")
        object.__setattr__(self, "seed", seed)
        names = self.column_names
        if names is not None:
            if not (isinstance(names, (list, tuple)) and all(isinstance(n, str) for n in names)):
                raise DomainError(f"column_names must be a sequence of strings, got {names!r}")
            object.__setattr__(self, "column_names", tuple(names))

    def _materialize(self, rng):
        """The design as a dataset of zero counts, with ids ``c00001``...
        A callable ``x_builder`` draws from ``rng`` one cluster at a time."""
        n_obs = sum(self.cluster_sizes)
        if self.x_builder is None:
            X = np.ones((n_obs, 1))
        elif isinstance(self.x_builder, np.ndarray):
            X = np.tile(self.x_builder, (self.n_clusters, 1))
        else:
            xs = []
            for m in self.cluster_sizes:
                x = np.asarray(self.x_builder(rng, m), dtype=float)
                if x.ndim != 2 or x.shape[0] != m:
                    raise DomainError(
                        f"x_builder returned shape {x.shape}, expected ({m}, p)"
                    )
                xs.append(x)
            if any(x.shape[1] != xs[0].shape[1] for x in xs):
                raise DomainError("x_builder returned inconsistent column counts")
            X = np.vstack(xs)
        if self.offsets is None:
            offset = np.zeros(n_obs)
        elif np.isscalar(self.offsets):
            offset = np.full(n_obs, float(self.offsets))
        else:
            offset = np.tile(self.offsets, self.n_clusters)
        names = self.column_names
        if names is None:
            if self.x_builder is None:
                names = (INTERCEPT_NAME,)
            else:
                names = tuple(f"x{j + 1}" for j in range(X.shape[1]))
        return Dataset._from_flat(
            ids=[f"c{i + 1:05d}" for i in range(self.n_clusters)],
            sizes=self.cluster_sizes,
            y=np.zeros(n_obs, dtype=np.int64),
            X=X,
            offset=offset,
            column_names=names,
        )


def simulate_pglg(design, params):
    """Clustered Poisson counts with GLG(0, sigma, lam) random intercepts."""
    rng = np.random.default_rng(design.seed)
    return resample_pglg(design._materialize(rng), params, rng)


def simulate_mnb(design, params):
    """Clustered counts with multiplicative gamma(phi, 1/phi) frailties.

    Marginally multivariate negative binomial with dispersion phi.
    """
    rng = np.random.default_rng(design.seed)
    return resample_mnb(design._materialize(rng), params, rng)


def _poisson_counts(dataset, beta, log_frailty, rngs):
    """Poisson counts around exp(X beta + offset + log frailty) on the
    dataset's design, one row (n_obs,) per generator and row of
    ``log_frailty`` (R, n_clusters)."""
    if len(beta) != dataset.p:
        raise DomainError(f"beta has {len(beta)} entries for a design of {dataset.p} columns")
    eta = dataset.X @ beta + dataset.offset + dataset.per_obs(log_frailty, axis=-1)
    too_big = eta > _ETA_MAX
    if too_big.any():
        bad = dataset.obs_ids()[np.argmax(too_big.any(axis=0))]
        raise DomainError(
            f"cluster {bad!r}: linear predictor exceeds {_ETA_MAX}; rescale the design"
        )
    return np.stack([rng.poisson(m) for rng, m in zip(rngs, np.exp(eta))])


def _redraw(dataset, y):
    return Dataset._from_flat(
        ids=dataset.ids,
        sizes=dataset.sizes,
        y=y,
        X=dataset.X,
        offset=dataset.offset,
        column_names=dataset.column_names,
    )


def _mnb_counts(dataset, params, rngs):
    """The responses :func:`resample_mnb` draws from each generator, one
    row per generator: its gamma frailties, then its Poisson counts."""
    w = np.array([rng.gamma(params.phi, 1.0 / params.phi, size=dataset.n_clusters) for rng in rngs])
    return _poisson_counts(dataset, params.beta, np.log(w), rngs)


def resample_mnb(dataset, params, rng):
    """New responses from the fitted law, on the dataset's own design."""
    return _redraw(dataset, _mnb_counts(dataset, params, [np.random.default_rng(rng)])[0])


def resample_pglg(dataset, params, rng):
    """New responses from the fitted law, on the dataset's own design."""
    from . import glg_dist  # only the PGLG paths load the GLG density

    rng = np.random.default_rng(rng)
    b = glg_dist.sample(glg_dist.GlgParams(mu=0.0, sigma=params.sigma, lam=params.lam), rng,
                        dataset.n_clusters)
    return _redraw(dataset, _poisson_counts(dataset, params.beta, b[None], [rng])[0])
