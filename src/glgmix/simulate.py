"""Synthetic clustered count data for both model families.

One shared ``SimDesign`` describes cluster layout, covariates, and
offsets; ``simulate_pglg`` draws latent intercepts from a generalized
log-gamma law, ``simulate_mnb`` draws multiplicative gamma frailties.
The ``resample_*`` variants keep an existing dataset's design and redraw
only the responses, which is what the simulated-envelope machinery needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data_io import INTERCEPT_NAME, Dataset
from .errors import DomainError

_ETA_MAX = 30.0  # exp(30) ~ 1e13 counts; anything past this is a design error


@dataclass(frozen=True)
class SimDesign:
    """Layout of a simulated dataset.

    ``cluster_sizes`` is either one int (balanced design) or a sequence
    with one size per cluster.  ``x_builder`` supplies covariates: None
    gives an intercept-only design, a fixed (m, p) array is reused for
    every cluster (requires balanced sizes), and a callable
    ``f(rng, m) -> (m, p)`` is invoked per cluster.  ``offsets`` follows
    the same None / scalar / per-observation-array convention.
    """

    n_clusters: int
    cluster_sizes: object = 1
    x_builder: object = None
    offsets: object = None
    seed: int = 0
    column_names: tuple = field(default=None)

    def __post_init__(self):
        if self.n_clusters < 1:
            raise DomainError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if np.isscalar(self.cluster_sizes):
            sizes = (int(self.cluster_sizes),) * self.n_clusters
        else:
            sizes = tuple(int(m) for m in self.cluster_sizes)
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

    def _materialize(self, rng):
        """Draw covariates and offsets for each cluster."""
        xs = []
        for m in self.cluster_sizes:
            if self.x_builder is None:
                xs.append(np.ones((m, 1)))
            elif isinstance(self.x_builder, np.ndarray):
                xs.append(self.x_builder.copy())
            else:
                x = np.asarray(self.x_builder(rng, m), dtype=float)
                if x.ndim != 2 or x.shape[0] != m:
                    raise DomainError(
                        f"x_builder returned shape {x.shape}, expected ({m}, p)"
                    )
                xs.append(x)
        p = xs[0].shape[1]
        if any(x.shape[1] != p for x in xs):
            raise DomainError("x_builder returned inconsistent column counts")

        offs = []
        for m in self.cluster_sizes:
            if self.offsets is None:
                offs.append(np.zeros(m))
            elif np.isscalar(self.offsets):
                offs.append(np.full(m, float(self.offsets)))
            else:
                o = np.asarray(self.offsets, dtype=float)
                if o.shape != (m,):
                    raise DomainError(
                        "per-observation offsets require balanced clusters of "
                        "matching size"
                    )
                offs.append(o.copy())

        names = self.column_names
        if names is None:
            if self.x_builder is None:
                names = (INTERCEPT_NAME,)
            else:
                names = tuple(f"x{j + 1}" for j in range(p))
        elif len(names) != p:
            raise DomainError(
                f"column_names has {len(names)} entries for {p} columns"
            )
        return xs, offs, tuple(names)


def _assemble(design, xs, offs, beta, log_frailty, rng, names):
    """Poisson draws around exp(X beta + offset + log frailty)."""
    X = np.vstack(xs)
    offset = np.concatenate(offs)
    eta = X @ beta + offset + np.repeat(log_frailty, design.cluster_sizes)
    if np.any(eta > _ETA_MAX):
        raise DomainError(
            f"linear predictor exceeds {_ETA_MAX}; rescale the design"
        )
    return Dataset._from_flat(
        ids=[f"c{i + 1:05d}" for i in range(design.n_clusters)],
        sizes=design.cluster_sizes,
        y=rng.poisson(np.exp(eta)),
        X=X,
        offset=offset,
        column_names=names,
    )


def _glg_intercepts(params, rng, n):
    """``n`` draws of the GLG(0, sigma, lam) random intercept.  Only the
    PGLG paths load the GLG density, so the MNB envelope does without it."""
    from . import glg_dist

    return glg_dist.sample(glg_dist.GlgParams(mu=0.0, sigma=params.sigma, lam=params.lam), rng, n)


def simulate_pglg(design, params):
    """Clustered Poisson counts with GLG(0, sigma, lam) random intercepts."""
    rng = np.random.default_rng(design.seed)
    xs, offs, names = design._materialize(rng)
    b = _glg_intercepts(params, rng, design.n_clusters)
    return _assemble(design, xs, offs, params.beta, b, rng, names)


def simulate_mnb(design, params):
    """Clustered counts with multiplicative gamma(phi, 1/phi) frailties.

    Marginally multivariate negative binomial with dispersion phi.
    """
    rng = np.random.default_rng(design.seed)
    xs, offs, names = design._materialize(rng)
    w = rng.gamma(params.phi, 1.0 / params.phi, size=design.n_clusters)
    return _assemble(design, xs, offs, params.beta, np.log(w), rng, names)


def _poisson_counts(dataset, beta, log_frailty, rngs):
    """Poisson counts around exp(X beta + offset + log frailty) on the
    dataset's design, one row (n_obs,) per generator and row of
    ``log_frailty`` (R, n_clusters)."""
    eta = dataset.X @ beta + dataset.offset + dataset.per_obs(log_frailty, axis=-1)
    with np.errstate(over="ignore"):
        mu = np.exp(eta)
    overflow = np.isinf(mu)
    if overflow.any():
        bad = dataset.obs_ids()[np.argmax(overflow.any(axis=0))]
        raise DomainError(f"cluster {bad!r}: linear predictor overflows")
    return np.stack([rng.poisson(m) for rng, m in zip(rngs, mu)])


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
    rng = np.random.default_rng(rng)
    b = _glg_intercepts(params, rng, dataset.n_clusters)
    return _redraw(dataset, _poisson_counts(dataset, params.beta, b[None], [rng])[0])
