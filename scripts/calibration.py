"""Calibration of the PGLG standard errors and of the likelihood-ratio
test for normal random effects (lambda = 0), by simulation.

For each law, N datasets of 300 clusters of 3 (intercept and x = -1, 0,
1, beta = (1, -0.3)) are fitted with `pglg` and `pglg-normal`.  The
report gives the fits converged, the likelihood-ratio statistics for
lambda = 0 that are negative (there should be none), the rejection rate
at 5% with the mean statistic (chi-square(1): 0.05 and 1 under the
null), Wald 95% coverage of each `pglg` parameter, and the wall time.
On the tied law (sigma = lambda) a tied `pglg` fit is also set against
the closed-form `mnb` fit with phi = lambda^-2.

    PYTHONPATH=src python scripts/calibration.py --n 100

Runs outside the test suite; N = 100 takes about 10 s per law on one core.
"""

import argparse
import time

import numpy as np

from glgmix import mnb_model, pglg_model
from glgmix.pglg_model import PglgFitOptions, PglgParams
from glgmix.simulate import SimDesign, simulate_pglg

X = np.column_stack([np.ones(3), [-1.0, 0.0, 1.0]])
BETA = (1.0, -0.3)
CHI2_1_95 = 3.841458820694124
LAWS = (  # name, sigma, lambda, first SimDesign seed
    ("normal (lambda = 0, sigma = 0.5)", 0.5, 0.0, 100),
    ("skewed (lambda = -1.2, sigma = 0.5)", 0.5, -1.2, 1000),
    ("tied (sigma = lambda = 0.5)", 0.5, 0.5, 2000),
)


def study(sigma, lam, seed0, n):
    truth = np.array([*BETA, sigma, lam])
    tied = sigma == lam
    converged = 0
    stats, covered, with_se = [], np.zeros(4), 0
    tied_gap = np.zeros(2)  # max |beta difference|, max |loglik difference|
    start = time.perf_counter()
    for seed in range(seed0, seed0 + n):
        design = SimDesign(n_clusters=300, cluster_sizes=3, x_builder=X, seed=seed)
        ds = simulate_pglg(design, PglgParams(beta=np.array(BETA), sigma=sigma, lam=lam))
        free = pglg_model.fit(ds)
        normal = pglg_model.fit(ds, options=PglgFitOptions(fix_lambda=0.0))
        if not (free.converged and normal.converged):
            continue
        converged += 1
        stats.append(2.0 * (free.loglik - normal.loglik))
        if free.std_errors is not None:
            with_se += 1
            covered += np.abs(free.estimates - truth) <= 1.959963984540054 * free.std_errors
        if tied:
            pglg_tied = pglg_model.fit(ds, options=PglgFitOptions(tie_sigma_lambda=True))
            mnb = mnb_model.fit(ds)
            gaps = (np.max(np.abs(pglg_tied.estimates[:2] - mnb.estimates[:2])),
                    abs(pglg_tied.loglik - mnb.loglik))
            tied_gap = np.maximum(tied_gap, gaps)
    stats = np.array(stats)
    lines = [
        f"fits converged (pglg and pglg-normal): {converged}/{n}",
        f"negative LR statistics: {int(np.sum(stats < 0.0))}"
        + (f" (smallest {stats.min():.2e})" if np.any(stats < 0.0) else ""),
        f"LR test of lambda = 0: rejection rate at 5% {np.mean(stats > CHI2_1_95):.3f}, "
        f"mean statistic {np.mean(stats):.3f}",
        "Wald 95% coverage (" + ", ".join(
            f"{name} {c / max(with_se, 1):.2f}"
            for name, c in zip(("beta0", "beta1", "sigma", "lambda"), covered)
        ) + f"; {with_se} fits with standard errors)",
    ]
    if tied:
        lines.append(f"tied pglg against mnb: max |beta difference| {tied_gap[0]:.1e}, "
                     f"max |loglik difference| {tied_gap[1]:.1e}")
    lines.append(f"wall time: {time.perf_counter() - start:.1f} s")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=100, help="datasets per law")
    args = parser.parse_args()
    for name, sigma, lam, seed0 in LAWS:
        print(f"{name}, SimDesign seeds {seed0}-{seed0 + args.n - 1}")
        for line in study(sigma, lam, seed0, args.n):
            print("  " + line)


if __name__ == "__main__":
    main()
