"""Output parity between two checkouts, on the benchmark's own inputs.

Record mode runs every command of each benchmark workload on its pool
datasets (drawn by ``perfbench/workloads.py`` from each seed, exactly as
``perfbench/run.py`` draws them) with the program of one checkout, and
writes a JSON file of SHA-256 hashes: per command and dataset, the exit
code, standard error and every file in the dataset's directory (its input
CSV and each output written so far), and the values
``predict_random_effects`` returns.  It also keeps the benchmark's own
verdict per workload and seed (attempted, failed, correct), from the
checks of ``perfbench/run.py``.  Record mode also runs fixed cases through
``cli.main``, each in a directory of its own, and keeps the exit code and
standard error of each command and every file the case wrote:
``glgmix simulate`` under ``simulate/<case>`` (both laws, on a balanced
design with a covariate array and per-observation offsets, and on an
unbalanced intercept-only design with a scalar offset), ``glgmix glg-curve
--points 512`` under ``glg-curve/<case>`` (lambda -1.2, 0 and 0.5 one at a
time, then all three in one table), and ``glgmix diagnose --envelope 19``
under ``envelope/<kind>`` for both residual kinds, on an ``nb`` fit to the
MNB draw on the balanced design (its clusters are ungrouped into
singletons, whose deviance residuals are defined).  ``diagnose/quoted-ids``
writes a CSV whose cluster ids CSV must quote (a comma, a quote, line
breaks), on clusters of unequal sizes whose rows interleave, fits ``mnb``
to it and runs ``glgmix diagnose --residual pearson --envelope 19``, so
the residual table's id and observation columns are pinned.  Library
cases under ``pglg-lib/<case>`` cover the PGLG branches the workloads
never run: a ``tie_sigma_lambda`` fit and a ``fix_lambda=0.5`` fit on a
balanced design, and a free fit on 300 clusters with a continuous
covariate, where no two clusters share mu+.  Each keeps the hashes of its ``FitResult``
(estimates, standard errors, log-likelihood, trace),
``predict_random_effects`` and ``log_likelihood`` at the estimates.
Stacked cases under ``stacked-climb/<case>`` pin the MNB Newton climbed
as one stack, whose traces no CLI output shows: on the ``envelope/*``
dataset and its ``nb`` fit, 19 and 99 replicate count vectors are drawn
as an envelope draws them and refitted from the fit by
``mnb_model._climb``; each keeps the hashes of the traces, theta and
log-likelihoods of every row, and its started and converged flags.

    python3 scripts/parity.py --root . --seeds 1-3 --out new.json
    python3 scripts/parity.py --root ../parent --seeds 1-3 --out old.json
    python3 scripts/parity.py --compare old.json new.json

Compare mode lists every key whose hash, exit code or verdict differs,
and every key present in one file only; it exits 1 when there is any.
The program, ``perfbench/run.py`` and the workloads are all imported from
``--root`` and used read-only; the scratch files go to a temporary
directory that is removed at exit.  One checkout per process, because
Python imports a package once.  ``--workloads`` picks a comma-separated
subset; all three workloads on seeds 1-24 take about a minute on one core.
"""

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import sys
import tempfile

# ``glgmix simulate`` cases: design JSON and beta per design, shape per law
SIMULATE_DESIGNS = {
    "balanced": ({"n_clusters": 40, "cluster_sizes": 3, "x": [[1, -1], [1, 0], [1, 1]],
                  "offsets": [0.0, 0.2, -0.1], "seed": 11}, [0.8, -0.4]),
    "unbalanced": ({"n_clusters": 30, "cluster_sizes": [1, 2, 3, 4, 5] * 6, "offsets": 0.3,
                    "seed": 12}, [0.5]),
}
SIMULATE_LAWS = {"mnb": {"phi": 1.5}, "pglg": {"sigma": 0.5, "lambda": -1.2}}
# ``glgmix glg-curve`` cases: the --lambda argument of each
GLG_CURVES = {"neg": "-1.2", "zero": "0", "pos": "0.5", "all": "-1.2,0,0.5"}
# ``pglg-lib`` cases: fit options, law (beta, sigma, lambda) and design of each
PGLG_LIB_CASES = {
    "tie_sigma_lambda": ({"tie_sigma_lambda": True}, ([0.8, -0.4], 0.5, 0.5), "balanced"),
    "fix_lambda": ({"fix_lambda": 0.5}, ([0.8, -0.4], 0.5, 0.5), "balanced"),
    "continuous": ({}, ([1.0, -0.3], 0.5, -1.2), "continuous"),
}

# ``stacked-climb`` cases: replicates in each stack
STACKED_CLIMBS = {"r19": 19, "r99": 99}

# ``diagnose/quoted-ids``: id forms (k is the cluster number) and cluster sizes
QUOTED_IDS = ("c{k},x", 'say "{k}"', "line{k}\nbreak", "cr{k}\rlf\r\nend", "plain{k}")
QUOTED_SIZES = (1, 4, 2, 6, 3)


def seed_range(text):
    """Seeds from "1-3,7": ranges are inclusive."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_harness(root):
    """``perfbench/run.py`` of ``root`` as a module, and the program it
    imports from ``root/src``."""
    path = os.path.join(os.path.abspath(root), "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)  # pins BLAS to one thread before NumPy loads
    return run, run.import_program()


def digest(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def simulate_argv(law, design_name):
    design, beta = SIMULATE_DESIGNS[design_name]
    return ["simulate", "--model", law, "--params",
            json.dumps({"beta": beta, **SIMULATE_LAWS[law]}), "--design", json.dumps(design),
            "--out", "sim.csv"]


def quoted_ids_csv(n_clusters=30):
    """CSV text of ``n_clusters`` clusters whose ids cycle through
    ``QUOTED_IDS`` and sizes through ``QUOTED_SIZES``, the rows dealt out
    one per cluster in turn, with gamma-Poisson counts at x = -1, 0, 1."""
    import csv

    import numpy as np

    rng = np.random.default_rng(31)
    ids = [QUOTED_IDS[k % len(QUOTED_IDS)].format(k=k) for k in range(n_clusters)]
    sizes = [QUOTED_SIZES[k % len(QUOTED_SIZES)] for k in range(n_clusters)]
    frailty = rng.gamma(1.5, 1 / 1.5, size=n_clusters)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["cluster", "y", "x"])
    for j in range(max(sizes)):
        for k in range(n_clusters):
            if j < sizes[k]:
                x = j % 3 - 1
                writer.writerow([ids[k], rng.poisson(frailty[k] * np.exp(0.8 - 0.4 * x)), x])
    return out.getvalue()


def fixed_cases():
    """(key, files, steps) of each fixed case, where files maps a name to
    the text written before the steps and a step is (label, argv); the
    steps run in order in the case's own directory, so files are named
    relative to it."""
    for law in SIMULATE_LAWS:
        for design_name in SIMULATE_DESIGNS:
            yield f"simulate/{law}-{design_name}", {}, [("run", simulate_argv(law, design_name))]
    for name, lams in GLG_CURVES.items():
        yield f"glg-curve/{name}", {}, [("run", ["glg-curve", f"--lambda={lams}", "--points",
                                                 "512", "--out", "curve.csv"])]
    for kind in ("deviance", "pearson"):
        yield f"envelope/{kind}", {}, [
            ("simulate", simulate_argv("mnb", "balanced")),
            ("fit", ["fit", "--model", "nb", "--data", "sim.csv", "--spec", "sim.csv.spec.json",
                     "--out", "fit.json"]),
            ("run", ["diagnose", "--fit", "fit.json", "--data", "sim.csv", "--envelope", "19",
                     "--residual", kind, "--out", "resid.csv"])]
    yield "diagnose/quoted-ids", {"data.csv": quoted_ids_csv()}, [
        ("fit", ["fit", "--model", "mnb", "--data", "data.csv", "--response", "y", "--cluster",
                 "cluster", "--covariates", "x", "--out", "fit.json"]),
        ("run", ["diagnose", "--fit", "fit.json", "--data", "data.csv", "--residual", "pearson",
                 "--envelope", "19", "--out", "resid.csv"])]


def record_fixed(cli):
    """Hashes of each fixed case: each of its runs, and every file it wrote."""
    hashes = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for key, files, steps in fixed_cases():
            case_dir = os.path.join(work, key.replace("/", "-"))
            os.mkdir(case_dir)
            for fname, text in files.items():
                with open(os.path.join(case_dir, fname), "w", newline="", encoding="utf-8") as fh:
                    fh.write(text)
            os.chdir(case_dir)
            try:
                for label, argv in steps:
                    hashes[f"{key}/{label}"] = run_fixed(cli, argv, work)
            finally:
                os.chdir(home)
            for fname in sorted(os.listdir(case_dir)):
                with open(os.path.join(case_dir, fname), "rb") as fh:
                    hashes[f"{key}/{fname}"] = {"sha256": digest(fh.read())}
    return hashes


def run_fixed(cli, argv, work):
    """Exit code and standard-error hash of one command, or what it raised."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        return {"raised": repr(exc)}
    return {"exit": code, "stderr": digest(err.getvalue().replace(work, "<work>"))}


def normal_covariate(rng, m):
    """An intercept and a standard normal covariate for a cluster of m."""
    import numpy as np

    return np.column_stack([np.ones(m), rng.normal(size=m)])


def record_pglg_lib(glgmix):
    """Hashes of each ``pglg-lib`` case: its fit, and the random-effect
    predictions and log-likelihood at the estimates."""
    import numpy as np

    designs = {
        "balanced": glgmix.SimDesign(
            n_clusters=100, cluster_sizes=3, seed=21,
            x_builder=np.array([[1.0, -1.0], [1.0, 0.0], [1.0, 1.0]])),
        "continuous": glgmix.SimDesign(
            n_clusters=300, cluster_sizes=3, seed=22, x_builder=normal_covariate),
    }
    hashes = {}
    for name, (options, (beta, sigma, lam), design) in PGLG_LIB_CASES.items():
        key = f"pglg-lib/{name}"
        dataset = glgmix.simulate_pglg(designs[design], glgmix.PglgParams(beta, sigma, lam))
        try:
            fit = glgmix.pglg_model.fit(dataset, options=glgmix.PglgFitOptions(**options))
        except Exception as exc:
            hashes[f"{key}/fit"] = {"raised": repr(exc)}
            continue
        se = fit.std_errors
        hashes[f"{key}/fit"] = {
            "model": fit.model, "converged": fit.converged, "n_iterations": fit.n_iterations,
            "estimates": digest(fit.estimates.tobytes()),
            "std_errors": digest(b"none" if se is None else se.tobytes()),
            "loglik": repr(fit.loglik), "trace": digest(repr(fit.trace))}
        est, p = fit.estimates, dataset.p
        shape = est[p] if options.get("tie_sigma_lambda") else options.get("fix_lambda", est[-1])
        params = glgmix.PglgParams(beta=est[:p], sigma=est[p], lam=shape)
        for label, call in (("predict", glgmix.pglg_model.predict_random_effects),
                            ("loglik", glgmix.pglg_model.log_likelihood)):
            try:
                hashes[f"{key}/{label}"] = {"values": digest(repr(call(dataset, params)))}
            except Exception as exc:
                hashes[f"{key}/{label}"] = {"raised": repr(exc)}
    return hashes


def record_stacked_climbs(glgmix):
    """Hashes of each ``stacked-climb`` case: the replicate refits of an
    envelope on the ``envelope/*`` dataset, climbed as one stack."""
    import numpy as np

    cli, data_io, mnb_model, simulate = (
        glgmix.cli, glgmix.data_io, glgmix.mnb_model, glgmix.simulate)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                cli.main(simulate_argv("mnb", "balanced"))
            with open("sim.csv.spec.json", encoding="utf-8") as fh:
                spec = data_io.ModelSpec.from_mapping(json.load(fh))
            dataset = data_io.ungroup(data_io.read_csv("sim.csv", spec))
        finally:
            os.chdir(home)
    fit = mnb_model.fit(dataset)
    params = mnb_model.MnbParams(beta=fit.estimates[:-1], phi=fit.estimates[-1])
    start = np.append(params.beta, np.log(params.phi))
    hashes = {}
    for name, n_replicates in STACKED_CLIMBS.items():
        seeds = np.random.SeedSequence(n_replicates).spawn(n_replicates)
        y = simulate._mnb_counts(dataset, params, [np.random.default_rng(s) for s in seeds])
        climb = mnb_model._climb(dataset, np.tile(start, (n_replicates, 1)), y)
        hashes[f"stacked-climb/{name}"] = {
            "traces": digest(repr(climb.traces)), "theta": digest(climb.theta.tobytes()),
            "loglik": digest(climb.loglik.tobytes()), "started": climb.started.tolist(),
            "converged": climb.converged.tolist()}
    return hashes


def record(root, seeds, names):
    run, glgmix = load_harness(root)
    workloads = run.workloads
    hashes, verdicts = {}, {}
    for name in names:
        workload = workloads.WORKLOADS[name]
        for seed in seeds:
            runner = run.Runner(glgmix)
            with tempfile.TemporaryDirectory() as work:
                for k in range(workload.pool_size):
                    ds = workloads.make_dataset(work, seed, k, workload.law, workload.n_clusters)
                    for step in workload.steps:
                        runner.execute(step, ds)
                        _, _, outcome, content = runner.records[-1]
                        key = f"{name}/s{seed}/d{k}/{step.name}"
                        if outcome[0] == "raised":
                            hashes[key] = {"raised": outcome[1]}
                        elif step.kind == "cli":
                            hashes[key] = {"exit": outcome[0],
                                           "stderr": digest(outcome[1].replace(work, "<work>"))}
                        else:
                            hashes[key] = {"exit": outcome[0], "values": digest(repr(content[0]))}
                    stem = os.path.basename(ds.csv_path)[:-len(".csv")]
                    for fname in sorted(os.listdir(work)):
                        if fname.startswith(stem):
                            with open(os.path.join(work, fname), "rb") as fh:
                                hashes[f"{name}/s{seed}/d{k}/{fname}"] = {"sha256": digest(fh.read())}
                attempted, failed, incorrect, problems = runner.check_all()
            verdicts[f"{name}/s{seed}"] = {"attempted": attempted, "failed": failed,
                                           "correct": not incorrect, "problems": problems}
            print(f"{name} seed {seed}: {attempted} attempted, {failed} failed, "
                  f"correct {not incorrect}", file=sys.stderr)
    hashes.update(record_fixed(importlib.import_module("glgmix.cli")))
    hashes.update(record_pglg_lib(glgmix))
    hashes.update(record_stacked_climbs(glgmix))
    return {"root": os.path.abspath(root), "seeds": seeds, "workloads": names,
            "outputs": hashes, "verdicts": verdicts}


def compare(old, new):
    """Lines naming each difference between two hash files."""
    lines = []
    for part in ("outputs", "verdicts"):
        a, b = old[part], new[part]
        for key in sorted(a.keys() | b.keys()):
            if key not in b:
                lines.append(f"only in the first: {key}")
            elif key not in a:
                lines.append(f"only in the second: {key}")
            elif a[key] != b[key]:
                lines.append(f"differs: {key}: {json.dumps(a[key])} -> {json.dumps(b[key])}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", help="checkout whose program is run")
    parser.add_argument("--seeds", default="1-3", help='e.g. "1-3" or "1-24" (default 1-3)')
    parser.add_argument("--workloads", default="mnb-fits,pglg-fits,mnb-envelope",
                        help="comma-separated workload names (default all three)")
    parser.add_argument("--out", help="hash file to write (record mode)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two hash files instead of recording")
    args = parser.parse_args(argv)
    if args.compare:
        with open(args.compare[0], encoding="utf-8") as fa, \
                open(args.compare[1], encoding="utf-8") as fb:
            lines = compare(json.load(fa), json.load(fb))
        print("\n".join(lines) if lines else "identical")
        return 1 if lines else 0
    if not (args.root and args.out):
        parser.error("record mode needs --root and --out")
    found = record(args.root, seed_range(args.seeds), args.workloads.split(","))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(found, indent=1, sort_keys=True) + "\n")
    print(f"{len(found['outputs'])} hashes written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
