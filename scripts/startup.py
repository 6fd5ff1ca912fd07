"""Fresh-start time of every glgmix command, against a bare interpreter.

Each command runs on a tiny input in a new interpreter, as a user starts
it: ``fit`` for mnb, nb, pglg and pglg-normal, ``diagnose`` without and
with ``--envelope 19``, ``simulate``, ``compare`` and ``glg-curve``.
A round times every (command, checkout) pair once, in an order that turns
around from one round to the next, with a bare ``python -c pass`` start
before the first and after each one.  A start's excess is its seconds
less the mean of the bare starts on either side; the report gives the
median of ``--runs`` rounds per command and checkout, with the quartiles
of the excess.  With two ``--root`` checkouts it also gives the change of
the median excess from the first to the second, and the rounds in which
the second started faster.  Last, it runs each command once under
``-X importtime`` per checkout and prints the import time of every
``glgmix`` module it loads (self and cumulative, in microseconds; a
module loaded through the package's lazy attributes is listed untimed).

    python3 scripts/startup.py --runs 21
    python3 scripts/startup.py --root ../parent --root . --runs 21

The inputs are made once, by the first checkout's CLI, in a temporary
directory that is removed at exit; BLAS runs on one thread.  Standard
library only.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

BOOT = "from glgmix.cli import entry_point; entry_point()"
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
           "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def commands(work):
    """Name -> CLI arguments of each timed command, on the inputs in ``work``."""
    data, spec, out = (os.path.join(work, name) for name in ("data.csv", "data.csv.spec.json",
                                                              "out"))

    def fit(model):
        return ["fit", "--model", model, "--data", data, "--spec", spec,
                "--out", os.path.join(out, f"{model}.json")]

    diagnose = ["diagnose", "--fit", os.path.join(work, "mnb.json"), "--data", data,
                "--out", os.path.join(out, "r.csv")]
    return {
        "fit mnb": fit("mnb"),
        "fit nb": fit("nb"),
        "fit pglg": fit("pglg"),
        "fit pglg-normal": fit("pglg-normal"),
        "diagnose": diagnose,
        "diagnose --envelope": [*diagnose, "--residual", "pearson", "--envelope", "19"],
        "simulate": ["simulate", "--model", "mnb", "--params", '{"beta": [0.5, 0.3], "phi": 2}',
                     "--design", '{"n_clusters": 10, "cluster_sizes": 3, "seed": 2,'
                                 ' "x": [[1, -1], [1, 0], [1, 1]]}',
                     "--out", os.path.join(out, "sim.csv")],
        "compare": ["compare", "--fits", os.path.join(work, "mnb.json"),
                    os.path.join(work, "nb.json"), "--out", os.path.join(out, "c.json")],
        "glg-curve": ["glg-curve", "--lambda", "-0.5", "--out", os.path.join(out, "curve.csv")],
    }


def make_inputs(env, work):
    """A 20-cluster MNB dataset with one covariate, and its mnb and nb fits."""
    os.mkdir(os.path.join(work, "out"))
    data = os.path.join(work, "data.csv")
    steps = [
        ["simulate", "--model", "mnb", "--params", '{"beta": [0.5, 0.3], "phi": 2}',
         "--design", '{"n_clusters": 20, "cluster_sizes": 3, "seed": 1, "x": [[1, -1], [1, 0], [1, 1]]}',
         "--out", data],
        *(["fit", "--model", model, "--data", data, "--spec", data + ".spec.json",
           "--out", os.path.join(work, f"{model}.json")] for model in ("mnb", "nb")),
    ]
    for argv in steps:
        subprocess.run([sys.executable, "-c", BOOT, *argv], env=env, check=True,
                       stdout=subprocess.DEVNULL)


def start(env, *args):
    """Seconds and exit code of one fresh interpreter."""
    # wait() without a timeout blocks in waitpid instead of polling
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    code = proc.wait()
    return time.perf_counter() - t0, code


# at exit, the glgmix modules the start loaded, on standard error
LOADED = ("import atexit, sys; atexit.register(lambda: print('loaded:', *sorted("
          "m for m in sys.modules if m.split('.')[0] == 'glgmix'), file=sys.stderr)); ")


def glgmix_imports(env, argv):
    """(module, self us, cumulative us) of each glgmix module one start
    loads.  -X importtime times import statements only, so a module that
    the package's lazy attributes load through importlib comes with no
    times, as (module, None, None)."""
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", LOADED + BOOT, *argv],
                         env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                         text=True).stderr
    rows, loaded = [], []
    for line in err.splitlines():
        if line.startswith("import time:") and "|" in line:
            self_us, cumulative_us, name = (part.strip() for part in line[12:].split("|"))
            if name.split(".")[0] == "glgmix":
                rows.append((name, int(self_us), int(cumulative_us)))
        elif line.startswith("loaded:"):
            loaded = line.split()[1:]
    timed = {name for name, _, _ in rows}
    return rows + [(name, None, None) for name in loaded if name not in timed]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", action="append",
                        help="checkout to time (default .); give two to compare them")
    parser.add_argument("--runs", type=int, default=15, help="rounds (default 15)")
    args = parser.parse_args(argv)
    roots = [os.path.abspath(r) for r in args.root or ["."]]
    if len(roots) > 2 or args.runs < 1:
        parser.error("give one or two --root checkouts and --runs >= 1")
    base = {k: v for k, v in os.environ.items() if k != "GLGMIX_THREADS"}
    base.update(dict.fromkeys(THREADS, "1"))
    envs = [dict(base, PYTHONPATH=os.path.join(root, "src")) for root in roots]

    with tempfile.TemporaryDirectory() as work:
        make_inputs(envs[0], work)
        cmds = commands(work)
        pairs = [(name, k) for name in cmds for k in range(len(roots))]
        seconds = {pair: [] for pair in pairs}
        excess = {pair: [] for pair in pairs}
        bare_all = []
        for r in range(args.runs):
            bare = start(envs[0], "-c", "pass")[0]
            bare_all.append(bare)
            for name, k in pairs if r % 2 == 0 else pairs[::-1]:
                s, code = start(envs[k], "-c", BOOT, *cmds[name])
                if code not in (0, 2):
                    sys.exit(f"{name} exited {code} under {roots[k]}")
                after = start(envs[0], "-c", "pass")[0]
                bare_all.append(after)
                seconds[name, k].append(s)
                excess[name, k].append(s - 0.5 * (bare + after))
                bare = after

        print(f"{args.runs} rounds; bare start median {1e3 * statistics.median(bare_all):.1f} ms")
        for k, root in enumerate(roots):
            print(f"[{k}] {root}")
        head = f"{'command':22} {'ckout':>5} {'start ms':>9} {'excess ms':>10} {'q1':>7} {'q3':>7}"
        print(head + ("  change vs [0]   faster rounds" if len(roots) == 2 else ""))
        for name in cmds:
            for k in range(len(roots)):
                q1, med, q3 = (statistics.quantiles(excess[name, k], n=4, method="inclusive")
                               if args.runs > 1 else excess[name, k] * 3)
                line = (f"{name:22} {k:>5} {1e3 * statistics.median(seconds[name, k]):9.1f} "
                        f"{1e3 * med:10.2f} {1e3 * q1:7.2f} {1e3 * q3:7.2f}")
                if k == 1:
                    old = statistics.median(excess[name, 0])
                    wins = sum(b < a for a, b in zip(excess[name, 0], excess[name, 1]))
                    line += f"  {1e3 * (med - old):+8.2f} ms   {wins}/{args.runs}"
                print(line)

        for k, root in enumerate(roots):
            print(f"\nglgmix imports under -X importtime, [{k}] {root} (self / cumulative us)")
            for name, argv in cmds.items():
                rows = glgmix_imports(envs[k], argv)
                print(f"{name}: " + ", ".join(f"{m} {s}/{c}" if s is not None else f"{m} (untimed)"
                                              for m, s, c in rows))


if __name__ == "__main__":
    main()
