"""Command-line front end.

Subcommands: ``fit`` (write a JSON fit report), ``simulate`` (write a CSV
dataset plus its model spec), ``diagnose`` (residual and envelope CSVs,
optional SVG), ``compare`` (AIC ranking of fit reports), and
``glg-curve`` (density grids for plotting).  Exit codes: 0 success,
1 input error, 2 fit completed but flagged non-converged.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings

import numpy as np

from .data_io import ModelSpec, _column_texts, read_csv, ungroup, write_csv
from .errors import DataFormatError, DomainError, GlgmixError

# A command imports the modules that only it runs (either model family,
# simulation, envelopes, the GLG density) inside its own function, and the
# parser adds the arguments of the invoked subcommand only, so that a
# start-up pays only for the modules of the one command it serves:
# ``import glgmix.cli`` loads no model module.

_EXIT_OK = 0
_EXIT_INPUT = 1
_EXIT_NOT_CONVERGED = 2


def _fit_arguments(p_fit):
    p_fit.add_argument("--model", required=True,
                       choices=["pglg", "pglg-normal", "mnb", "nb"])
    p_fit.add_argument("--data", required=True, help="input CSV path")
    p_fit.add_argument("--spec", help="model spec JSON file")
    p_fit.add_argument("--response")
    p_fit.add_argument("--cluster")
    p_fit.add_argument("--covariates", default="",
                       help="comma-separated column names")
    p_fit.add_argument("--interactions", default="",
                       help="comma-separated pairs like a:b")
    p_fit.add_argument("--offset")
    p_fit.add_argument("--no-intercept", action="store_true")
    p_fit.add_argument("--order", type=int, default=None,
                       help="quadrature order (pglg models)")
    p_fit.add_argument("--out", required=True, help="report JSON path")


def _simulate_arguments(p_sim):
    p_sim.add_argument("--model", required=True, choices=["pglg", "mnb"])
    p_sim.add_argument("--params", required=True,
                       help="parameter JSON file or inline JSON")
    p_sim.add_argument("--design", required=True,
                       help="design JSON file or inline JSON")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="overrides the design seed")
    p_sim.add_argument("--out", required=True, help="output CSV path")


def _diagnose_arguments(p_diag):
    from .mnb_model import RESIDUAL_KINDS

    p_diag.add_argument("--fit", required=True, help="fit report JSON path")
    p_diag.add_argument("--data", required=True, help="input CSV path")
    p_diag.add_argument("--residual", default="deviance", choices=RESIDUAL_KINDS)
    p_diag.add_argument("--envelope", type=int, default=0, metavar="R",
                        help="number of envelope replicates (0 skips)")
    p_diag.add_argument("--level", type=float, default=0.95)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--svg", help="optional envelope SVG path")
    p_diag.add_argument("--out", required=True, help="residual CSV path")


def _compare_arguments(p_cmp):
    p_cmp.add_argument("--fits", nargs="+", required=True,
                       help="two or more fit report JSON paths")
    p_cmp.add_argument("--out", help="ranking JSON path (default stdout)")


def _glg_curve_arguments(p_curve):
    p_curve.add_argument("--mu", type=float, default=0.0)
    p_curve.add_argument("--sigma", type=float, default=1.0)
    p_curve.add_argument("--lambda", dest="lam", required=True,
                         help="comma-separated shape values; a list that starts "
                         "with a minus sign is written --lambda=-1.2,0,0.5")
    p_curve.add_argument("--points", type=int, default=512)
    p_curve.add_argument("--out", required=True, help="output CSV path")


@functools.cache
def _build_parser(command=None):
    """The argument parser for ``command``, built on the first call and
    shared by every later :func:`main` call in the process for that
    command (parsing does not change it).  Every subcommand is registered
    with its help line, but only ``command``'s arguments are added; all
    are when ``command`` is None."""
    parser = argparse.ArgumentParser(
        prog="glgmix",
        description="Random-intercept Poisson models with generalized "
        "log-gamma effects and the multivariate negative binomial.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, add_arguments) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=help_line)
        if command in (None, name):
            add_arguments(subparser)
    return parser


def _spec_from_args(args):
    flag_spec = any([args.response, args.cluster, args.covariates,
                     args.interactions, args.offset, args.no_intercept])
    if args.spec and flag_spec:
        raise DataFormatError("--spec cannot be combined with spec flags")
    if args.spec:
        return ModelSpec.from_json_file(args.spec)
    if not (args.response and args.cluster):
        raise DataFormatError(
            "either --spec or both --response and --cluster are required"
        )
    covariates = tuple(s for s in args.covariates.split(",") if s)
    raw_inter = tuple(s for s in args.interactions.split(",") if s)
    interactions = []
    for term in raw_inter:
        parts = term.split(":")
        if len(parts) != 2 or not all(parts):
            raise DataFormatError(f"malformed interaction term {term!r}")
        interactions.append((parts[0], parts[1]))
    return ModelSpec(
        response=args.response,
        cluster=args.cluster,
        covariates=covariates,
        interactions=tuple(interactions),
        offset=args.offset,
        add_intercept=not args.no_intercept,
    )


def _cmd_fit(args):
    spec = _spec_from_args(args)
    dataset = read_csv(args.data, spec)
    if args.model in ("mnb", "nb"):
        from . import mnb_model

        result = mnb_model.fit(ungroup(dataset) if args.model == "nb" else dataset)
    else:
        from . import pglg_model

        opts = {}
        if args.order is not None:
            opts["order"] = args.order
        if args.model == "pglg-normal":
            opts["fix_lambda"] = 0.0
        result = pglg_model.fit(dataset, options=pglg_model.PglgFitOptions(**opts))

    report = result.as_dict()
    report["model"] = args.model
    report["spec"] = spec.to_mapping()
    _write_json(args.out, report)
    if not result.converged:
        print("warning: fit did not converge", file=sys.stderr)
        return _EXIT_NOT_CONVERGED
    return _EXIT_OK


def _write_json(path, obj):
    """``obj`` as indented JSON and a newline, encoded in full before the
    file is opened, so a failing encode leaves no partial file."""
    text = json.dumps(obj, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_json_arg(text):
    """Accept a path to a JSON file or an inline JSON literal."""
    if text.lstrip().startswith(("{", "[")):
        return json.loads(text)
    with open(text, encoding="utf-8") as fh:
        return json.load(fh)


def _json_object(doc, obj, keys):
    """``obj``, the JSON document named ``doc`` in errors, checked to be
    an object that holds each of ``keys``."""
    if not isinstance(obj, dict):
        raise DataFormatError(f"{doc} must be a JSON object")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise DataFormatError(f"{doc} lacks key {missing[0]!r}")
    return obj


# what _json_array accepts at each depth
_ARRAY_KINDS = ("a number", "a number or a list of numbers",
                "a number, or a list or list of equal-length lists of numbers")


def _json_array(doc, key, value, depth):
    """``value``, the value of ``key`` in the JSON document ``doc``,
    checked to be a number or, up to ``depth`` levels deep, a list whose
    items are all numbers or all lists of one length."""

    def numbers(v, depth):
        if not isinstance(v, list):
            return isinstance(v, (int, float)) and not isinstance(v, bool)
        shapes = {len(item) if isinstance(item, list) else None for item in v}
        return depth > 0 and len(shapes) <= 1 and all(numbers(item, depth - 1) for item in v)

    if not numbers(value, depth):
        raise DataFormatError(f"{doc} key {key!r} must be {_ARRAY_KINDS[depth]}, got {value!r}")
    return value


def _json_numbers(doc, obj, keys, vectors=()):
    """The values of ``keys`` in the JSON object ``obj`` (``doc`` in
    errors): each a number, or for a key in ``vectors`` a number or a
    list of numbers."""
    return [_json_array(doc, key, _json_object(doc, obj, (key,))[key], int(key in vectors))
            for key in keys]


def _whole(value):
    """A whole JSON number written as 3.0 becomes 3; SimDesign rejects 2.7."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _design_from_mapping(obj, seed_override):
    from .simulate import SimDesign

    known = {"n_clusters", "cluster_sizes", "x", "offsets", "seed",
             "column_names"}
    _json_object("--design", obj, ("n_clusters",))
    extra = set(obj) - known
    if extra:
        raise DataFormatError(f"unknown design keys: {sorted(extra)}")
    sizes = obj.get("cluster_sizes", 1)
    x, offsets = obj.get("x"), obj.get("offsets")
    return SimDesign(
        n_clusters=_whole(obj["n_clusters"]),
        cluster_sizes=[_whole(m) for m in sizes] if isinstance(sizes, list) else _whole(sizes),
        x_builder=None if x is None else np.asarray(_json_array("--design", "x", x, 2),
                                                    dtype=float),
        offsets=None if offsets is None else _json_array("--design", "offsets", offsets, 2),
        seed=seed_override if seed_override is not None else _whole(obj.get("seed", 0)),
        column_names=obj.get("column_names"),
    )


def _cmd_simulate(args):
    from . import simulate

    params_obj = _load_json_arg(args.params)
    design = _design_from_mapping(_load_json_arg(args.design), args.seed)
    if args.model == "mnb":
        from .mnb_model import MnbParams

        beta, phi = _json_numbers("--params", params_obj, ("beta", "phi"), vectors=("beta",))
        params = MnbParams(beta=np.asarray(beta, dtype=float), phi=float(phi))
        dataset = simulate.simulate_mnb(design, params)
    else:
        from .glg_dist import PglgParams  # not pglg_model: simulating fits nothing

        beta, sigma, lam = _json_numbers("--params", params_obj, ("beta", "sigma", "lambda"),
                                         vectors=("beta",))
        params = PglgParams(beta=np.asarray(beta, dtype=float), sigma=float(sigma),
                            lam=float(lam))
        dataset = simulate.simulate_pglg(design, params)
    spec = write_csv(dataset, args.out)
    _write_json(args.out + ".spec.json", spec.to_mapping())
    return _EXIT_OK


def _params_from_report(report, doc="fit report"):
    if _json_object(doc, report, ("model", "params", "spec"))["model"] not in ("mnb", "nb"):
        raise DomainError(
            "diagnose requires an mnb or nb fit report; residual and "
            "envelope methods are defined for the negative binomial family"
        )
    if not isinstance(report["params"], list):
        raise DataFormatError(f"{doc} key 'params' must be a list")
    beta, phi = [], None
    for row in report["params"]:
        name = _json_object(f"{doc} param", row, ("name",))["name"]
        (estimate,) = _json_numbers(f"{doc} param {name!r}", row, ("estimate",))
        if name == "phi":
            phi = estimate
        else:
            beta.append(estimate)
    if phi is None:
        raise DataFormatError(f"{doc} lacks a phi parameter")
    from .mnb_model import MnbParams

    return MnbParams(beta=np.asarray(beta, dtype=float), phi=float(phi))


def _format_cell(x):
    return "" if not math.isfinite(x) else repr(x)


def _csv_field(text):
    """``text`` as one CSV field: in double quotes, with its quotes
    doubled, when it holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_table(path, header, columns):
    """A CSV file of ``header`` and the rows of ``columns`` (iterables of
    CSV fields), written at once."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header, *map(",".join, zip(*columns))]) + "\n")


def _cmd_diagnose(args):
    from . import mnb_model

    with open(args.fit, encoding="utf-8") as fh:
        report = json.load(fh)
    params = _params_from_report(report, f"fit report {args.fit}")
    spec = ModelSpec.from_mapping(report["spec"])
    dataset = read_csv(args.data, spec)
    if report["model"] == "nb":
        dataset = ungroup(dataset)

    relayed = set()

    def relay(caught):
        for w in caught:
            text = str(w.message)
            if text not in relayed:
                relayed.add(text)
                print(f"warning: {text}", file=sys.stderr)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = mnb_model.residuals(dataset, params)
    relay(caught)

    # ids formatted once per cluster, observation numbers once per position
    ids = np.fromiter(map(_csv_field, dataset.ids), dtype=object, count=dataset.n_clusters)
    positions = np.fromiter(map(str, range(1, dataset.sizes.max() + 1)), dtype=object)
    columns = [
        dataset.per_obs(ids).tolist(),
        positions[res.obs_index - 1].tolist(),
        *map(_column_texts, (res.fitted, res.leverage, res.dev_comp)),
        _column_texts(res.dev_resid, _format_cell),
        _column_texts(res.pearson),
    ]
    _write_table(args.out, "cluster,obs,fitted,leverage,dev_comp,dev_resid,pearson", columns)

    envelope = None
    if args.envelope:
        from . import diagnostics

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            envelope = diagnostics.simulated_envelope(
                dataset,
                params,
                residual=args.residual,
                n_replicates=args.envelope,
                level=args.level,
                seed=args.seed,
            )
        relay(caught)

    if envelope is not None:
        stem, dot, ext = args.out.rpartition(".")
        env_path = f"{stem}_envelope{dot}{ext}" if dot else args.out + "_envelope"
        bands = (envelope.observed_sorted, envelope.lower, envelope.median, envelope.upper)
        columns = [map(str, range(1, envelope.observed_sorted.size + 1)),
                   *map(_column_texts, bands)]
        _write_table(env_path, "rank,observed,lower,median,upper", columns)
        if args.svg:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(_envelope_svg(envelope))
    return _EXIT_OK


def _envelope_svg(env, width=640, height=480, margin=50):
    """Self-contained scatter of ordered residuals with envelope bands."""
    x = env.theoretical
    ys = np.concatenate([env.observed_sorted, env.lower, env.upper])
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_pad = 0.05 * (x_hi - x_lo or 1.0)
    y_pad = 0.05 * (y_hi - y_lo or 1.0)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def sx(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    def path(xs, values):
        return " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(xs, values))

    band = f"{path(x, env.upper)} {path(x[::-1], env.lower[::-1])}"
    dots = "".join(
        f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="2.5" fill="#1f3d7a"/>'
        for a, b in zip(x, env.observed_sorted)
    )
    return f"""<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">
<rect width="{width}" height="{height}" fill="white"/>
<polygon points="{band}" fill="#c9d6ef" stroke="none" opacity="0.7"/>
<polyline points="{path(x, env.median)}" fill="none" stroke="#5b7bb5" stroke-dasharray="4 3"/>
<polyline points="{path(x, env.lower)}" fill="none" stroke="#3a5a9b"/>
<polyline points="{path(x, env.upper)}" fill="none" stroke="#3a5a9b"/>
{dots}
<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>
<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>
<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" font-size="13">standard normal quantile</text>
<text x="14" y="{height / 2:.0f}" text-anchor="middle" font-size="13" transform="rotate(-90 14 {height / 2:.0f})">ordered residual</text>
</svg>
"""


class _ReportRow:
    def __init__(self, report, doc):
        self.model = _json_object(doc, report, ("model",))["model"]
        self.loglik, self.aic = _json_numbers(doc, report, ("loglik", "aic"))


def _cmd_compare(args):
    from . import diagnostics

    rows = []
    for path in args.fits:
        with open(path, encoding="utf-8") as fh:
            rows.append(_ReportRow(json.load(fh), f"fit report {path}"))
    table = diagnostics.compare_aic(rows)
    if args.out:
        _write_json(args.out, table)
    else:
        sys.stdout.write(json.dumps(table, indent=2) + "\n")
    return _EXIT_OK


def _cmd_glg_curve(args):
    from . import glg_dist

    lams = [float(part) for part in map(str.strip, args.lam.split(",")) if part]
    if not lams:
        raise DomainError("--lambda needs at least one value")
    if args.points < 2:
        raise DomainError(f"--points must be >= 2, got {args.points}")
    grids, densities = [], []
    for lam in lams:
        params = glg_dist.GlgParams(mu=args.mu, sigma=args.sigma, lam=lam)
        lo, hi = glg_dist.support_interval(params)
        grids.append(np.linspace(lo, hi, args.points))
        densities.append(glg_dist.pdf(grids[-1], params))
    columns = [np.repeat(lams, args.points), np.concatenate(grids), np.concatenate(densities)]
    _write_table(args.out, "lambda,y,pdf", map(_column_texts, columns))
    return _EXIT_OK


# each subcommand's handler, help line and the function adding its arguments
_COMMANDS = {
    "fit": (_cmd_fit, "fit a model and write a JSON report", _fit_arguments),
    "simulate": (_cmd_simulate, "write a simulated dataset CSV", _simulate_arguments),
    "diagnose": (_cmd_diagnose, "residual report and simulated envelope", _diagnose_arguments),
    "compare": (_cmd_compare, "rank fit reports by AIC", _compare_arguments),
    "glg-curve": (_cmd_glg_curve, "density grids for one or more shapes", _glg_curve_arguments),
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # a missing or unknown command, or a leading -h, gets the whole parser
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (GlgmixError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
