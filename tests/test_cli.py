import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from glgmix import cli, diagnostics, mnb_model
from glgmix.data_io import ModelSpec, read_csv
from glgmix.results import FitResult


def run(argv):
    return cli.main(argv)


@pytest.fixture
def mnb_csv(tmp_path):
    """Simulated overdispersed dataset written through the CLI itself."""
    out = str(tmp_path / "data.csv")
    design = {"n_clusters": 60, "cluster_sizes": 3,
              "x": [[1.0, -1.0], [1.0, 0.0], [1.0, 1.0]],
              "column_names": ["(intercept)", "x"], "seed": 12}
    code = run([
        "simulate", "--model", "mnb",
        "--params", json.dumps({"beta": [0.8, -0.4], "phi": 1.2}),
        "--design", json.dumps(design),
        "--out", out,
    ])
    assert code == 0
    return out


class TestSimulate:
    def test_writes_csv_and_spec(self, tmp_path):
        out = str(tmp_path / "sim.csv")
        code = run([
            "simulate", "--model", "pglg",
            "--params", json.dumps({"beta": [0.3], "sigma": 0.5, "lambda": -0.5}),
            "--design", json.dumps({"n_clusters": 5, "cluster_sizes": 2}),
            "--out", out,
        ])
        assert code == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 11  # header + 10 observations
        spec = json.load(open(out + ".spec.json"))
        assert spec["response"] == "y"
        assert spec["cluster"] == "cluster"

    def test_byte_identical_reruns(self, tmp_path):
        argv = [
            "simulate", "--model", "mnb",
            "--params", json.dumps({"beta": [0.2], "phi": 2.0}),
            "--design", json.dumps({"n_clusters": 8, "cluster_sizes": 2, "seed": 3}),
        ]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run(argv + ["--out", a]) == 0
        assert run(argv + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_seed_flag_overrides_design(self, tmp_path):
        base = ["simulate", "--model", "mnb",
                "--params", json.dumps({"beta": [0.2], "phi": 2.0}),
                "--design", json.dumps({"n_clusters": 8, "seed": 3})]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run(base + ["--out", a]) == 0
        assert run(base + ["--seed", "99", "--out", b]) == 0
        assert open(a).read() != open(b).read()

    def test_params_from_file(self, tmp_path):
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps({"beta": [0.1], "phi": 1.0}))
        out = str(tmp_path / "sim.csv")
        code = run(["simulate", "--model", "mnb", "--params", str(pfile),
                    "--design", json.dumps({"n_clusters": 3}), "--out", out])
        assert code == 0

    def test_wrong_length_beta_rejected(self, tmp_path, capsys):
        for law, shape in (("mnb", {"phi": 1.0}), ("pglg", {"sigma": 0.5, "lambda": 0.3})):
            code = run(["simulate", "--model", law,
                        "--params", json.dumps({"beta": [0.1, 0.2], **shape}),
                        "--design", json.dumps({"n_clusters": 3}),
                        "--out", str(tmp_path / "x.csv")])
            assert code == 1
            assert "design of 1 columns" in capsys.readouterr().err

    @pytest.mark.parametrize("n_clusters", [2.7, "3", [3]])
    def test_non_integer_n_clusters_rejected(self, tmp_path, capsys, n_clusters):
        code = run(["simulate", "--model", "mnb",
                    "--params", json.dumps({"beta": [0.1], "phi": 1.0}),
                    "--design", json.dumps({"n_clusters": n_clusters}),
                    "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "n_clusters must be an integer" in capsys.readouterr().err

    def test_whole_float_n_clusters_accepted(self, tmp_path):
        base = ["simulate", "--model", "mnb", "--params", json.dumps({"beta": [0.1], "phi": 1.0})]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run(base + ["--design", '{"n_clusters": 4.0}', "--out", a]) == 0
        assert run(base + ["--design", '{"n_clusters": 4}', "--out", b]) == 0
        assert open(a).read() == open(b).read()

    @pytest.mark.parametrize("sizes", [2.7, [1.9, 3]])
    def test_non_integer_cluster_sizes_rejected(self, tmp_path, capsys, sizes):
        code = run(["simulate", "--model", "mnb",
                    "--params", json.dumps({"beta": [0.1], "phi": 1.0}),
                    "--design", json.dumps({"n_clusters": 2, "cluster_sizes": sizes}),
                    "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "must be an integer" in capsys.readouterr().err

    def test_whole_float_cluster_sizes_accepted(self, tmp_path):
        base = ["simulate", "--model", "mnb", "--params", json.dumps({"beta": [0.1], "phi": 1.0})]
        outs = [str(tmp_path / f"{k}.csv") for k in range(4)]
        for sizes, out in zip(("3.0", "3", "[3.0, 2]", "[3, 2]"), outs):
            assert run(base + ["--design", f'{{"n_clusters": 2, "cluster_sizes": {sizes}}}',
                               "--out", out]) == 0
        assert open(outs[0]).read() == open(outs[1]).read()
        assert len(open(outs[0]).read().splitlines()) == 7  # header + 2 clusters of 3
        assert open(outs[2]).read() == open(outs[3]).read()

    def test_unknown_design_key_rejected(self, tmp_path, capsys):
        code = run(["simulate", "--model", "mnb",
                    "--params", json.dumps({"beta": [0.1], "phi": 1.0}),
                    "--design", json.dumps({"n_clusters": 3, "shape": 9}),
                    "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestFit:
    def test_order_above_limit_is_input_error(self, mnb_csv, tmp_path, capsys):
        code = run(["fit", "--model", "pglg", "--order", "150", "--data", mnb_csv,
                    "--spec", mnb_csv + ".spec.json", "--out", str(tmp_path / "fit.json")])
        assert code == 1
        assert "order must be at most 100" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_order_zero_is_input_error(self, mnb_csv, tmp_path, capsys):
        code = run(["fit", "--model", "pglg", "--order", "0", "--data", mnb_csv,
                    "--spec", mnb_csv + ".spec.json", "--out", str(tmp_path / "fit.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "order must be at least 1, in [1, 100]" in err and "[1, 200]" not in err
        assert not (tmp_path / "fit.json").exists()

    def test_mnb_report(self, mnb_csv, tmp_path):
        out = str(tmp_path / "fit.json")
        code = run(["fit", "--model", "mnb", "--data", mnb_csv,
                    "--spec", mnb_csv + ".spec.json", "--out", out])
        assert code == 0
        report = json.load(open(out))
        assert report["model"] == "mnb"
        assert report["converged"] is True
        names = [row["name"] for row in report["params"]]
        assert names == ["(intercept)", "x", "phi"]
        for row in report["params"]:
            assert row["std_error"] > 0
        assert report["aic"] == pytest.approx(-2 * report["loglik"] + 2 * 3)
        assert report["spec"]["response"] == "y"
        # trace is monotone in loglik
        logliks = [t["loglik"] for t in report["trace"]]
        assert np.all(np.diff(logliks) >= -1e-10)

    def test_flag_spec_with_interaction(self, mnb_csv, tmp_path):
        out = str(tmp_path / "fit.json")
        code = run(["fit", "--model", "mnb", "--data", mnb_csv,
                    "--response", "y", "--cluster", "cluster",
                    "--covariates", "x", "--out", out])
        assert code == 0
        report = json.load(open(out))
        # the added intercept uses the library's own column label
        from glgmix.data_io import INTERCEPT_NAME

        assert [r["name"] for r in report["params"]] == [INTERCEPT_NAME, "x", "phi"]

    @pytest.mark.parametrize("model", ["mnb", "nb"])
    def test_all_zero_counts_is_input_error(self, tmp_path, capsys, model):
        data = tmp_path / "zeros.csv"
        rows = ["cluster,x,y"] + [f"c{i},{x},0" for i in range(1, 11) for x in (-1, 0, 1)]
        data.write_text("\n".join(rows) + "\n")
        code = run(["fit", "--model", model, "--data", str(data), "--response", "y",
                    "--cluster", "cluster", "--covariates", "x", "--out", str(tmp_path / "fit.json")])
        assert code == 1
        assert "every count is 0" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_field_past_the_csv_limit_is_input_error(self, tmp_path, capsys):
        data = tmp_path / "long.csv"
        data.write_text("cluster,y\nc1,1\nc2," + "1" * (csv.field_size_limit() + 1) + "\n")
        code = run(["fit", "--model", "mnb", "--data", str(data), "--response", "y",
                    "--cluster", "cluster", "--out", str(tmp_path / "fit.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "(row 3)" in err
        assert "Traceback" not in err

    def test_count_past_int64_is_input_error(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text("g,y\na,1\nb,99999999999999999999\n")
        code = run(["fit", "--model", "mnb", "--data", str(data), "--response", "y",
                    "--cluster", "g", "--out", str(tmp_path / "fit.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "(row 3, column 'y')" in err
        assert "Traceback" not in err
        assert not (tmp_path / "fit.json").exists()

    def test_long_bad_field_gives_a_short_error(self, tmp_path, capsys):
        data = tmp_path / "long.csv"
        data.write_text("g,y,x\na,1," + "x" * 100_000 + "\n")
        code = run(["fit", "--model", "mnb", "--data", str(data), "--response", "y",
                    "--cluster", "g", "--covariates", "x", "--out", str(tmp_path / "fit.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "(row 2, column 'x')" in err
        assert "... (100000 characters)" in err and len(err) < 200

    def test_nb_ungroups(self, mnb_csv, tmp_path):
        out = str(tmp_path / "nb.json")
        code = run(["fit", "--model", "nb", "--data", mnb_csv,
                    "--spec", mnb_csv + ".spec.json", "--out", out])
        assert code == 0
        report = json.load(open(out))
        assert report["model"] == "nb"
        # same data refit without clustering gives a different likelihood
        mnb_out = str(tmp_path / "mnb.json")
        run(["fit", "--model", "mnb", "--data", mnb_csv,
             "--spec", mnb_csv + ".spec.json", "--out", mnb_out])
        assert report["loglik"] != json.load(open(mnb_out))["loglik"]

    def test_pglg_normal_report(self, mnb_csv, tmp_path):
        out = str(tmp_path / "pn.json")
        code = run(["fit", "--model", "pglg-normal", "--order", "30",
                    "--data", mnb_csv, "--spec", mnb_csv + ".spec.json",
                    "--out", out])
        assert code == 0
        report = json.load(open(out))
        names = [r["name"] for r in report["params"]]
        assert names == ["(intercept)", "x", "sigma"]
        sigma_row = report["params"][-1]
        assert sigma_row["z_value"] is None

    def test_pglg_free_report(self, tmp_path):
        # the free shape needs data that actually identifies it
        data = str(tmp_path / "pg.csv")
        design = {"n_clusters": 150, "cluster_sizes": 3,
                  "x": [[1.0, -1.0], [1.0, 0.0], [1.0, 1.0]],
                  "column_names": ["(intercept)", "x"], "seed": 5}
        assert run(["simulate", "--model", "pglg",
                    "--params", json.dumps(
                        {"beta": [0.8, -0.4], "sigma": 0.6, "lambda": 0.6}),
                    "--design", json.dumps(design), "--out", data]) == 0
        out = str(tmp_path / "pg.json")
        code = run(["fit", "--model", "pglg", "--order", "30",
                    "--data", data, "--spec", data + ".spec.json",
                    "--out", out])
        assert code == 0
        report = json.load(open(out))
        names = [r["name"] for r in report["params"]]
        assert names == ["(intercept)", "x", "sigma", "lambda"]

    def test_deterministic_report(self, mnb_csv, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        argv = ["fit", "--model", "mnb", "--data", mnb_csv,
                "--spec", mnb_csv + ".spec.json"]
        assert run(argv + ["--out", a]) == 0
        assert run(argv + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_malformed_csv_names_row_and_column(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("g,y\nc1,2\nc1,-3\n")
        code = run(["fit", "--model", "mnb", "--data", str(path),
                    "--response", "y", "--cluster", "g",
                    "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "row 3" in err
        assert "'y'" in err

    def test_spec_and_flags_conflict(self, mnb_csv, tmp_path, capsys):
        code = run(["fit", "--model", "mnb", "--data", mnb_csv,
                    "--spec", mnb_csv + ".spec.json", "--response", "y",
                    "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "cannot be combined" in capsys.readouterr().err

    def test_malformed_interaction(self, mnb_csv, tmp_path, capsys):
        code = run(["fit", "--model", "mnb", "--data", mnb_csv,
                    "--response", "y", "--cluster", "cluster",
                    "--covariates", "x", "--interactions", "x:",
                    "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "interaction" in capsys.readouterr().err

    def test_nonconverged_exit_code(self, mnb_csv, tmp_path, capsys, monkeypatch):
        stub = FitResult(
            model="mnb", names=("(intercept)", "phi"),
            estimates=np.array([0.1, 1.0]), std_errors=None, loglik=-5.0,
            n_iterations=100, converged=False, trace=(),
            z_defined=(True, False),
        )
        monkeypatch.setattr(mnb_model, "fit", lambda *a, **k: stub)
        out = str(tmp_path / "r.json")
        code = run(["fit", "--model", "mnb", "--data", mnb_csv,
                    "--spec", mnb_csv + ".spec.json", "--out", out])
        assert code == 2
        assert "did not converge" in capsys.readouterr().err
        # the report is still written for inspection
        assert json.load(open(out))["converged"] is False


class TestDiagnose:
    def fit_report(self, mnb_csv, tmp_path):
        out = str(tmp_path / "fit.json")
        assert run(["fit", "--model", "mnb", "--data", mnb_csv,
                    "--spec", mnb_csv + ".spec.json", "--out", out]) == 0
        return out

    def test_round_trip_with_envelope(self, mnb_csv, tmp_path):
        report = self.fit_report(mnb_csv, tmp_path)
        out = str(tmp_path / "resid.csv")
        svg = str(tmp_path / "env.svg")
        code = run(["diagnose", "--fit", report, "--data", mnb_csv,
                    "--residual", "pearson", "--envelope", "19",
                    "--seed", "4", "--svg", svg, "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "cluster,obs,fitted,leverage,dev_comp,dev_resid,pearson"
        assert len(lines) == 181  # header + 60 clusters x 3 observations

        env_lines = open(str(tmp_path / "resid_envelope.csv")).read().splitlines()
        assert env_lines[0] == "rank,observed,lower,median,upper"
        assert len(env_lines) == 181
        first = env_lines[1].split(",")
        assert first[0] == "1"
        assert float(first[2]) <= float(first[3]) <= float(first[4])

        assert open(svg).read().startswith("<svg")

    def test_residuals_only_when_envelope_zero(self, mnb_csv, tmp_path):
        report = self.fit_report(mnb_csv, tmp_path)
        out = str(tmp_path / "resid.csv")
        assert run(["diagnose", "--fit", report, "--data", mnb_csv,
                    "--out", out]) == 0
        assert not (tmp_path / "resid_envelope.csv").exists()

    def test_perfect_fit_zero_pearson(self, tmp_path):
        data = tmp_path / "flat.csv"
        rows = ["cluster,y"] + [f"c{i},2" for i in range(1, 7) for _ in range(2)]
        data.write_text("\n".join(rows) + "\n")
        report = {
            "model": "mnb",
            "params": [
                {"name": "(intercept)", "estimate": math.log(2.0),
                 "std_error": None, "z_value": None},
                {"name": "phi", "estimate": 1.0, "std_error": None, "z_value": None},
            ],
            "loglik": -1.0, "aic": 6.0, "n_iterations": 1, "converged": True,
            "trace": [],
            "spec": {"response": "y", "cluster": "cluster"},
        }
        rpath = tmp_path / "fit.json"
        rpath.write_text(json.dumps(report))
        out = str(tmp_path / "resid.csv")
        assert run(["diagnose", "--fit", str(rpath), "--data", str(data),
                    "--out", out]) == 0
        lines = open(out).read().splitlines()[1:]
        for line in lines:
            cells = line.split(",")
            assert float(cells[6]) == 0.0  # pearson
            assert float(cells[4]) == 0.0  # squared deviance component

    def test_negative_components_warn_and_blank(self, tmp_path, capsys):
        data = tmp_path / "spiky.csv"
        rows = ["cluster,y"]
        for i in range(1, 13):
            a, b = (40, 0) if i == 1 else (1, 2)
            rows += [f"c{i},{a}", f"c{i},{b}"]
        data.write_text("\n".join(rows) + "\n")
        report = {
            "model": "mnb",
            "params": [
                {"name": "(intercept)", "estimate": 0.1, "std_error": None,
                 "z_value": None},
                {"name": "phi", "estimate": 1.0, "std_error": None, "z_value": None},
            ],
            "loglik": -1.0, "aic": 6.0, "n_iterations": 1, "converged": True,
            "trace": [],
            "spec": {"response": "y", "cluster": "cluster"},
        }
        rpath = tmp_path / "fit.json"
        rpath.write_text(json.dumps(report))
        out = str(tmp_path / "resid.csv")
        code = run(["diagnose", "--fit", str(rpath), "--data", str(data),
                    "--residual", "pearson", "--out", out])
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("negative") == 1  # relayed once, not per recompute
        lines = open(out).read().splitlines()[1:]
        blanks = [line for line in lines if line.split(",")[5] == ""]
        assert blanks  # undefined deviance residuals stay empty, not NaN text

    @staticmethod
    def library_residuals(report_path, data):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        dataset = read_csv(data, ModelSpec.from_mapping(report["spec"]))
        return dataset, cli._params_from_report(report)

    def test_every_cell_round_trips(self, tmp_path):
        # the spiky data of the test above: some deviance residuals are NaN
        data = tmp_path / "spiky.csv"
        rows = ["cluster,y,x"]
        for i in range(1, 13):
            a, b = (40, 0) if i == 1 else (1, 2)
            rows += [f"c{i},{a},{0.1 * i}", f"c{i},{b},-0.3"]
        data.write_text("\n".join(rows) + "\n")
        rpath = tmp_path / "fit.json"
        rpath.write_text(json.dumps({
            "model": "mnb",
            "params": [{"name": "(intercept)", "estimate": 0.1},
                       {"name": "x", "estimate": -0.2}, {"name": "phi", "estimate": 1.0}],
            "spec": {"response": "y", "cluster": "cluster", "covariates": ["x"]},
        }))
        out = str(tmp_path / "resid.csv")
        assert run(["diagnose", "--fit", str(rpath), "--data", str(data), "--out", out]) == 0
        dataset, params = self.library_residuals(rpath, str(data))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = mnb_model.residuals(dataset, params)
        lines = open(out).read().splitlines()
        assert len(lines) == 1 + res.fitted.size
        assert np.isnan(res.dev_resid).any()
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[:2] == [res.cluster_ids[i], str(res.obs_index[i])]
            for cell, col in zip(cells[2:], ("fitted", "leverage", "dev_comp", "dev_resid",
                                             "pearson")):
                value = getattr(res, col)[i]
                if np.isnan(value):
                    assert cell == ""
                else:
                    assert float(cell) == value

    def test_envelope_cells_round_trip(self, mnb_csv, tmp_path):
        report = self.fit_report(mnb_csv, tmp_path)
        out = str(tmp_path / "resid.csv")
        assert run(["diagnose", "--fit", report, "--data", mnb_csv, "--residual", "pearson",
                    "--envelope", "19", "--seed", "4", "--out", out]) == 0
        dataset, params = self.library_residuals(report, mnb_csv)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            env = diagnostics.simulated_envelope(dataset, params, residual="pearson",
                                                 n_replicates=19, seed=4)
        lines = open(str(tmp_path / "resid_envelope.csv")).read().splitlines()[1:]
        assert len(lines) == env.observed_sorted.size
        for k, line in enumerate(lines):
            cells = line.split(",")
            assert cells[0] == str(k + 1)
            assert [float(c) for c in cells[1:]] == [
                env.observed_sorted[k], env.lower[k], env.median[k], env.upper[k]]

    @pytest.mark.parametrize("model", ["mnb", "nb"])
    def test_ids_needing_quotes_are_quoted(self, tmp_path, model):
        # ids holding a comma, a quote or a line break are quoted; the others are written bare
        ids = ["a,b", 'say "hi"', "plain", "line\rbreak", "two\nlines"]
        data = tmp_path / "ids.csv"
        with open(data, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cluster", "y", "x"])
            for i, cid in enumerate(ids):
                writer.writerows([cid, y, 0.5 * i - x] for y, x in ((i, 0.0), (2, 1.0), (5 - i, 2.0)))
        rpath = tmp_path / "fit.json"
        rpath.write_text(json.dumps({
            "model": model,
            "params": [{"name": "(intercept)", "estimate": 0.4},
                       {"name": "x", "estimate": 0.1}, {"name": "phi", "estimate": 2.0}],
            "spec": {"response": "y", "cluster": "cluster", "covariates": ["x"]},
        }))
        out = str(tmp_path / "resid.csv")
        assert run(["diagnose", "--fit", str(rpath), "--data", str(data), "--out", out]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 16
        assert all(len(row) == 7 for row in rows)
        if model == "mnb":
            assert [row[0] for row in rows[1:]] == [cid for cid in ids for _ in range(3)]
        else:
            assert [row[0] for row in rows[1:]] == [f"{cid}#{k}" for k, cid in
                                                    enumerate((c for c in ids for _ in range(3)), 1)]
        lines = open(out, encoding="utf-8", newline="").read().split("\n")
        assert lines[1].startswith('"a,b')
        assert lines[4].startswith('"say ""hi""')
        assert lines[7].startswith("plain")

    def test_quoted_ids_on_interleaved_clusters_of_unequal_size(self, tmp_path):
        # the table is written per cluster; it must equal a row-by-row format
        ids = ["a,b", 'say "hi"', "two\nlines", "plain", " padded "]
        sizes = [4, 1, 3, 2, 5]
        queue = [cid for k in range(max(sizes)) for cid, m in zip(ids, sizes) if k < m]
        data = tmp_path / "mixed.csv"
        with open(data, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cluster", "y", "x"])
            writer.writerows([cid, (3 * k) % 7, 0.25 * (k % 5) - 0.5]
                             for k, cid in enumerate(queue))
        rpath = tmp_path / "fit.json"
        rpath.write_text(json.dumps({
            "model": "mnb",
            "params": [{"name": "(intercept)", "estimate": 0.7},
                       {"name": "x", "estimate": -0.3}, {"name": "phi", "estimate": 1.5}],
            "spec": {"response": "y", "cluster": "cluster", "covariates": ["x"]},
        }))
        out = tmp_path / "resid.csv"
        assert run(["diagnose", "--fit", str(rpath), "--data", str(data), "--residual",
                    "pearson", "--out", str(out)]) == 0
        dataset, params = self.library_residuals(rpath, str(data))
        assert dataset.sizes.tolist() == sizes
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = mnb_model.residuals(dataset, params)
        rows = ["cluster,obs,fitted,leverage,dev_comp,dev_resid,pearson"]
        for i, cid in enumerate(res.cluster_ids):
            cells = [cli._csv_field(cid), str(res.obs_index[i])]
            cells += [repr(getattr(res, col)[i].item())
                      for col in ("fitted", "leverage", "dev_comp")]
            cells += [cli._format_cell(res.dev_resid[i].item()), repr(res.pearson[i].item())]
            rows.append(",".join(cells))
        assert out.read_bytes() == ("\n".join(rows) + "\n").encode("utf-8")

    def test_pglg_report_rejected(self, mnb_csv, tmp_path, capsys):
        out = str(tmp_path / "pg.json")
        assert run(["fit", "--model", "pglg-normal", "--order", "30",
                    "--data", mnb_csv, "--spec", mnb_csv + ".spec.json",
                    "--out", out]) == 0
        code = run(["diagnose", "--fit", out, "--data", mnb_csv,
                    "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "mnb or nb" in capsys.readouterr().err

    def test_nb_report_diagnosed_per_observation(self, mnb_csv, tmp_path):
        nb = str(tmp_path / "nb.json")
        assert run(["fit", "--model", "nb", "--data", mnb_csv,
                    "--spec", mnb_csv + ".spec.json", "--out", nb]) == 0
        out = str(tmp_path / "resid.csv")
        assert run(["diagnose", "--fit", nb, "--data", mnb_csv,
                    "--out", out]) == 0
        assert len(open(out).read().splitlines()) == 181


class TestCompare:
    def test_ranking_to_stdout_and_file(self, mnb_csv, tmp_path, capsys):
        mnb_out = str(tmp_path / "mnb.json")
        pn_out = str(tmp_path / "pn.json")
        assert run(["fit", "--model", "mnb", "--data", mnb_csv,
                    "--spec", mnb_csv + ".spec.json", "--out", mnb_out]) == 0
        assert run(["fit", "--model", "pglg-normal", "--order", "30",
                    "--data", mnb_csv, "--spec", mnb_csv + ".spec.json",
                    "--out", pn_out]) == 0
        code = run(["compare", "--fits", mnb_out, pn_out])
        assert code == 0
        table = json.loads(capsys.readouterr().out)
        assert len(table) == 2
        assert table[0]["delta_aic"] == 0.0
        assert table[0]["aic"] <= table[1]["aic"]

        ranked = str(tmp_path / "rank.json")
        assert run(["compare", "--fits", mnb_out, pn_out, "--out", ranked]) == 0
        assert json.load(open(ranked)) == table

    def test_file_holds_the_stdout_bytes(self, tmp_path, capsys):
        fits = []
        for name, loglik in (("mnb", -100.0), ("nb", -104.5)):
            fits.append(str(tmp_path / f"{name}.json"))
            with open(fits[-1], "w") as fh:
                json.dump({"model": name, "loglik": loglik, "aic": -2 * loglik + 6}, fh)
        assert run(["compare", "--fits", *fits]) == 0
        shown = capsys.readouterr().out
        ranked = tmp_path / "rank.json"
        assert run(["compare", "--fits", *fits, "--out", str(ranked)]) == 0
        assert ranked.read_bytes() == shown.encode("utf-8") and capsys.readouterr().out == ""

    def test_single_fit_rejected(self, mnb_csv, tmp_path, capsys):
        out = str(tmp_path / "fit.json")
        assert run(["fit", "--model", "mnb", "--data", mnb_csv,
                    "--spec", mnb_csv + ".spec.json", "--out", out]) == 0
        assert run(["compare", "--fits", out]) == 1
        assert "at least 2" in capsys.readouterr().err


class TestGlgCurve:
    def read_groups(self, path):
        groups = {}
        for line in open(path).read().splitlines()[1:]:
            lam, y, f = line.split(",")
            groups.setdefault(float(lam), []).append((float(y), float(f)))
        return groups

    def test_grid_properties(self, tmp_path):
        out = str(tmp_path / "curve.csv")
        code = run(["glg-curve", "--mu", "0.0", "--sigma", "1.0",
                    "--lambda", "0,1", "--points", "2001", "--out", out])
        assert code == 0
        header = open(out).readline().strip()
        assert header == "lambda,y,pdf"
        groups = self.read_groups(out)
        assert set(groups) == {0.0, 1.0}

        # lambda = 0 is the normal density: symmetric about mu
        pts = np.array(groups[0.0])
        dens = pts[:, 1]
        np.testing.assert_allclose(dens, dens[::-1], rtol=1e-9)

        # each curve integrates to about 1 on its plotted support
        for lam, rows in groups.items():
            arr = np.array(rows)
            area = np.trapezoid(arr[:, 1], arr[:, 0])
            assert area == pytest.approx(1.0, abs=1e-4)

        # lambda = 1: extreme-value shape peaks at mu with density 1/e
        arr = np.array(groups[1.0])
        peak = arr[np.argmax(arr[:, 1])]
        assert abs(peak[0]) < 0.01
        assert peak[1] == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_list_starting_with_a_minus_sign(self, tmp_path):
        out = str(tmp_path / "curve.csv")
        assert run(["glg-curve", "--lambda=-1.2,0,0.5", "--points", "5", "--out", out]) == 0
        assert set(self.read_groups(out)) == {-1.2, 0.0, 0.5}
        assert len(open(out).read().splitlines()) == 1 + 3 * 5

    def test_validation_errors(self, tmp_path, capsys):
        out = str(tmp_path / "c.csv")
        assert run(["glg-curve", "--lambda", " , ", "--out", out]) == 1
        assert run(["glg-curve", "--lambda", "0.5", "--points", "1",
                    "--out", out]) == 1
        capsys.readouterr()


class TestTopLevel:
    def test_fit_diagnose_predict_leave_scipy_unloaded(self, tmp_path):
        # SciPy is needed only by glg-curve; every other path runs on
        # NumPy and the standard library, checked after each command
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = """
import json, os, sys
from glgmix import ModelSpec, PglgParams, cli, pglg_model, read_csv

def check(step):
    loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    assert not loaded, (step, loaded[:3])

work = sys.argv[1]
data = os.path.join(work, "data.csv")
design = {"n_clusters": 30, "cluster_sizes": 3, "x": [[1.0, -1.0], [1.0, 0.0], [1.0, 1.0]],
          "column_names": ["(intercept)", "x"], "seed": 5}
assert cli.main(["simulate", "--model", "mnb", "--params", '{"beta": [0.8, -0.4], "phi": 1.2}',
                 "--design", json.dumps(design), "--out", data]) == 0
check("import and simulate")
for model in ("mnb", "nb", "pglg", "pglg-normal"):
    out = os.path.join(work, model + ".json")
    assert cli.main(["fit", "--model", model, "--data", data, "--spec", data + ".spec.json",
                     "--out", out]) in (0, 2)
    check("fit " + model)
for envelope in ("0", "19"):
    assert cli.main(["diagnose", "--fit", os.path.join(work, "mnb.json"), "--data", data,
                     "--residual", "pearson", "--envelope", envelope,
                     "--out", os.path.join(work, "r.csv")]) == 0
    check("diagnose --envelope " + envelope)
ds = read_csv(data, ModelSpec.from_json_file(data + ".spec.json"))
pglg_model.predict_random_effects(ds, PglgParams(beta=[0.8, -0.4], sigma=0.9, lam=0.9))
check("predict_random_effects")
print("clean")
"""
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "clean"

    def test_import_leaves_scipy_optimize_unloaded(self):
        # the library never needs scipy.optimize, and the import is large
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = "import sys, glgmix.cli; print('scipy.optimize' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "False"

    def test_pglg_fit_leaves_scipy_optimize_unloaded(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = (
            "import sys, numpy as np\n"
            "from glgmix import PglgParams, SimDesign, simulate_pglg, pglg_model\n"
            "ds = simulate_pglg(SimDesign(n_clusters=30, cluster_sizes=3, seed=1),\n"
            "                   PglgParams(beta=np.array([0.5]), sigma=0.6, lam=-0.5))\n"
            "pglg_model.fit(ds)\n"
            "print('scipy.optimize' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "False"

    # modules a command must leave unloaded; a name covers its submodules
    MNB_FIT_SKIPS = ("glgmix.pglg_model", "glgmix.quadrature", "glgmix.glg_dist",
                     "glgmix.simulate", "glgmix.diagnostics", "statistics",
                     "numpy.polynomial", "numpy.ma", "numpy.random")
    PGLG_FIT_SKIPS = ("glgmix.diagnostics", "glgmix.simulate", "statistics",
                      "glgmix.mnb_model", "numpy.polynomial")
    DIAGNOSE_SKIPS = ("glgmix.diagnostics", "glgmix.simulate", "numpy.ma", "numpy.random")
    ENVELOPE_SKIPS = ("glgmix.pglg_model", "glgmix.quadrature", "glgmix.glg_dist",
                      "numpy.polynomial", "numpy.ma", "statistics")

    @pytest.mark.parametrize("command, skips", [
        ("fit mnb", MNB_FIT_SKIPS),
        ("fit nb", MNB_FIT_SKIPS),
        ("fit pglg", PGLG_FIT_SKIPS),
        ("fit pglg-normal", PGLG_FIT_SKIPS),
        ("diagnose", DIAGNOSE_SKIPS),
        ("import", ("glgmix.cli", "glgmix.data_io", "glgmix.diagnostics", "glgmix.glg_dist",
                    "glgmix.mnb_model", "glgmix.pglg_model", "glgmix.quadrature",
                    "glgmix.simulate", "numpy")),
        ("compare", ("glgmix.simulate", "numpy.random")),
        ("diagnose --envelope 19 --residual pearson", ENVELOPE_SKIPS),
        ("simulate pglg", ("glgmix.pglg_model", "glgmix.quadrature", "glgmix.diagnostics",
                           "numpy.polynomial", "numpy.ma", "scipy")),
        ("import glgmix.cli", ("glgmix._newton", "glgmix.diagnostics", "glgmix.glg_dist",
                               "glgmix.mnb_model", "glgmix.pglg_model", "glgmix.quadrature",
                               "glgmix.simulate")),
    ])
    def test_each_command_loads_only_its_modules(self, mnb_csv, tmp_path, command, skips):
        # each command starts in a fresh interpreter, as the CLI does
        report = str(tmp_path / "mnb.json")
        assert run(["fit", "--model", "mnb", "--data", mnb_csv, "--spec", mnb_csv + ".spec.json",
                    "--out", report]) == 0
        if command.startswith("import"):
            module = command.partition(" ")[2] or "glgmix"
            code = f"import json, sys, {module}; print(json.dumps([0, sorted(sys.modules)]))"
            argv = []
        else:
            code = ("import json, sys\nfrom glgmix.cli import main\n"
                    "print(json.dumps([main(sys.argv[1:]), sorted(sys.modules)]))")
            verb, _, model = command.partition(" ")
            if verb == "fit":
                argv = ["fit", "--model", model, "--spec", mnb_csv + ".spec.json",
                        "--out", str(tmp_path / "out.json"), "--data", mnb_csv]
            elif verb == "simulate":
                argv = ["simulate", "--model", model, "--out", str(tmp_path / "sim.csv"),
                        "--params", '{"beta": [0.5], "sigma": 0.6, "lambda": -0.5}',
                        "--design", '{"n_clusters": 20, "cluster_sizes": 3, "seed": 1}']
            elif verb == "compare":
                argv = ["compare", "--fits", report, report, "--out", str(tmp_path / "c.json")]
            else:
                argv = ["diagnose", "--fit", report, "--out", str(tmp_path / "r.csv"),
                        "--data", mnb_csv, *(model.split() or ["--envelope", "0"])]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run([sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        exit_code, modules = json.loads(out.stdout.splitlines()[-1])
        assert exit_code in (0, 2)
        skips = (*skips, "dataclasses")  # records are plain classes (glgmix._record)
        loaded = [m for m in modules if any(m == s or m.startswith(s + ".") for s in skips)]
        assert not loaded, (command, loaded)

    def test_package_surface(self):
        # a fresh interpreter, so that each name resolves on first access
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = """
import importlib, sys, types
import glgmix

for name in ("quadrature", "results", "errors", "_newton", "cli", "data_io", "diagnostics",
             "glg_dist", "mnb_model", "pglg_model", "simulate"):
    assert getattr(glgmix, name) is importlib.import_module("glgmix." + name), name
for name in glgmix.__all__:
    value = getattr(glgmix, name)
    if name == "__version__":
        assert isinstance(value, str)
    elif isinstance(value, types.ModuleType):
        assert value is sys.modules["glgmix." + name], name
    else:
        assert value.__module__.startswith("glgmix."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
assert set(glgmix.__all__) <= set(dir(glgmix))
namespace = {}
exec("from glgmix import *", namespace)
assert all(namespace[name] is getattr(glgmix, name) for name in glgmix.__all__)
try:
    glgmix.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown name resolved")
print("ok")
"""
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = run(["fit", "--model", "mnb", "--data", str(tmp_path / "no.csv"),
                    "--response", "y", "--cluster", "g",
                    "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_params_json(self, tmp_path, capsys):
        code = run(["simulate", "--model", "mnb", "--params", "{not json",
                    "--design", json.dumps({"n_clusters": 2}),
                    "--out", str(tmp_path / "x.csv")])
        assert code == 1
        capsys.readouterr()


class TestMalformedJson:
    """A JSON document of the wrong shape is an input error that names the
    document and the key: exit 1 and one ``error:`` line, no traceback."""

    MNB = {"beta": [0.1], "phi": 1.0}
    REPORT = {"model": "mnb", "params": [{"name": "intercept", "estimate": 0.1},
                                         {"name": "phi", "estimate": 1.0}],
              "spec": {"response": "y", "cluster": "cluster"}}

    @staticmethod
    def fails(argv, capsys, *messages):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert all(message in err for message in messages), err

    @pytest.mark.parametrize("model, params, message", [
        ("mnb", {"beta": [1], "phi": None}, "--params key 'phi' must be a number, got None"),
        ("mnb", [1, 2], "--params must be a JSON object"),
        ("mnb", {"beta": [1]}, "--params lacks key 'phi'"),
        ("mnb", {"beta": ["a"], "phi": 1}, "key 'beta' must be a number or a list of numbers"),
        ("mnb", {"beta": [1], "phi": True}, "key 'phi' must be a number, got True"),
        ("pglg", {"beta": [1], "sigma": 0.5}, "--params lacks key 'lambda'"),
        ("pglg", {"beta": [1], "sigma": "0.5", "lambda": 0}, "key 'sigma' must be a number"),
    ])
    def test_params(self, tmp_path, capsys, model, params, message):
        self.fails(["simulate", "--model", model, "--params", json.dumps(params),
                    "--design", '{"n_clusters": 2}', "--out", str(tmp_path / "x.csv")],
                   capsys, message)

    @pytest.mark.parametrize("design, message", [
        ([1], "--design must be a JSON object"),
        ({"cluster_sizes": 2}, "--design lacks key 'n_clusters'"),
        ({"n_clusters": 3, "seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"n_clusters": 3, "seed": "7"}, "seed must be an integer, got '7'"),
        ({"n_clusters": 3, "column_names": 5}, "column_names must be a sequence of strings"),
        ({"n_clusters": 3, "cluster_sizes": None}, "cluster_sizes must be an integer, got None"),
        ({"n_clusters": 2, "offsets": {"a": 1}}, "--design key 'offsets' must be a number, "
         "or a list or list of equal-length lists of numbers, got {'a': 1}"),
        ({"n_clusters": 2, "offsets": [1, None]}, "--design key 'offsets' must be"),
        ({"n_clusters": 2, "offsets": "0.5"}, "--design key 'offsets' must be"),
        ({"n_clusters": 2, "x": {"a": 1}}, "--design key 'x' must be"),
        ({"n_clusters": 2, "x": [[1, 2], 3]}, "--design key 'x' must be"),
        ({"n_clusters": 2, "x": [[1, 2], [3]]}, "--design key 'x' must be"),
        ({"n_clusters": 2, "x": [[[1]]]}, "--design key 'x' must be"),
        ({"n_clusters": 2, "x": [[True]]}, "--design key 'x' must be"),
    ])
    def test_design(self, tmp_path, capsys, design, message):
        self.fails(["simulate", "--model", "mnb", "--params", json.dumps(self.MNB),
                    "--design", json.dumps(design), "--out", str(tmp_path / "x.csv")],
                   capsys, message)

    def test_whole_seed_accepted(self, tmp_path):
        base = ["simulate", "--model", "mnb", "--params", json.dumps(self.MNB)]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run(base + ["--design", '{"n_clusters": 3, "seed": 7.0}', "--out", a]) == 0
        assert run(base + ["--design", '{"n_clusters": 3, "seed": 7}', "--out", b]) == 0
        assert open(a).read() == open(b).read()

    @pytest.mark.parametrize("edit, message", [
        (lambda r: [r], "must be a JSON object"),
        (lambda r: {k: v for k, v in r.items() if k != "params"}, "lacks key 'params'"),
        (lambda r: {**r, "params": 3}, "key 'params' must be a list"),
        (lambda r: {**r, "params": [{"estimate": 1.0}]}, "param lacks key 'name'"),
        (lambda r: {**r, "params": [{"name": "phi", "estimate": None}]},
         "param 'phi' key 'estimate' must be a number, got None"),
        (lambda r: {**r, "params": [{"name": "phi"}]}, "param 'phi' lacks key 'estimate'"),
        (lambda r: {**r, "params": r["params"][:1]}, "lacks a phi parameter"),
    ])
    def test_diagnose_report(self, tmp_path, capsys, edit, message):
        report = tmp_path / "fit.json"
        report.write_text(json.dumps(edit(self.REPORT)))
        self.fails(["diagnose", "--fit", str(report), "--data", str(tmp_path / "none.csv"),
                    "--out", str(tmp_path / "r.csv")], capsys, f"fit report {report}", message)

    @pytest.mark.parametrize("second, message", [
        ([1, 2], "must be a JSON object"),
        ({"model": "nb", "aic": 3.0}, "lacks key 'loglik'"),
        ({"loglik": -1.0, "aic": 3.0}, "lacks key 'model'"),
        ({"model": "nb", "loglik": -1.0, "aic": "3"}, "key 'aic' must be a number, got '3'"),
    ])
    def test_compare_reports(self, tmp_path, capsys, second, message):
        fits = [tmp_path / "a.json", tmp_path / "b.json"]
        fits[0].write_text(json.dumps({"model": "mnb", "loglik": -1.0, "aic": 4.0}))
        fits[1].write_text(json.dumps(second))
        self.fails(["compare", "--fits", *map(str, fits)], capsys, f"fit report {fits[1]}",
                   message)


class TestParser:
    """Each command's parser adds only that command's arguments, and
    parses and prints as the parser of every command does."""

    NAMES = ("fit", "simulate", "diagnose", "compare", "glg-curve")

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["-h"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for name in self.NAMES:
            assert f"\n    {name} " in out, name
        assert "fit a model and write a JSON report" in out

    @pytest.mark.parametrize("name", NAMES)
    def test_subcommand_help_equals_the_full_parsers(self, capsys, name):
        texts = []
        for parser in (cli._build_parser(name), cli._build_parser(None)):
            with pytest.raises(SystemExit):
                parser.parse_args([name, "-h"])
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert "--out" in texts[0]

    def test_unknown_residual_kind_names_the_choices(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["diagnose", "--fit", "f.json", "--data", "d.csv", "--out", "r.csv",
                 "--residual", "bogus"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err and "'deviance', 'pearson'" in err


class TestReentrant:
    """Many ``main`` calls in one process share one parser per command;
    each call's outputs equal those of the same call alone in a fresh
    interpreter."""

    CALLS = [
        ["fit", "--model", "pglg", "--data", "data.csv", "--spec", "data.csv.spec.json",
         "--order", "20", "--out", "pglg20.json"],
        ["fit", "--model", "bogus", "--data", "data.csv", "--out", "never.json"],
        ["fit", "--model", "pglg", "--data", "data.csv", "--spec", "data.csv.spec.json",
         "--out", "pglg.json"],
        ["fit", "--model", "nb", "--data", "data.csv", "--response", "y", "--cluster", "cluster",
         "--covariates", "x", "--no-intercept", "--out", "nb.json"],
        ["fit", "--model", "mnb", "--data", "data.csv", "--spec", "data.csv.spec.json",
         "--out", "mnb.json"],
        ["diagnose", "--fit", "mnb.json", "--data", "data.csv", "--residual", "pearson",
         "--envelope", "19", "--seed", "4", "--out", "resid.csv"],
        ["diagnose", "--fit", "mnb.json", "--data", "data.csv", "--out", "resid_dev.csv"],
        ["compare", "--fits", "pglg20.json", "pglg.json", "mnb.json", "--out", "cmp.json"],
        ["simulate", "--model", "mnb", "--params", '{"beta": [0.2], "phi": 2.0}',
         "--design", '{"n_clusters": 6, "cluster_sizes": 2, "seed": 3}', "--seed", "9",
         "--out", "sim9.csv"],
        ["simulate", "--model", "mnb", "--params", '{"beta": [0.2], "phi": 2.0}',
         "--design", '{"n_clusters": 6, "cluster_sizes": 2, "seed": 3}', "--out", "sim3.csv"],
    ]

    @staticmethod
    def outputs(work):
        names = sorted(n for n in os.listdir(work) if not n.startswith("data.csv"))
        return {n: open(os.path.join(work, n), "rb").read() for n in names}

    def test_each_call_as_if_alone(self, mnb_csv, tmp_path, monkeypatch, capsys):
        together, alone = tmp_path / "together", tmp_path / "alone"
        for work in (together, alone):
            work.mkdir()
            for suffix in ("", ".spec.json"):
                (work / ("data.csv" + suffix)).write_bytes(open(mnb_csv + suffix, "rb").read())

        monkeypatch.chdir(together)
        codes = []
        for argv in self.CALLS:
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:  # argparse rejects the call
                codes.append(exc.code)
        capsys.readouterr()

        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        boot = "import sys; from glgmix.cli import main; sys.exit(main(sys.argv[1:]))"
        codes_alone = [
            subprocess.run([sys.executable, "-c", boot, *argv], cwd=alone, env=env,
                           capture_output=True, timeout=300).returncode
            for argv in self.CALLS
        ]
        assert codes == codes_alone
        assert codes[1] == 2 and codes[3:] == [0] * 7
        got, want = self.outputs(together), self.outputs(alone)
        assert sorted(got) == sorted(want)
        assert len(got) == 12  # 5 reports, 3 residual tables, 2 simulated CSVs and their specs
        for name in want:
            assert got[name] == want[name], name
        # --order 20 did not stay on for the later fit without it
        assert json.loads(got["pglg20.json"]) != json.loads(got["pglg.json"])
