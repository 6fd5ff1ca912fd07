import copy
import csv
import json
import math
import os
import pickle
import struct
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glgmix import data_io
from glgmix.cli import _format_cell
from glgmix.data_io import (
    INTERCEPT_NAME,
    ClusterData,
    Dataset,
    ModelSpec,
    read_csv,
    ungroup,
    write_csv,
)
from glgmix.errors import (
    DataFormatError,
    DomainError,
    EmptyFileError,
    FieldParseError,
    MissingColumnError,
    RaggedRowError,
    ResponseValueError,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# what a count with more digits than int() converts must be
INT_DIGITS = f"written in at most {sys.get_int_max_str_digits()} digits"

BASIC = """animal,count,conc,day
a1,5,0.0,-2
a1,4,0.0,0
a1,6,0.0,2
a2,1,80.0,-2
a2,0,80.0,0
a2,2,80.0,2
"""


class TestModelSpec:
    def test_design_names_with_interaction(self):
        spec = ModelSpec(
            response="count",
            cluster="animal",
            covariates=("conc", "day"),
            interactions=(("conc", "day"),),
        )
        assert spec.design_names() == (INTERCEPT_NAME, "conc", "day", "conc:day")

    def test_duplicate_terms_rejected(self):
        with pytest.raises(DataFormatError):
            ModelSpec(response="y", cluster="c", covariates=("x", "x"))

    def test_mapping_round_trip(self):
        spec = ModelSpec(
            response="count",
            cluster="animal",
            covariates=("conc",),
            interactions=(("conc", "day"),),
            offset="exposure",
            add_intercept=False,
        )
        assert ModelSpec.from_mapping(spec.to_mapping()) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(DataFormatError):
            ModelSpec.from_mapping(
                {"response": "y", "cluster": "c", "weights": "w"}
            )

    @pytest.mark.parametrize("key, value", [
        ("intercept", "false"),
        ("intercept", 0),
        ("covariates", "age"),
        ("covariates", ["age", 3]),
        ("interactions", [["ab"]]),
        ("interactions", [["a", "b", "c"]]),
        ("interactions", "a:b"),
        ("offset", 1.5),
        ("offset", ["exposure"]),
    ])
    def test_malformed_values_name_their_key(self, key, value):
        with pytest.raises(DataFormatError, match=repr(key)):
            ModelSpec.from_mapping({"response": "y", "cluster": "c", key: value})

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"response": "count", "cluster": "animal", "covariates": ["conc"]})
        )
        spec = ModelSpec.from_json_file(str(path))
        assert spec.response == "count"
        assert spec.add_intercept is True


class TestReadCsv:
    def test_field_past_the_csv_limit_names_its_row(self, tmp_path):
        text = "g,y\na,1\nb," + "1" * (csv.field_size_limit() + 1) + "\nc,2\n"
        with pytest.raises(DataFormatError, match="field larger than field limit") as info:
            read_csv(write(tmp_path, text), ModelSpec(response="y", cluster="g"))
        assert info.value.row == 3

    def test_grouping_and_design(self, tmp_path):
        spec = ModelSpec(
            response="count",
            cluster="animal",
            covariates=("conc", "day"),
            interactions=(("conc", "day"),),
        )
        ds = read_csv(write(tmp_path, BASIC), spec)
        assert ds.n_clusters == 2
        assert ds.p == 4
        assert ds.column_names == (INTERCEPT_NAME, "conc", "day", "conc:day")
        c2 = ds.clusters[1]
        assert c2.id == "a2"
        assert c2.y.tolist() == [1, 0, 2]
        # interaction column is the elementwise product
        np.testing.assert_allclose(c2.X[:, 3], c2.X[:, 1] * c2.X[:, 2])
        np.testing.assert_allclose(c2.X[:, 0], 1.0)

    def test_order_preserved_within_cluster(self, tmp_path):
        text = "g,y,x\nb,1,0.1\na,2,0.2\nb,3,0.3\na,4,0.4\n"
        spec = ModelSpec(response="y", cluster="g", covariates=("x",))
        ds = read_csv(write(tmp_path, text), spec)
        assert [c.id for c in ds.clusters] == ["b", "a"]
        assert ds.clusters[0].y.tolist() == [1, 3]
        assert ds.clusters[1].y.tolist() == [2, 4]

    def test_offset_column(self, tmp_path):
        text = "id,y,w\np1,3,8\np1,5,2\n"
        spec = ModelSpec(response="y", cluster="id", offset="w")
        ds = read_csv(write(tmp_path, text), spec)
        np.testing.assert_allclose(ds.clusters[0].offset, [8.0, 2.0])

    def test_no_intercept(self, tmp_path):
        spec = ModelSpec(
            response="count", cluster="animal", covariates=("conc",), add_intercept=False
        )
        ds = read_csv(write(tmp_path, BASIC), spec)
        assert ds.p == 1
        assert ds.column_names == ("conc",)

    def test_missing_column(self, tmp_path):
        spec = ModelSpec(response="count", cluster="animal", covariates=("dose",))
        with pytest.raises(MissingColumnError) as info:
            read_csv(write(tmp_path, BASIC), spec)
        assert "dose" in str(info.value)

    def test_negative_response(self, tmp_path):
        text = "g,y\nc1,2\nc1,-1\n"
        spec = ModelSpec(response="y", cluster="g")
        with pytest.raises(ResponseValueError) as info:
            read_csv(write(tmp_path, text), spec)
        assert info.value.row == 3
        assert info.value.column == "y"

    def test_fractional_response(self, tmp_path):
        text = "g,y\nc1,2.5\n"
        spec = ModelSpec(response="y", cluster="g")
        with pytest.raises(ResponseValueError):
            read_csv(write(tmp_path, text), spec)

    @pytest.mark.parametrize("count", ["99999999999999999999", str(2**63)])
    def test_count_past_int64_names_its_row(self, tmp_path, count):
        spec = ModelSpec(response="y", cluster="g")
        with pytest.raises(ResponseValueError, match="at most 9223372036854775807") as info:
            read_csv(write(tmp_path, f"g,y\na,1\nb,{count}\n"), spec)
        assert (info.value.row, info.value.column) == (3, "y")

    @pytest.mark.parametrize("field, column, message", [
        pytest.param("x" * 100_000, "x", "could not parse 'xxxx", id="number"),
        pytest.param("inf" * 30_000, "x", "could not parse 'infinf", id="number-inf"),
        pytest.param("1" * 100 + "x", "y", "must be a nonnegative integer, got '1111",
                     id="count"),
        pytest.param("-" + "7" * 4000, "y", "must be nonnegative, got -7777", id="negative"),
        pytest.param("9" * 4000, "y", "must be at most 9223372036854775807, got 9999",
                     id="too-large"),
        # past int()'s digit limit (sys.get_int_max_str_digits), still an integer
        pytest.param("9" * 50_000, "y", "must be at most 9223372036854775807, got 9999",
                     id="past-int-digits"),
        pytest.param("-" + "9_9" * 20_000, "y", "must be nonnegative, got -9_9",
                     id="negative-past-int-digits"),
        # leading zeros past that limit on a count that is in range
        pytest.param("0" * 5000 + "1", "y", f"must be {INT_DIGITS}, got 0000",
                     id="zeros-past-int-digits"),
        pytest.param("-" + "0_0" * 3000, "y", f"must be {INT_DIGITS}, got -0_0",
                     id="negative-zero-past-int-digits"),
        pytest.param("0" * 5000 + "9" * 20, "y", "must be at most 9223372036854775807, got 0000",
                     id="zeros-then-too-large"),
    ])
    def test_long_bad_field_is_quoted_short(self, tmp_path, field, column, message):
        text = "g,y,x\na,1,0.5\nb,{},{}\n".format(*((field, "0.5") if column == "y" else ("1", field)))
        spec = ModelSpec(response="y", cluster="g", covariates=("x",))
        with pytest.raises((ResponseValueError, FieldParseError)) as info:
            read_csv(write(tmp_path, text), spec)
        assert (info.value.row, info.value.column) == (3, column)
        assert message in str(info.value)
        assert len(str(info.value)) < 200
        assert f"... ({len(field)} characters)" in str(info.value)

    def test_ragged_row(self, tmp_path):
        text = "g,y,x\nc1,2,0.5\nc1,3\n"
        spec = ModelSpec(response="y", cluster="g", covariates=("x",))
        with pytest.raises(RaggedRowError) as info:
            read_csv(write(tmp_path, text), spec)
        assert info.value.row == 3

    def test_unparseable_covariate(self, tmp_path):
        text = "g,y,x\nc1,2,abc\n"
        spec = ModelSpec(response="y", cluster="g", covariates=("x",))
        with pytest.raises(FieldParseError) as info:
            read_csv(write(tmp_path, text), spec)
        assert info.value.column == "x"

    def test_nonfinite_covariate(self, tmp_path):
        text = "g,y,x\nc1,2,inf\n"
        spec = ModelSpec(response="y", cluster="g", covariates=("x",))
        with pytest.raises(FieldParseError):
            read_csv(write(tmp_path, text), spec)

    def test_empty_file(self, tmp_path):
        spec = ModelSpec(response="y", cluster="g")
        with pytest.raises(EmptyFileError):
            read_csv(write(tmp_path, "g,y\n"), spec)
        with pytest.raises(EmptyFileError):
            read_csv(write(tmp_path, "", name="nothing.csv"), spec)

    def test_duplicate_header(self, tmp_path):
        text = "g,y,y\nc1,2,3\n"
        spec = ModelSpec(response="y", cluster="g")
        with pytest.raises(DataFormatError):
            read_csv(write(tmp_path, text), spec)

    def test_blank_rows_skipped(self, tmp_path):
        text = "g,y\nc1,2\n\nc1,3\n"
        spec = ModelSpec(response="y", cluster="g")
        ds = read_csv(write(tmp_path, text), spec)
        assert ds.clusters[0].y.tolist() == [2, 3]

    def test_utf8_bom_tolerated(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfg,y\nc1,4\n")
        spec = ModelSpec(response="y", cluster="g")
        ds = read_csv(str(path), spec)
        assert ds.clusters[0].y.tolist() == [4]

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_blocks_read_as_one(self, tmp_path, monkeypatch, block):
        # an unused column, and blank lines on both sides of block edges
        text = "g,y,unused,x\nc1,2,u,0.5\n\nc2,3,u,1.5\n\n\nc1,4,u,-1\nc3,0,u,2\n"
        spec = ModelSpec(response="y", cluster="g", covariates=("x",))
        path = write(tmp_path, text)
        whole = read_csv(path, spec)
        monkeypatch.setattr(data_io, "_BLOCK_ROWS", block)
        parts = read_csv(path, spec)
        assert parts.ids == whole.ids
        for name in ("y", "X", "offset", "sizes"):
            np.testing.assert_array_equal(getattr(parts, name), getattr(whole, name))
        with pytest.raises(RaggedRowError) as info:
            read_csv(write(tmp_path, text + "c1,2\n", name="ragged.csv"), spec)
        assert info.value.row == 9
        bad = text.replace("c3,0,u,2", "c3,0,u,oops") + "c1,2\n"
        with pytest.raises(FieldParseError) as info:
            read_csv(write(tmp_path, bad, name="bad.csv"), spec)
        assert (info.value.row, info.value.column) == (8, "x")

    def test_rereading_identical(self, tmp_path):
        spec = ModelSpec(response="count", cluster="animal", covariates=("conc",))
        path = write(tmp_path, BASIC)
        a, b = read_csv(path, spec), read_csv(path, spec)
        assert a.column_names == b.column_names
        for ca, cb in zip(a.clusters, b.clusters):
            assert ca.id == cb.id
            assert np.array_equal(ca.y, cb.y)
            assert np.array_equal(ca.X, cb.X)
            assert np.array_equal(ca.offset, cb.offset)


class TestReadCsvErrorOrder:
    """The first bad field in file order is reported; within a row the
    response comes first; rows above a ragged row are checked before it."""

    SPEC = ModelSpec(response="y", cluster="g", covariates=("x", "z"))

    @pytest.fixture(autouse=True, params=[None, 2], ids=["one-block", "blocks-of-2"])
    def block_rows(self, request, monkeypatch):
        if request.param:
            monkeypatch.setattr(data_io, "_BLOCK_ROWS", request.param)

    def rows(self, bad):
        # data rows on lines 2-10; ``bad`` maps a line to its text
        lines = {line: f"c{line % 3},{line % 4},0.5,{line}" for line in range(2, 11)}
        lines.update(bad)
        return "g,y,x,z\n" + "".join(lines[k] + "\n" for k in sorted(lines))

    def read(self, tmp_path, bad):
        return read_csv(write(tmp_path, self.rows(bad)), self.SPEC)

    def test_bad_field_above_ragged_row_wins(self, tmp_path):
        with pytest.raises(FieldParseError) as info:
            self.read(tmp_path, {5: "c1,2,0.5,oops", 9: "c1,2"})
        assert (info.value.row, info.value.column) == (5, "z")

    def test_ragged_row_above_bad_field_wins(self, tmp_path):
        with pytest.raises(RaggedRowError) as info:
            self.read(tmp_path, {5: "c1,2", 9: "c1,2,0.5,oops"})
        assert info.value.row == 5

    def test_response_before_covariates_in_one_row(self, tmp_path):
        with pytest.raises(ResponseValueError) as info:
            self.read(tmp_path, {6: "c1,-3,nan,oops"})
        assert (info.value.row, info.value.column) == (6, "y")
        assert "nonnegative" in str(info.value)

    def test_covariates_in_spec_order(self, tmp_path):
        with pytest.raises(FieldParseError) as info:
            self.read(tmp_path, {7: "c1,2,inf,oops"})
        assert (info.value.row, info.value.column) == (7, "x")
        assert "non-finite" in str(info.value)

    def test_earlier_row_wins_across_columns(self, tmp_path):
        with pytest.raises(FieldParseError) as info:
            self.read(tmp_path, {4: "c1,2,0.5,1e999", 8: "c1,x,0.5,1"})
        assert (info.value.row, info.value.column) == (4, "z")



def reference_read(path, spec):
    """What the documented rules give, found one record at a time with
    Python's ``int()`` and ``float()``: a record starts on line
    ``reader.line_num + 1`` before it is read.  (class, row, column) of
    the first bad record, or the (stripped id, count, numeric values)
    of every data record when there is none."""
    numeric = [c for c in spec.required_columns() if c not in (spec.response, spec.cluster)]
    records = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        while True:
            line = reader.line_num + 1
            row = next(reader, None)
            if row is None:
                return records
            if not row:
                continue
            if len(row) != len(header):
                return RaggedRowError, line, None
            fields = dict(zip(header, row))
            try:
                count = int(fields[spec.response])
            except ValueError:
                count = -1
            if not 0 <= count <= 2**63 - 1:
                return ResponseValueError, line, spec.response
            values = []
            for c in numeric:
                try:
                    values.append(float(fields[c]))
                except ValueError:
                    values.append(math.nan)
                if not math.isfinite(values[-1]):
                    return FieldParseError, line, c
            records.append((fields[spec.cluster].strip(), count, values))


_BREAKS = ("\n", "\r", "\r\n")
# spellings int() and float() accept: signs, blanks, underscores, non-ASCII digits
_COUNTS = ("0", "7", "+4", " 3 ", "1_0", "\u0663", "-0", "\u0661\u0662", str(2**63 - 1))
_NUMBERS = ("0.5", "-1", "2e3", "1e3", "+4", " 3 ", "1_0", "\u0663", "-0", "-0.0", ".5",
            "1_000.25", "\t2.5e-3 ", "\u0663.\u0665")
_CORRUPT = {"y": ("oops", "-1", "1.5", "1e3", "1__0", str(2**63), "99999999999999999999"),
            "x": ("oops", "inf", "nan"), "z": ("-inf", "1e999", "")}


@st.composite
def csv_files(draw):
    """The text of a small CSV file with header g,y,u,x,z (u unread): one
    line ending throughout, line breaks of every kind in quoted fields of
    the cluster column and of u, blank lines, numbers in spellings that
    ``int()`` or ``float()`` accept, and at most one ragged row or one
    corrupted field."""
    end = draw(st.sampled_from(_BREAKS))
    quoted = st.lists(st.sampled_from(["a", "b", *_BREAKS]), max_size=4).map(
        lambda parts: '"' + "".join(parts) + '"')
    rows = []
    for k in range(draw(st.integers(0, 6))):
        row = {"g": draw(quoted), "y": draw(st.sampled_from(_COUNTS)), "u": draw(quoted),
               "x": draw(st.sampled_from(_NUMBERS)),
               "z": draw(st.sampled_from([str(k), *_NUMBERS]))}
        rows.append(",".join(row.values()))
        rows.extend([""] * draw(st.integers(0, 2)))
    header = "g,y," + draw(quoted).replace('"', '"u', 1) + ",x,z"
    fault = draw(st.sampled_from(["none", "ragged", "y", "x", "z"]))
    starts = [k for k, row in enumerate(rows) if row]
    if fault != "none" and starts:
        k = draw(st.sampled_from(starts))
        fields = rows[k].split(",")  # quoted fields hold no comma
        if fault == "ragged":
            fields = fields[:draw(st.integers(1, 4))] if draw(st.booleans()) else [*fields, "9"]
        else:
            fields["gyuxz".index(fault)] = draw(st.sampled_from(_CORRUPT[fault]))
        rows[k] = ",".join(fields)
    return end.join([header, *rows]) + end * draw(st.booleans())


class TestReadCsvLines:
    """A bad field or ragged row is named by the file line its record
    starts on, whatever line breaks the quoted fields above it hold; a
    good file gives the values of the per-field parse."""

    SPEC = ModelSpec(response="y", cluster="g", covariates=("z", "x"))

    @settings(max_examples=300, deadline=None)
    @given(text=csv_files(), block=st.sampled_from([1, 2, 4096]))
    def test_matches_the_reference_reader(self, text, block):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8"))
            expected = reference_read(path, self.SPEC)
            with mock.patch.object(data_io, "_BLOCK_ROWS", block):
                if expected == []:
                    with pytest.raises(EmptyFileError):
                        read_csv(path, self.SPEC)
                elif isinstance(expected, list):
                    ds = read_csv(path, self.SPEC)
                    ids = tuple(dict.fromkeys(cid for cid, _, _ in expected))
                    grouped = sorted(expected, key=lambda record: ids.index(record[0]))
                    assert ds.ids == ids
                    assert ds.y.tolist() == [count for _, count, _ in grouped]
                    X = np.array([[1.0, *values] for _, _, values in grouped])
                    assert ds.X.tobytes() == X.tobytes()  # bit for bit: -0.0 stays -0.0
                else:
                    with pytest.raises(DataFormatError) as info:
                        read_csv(path, self.SPEC)
                    assert (type(info.value), info.value.row, info.value.column) == expected

    @pytest.mark.parametrize("block", [1, 2, 4096])
    @pytest.mark.parametrize("text, spec, expected", [
        ('g,y,x\n"a\nb",1,0.5\nc,oops,1\n', ModelSpec(response="y", cluster="g"),
         (ResponseValueError, 4, "y")),
        ('g,y,u,x\r\na,1,"p\r\nq\r\nr",0.5\r\nb,2,u,1\r\nc,oops,u,1\r\n',
         ModelSpec(response="y", cluster="g", covariates=("x",)),
         (ResponseValueError, 6, "y")),
    ], ids=["lf-cluster-column", "crlf-unread-column"])
    def test_quoted_line_breaks_above_the_error(self, tmp_path, monkeypatch, block, text, spec,
                                                expected):
        monkeypatch.setattr(data_io, "_BLOCK_ROWS", block)
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(DataFormatError) as info:
            read_csv(str(path), spec)
        assert (type(info.value), info.value.row, info.value.column) == expected


class TestClusterValidation:
    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            ClusterData(id="c", y=np.array([1, 2]), X=np.ones((3, 1)), offset=np.zeros(2))

    def test_negative_count(self):
        with pytest.raises(DomainError):
            ClusterData(id="c", y=np.array([-1]), X=np.ones((1, 1)), offset=np.zeros(1))

    def test_arrays_read_only(self):
        c = ClusterData(id="c", y=np.array([1]), X=np.ones((1, 1)), offset=np.zeros(1))
        with pytest.raises(ValueError):
            c.y[0] = 7

    def test_dataset_unique_ids(self):
        c = ClusterData(id="c", y=np.array([1]), X=np.ones((1, 1)), offset=np.zeros(1))
        with pytest.raises(DomainError):
            Dataset(clusters=(c, c), column_names=("x",))

    def test_dataset_needs_clusters(self):
        with pytest.raises(DomainError):
            Dataset(clusters=(), column_names=("x",))

    def test_inconsistent_width(self):
        c1 = ClusterData(id="a", y=np.array([1]), X=np.ones((1, 1)), offset=np.zeros(1))
        c2 = ClusterData(id="b", y=np.array([1]), X=np.ones((1, 2)), offset=np.zeros(1))
        with pytest.raises(DomainError):
            Dataset(clusters=(c1, c2), column_names=("x",))


class TestWriteCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        clusters = []
        for i in range(3):
            m = i + 1
            clusters.append(
                ClusterData(
                    id=f"c{i}",
                    y=rng.poisson(2.0, m),
                    X=rng.normal(size=(m, 2)),
                    offset=rng.normal(size=m),
                )
            )
        ds = Dataset(clusters=tuple(clusters), column_names=("u", "v"))
        path = str(tmp_path / "out.csv")
        spec = write_csv(ds, path)
        back = read_csv(path, spec)
        assert back.column_names == ds.column_names
        for ca, cb in zip(ds.clusters, back.clusters):
            assert ca.id == cb.id
            assert np.array_equal(ca.y, cb.y)
            # repr round-trip keeps floats exact
            assert np.array_equal(ca.X, cb.X)
            assert np.array_equal(ca.offset, cb.offset)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_is_exact(self, data):
        # any ids without surrounding blanks, counts and finite floats
        ids = data.draw(st.lists(
            st.text(alphabet='ab,"# 1', min_size=1, max_size=4).filter(lambda s: s == s.strip()),
            min_size=1, max_size=5, unique=True))
        p = data.draw(st.integers(1, 3))
        floats = st.floats(allow_nan=False, allow_infinity=False)
        clusters = []
        for cid in ids:
            m = data.draw(st.integers(1, 3))
            clusters.append(ClusterData(
                id=cid,
                y=np.array(data.draw(st.lists(st.integers(0, 2 ** 62), min_size=m, max_size=m))),
                X=np.array(data.draw(st.lists(
                    st.lists(floats, min_size=p, max_size=p), min_size=m, max_size=m))),
                offset=np.array(data.draw(st.lists(floats, min_size=m, max_size=m))),
            ))
        ds = Dataset(clusters=tuple(clusters), column_names=tuple(f"c{j}" for j in range(p)))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.csv")
            back = read_csv(path, write_csv(ds, path))
        assert back.ids == ds.ids
        assert back.column_names == ds.column_names
        assert back.sizes.tolist() == ds.sizes.tolist()
        assert back.y.dtype == ds.y.dtype and back.y.tolist() == ds.y.tolist()
        # bytes, so that -0.0 and every last bit come back
        assert back.X.tobytes() == ds.X.tobytes()
        assert back.offset.tobytes() == ds.offset.tobytes()

    def test_reserved_name_clash(self, tmp_path):
        c = ClusterData(id="a", y=np.array([1]), X=np.ones((1, 1)), offset=np.zeros(1))
        ds = Dataset(clusters=(c,), column_names=("cluster",))
        with pytest.raises(DataFormatError):
            write_csv(ds, str(tmp_path / "bad.csv"))

    @settings(max_examples=60, deadline=None)
    @given(ids=st.lists(st.text(alphabet="ab \t", min_size=1, max_size=3), min_size=1,
                        max_size=4, unique=True),
           names=st.lists(st.text(alphabet="uv ", min_size=1, max_size=3), min_size=1,
                          max_size=2, unique=True))
    def test_padded_names_raise_before_writing(self, ids, names):
        # read_csv strips ids and header names: a padded one cannot come back
        ds = Dataset(clusters=tuple(
            ClusterData(id=cid, y=np.array([k]), X=np.full((1, len(names)), 0.5),
                        offset=np.zeros(1)) for k, cid in enumerate(ids)),
            column_names=tuple(names))
        padded = any(s != s.strip() for s in (*ids, *names))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.csv")
            if padded:
                with pytest.raises(DataFormatError, match="blanks"):
                    write_csv(ds, path)
                assert not os.path.exists(path)
                return
            back = read_csv(path, write_csv(ds, path))
        assert back.ids == ds.ids
        assert back.column_names == ds.column_names
        assert back.sizes.tolist() == ds.sizes.tolist() and back.y.tolist() == ds.y.tolist()


def _bits_text(x):
    # a format that tells every bit pattern apart, NaN payloads included
    return struct.pack("<d", x).hex()


# quiet NaNs with three payloads, -0.0, +-inf and the extreme subnormals
_SPECIAL_FLOATS = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000abc],
                           dtype=np.uint64).view(float).tolist() + [
    0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.225073858507201e-308]


class TestColumnTexts:
    @settings(max_examples=200, deadline=None)
    @given(specials=st.lists(st.sampled_from(_SPECIAL_FLOATS), max_size=10),
           others=st.lists(st.floats(), min_size=1, max_size=6),
           picks=st.lists(st.integers(0, 15), min_size=1, max_size=60))
    def test_equals_per_cell_format(self, specials, others, picks):
        # a column of repeats drawn from a small pool of values
        pool = specials + others
        v = np.array([pool[i % len(pool)] for i in picks])
        assert data_io._column_texts(v) == list(map(repr, v.tolist()))
        assert data_io._column_texts(v, _format_cell) == list(map(_format_cell, v.tolist()))
        assert data_io._column_texts(v, _bits_text) == list(map(_bits_text, v.tolist()))

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(), min_size=1, max_size=40, unique_by=_bits_text))
    def test_all_distinct_column(self, values):
        v = np.array(values)
        assert data_io._column_texts(v) == list(map(repr, values))
        assert data_io._column_texts(v, _bits_text) == list(map(_bits_text, values))

    def test_one_call_per_distinct_bit_pattern(self):
        calls = []

        def fmt(x):
            calls.append(x)
            return repr(x)

        v = np.array([1.5, -0.0, 1.5, 0.0, -0.0, 1.5, np.nan, 2.0])
        assert data_io._column_texts(v, fmt) == list(map(repr, v.tolist()))
        assert len(calls) == 5  # 1.5, -0.0, 0.0, nan, 2.0
        assert data_io._column_texts(np.array([3.25]), fmt) == ["3.25"]
        assert data_io._column_texts(np.empty(0)) == []

    def test_strided_column(self):
        X = np.arange(12.0).reshape(4, 3)
        assert data_io._column_texts(X[:, 1]) == ["1.0", "4.0", "7.0", "10.0"]


class TestUngroup:
    def test_singleton_clusters(self):
        c1 = ClusterData(
            id="a", y=np.array([1, 2]), X=np.arange(4.0).reshape(2, 2), offset=np.zeros(2)
        )
        c2 = ClusterData(
            id="b", y=np.array([5]), X=np.ones((1, 2)), offset=np.array([0.3])
        )
        ds = Dataset(clusters=(c1, c2), column_names=("u", "v"))
        flat = ungroup(ds)
        assert flat.n_clusters == 3
        assert all(c.m == 1 for c in flat.clusters)
        assert flat.n_obs == ds.n_obs
        assert [c.y[0] for c in flat.clusters] == [1, 2, 5]
        # ids stay unique even when original ids collide after flattening
        assert len({c.id for c in flat.clusters}) == 3


def two_cluster_dataset():
    c1 = ClusterData(
        id="a", y=np.array([1, 0, 2]), X=np.arange(6.0).reshape(3, 2), offset=np.array([0.1, 0.0, -0.2])
    )
    c2 = ClusterData(id="b", y=np.array([5]), X=np.ones((1, 2)), offset=np.array([0.3]))
    return (c1, c2), Dataset(clusters=(c1, c2), column_names=("u", "v"))


class TestFlatLayout:
    def test_arrays_concatenate_clusters(self):
        (c1, c2), ds = two_cluster_dataset()
        assert ds.ids == ("a", "b")
        assert ds.sizes.tolist() == [3, 1]
        assert ds.starts.tolist() == [0, 3]
        assert ds.y.tolist() == [1, 0, 2, 5]
        np.testing.assert_array_equal(ds.X, np.vstack([c1.X, c2.X]))
        np.testing.assert_array_equal(ds.offset, [0.1, 0.0, -0.2, 0.3])
        assert ds.n_obs == ds.y.size == 4

    def test_cluster_views_equal_constructor_clusters(self):
        given, ds = two_cluster_dataset()
        assert len(ds.clusters) == len(given)
        for view, c in zip(ds.clusters, given):
            assert view.id == c.id
            for name in ("y", "X", "offset"):
                np.testing.assert_array_equal(getattr(view, name), getattr(c, name))
                assert getattr(view, name).dtype == getattr(c, name).dtype

    def test_arrays_and_views_read_only(self):
        _, ds = two_cluster_dataset()
        for arr in (ds.y, ds.X, ds.offset, ds.sizes, ds.starts, ds.clusters[1].X):
            with pytest.raises(ValueError):
                arr.flat[0] = 7
        with pytest.raises(AttributeError):
            ds.y = np.zeros(4)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("y", np.array([1, -1, 2, 5])),
            ("X", np.array([[1.0, 2.0], [np.nan, 0.0], [1.0, 1.0], [0.0, 0.0]])),
            ("offset", np.array([0.0, 0.0, 0.0, np.inf])),
            ("ids", ("a", "a")),
            ("column_names", ("u",)),
        ],
    )
    def test_flat_construction_validates(self, field, value):
        _, ds = two_cluster_dataset()
        parts = {name: getattr(ds, name) for name in ("ids", "sizes", "y", "X", "offset", "column_names")}
        parts[field] = value
        with pytest.raises(DomainError):
            Dataset._from_flat(**parts)

    def test_flat_errors_name_the_cluster(self):
        _, ds = two_cluster_dataset()
        with pytest.raises(DomainError, match="cluster 'b': counts must be nonnegative"):
            Dataset._from_flat(ds.ids, ds.sizes, [1, 0, 2, -5], ds.X, ds.offset, ds.column_names)

    def test_constructor_checks_names(self):
        given, _ = two_cluster_dataset()
        with pytest.raises(DomainError):
            Dataset(clusters=given, column_names=("u", "v", "w"))

    def test_pickle_and_copy_round_trip(self):
        _, ds = two_cluster_dataset()
        for back in (pickle.loads(pickle.dumps(ds)), copy.deepcopy(ds)):
            assert back.ids == ds.ids and back.column_names == ds.column_names
            for name in ("y", "X", "offset", "sizes", "starts"):
                np.testing.assert_array_equal(getattr(back, name), getattr(ds, name))


class TestLogFactorialCache:
    def test_equals_per_cluster_log_factorial_sums(self):
        (c1, c2), ds = two_cluster_dataset()
        want = [sum(math.lgamma(v + 1.0) for v in c.y.tolist()) for c in (c1, c2)]
        np.testing.assert_allclose(ds.log_y_factorials, want, rtol=0, atol=1e-13)

    def test_computed_once_and_read_only(self):
        _, ds = two_cluster_dataset()
        first = ds.log_y_factorials
        assert ds.log_y_factorials is first
        with pytest.raises(ValueError):
            first[0] = 1.0
        with pytest.raises(AttributeError):
            ds._log_y_factorials = np.zeros(2)
        with pytest.raises(AttributeError):
            ds.log_y_factorials = np.zeros(2)

    def test_survives_pickle_and_copy(self):
        _, ds = two_cluster_dataset()
        cached = ds.log_y_factorials.copy()
        for back in (pickle.loads(pickle.dumps(ds)), copy.copy(ds), copy.deepcopy(ds)):
            np.testing.assert_array_equal(back.log_y_factorials, cached)
            with pytest.raises(AttributeError):
                back.y = np.zeros(4)

    def test_ungroup_has_per_observation_sums(self):
        _, ds = two_cluster_dataset()
        want = [math.lgamma(v + 1.0) for v in ds.y.tolist()]
        np.testing.assert_allclose(ungroup(ds).log_y_factorials, want, rtol=0, atol=1e-13)


class TestUngroupLayout:
    def test_ids_carry_running_counter(self):
        _, ds = two_cluster_dataset()
        assert ungroup(ds).ids == ("a#1", "a#2", "a#3", "b#4")

    def test_shares_arrays(self):
        _, ds = two_cluster_dataset()
        flat = ungroup(ds)
        assert flat.y is ds.y and flat.X is ds.X and flat.offset is ds.offset
        assert flat.sizes.tolist() == [1, 1, 1, 1]
        assert flat.starts.tolist() == [0, 1, 2, 3]

    def test_idempotent_on_arrays(self):
        _, ds = two_cluster_dataset()
        once, twice = ungroup(ds), ungroup(ungroup(ds))
        for name in ("y", "X", "offset", "sizes", "starts"):
            np.testing.assert_array_equal(getattr(twice, name), getattr(once, name))
        assert twice.ids[0] == "a#1#1"
