"""Long-format CSV ingestion, the flat dataset layout, and model specs.

A dataset is a sequence of clusters, each holding a count vector, the
matching design rows, and per-row log-exposure offsets.  A
:class:`Dataset` stores them once, flat over observations (``y``, ``X``,
``offset``), with per-cluster ``ids``, ``sizes`` and ``starts``; model
code reduces per-observation values to per-cluster totals with segment
sums over ``starts``.  :class:`ClusterData` is one cluster's view.  The
reader is deliberately small: covariates must already be numeric,
interactions are elementwise products of two columns, and the only
transform applied is the optional intercept column of ones.
"""

from __future__ import annotations

import collections
import csv
import itertools
import json
import math
import operator
import re
import sys

import numpy as np

from ._record import record
from .errors import (
    DataFormatError,
    DomainError,
    EmptyFileError,
    FieldParseError,
    MissingColumnError,
    RaggedRowError,
    ResponseValueError,
)

INTERCEPT_NAME = "intercept"
_BLOCK_ROWS = 4096  # rows read_csv splits into columns at a time
_COUNT_MAX = np.iinfo(np.int64).max  # the largest count read_csv accepts
_INTEGER = r"[+-]?\d+(?:_\d+)*"  # the integers int() parses, after strip()
_QUOTE_MAX = 40  # characters of a bad field an error message quotes


def _interaction_name(a, b):
    return f"{a}:{b}"


@record
class ModelSpec:
    """Mapping from CSV columns to a regression design.

    ``interactions`` lists pairs of column names whose elementwise product
    becomes an extra design column; ``offset`` names a column entering the
    linear predictor with coefficient fixed at 1.  Categorical covariates
    must be pre-encoded numerically.
    """

    response: str
    cluster: str
    covariates: tuple = ()
    interactions: tuple = ()
    offset: str | None = None
    add_intercept: bool = True

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        object.__setattr__(
            self, "interactions", tuple((a, b) for a, b in self.interactions)
        )
        names = self.design_names()
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise DataFormatError(f"duplicate design terms: {dupes}")

    def design_names(self):
        """Design column names, in matrix order."""
        names = [INTERCEPT_NAME] if self.add_intercept else []
        names.extend(self.covariates)
        names.extend(_interaction_name(a, b) for a, b in self.interactions)
        return tuple(names)

    def required_columns(self):
        """CSV columns the spec needs, first appearance order, no repeats."""
        cols = [self.response, self.cluster, *self.covariates]
        for a, b in self.interactions:
            cols.extend((a, b))
        if self.offset is not None:
            cols.append(self.offset)
        return tuple(dict.fromkeys(cols))

    def to_mapping(self):
        """JSON-ready dict with the documented keys."""
        return {
            "response": self.response,
            "cluster": self.cluster,
            "covariates": list(self.covariates),
            "interactions": [list(pair) for pair in self.interactions],
            "offset": self.offset,
            "intercept": self.add_intercept,
        }

    @classmethod
    def from_mapping(cls, obj):
        """Build a spec from a dict with keys response, cluster, covariates,
        interactions, offset, intercept (the last four optional)."""
        if not isinstance(obj, dict):
            raise DataFormatError("model spec must be a JSON object")
        known = {"response", "cluster", "covariates", "interactions", "offset", "intercept"}
        unknown = sorted(set(obj) - known)
        if unknown:
            raise DataFormatError(f"unknown model spec keys: {unknown}")
        for key in ("response", "cluster"):
            if not isinstance(obj.get(key), str) or not obj[key]:
                raise DataFormatError(f"model spec key {key!r} must be a nonempty string")

        def column_names(value, n=None):
            # a JSON list (of n entries, when given) of strings
            return (isinstance(value, (list, tuple)) and n in (None, len(value))
                    and all(isinstance(v, str) for v in value))

        covariates = obj.get("covariates", ())
        if not column_names(covariates):
            raise DataFormatError("model spec key 'covariates' must be a list of column names")
        interactions = obj.get("interactions", ())
        if not (isinstance(interactions, (list, tuple))
                and all(column_names(pair, 2) for pair in interactions)):
            raise DataFormatError("model spec key 'interactions' must be a list of column-name pairs")
        offset = obj.get("offset")
        if not (offset is None or isinstance(offset, str)):
            raise DataFormatError("model spec key 'offset' must be a column name or null")
        intercept = obj.get("intercept", True)
        if not isinstance(intercept, bool):
            raise DataFormatError("model spec key 'intercept' must be true or false")
        return cls(
            response=obj["response"],
            cluster=obj["cluster"],
            covariates=covariates,
            interactions=interactions,
            offset=offset,
            add_intercept=intercept,
        )

    @classmethod
    def from_json_file(cls, path):
        with open(path, encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"invalid model spec JSON: {exc}") from exc
        return cls.from_mapping(obj)


@record
class ClusterData:
    """One cluster's counts, design rows, and log-exposure offsets."""

    id: str
    y: np.ndarray
    X: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.int64)
        X = np.asarray(self.X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        offset = np.asarray(self.offset, dtype=float)
        if y.ndim != 1 or y.size < 1:
            raise DomainError(f"cluster {self.id!r}: y must be a nonempty vector")
        if np.any(y < 0):
            raise DomainError(f"cluster {self.id!r}: counts must be nonnegative")
        if X.shape != (y.size, X.shape[1]) or X.shape[1] < 1:
            raise DomainError(f"cluster {self.id!r}: X must be ({y.size}, p) with p >= 1")
        if offset.shape != (y.size,):
            raise DomainError(f"cluster {self.id!r}: offset length must match y")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(offset))):
            raise DomainError(f"cluster {self.id!r}: X and offset must be finite")
        for name, arr in (("y", y), ("X", X), ("offset", offset)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def _view(cls, cid, y, X, offset):
        # wraps read-only slices of an already validated Dataset
        c = object.__new__(cls)
        for name, value in (("id", cid), ("y", y), ("X", X), ("offset", offset)):
            object.__setattr__(c, name, value)
        return c

    @property
    def m(self):
        """Number of observations in the cluster."""
        return self.y.size

    @property
    def p(self):
        """Number of design columns."""
        return self.X.shape[1]


class Dataset:
    """An immutable collection of clusters sharing one design layout.

    The data are stored once, flat over observations: counts ``y``
    (n_obs,), design ``X`` (n_obs, p) and offsets ``offset`` (n_obs,).
    Cluster i holds rows ``starts[i] : starts[i] + sizes[i]`` and is named
    ``ids[i]``.  Every array is read-only.  ``clusters`` gives one
    :class:`ClusterData` view per cluster, and ``log_y_factorials`` the
    per-cluster sums of log y!, each built on first use.
    """

    __slots__ = ("ids", "sizes", "starts", "y", "X", "offset", "column_names", "_clusters",
                 "_log_y_factorials")

    def __init__(self, clusters, column_names):
        clusters = tuple(clusters)
        if not clusters:
            raise DomainError("dataset needs at least one cluster")
        p = clusters[0].p
        if any(c.p != p for c in clusters):
            raise DomainError("all clusters must share the same design width")
        self._init(
            ids=[c.id for c in clusters],
            sizes=[c.m for c in clusters],
            y=np.concatenate([c.y for c in clusters]),
            X=np.vstack([c.X for c in clusters]),
            offset=np.concatenate([c.offset for c in clusters]),
            column_names=column_names,
        )

    @classmethod
    def _from_flat(cls, ids, sizes, y, X, offset, column_names):
        """Build from flat arrays in cluster order, with the checks
        :class:`ClusterData` runs on each cluster."""
        dataset = object.__new__(cls)
        dataset._init(ids, sizes, y, X, offset, column_names)
        return dataset

    def _init(self, ids, sizes, y, X, offset, column_names):
        ids = tuple(ids)
        if len(set(ids)) != len(ids):
            raise DomainError("cluster ids must be unique")
        sizes = np.asarray(sizes, dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        y = np.asarray(y, dtype=np.int64)
        X = np.asarray(X, dtype=float)
        offset = np.asarray(offset, dtype=float)

        def first_bad(obs_mask):
            # id of the cluster holding the first flagged observation
            return ids[np.searchsorted(starts, np.argmax(obs_mask), side="right") - 1]

        if np.any(sizes < 1):
            raise DomainError(f"cluster {ids[np.argmax(sizes < 1)]!r}: y must be a nonempty vector")
        if np.any(y < 0):
            raise DomainError(f"cluster {first_bad(y < 0)!r}: counts must be nonnegative")
        if X.shape[1] < 1:
            raise DomainError(f"cluster {ids[0]!r}: X must be ({sizes[0]}, p) with p >= 1")
        finite = np.isfinite(X).all(axis=1) & np.isfinite(offset)
        if not finite.all():
            raise DomainError(f"cluster {first_bad(~finite)!r}: X and offset must be finite")
        names = tuple(str(n) for n in column_names)
        if len(names) != X.shape[1]:
            raise DomainError(f"expected {X.shape[1]} column names, got {len(names)}")
        for name, value in (("ids", ids), ("sizes", sizes), ("starts", starts), ("y", y),
                            ("X", X), ("offset", offset), ("column_names", names),
                            ("_clusters", None), ("_log_y_factorials", None)):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Dataset is immutable; cannot set {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through the checked constructor
        return Dataset._from_flat, (self.ids, self.sizes, self.y, self.X, self.offset,
                                    self.column_names)

    @property
    def clusters(self):
        """Per-cluster :class:`ClusterData` views into the flat arrays."""
        if self._clusters is None:
            ends = self.starts + self.sizes
            views = tuple(
                ClusterData._view(cid, self.y[a:b], self.X[a:b], self.offset[a:b])
                for cid, a, b in zip(self.ids, self.starts.tolist(), ends.tolist())
            )
            object.__setattr__(self, "_clusters", views)
        return self._clusters

    @property
    def log_y_factorials(self):
        """sum_j log y_ij! per cluster (read-only), the data-only constant
        of every Poisson-based log-likelihood."""
        if self._log_y_factorials is None:
            sums = self.log_factorial_sums(self.y)
            sums.setflags(write=False)
            object.__setattr__(self, "_log_y_factorials", sums)
        return self._log_y_factorials

    def log_factorial_sums(self, y):
        """sum_j log y_ij! per cluster for counts ``y`` of shape (..., n_obs)
        on this layout, one ``lgamma`` per distinct count."""
        counts, which = np.unique(y, return_inverse=True)
        per_count = np.array([math.lgamma(k + 1.0) for k in counts.tolist()])
        return self.cluster_sums(per_count[which.reshape(np.shape(y))], axis=-1)

    @property
    def n_clusters(self):
        return len(self.ids)

    @property
    def n_obs(self):
        return self.y.size

    @property
    def p(self):
        return len(self.column_names)

    def cluster_sums(self, values, axis=0):
        """Sum per-observation ``values`` (along ``axis``) within each cluster."""
        return np.add.reduceat(values, self.starts, axis=axis)

    def per_obs(self, values, axis=0):
        """Repeat one value per cluster (along ``axis``) over that cluster's
        observations."""
        return np.repeat(values, self.sizes, axis=axis)

    def obs_ids(self):
        """Cluster id of every observation, as an object array."""
        return self.per_obs(np.fromiter(self.ids, dtype=object, count=len(self.ids)))


def _excerpt(text, show=str):
    """``show(text)`` for an error message; a field longer than
    ``_QUOTE_MAX`` characters shows its first ones, an ellipsis and its
    length instead."""
    if len(text) <= _QUOTE_MAX:
        return show(text)
    return f"{show(text[:_QUOTE_MAX])}... ({len(text)} characters)"


def _parse_count(text, row, column):
    s = text.strip()
    try:
        value = int(s)
    except ValueError:
        if not re.fullmatch(_INTEGER, s):
            raise ResponseValueError(
                f"response must be a nonnegative integer, got {_excerpt(text, repr)}",
                row=row, column=column,
            ) from None
        # an integer of more digits than int() converts: past 2**63 - 1
        # unless leading zeros make up the excess
        if len(s.lstrip("+-").replace("_", "").lstrip("0")) > len(str(_COUNT_MAX)):
            bound = "nonnegative" if s.startswith("-") else f"at most {_COUNT_MAX}"
        else:
            bound = f"written in at most {sys.get_int_max_str_digits()} digits"
        raise ResponseValueError(
            f"response must be {bound}, got {_excerpt(s)}", row=row, column=column
        ) from None
    if value < 0:
        raise ResponseValueError(
            f"response must be nonnegative, got {_excerpt(str(value))}", row=row, column=column
        )
    if value > _COUNT_MAX:
        raise ResponseValueError(
            f"response must be at most {_COUNT_MAX}, got {_excerpt(str(value))}",
            row=row, column=column,
        )
    return value


def _parse_number(text, row, column):
    try:
        value = float(text)
    except ValueError:
        raise FieldParseError(
            f"could not parse {_excerpt(text, repr)} as a number", row=row, column=column
        ) from None
    if not np.isfinite(value):
        raise FieldParseError(f"non-finite value {_excerpt(text, repr)}", row=row, column=column)
    return value


def _read_rows(reader, n):
    """The next ``n`` rows of the CSV ``reader`` (fewer at the end of the
    file); a line the reader rejects, such as one with a field longer than
    ``csv.field_size_limit()``, raises a DataFormatError naming it."""
    try:
        return list(itertools.islice(reader, n))
    except csv.Error as exc:
        raise DataFormatError(f"unreadable CSV: {exc}", row=reader.line_num) from None


def read_csv(path, spec):
    """Read a long-format CSV into a :class:`Dataset` under ``spec``.

    Rows are grouped by the cluster column, keeping file order within each
    cluster and first-appearance order across clusters.  The result is a
    pure function of the file bytes and the spec.  Counts are parsed as
    Python's ``int()`` parses them and the other numeric columns as
    ``float()`` does, so signs, underscores between digits, surrounding
    blanks and non-ASCII decimal digits are accepted.

    Raises
    ------
    EmptyFileError, MissingColumnError, RaggedRowError,
    ResponseValueError, FieldParseError
        Each names the offending row and column.  A count that is not a
        whole number from 0 to 2**63 - 1 is a ResponseValueError; one of
        more digits than ``int()`` converts is reported as past that bound,
        or, when leading zeros make up the excess, as written in too many
        digits, since ``int()`` cannot read it either.  A numeric field that does not parse or is not finite is a
        FieldParseError.  Messages quote at most the first 40 characters
        of a field, and give the length of a longer one.  ``row`` is the
        file line where the offending record starts (1-based, header =
        line 1), so line breaks inside quoted fields above it are counted.
        The first bad field in file order is reported, the response before
        the other columns of its row; fields in rows above a ragged row are
        checked first.
    DataFormatError
        Also for a line the CSV reader rejects, named by its line number.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = (_read_rows(reader, 1) or [None])[0]
        if header is None or header == []:
            raise EmptyFileError("file is empty: no header row")
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise DataFormatError(f"duplicate column names in header: {header}", row=1)
        index = {name: i for i, name in enumerate(header)}

        missing = [c for c in spec.required_columns() if c not in index]
        if missing:
            raise MissingColumnError(
                f"column(s) not in header: {missing}", row=1, column=missing[0]
            )
        # the rows above the first ragged one, read in blocks so that the
        # columns the spec does not read are never all held at once
        required = spec.required_columns()
        n_fields = len(header)
        names, pick = header, None  # the fields kept of each row
        if len(required) < n_fields:
            names, cols = required, [index[c] for c in required]
            pick = operator.itemgetter(*cols) if len(cols) > 1 else lambda row: (row[cols[0]],)
        kept, lines, ragged = [], [], None  # lines: the file line each record starts on
        line = reader.line_num
        for rows in iter(lambda: _read_rows(reader, _BLOCK_ROWS), []):
            block_lines = range(line + 1, line + 1 + len(rows))
            if reader.line_num - line != len(rows):  # a quoted field holds a line break
                spans = [1 + text.count("\n") + text.count("\r") - text.count("\r\n")
                         for text in map(",".join, rows[:-1])]
                block_lines = list(itertools.accumulate(spans, initial=line + 1))
            line = reader.line_num
            if not all(rows):  # blank lines are skipped but keep their line numbers
                block_lines = [n for n, row in zip(block_lines, rows) if row]
                rows = list(filter(None, rows))
            n_good = len(rows)
            if set(map(len, rows)) - {n_fields}:
                n_good = next(k for k, row in enumerate(rows) if len(row) != n_fields)
                ragged = (block_lines[n_good], len(rows[n_good]))
            kept.extend(rows[:n_good] if pick is None else map(pick, rows[:n_good]))
            lines.extend(block_lines[:n_good])
            if ragged:
                break

    n_good = len(kept)
    columns = dict(zip(names, zip(*kept))) if kept else dict.fromkeys(names, ())
    numeric_cols = [c for c in required if c not in (spec.response, spec.cluster)]
    try:  # NumPy parses str items with Python's int() and float()
        y = np.array(columns[spec.response], dtype=np.int64)
        values = {c: np.array(columns[c], dtype=float) for c in numeric_cols}
        bad = (y < 0).any() or not all(np.isfinite(v).all() for v in values.values())
    except (ValueError, OverflowError):
        bad = True
    if bad:  # the first bad field in file order, the response first in its row
        for row_line, row in zip(lines, kept):
            fields = dict(zip(names, row))
            _parse_count(fields[spec.response], row_line, spec.response)
            for c in numeric_cols:
                _parse_number(fields[c], row_line, c)
    if ragged:
        raise RaggedRowError(f"expected {n_fields} fields, got {ragged[1]}", row=ragged[0])
    if not kept:
        raise EmptyFileError("file has a header but no data rows")

    codes = collections.defaultdict(itertools.count().__next__)  # first-appearance codes
    row_codes = np.fromiter(map(codes.__getitem__, map(str.strip, columns[spec.cluster])),
                            dtype=np.intp, count=n_good)
    xcols = [np.ones(n_good)] if spec.add_intercept else []
    xcols.extend(values[c] for c in spec.covariates)
    xcols.extend(values[a] * values[b] for a, b in spec.interactions)
    X = np.column_stack(xcols) if xcols else np.empty((n_good, 0))
    offset = values[spec.offset] if spec.offset is not None else np.zeros(n_good)
    order = np.argsort(row_codes, kind="stable")  # group rows, keeping file order
    return Dataset._from_flat(
        ids=codes,
        sizes=np.bincount(row_codes),
        y=y[order],
        X=X[order],
        offset=offset[order],
        column_names=spec.design_names(),
    )


# Reserved header names used by write_csv.
_WRITE_RESPONSE = "y"
_WRITE_CLUSTER = "cluster"
_WRITE_OFFSET = "offset"


def _column_texts(values, fmt=repr):
    """``fmt`` of each float in the vector ``values``, as a list in row
    order, with one ``fmt`` call per distinct bit pattern: a column that
    repeats its values is formatted once per value.  Grouping by bits
    keeps -0.0 apart from 0.0 and NaNs of different payloads apart."""
    values = np.ascontiguousarray(values, dtype=float)
    bits = values.view(np.int64)
    order = np.argsort(bits)
    bits = bits[order]
    new = np.empty(order.size, dtype=bool)
    new[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    texts = np.array(list(map(fmt, values[order[new]].tolist())), dtype=object)
    inverse = np.empty_like(order)
    inverse[order] = new.cumsum() - 1
    return texts[inverse].tolist()


def write_csv(dataset, path):
    """Write ``dataset`` in the format :func:`read_csv` understands.

    Design columns are written verbatim (the intercept column included), so
    the returned :class:`ModelSpec` re-reads the file into a structurally
    identical dataset: same ids, counts, design, and offsets.  Floats are
    written by ``repr``, which keeps their full precision for exact
    round-trips.  A design column named ``y``, ``cluster`` or ``offset``,
    or an id or column name with leading or trailing blanks (which
    :func:`read_csv` strips), raises DataFormatError before the file is
    opened.
    """
    reserved = {_WRITE_RESPONSE, _WRITE_CLUSTER, _WRITE_OFFSET}
    clash = sorted(reserved & set(dataset.column_names))
    if clash:
        raise DataFormatError(f"design column names collide with reserved names: {clash}")
    padded = [name for name in map(str, (*dataset.ids, *dataset.column_names))
              if name != name.strip()]
    if padded:
        raise DataFormatError(f"ids and column names must not start or end with blanks: "
                              f"{padded[0]!r}")

    columns = [dataset.obs_ids().tolist(), dataset.y.tolist(),
               *map(_column_texts, dataset.X.T), _column_texts(dataset.offset)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([_WRITE_CLUSTER, _WRITE_RESPONSE, *dataset.column_names, _WRITE_OFFSET])
        writer.writerows(zip(*columns))
    return ModelSpec(
        response=_WRITE_RESPONSE,
        cluster=_WRITE_CLUSTER,
        covariates=dataset.column_names,
        offset=_WRITE_OFFSET,
        add_intercept=False,
    )


def ungroup(dataset):
    """Regroup so every observation is its own (singleton) cluster.

    Turns a clustered dataset into the independence layout used by the
    univariate negative binomial fit.  The flat arrays are shared as they
    are; new ids extend the old ones with a running observation counter
    ``k`` as ``f"{id}#{k}"``, so they stay unique.
    """
    ids = [f"{cid}#{k}" for k, cid in enumerate(dataset.obs_ids(), start=1)]
    return Dataset._from_flat(
        ids=ids,
        sizes=np.ones(dataset.n_obs, dtype=np.int64),
        y=dataset.y,
        X=dataset.X,
        offset=dataset.offset,
        column_names=dataset.column_names,
    )
