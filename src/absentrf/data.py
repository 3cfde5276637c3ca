"""Column-typed datasets with explicit categorical level dictionaries.

A dataset is schema-first: every column is declared up front as either
``numeric`` (ordered) or ``categorical`` with a fixed, ordered list of
level labels.  Categorical values are stored as integer level indices
``1..Q`` in schema order; an index can therefore be *declared* by the
schema yet never occur in a given row subset, which is exactly the
situation the routing heuristics in this package exist to handle.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"

RESPONSE_NUMERIC = "numeric"
RESPONSE_CLASS = "class"

REGRESSION = "regression"
CLASSIFICATION = "classification"


class DataError(ValueError):
    """Bad schema, malformed CSV, or a value outside the declared domain."""


@dataclass(frozen=True)
class ColumnSchema:
    """One predictor column: a name, a kind, and (if categorical) levels."""

    name: str
    kind: str
    levels: tuple[str, ...] = ()

    def __post_init__(self):
        if not all(isinstance(label, str) for label in (self.name, *self.levels)):
            raise DataError(f"column {self.name!r}: the name and every level must be strings")
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise DataError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if len(self.levels) < 1:
                raise DataError(f"column {self.name!r}: categorical column needs at least one level")
            if len(set(self.levels)) != len(self.levels):
                raise DataError(f"column {self.name!r}: duplicate level labels")
        elif self.levels:
            raise DataError(f"column {self.name!r}: numeric column must not declare levels")

    @property
    def n_levels(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class ResponseSpec:
    """Response declaration: numeric target or a fixed class list."""

    kind: str
    classes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (RESPONSE_NUMERIC, RESPONSE_CLASS):
            raise DataError(f"unknown response kind {self.kind!r}")
        if self.kind == RESPONSE_CLASS:
            if len(self.classes) < 2:
                raise DataError("class response needs at least two classes")
            if len(set(self.classes)) != len(self.classes):
                raise DataError("duplicate class labels")
        elif self.classes:
            raise DataError("numeric response must not declare classes")

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def task(self) -> str:
        return REGRESSION if self.kind == RESPONSE_NUMERIC else CLASSIFICATION


@dataclass(frozen=True)
class Dataset:
    """Immutable columnar dataset.

    ``columns[p]`` is float64 for numeric predictors and int64 level
    indices (1-based, schema order) for categorical ones.  ``y`` is
    float64 for regression, int64 class indices ``1..K`` for
    classification, or ``None`` for unlabeled prediction inputs.
    """

    schema: tuple[ColumnSchema, ...]
    response: ResponseSpec
    columns: tuple[np.ndarray, ...]
    y: np.ndarray | None

    @property
    def n_rows(self) -> int:
        return 0 if not self.columns else int(self.columns[0].shape[0])

    @property
    def n_predictors(self) -> int:
        return len(self.schema)

    @property
    def task(self) -> str:
        return self.response.task

    def matrix(self) -> np.ndarray:
        """All rows as a float (N, P) matrix (level indices are small
        integers, exactly representable)."""
        return np.column_stack([c.astype(float) for c in self.columns])

    def fingerprint(self) -> str:
        """Content digest used to tie a trained forest to its data."""
        h = hashlib.sha256()
        h.update(json.dumps(schema_to_dict(self.schema, self.response), sort_keys=True).encode())
        for col in self.columns:
            h.update(col.tobytes())
        h.update(b"y" if self.y is not None else b"-")
        if self.y is not None:
            h.update(self.y.tobytes())
        return h.hexdigest()


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def from_arrays(
    schema: tuple[ColumnSchema, ...] | list[ColumnSchema],
    response: ResponseSpec,
    columns,
    y,
) -> Dataset:
    """Build a validated :class:`Dataset` from in-memory arrays."""
    schema = tuple(schema)
    if not schema:
        raise DataError("need at least one predictor column")
    if len(set(c.name for c in schema)) != len(schema):
        raise DataError("duplicate column names")
    if len(columns) != len(schema):
        raise DataError(f"{len(schema)} columns declared, {len(columns)} given")
    out = []
    n_rows = None
    for col, spec in zip(columns, schema):
        if spec.kind == NUMERIC:
            arr = np.asarray(col, dtype=np.float64)
        else:
            arr = np.asarray(col, dtype=np.int64)
            if arr.size and (arr.min() < 1 or arr.max() > spec.n_levels):
                raise DataError(f"column {spec.name!r}: level index outside 1..{spec.n_levels}")
        if arr.ndim != 1:
            raise DataError(f"column {spec.name!r}: expected a 1-D array")
        if n_rows is None:
            n_rows = arr.shape[0]
        elif arr.shape[0] != n_rows:
            raise DataError("columns differ in length")
        out.append(_freeze(arr.copy()))
    if n_rows == 0:
        raise DataError("dataset has no rows")
    if y is not None:
        if response.kind == RESPONSE_NUMERIC:
            yarr = np.asarray(y, dtype=np.float64)
        else:
            yarr = np.asarray(y, dtype=np.int64)
            if yarr.size and (yarr.min() < 1 or yarr.max() > response.n_classes):
                raise DataError(f"response class index outside 1..{response.n_classes}")
        if yarr.shape != (n_rows,):
            raise DataError("response length does not match columns")
        yarr = _freeze(yarr.copy())
    else:
        yarr = None
    return Dataset(schema, response, tuple(out), yarr)


# ---------------------------------------------------------------------------
# schema files


def schema_to_dict(schema, response) -> dict:
    cols = []
    for c in schema:
        entry = {"name": c.name, "kind": c.kind}
        if c.kind == CATEGORICAL:
            entry["levels"] = list(c.levels)
        cols.append(entry)
    resp = {"kind": response.kind}
    if response.kind == RESPONSE_CLASS:
        resp["classes"] = list(response.classes)
    return {"columns": cols, "response": resp}


def schema_from_dict(obj: dict) -> tuple[tuple[ColumnSchema, ...], ResponseSpec]:
    try:
        cols = tuple(
            ColumnSchema(c["name"], c["kind"], tuple(c.get("levels", ())))
            for c in obj["columns"]
        )
        resp = obj["response"]
        response = ResponseSpec(resp["kind"], tuple(resp.get("classes", ())))
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed schema: {exc}") from exc
    return cols, response


def load_schema(path) -> tuple[tuple[ColumnSchema, ...], ResponseSpec]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from exc
    return schema_from_dict(obj)


def save_schema(path, schema, response) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema_to_dict(schema, response), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# CSV ingestion


def ingest_csv(
    path,
    schema,
    response,
    *,
    missing_token: str = "?",
    skip_header: bool = False,
    require_response: bool = True,
) -> tuple[Dataset, int]:
    """Read a CSV against a declared schema.

    Rows are predictor fields in schema order followed by the response
    field; when ``require_response`` is false a file whose rows have
    exactly ``P`` fields is accepted as unlabeled.  Any field equal to
    ``missing_token`` (after stripping surrounding whitespace) drops the
    whole row.  Returns the dataset and the number of dropped rows.
    """
    schema = tuple(schema)
    p = len(schema)
    raw_cols: list[list] = [[] for _ in range(p)]
    raw_y: list = []
    has_response: bool | None = None
    dropped = 0
    level_index = [
        {label: i + 1 for i, label in enumerate(c.levels)} if c.kind == CATEGORICAL else None
        for c in schema
    ]
    class_index = {label: i + 1 for i, label in enumerate(response.classes)}

    with open(path, "r", encoding="utf-8", newline="") as fh:
        row_no = 0
        for record in _records(fh, path):
            if skip_header:  # the header row does not count as a data row
                skip_header = False
                continue
            row_no += 1
            fields = [f.strip() for f in record]
            if not any(fields):
                continue  # blank line
            if has_response is None:
                if len(fields) == p + 1:
                    has_response = True
                elif len(fields) == p and not require_response:
                    has_response = False
                else:
                    want = f"{p + 1}" if require_response else f"{p} or {p + 1}"
                    raise DataError(f"row {row_no}: expected {want} fields, got {len(fields)}")
            expect = p + 1 if has_response else p
            if len(fields) != expect:
                raise DataError(f"row {row_no}: expected {expect} fields, got {len(fields)}")
            if any(f == missing_token for f in fields):
                dropped += 1
                continue
            parsed = []
            for j, spec in enumerate(schema):
                f = fields[j]
                if spec.kind == NUMERIC:
                    try:
                        parsed.append(float(f))
                    except ValueError:
                        raise DataError(
                            f"row {row_no}, column {spec.name!r}: {f!r} is not numeric"
                        ) from None
                else:
                    idx = level_index[j].get(f)
                    if idx is None:
                        raise DataError(
                            f"row {row_no}, column {spec.name!r}: {f!r} is not a declared level"
                        )
                    parsed.append(idx)
            if has_response:
                f = fields[p]
                if response.kind == RESPONSE_NUMERIC:
                    try:
                        raw_y.append(float(f))
                    except ValueError:
                        raise DataError(f"row {row_no}, response: {f!r} is not numeric") from None
                else:
                    idx = class_index.get(f)
                    if idx is None:
                        raise DataError(f"row {row_no}, response: {f!r} is not a declared class")
                    raw_y.append(idx)
            for j in range(p):
                raw_cols[j].append(parsed[j])

    if not raw_cols[0]:
        raise DataError(f"{path}: no usable rows")
    y = raw_y if has_response else None
    return from_arrays(schema, response, raw_cols, y), dropped


def _records(fh, path):
    """The ``csv.reader`` records of ``fh``; one it refuses raises DataError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:  # e.g. a field beyond csv.field_size_limit()
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset back out as CSV (predictors in schema order, then
    the response when present).  Categorical cells are written as their
    level labels and numeric ones by ``repr`` (NaN as ``nan``), so the
    file round-trips through :func:`ingest_csv`."""
    # only categorical columns and class responses declare labels
    named = [(spec.levels, col) for spec, col in zip(dataset.schema, dataset.columns)]
    if dataset.y is not None:
        named.append((dataset.response.classes, dataset.y))
    columns = [
        np.asarray(labels, dtype=object)[values - 1] if labels else list(map(repr, values.tolist()))
        for labels, values in named
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(_rows(columns))


def _cell(v) -> str:
    if isinstance(v, np.generic):
        v = v.item()
    if v is None or v != v:  # v != v only for NaN
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else str(v)


def _column(c) -> list[str]:
    """:func:`_cell` of each cell; a float or int ndarray in one pass."""
    if not (isinstance(c, np.ndarray) and c.dtype.kind in "fiu"):
        return [_cell(v) for v in (c.tolist() if isinstance(c, np.ndarray) else c)]
    cells = list(map(repr if c.dtype.kind == "f" else str, c.tolist()))
    for i in np.flatnonzero(np.isnan(c)).tolist():
        cells[i] = ""
    return cells


def _rows(columns):
    """The rows of a table given column by column, each column formatted
    once: floats by ``repr`` (shortest round trip), ints and labels by
    ``str``, NaN and None as empty cells, booleans as ``true``/``false``."""
    return zip(*map(_column, columns))


def write_table(fh, header: list[str], columns) -> None:
    """Write a CSV table: ``header``, then the cells of :func:`_rows`."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(_rows(columns))


# ---------------------------------------------------------------------------
# transforms and per-level bookkeeping


def one_hot_transform(dataset: Dataset) -> Dataset:
    """Replace every categorical column with one 0/1 dummy per level.

    All ``Q`` dummies are emitted (no reference level is dropped), named
    ``"<column>=<level>"`` in schema order.  Numeric columns and the
    response pass through untouched.
    """
    schema = []
    columns = []
    for spec, col in zip(dataset.schema, dataset.columns):
        if spec.kind == NUMERIC:
            schema.append(spec)
            columns.append(col)
        else:
            for j, label in enumerate(spec.levels):
                schema.append(ColumnSchema(f"{spec.name}={label}", NUMERIC))
                columns.append((col == j + 1).astype(np.float64))
    return from_arrays(schema, dataset.response, columns, dataset.y)


def level_counts(dataset: Dataset, predictor: int, rows) -> np.ndarray:
    """Occurrences of each level of a categorical predictor within a row
    multiset (``rows`` may repeat indices; repeats count)."""
    spec = dataset.schema[predictor]
    if spec.kind != CATEGORICAL:
        raise DataError(f"column {spec.name!r} is not categorical")
    rows = np.asarray(rows, dtype=np.int64)
    values = dataset.columns[predictor][rows]
    return np.bincount(values, minlength=spec.n_levels + 1)[1:]
