"""Dataset construction, CSV ingestion, schema files, transforms."""
import hashlib

import numpy as np
import pytest

from absentrf.data import (
    CATEGORICAL,
    NUMERIC,
    RESPONSE_CLASS,
    RESPONSE_NUMERIC,
    ColumnSchema,
    DataError,
    ResponseSpec,
    from_arrays,
    ingest_csv,
    level_counts,
    load_schema,
    one_hot_transform,
    save_schema,
    write_csv,
)
from absentrf.data import _cell, _rows
from absentrf import synth

SCHEMA = (
    ColumnSchema("size", NUMERIC),
    ColumnSchema("color", CATEGORICAL, ("red", "green", "blue")),
)
NUM_RESP = ResponseSpec(RESPONSE_NUMERIC)
CLS_RESP = ResponseSpec(RESPONSE_CLASS, ("no", "yes"))


def small_dataset():
    return from_arrays(SCHEMA, NUM_RESP, [[1.5, 2.5, 3.5], [1, 3, 1]], [10.0, 20.0, 30.0])


# ---------------------------------------------------------------------------
# schema validation


def test_schema_rejects_bad_kind():
    with pytest.raises(DataError):
        ColumnSchema("x", "ordinal")


def test_schema_rejects_duplicate_levels():
    with pytest.raises(DataError):
        ColumnSchema("x", CATEGORICAL, ("a", "a"))


def test_numeric_column_rejects_levels():
    with pytest.raises(DataError):
        ColumnSchema("x", NUMERIC, ("a",))


def test_response_needs_two_classes():
    with pytest.raises(DataError):
        ResponseSpec(RESPONSE_CLASS, ("only",))


def test_from_arrays_validates():
    with pytest.raises(DataError, match="level index"):
        from_arrays(SCHEMA, NUM_RESP, [[1.0], [4]], [0.0])
    with pytest.raises(DataError, match="length"):
        from_arrays(SCHEMA, NUM_RESP, [[1.0, 2.0], [1]], [0.0])
    with pytest.raises(DataError, match="class index"):
        from_arrays(SCHEMA, CLS_RESP, [[1.0], [1]], [3])


def test_dataset_is_frozen():
    ds = small_dataset()
    with pytest.raises(ValueError):
        ds.columns[0][0] = 99.0
    with pytest.raises(ValueError):
        ds.y[0] = 99.0


def test_row_and_matrix_views():
    ds = small_dataset()
    assert np.array_equal(ds.matrix()[1], [2.5, 3.0])
    assert ds.matrix().shape == (3, 2)
    assert ds.n_rows == 3 and ds.n_predictors == 2


def test_fingerprint_tracks_content():
    a = small_dataset()
    b = small_dataset()
    assert a.fingerprint() == b.fingerprint()
    c = from_arrays(SCHEMA, NUM_RESP, [[1.5, 2.5, 3.5], [1, 3, 1]], [10.0, 20.0, 31.0])
    assert a.fingerprint() != c.fingerprint()


# ---------------------------------------------------------------------------
# schema files


def test_schema_round_trip(tmp_path):
    path = tmp_path / "schema.json"
    save_schema(path, SCHEMA, CLS_RESP)
    schema, response = load_schema(path)
    assert schema == SCHEMA
    assert response == CLS_RESP


def test_load_schema_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"columns": [{"name": "x"}], "response": {"kind": "numeric"}}')
    with pytest.raises(DataError, match="malformed"):
        load_schema(path)
    path.write_text("not json")
    with pytest.raises(DataError, match="JSON"):
        load_schema(path)
    for column in ['{"name": ["x"], "kind": "numeric"}', '{"name": "x", "kind": "categorical", "levels": ["a", 2]}']:
        path.write_text('{"columns": [%s], "response": {"kind": "numeric"}}' % column)
        with pytest.raises(DataError, match="must be strings"):
            load_schema(path)


# ---------------------------------------------------------------------------
# CSV ingestion


def test_ingest_basic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.5,red,10\n2.5, blue ,20\n")
    ds, dropped = ingest_csv(path, SCHEMA, NUM_RESP)
    assert dropped == 0
    assert np.array_equal(ds.columns[0], [1.5, 2.5])
    assert np.array_equal(ds.columns[1], [1, 3])  # whitespace stripped
    assert np.array_equal(ds.y, [10.0, 20.0])


def test_ingest_drops_rows_with_missing_token(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.5,red,10\n?,red,20\n2.5,?,30\n3.5,blue,40\n")
    ds, dropped = ingest_csv(path, SCHEMA, NUM_RESP)
    assert dropped == 2
    assert ds.n_rows == 2
    assert np.array_equal(ds.y, [10.0, 40.0])


def test_ingest_skips_blank_lines_and_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("size,color,price\n1.5,red,10\n\n2.5,green,20\n")
    ds, dropped = ingest_csv(path, SCHEMA, NUM_RESP, skip_header=True)
    assert ds.n_rows == 2 and dropped == 0


def test_ingest_unlabeled(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.5,red\n2.5,green\n")
    ds, _ = ingest_csv(path, SCHEMA, NUM_RESP, require_response=False)
    assert ds.y is None
    with pytest.raises(DataError, match="expected 3 fields"):
        ingest_csv(path, SCHEMA, NUM_RESP)


def test_ingest_class_response(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.5,red,yes\n2.5,blue,no\n")
    ds, _ = ingest_csv(path, SCHEMA, CLS_RESP)
    assert np.array_equal(ds.y, [2, 1])


def test_ingest_errors_name_row_and_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.5,red,10\nbad,red,20\n")
    with pytest.raises(DataError, match="row 2, column 'size'"):
        ingest_csv(path, SCHEMA, NUM_RESP)
    path.write_text("1.5,mauve,10\n")
    with pytest.raises(DataError, match="'mauve' is not a declared level"):
        ingest_csv(path, SCHEMA, NUM_RESP)
    path.write_text("1.5,red,maybe\n")
    with pytest.raises(DataError, match="not a declared class"):
        ingest_csv(path, SCHEMA, CLS_RESP)


def test_ingest_ragged_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.5,red,10\n1.5,10\n")
    with pytest.raises(DataError, match="row 2"):
        ingest_csv(path, SCHEMA, NUM_RESP)


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("\n\n")
    with pytest.raises(DataError, match="no usable rows"):
        ingest_csv(path, SCHEMA, NUM_RESP)


def test_write_round_trip(tmp_path):
    ds = small_dataset()
    path = tmp_path / "out.csv"
    write_csv(ds, path)
    back, dropped = ingest_csv(path, SCHEMA, NUM_RESP)
    assert dropped == 0
    assert back.fingerprint() == ds.fingerprint()


def test_write_round_trip_exotic_floats(tmp_path):
    ds = from_arrays(SCHEMA, NUM_RESP, [[0.1, 1 / 3, 1e-17], [1, 2, 3]], [0.1 + 0.2, -0.0, 2**-40])
    path = tmp_path / "out.csv"
    write_csv(ds, path)
    back, _ = ingest_csv(path, SCHEMA, NUM_RESP)
    assert back.fingerprint() == ds.fingerprint()  # repr round-trips exactly


def test_write_round_trip_nan(tmp_path):
    ds = from_arrays(SCHEMA, NUM_RESP, [[np.nan, 1.0, -np.inf], [1, 2, 3]], [np.nan, 0.0, np.inf])
    path = tmp_path / "out.csv"
    write_csv(ds, path)
    back, _ = ingest_csv(path, SCHEMA, NUM_RESP)
    assert back.fingerprint() == ds.fingerprint()


GOLDEN_WRITE_CSV = {
    "bridge_multiclass": "a4e4fbc991542e77292df9272698fbea7e0f4000d89b443e2268f647eb22b46b",
    "price_regression": "f8972dd01a5ef7b38db10c975353524df1f70dcc9e3879dd132efcedb00a0f4e",
    "rollcall_binary": "6bbe72455441786f29283de11d9e78b4bca450aeb23250f265340dc44d60052b",
}


@pytest.mark.parametrize("generator", sorted(GOLDEN_WRITE_CSV))
def test_write_csv_bytes_are_unchanged(generator, tmp_path):
    path = tmp_path / "out.csv"
    write_csv(getattr(synth, generator)(0), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_WRITE_CSV[generator]


# ---------------------------------------------------------------------------
# transforms


def test_one_hot_transform_emits_every_level():
    ds = small_dataset()
    wide = one_hot_transform(ds)
    names = [c.name for c in wide.schema]
    assert names == ["size", "color=red", "color=green", "color=blue"]
    assert all(c.kind == NUMERIC for c in wide.schema)
    assert np.array_equal(wide.columns[1], [1.0, 0.0, 1.0])
    assert np.array_equal(wide.columns[2], [0.0, 0.0, 0.0])  # green never occurs
    assert np.array_equal(wide.columns[3], [0.0, 1.0, 0.0])
    assert np.array_equal(wide.y, ds.y)
    # dummy rows sum to one per source column
    assert np.array_equal(wide.columns[1] + wide.columns[2] + wide.columns[3], np.ones(3))


def test_level_counts_with_repeats():
    ds = small_dataset()
    counts = level_counts(ds, 1, np.array([0, 0, 2, 1]))
    assert np.array_equal(counts, [3, 0, 1])
    with pytest.raises(DataError):
        level_counts(ds, 0, np.arange(3))


def test_columns_format_as_cell_by_cell_formatting():
    """A float or int ndarray column is formatted in one pass, and every
    other column cell by cell; both give what ``_cell`` gives each cell."""
    columns = [
        np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 0.1, 1e300, 5e-324]),
        np.array([np.nan, np.inf, -np.inf, -0.0, 0.1, 1.5, 3.0, 7.25], dtype=np.float32),
        np.array([0, -1, 2**62, -(2**63), 5, 6, 7, 8], dtype=np.int64),
        np.array([0, 1, 2, 255, 3, 4, 5, 6], dtype=np.uint8),
        np.array([True, False, True, True, False, False, True, False]),
        np.array([None, "a", 1.5, np.nan, 2, True, -0.0, np.float64(np.inf)], dtype=object),
        ["x", None, 1.0, float("nan"), 3, False, "", "y,z"],
    ]
    want = [[_cell(v) for v in (c.tolist() if isinstance(c, np.ndarray) else c)] for c in columns]
    assert list(_rows(columns)) == list(zip(*want))
    assert want[0][:5] == ["", "inf", "-inf", "-0.0", "0.0"] and want[4][:2] == ["true", "false"]
