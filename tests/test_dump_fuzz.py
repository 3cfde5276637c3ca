"""Malformed model dumps through ``absentrf predict``, fuzzed.

Each example changes one or two values of a valid dump, found by a
random walk from its root (a wrong type, a huge or negative int, NaN or
infinity, an extra level of nesting, a missing key or list entry), or
cuts its text short.  ``predict`` must then exit 0 or 3 and print no
traceback: a dump it cannot use is a data error with a message.
"""
import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from absentrf.cli import EXIT_DATA, EXIT_OK, main
from absentrf.data import (
    CATEGORICAL,
    NUMERIC,
    RESPONSE_CLASS,
    RESPONSE_NUMERIC,
    ColumnSchema,
    ResponseSpec,
    from_arrays,
    save_schema,
    write_csv,
)
from absentrf.forest import ForestConfig, forest_to_dict, train_forest

TASKS = ("regression", "classification")
REPLACEMENTS = [
    None, True, "x", "", [], {}, [[]], 0, -1, 1, 2**63, 2**70, -(2**70), 10**400, 0.5, -0.0,
    float("nan"), float("inf"), float("-inf"),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Per task: the ``--data``/``--schema`` arguments and a valid dump."""
    out = {}
    for task in TASKS:
        tmp = tmp_path_factory.mktemp(task)
        rng = np.random.default_rng(1)
        n = 40
        schema = (ColumnSchema("x", NUMERIC), ColumnSchema("c", CATEGORICAL, tuple("abcdef")))
        columns = [np.round(rng.normal(size=n), 1), rng.integers(1, 7, size=n)]
        if task == "regression":
            ds = from_arrays(schema, ResponseSpec(RESPONSE_NUMERIC), columns, np.round(rng.normal(size=n), 2))
        else:
            ds = from_arrays(schema, ResponseSpec(RESPONSE_CLASS, ("u", "v", "w")), columns, rng.integers(1, 4, size=n))
        data, spec = tmp / "data.csv", tmp / "schema.json"
        write_csv(ds, data)
        save_schema(spec, ds.schema, ds.response)
        dump = forest_to_dict(train_forest(ds, ForestConfig(n_trees=3, seed=2)))
        out[task] = (["--data", str(data), "--schema", str(spec)], dump)
    return out


def mutate(draw, dump) -> None:
    """Change one value of ``dump``, where a random walk from its root ends."""
    parent, key, value = None, None, dump
    while isinstance(value, (dict, list)) and value and (parent is None or draw(st.integers(0, 5))):
        parent = value
        if isinstance(value, list):
            key = draw(st.integers(0, len(value) - 1))
        else:  # the trees half of the time
            key = draw(st.sampled_from(sorted(value) + (["trees"] * len(value) if value is dump and "trees" in value else [])))
        value = parent[key]
    if parent is None:
        return
    change = draw(st.sampled_from(["replace", "remove", "nest"]))
    if change == "remove":
        del parent[key]
    elif change == "nest":
        parent[key] = [value]
    else:
        parent[key] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_predict_exits_0_or_3_on_a_mutated_dump(inputs, tmp_path_factory, capsys, data):
    task = data.draw(st.sampled_from(TASKS))
    args, dump = inputs[task]
    dump = copy.deepcopy(dump)
    for _ in range(data.draw(st.integers(1, 2))):
        mutate(data.draw, dump)
    text = json.dumps(dump)
    if data.draw(st.integers(0, 9)) == 0:
        text = text[: data.draw(st.integers(0, len(text) - 1))]
    model = tmp_path_factory.getbasetemp() / "mutated.json"
    model.write_text(text)
    capsys.readouterr()
    code = main(["predict", *args, "--model", str(model), "--heuristic", data.draw(st.sampled_from(["left", "dbi"]))])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_DATA), err
    assert "Traceback" not in err
