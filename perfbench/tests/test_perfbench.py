"""Tests for the benchmark's own code.  Run with

    python -m pytest perfbench/tests
"""
import json

import pytest

from measure import DigestBook, digest_path, summarize
from tracing import Tracer, install, layer_metrics


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = Tracer(clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        wrapped_leaf()
        wrapped_leaf()

    def top():
        clock.now += 4.0
        wrapped_middle()

    wrapped_leaf = tr.wrap("leaf", leaf)
    wrapped_middle = tr.wrap("middle", middle)
    with tr.span("top"):
        top()

    assert tr.spans["top"].s == 8.0
    assert tr.spans["top"].self_s == 4.0
    assert tr.spans["middle"].s == 4.0
    assert tr.spans["middle"].self_s == 2.0
    assert tr.spans["leaf"].calls == 2
    assert tr.spans["leaf"].self_s == 2.0
    assert tr.stack == []


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    with tr.span("outer"):
        with pytest.raises(KeyError):
            tr.wrap("inner", boom)()
        clock.now += 1.0
    assert tr.spans["inner"].calls == 1
    assert tr.spans["outer"].self_s == 1.0
    assert tr.stack == []


def test_percentile_rule_takes_highest_tail_with_ten_beyond():
    # 1000 samples: p99 = 990 has exactly 10 above it, p99.9 has 1
    s = summarize(range(1, 1001))
    assert s == {"n": 1000, "median": 500.5, "tail_pct": 99.0, "tail": 990}
    # 100 samples: only p90 has 10 above it
    s = summarize(range(1, 101))
    assert (s["tail_pct"], s["tail"], s["n"]) == (90.0, 90, 100)
    # ties at the tail value do not count as beyond it
    s = summarize([1.0] * 95 + [2.0] * 5)
    assert s["tail_pct"] is None and s["median"] == 1.0


def test_percentile_rule_reports_median_alone_for_few_samples():
    s = summarize([3.0, 1.0, 2.0])
    assert s == {"n": 3, "median": 2.0, "tail_pct": None, "tail": None}
    with pytest.raises(ValueError):
        summarize([])


def test_digest_check_rejects_a_mismatching_output(tmp_path):
    out = tmp_path / "out"
    (out / "replication_0").mkdir(parents=True)
    (out / "summary.csv").write_text("kind,value\nmetric,1.0\n")
    (out / "replication_0" / "oob_left.csv").write_text("observation,prediction\n0,2.5\n")
    good = digest_path(out)

    book = DigestBook({"experiment": good})
    assert book.check("experiment", digest_path(out))

    (out / "replication_0" / "oob_left.csv").write_text("observation,prediction\n0,2.5000001\n")
    assert not book.check("experiment", digest_path(out))
    assert book.mismatches[0]["recorded"] == good


def test_digest_check_without_record_compares_repeats_in_the_run(tmp_path):
    f = tmp_path / "pred.csv"
    f.write_text("a\n")
    book = DigestBook()
    assert book.check("predict:left", digest_path(f))
    assert book.check("predict:left", digest_path(f))
    f.write_text("b\n")
    assert not book.check("predict:left", digest_path(f))
    assert book.mismatches[0]["recorded"] is None


def test_digest_covers_file_names(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "x.csv").write_text("1\n")
    (b / "y.csv").write_text("1\n")
    assert digest_path(a) != digest_path(b)


def test_traced_calls_change_no_output_and_restore_cleanly():
    import absentrf
    from absentrf import forest as forest_mod
    from absentrf import tree as tree_mod
    from absentrf.forest import ForestConfig, forest_hash, oob_predict_all, train_forest
    from absentrf.heuristics import Heuristic
    from absentrf.seeding import Coins
    from absentrf.synth import bridge_multiclass

    data = bridge_multiclass(3)
    cfg = ForestConfig(n_trees=4, seed=5)

    def run():
        f = forest_mod.train_forest(data, cfg)
        s = forest_mod.oob_predict_all(f, data, Heuristic.RANDOM, Coins(master=1))
        return forest_hash(f), s.probabilities.tobytes(), s.absent_tree_counts.tobytes()

    plain = run()
    originals = (train_forest, oob_predict_all, tree_mod.route, forest_mod.route, Coins.uniform)
    tr = Tracer()
    restore = install(tr)
    try:
        assert forest_mod.route is not originals[3]
        assert absentrf.train_forest is forest_mod.train_forest
        traced = run()
    finally:
        restore()
    assert traced == plain
    assert (train_forest, oob_predict_all, tree_mod.route, forest_mod.route, Coins.uniform) == originals

    m = layer_metrics(tr, 1)
    assert m["tree.grow_tree.calls"] == 4
    assert m["forest.oob_pairs"] == m["tree.route.calls"] > 0
    assert m["splits.random_categorical_split.calls"] > 0
    assert m["seeding.coins.calls"] == m["heuristics.resolve.calls.random"] > 0
    assert m["cli.predict.self_s"] == 0.0  # not run


def test_layer_metrics_match_benchmark_declaration():
    from pathlib import Path

    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    computed = set(layer_metrics(Tracer(), 1)) | {"experiment.output_bytes", "trace.overhead_ratio"}
    assert computed == declared


def test_gauge_scales_by_the_mean_of_the_kernel_times_around_a_call(monkeypatch):
    import speed

    readings = iter([0.002, 0.004, 0.001])
    monkeypatch.setattr(speed, "kernel", lambda: 0)
    monkeypatch.setattr(speed, "time_kernel", lambda: next(readings))
    gauge = speed.Gauge()  # reads 0.002
    # a 0.3 s call between kernel times of 2 and 4 ms ran at half the
    # reference speed (1 ms) on average
    assert gauge.scale(0.3) == pytest.approx(0.3 / 0.003 * speed.REFERENCE_S)
    assert gauge.scale(0.25) == pytest.approx(0.25 / 0.0025 * speed.REFERENCE_S)
    assert gauge.samples == [0.004, 0.001]
