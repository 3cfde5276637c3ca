"""Seed derivation: purity, separation, and coin statelessness."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from absentrf.seeding import (
    BOOTSTRAP,
    COIN,
    REPLICATION,
    TREE,
    Coins,
    _mix,
    _mix_array,
    derive,
    stream,
)


def test_derive_is_pure():
    assert derive(42, TREE, 3) == derive(42, TREE, 3)
    assert derive(42, TREE, 3) != derive(42, TREE, 4)
    assert derive(42, TREE, 3) != derive(42, BOOTSTRAP, 3)
    assert derive(42, TREE, 3) != derive(43, TREE, 3)


def test_derive_path_order_matters():
    assert derive(0, 1, 2) != derive(0, 2, 1)


def test_derive_accepts_strings():
    assert derive(7, "alpha") == derive(7, "alpha")
    assert derive(7, "alpha") != derive(7, "beta")


def test_stream_reproduces():
    a = stream(5, REPLICATION, 2).integers(0, 1000, 10)
    b = stream(5, REPLICATION, 2).integers(0, 1000, 10)
    assert np.array_equal(a, b)


def test_mix_array_matches_scalar():
    vals = np.array([0, 1, 2, 12345, 2**63, 2**64 - 1], dtype=np.uint64)
    mixed = _mix_array(vals.copy())
    for v, m in zip(vals, mixed):
        assert _mix(int(v)) == int(m)


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_mix_stays_in_64_bits(z):
    out = _mix(z)
    assert 0 <= out < 2**64


def test_coins_are_stateless():
    c = Coins(master=99, replication=1)
    first = c.uniform(3, 7, 11)
    for _ in range(5):
        c.uniform(0, 0, 0)  # unrelated draws
    assert c.uniform(3, 7, 11) == first
    assert 0.0 <= first < 1.0


def test_coins_distinguish_every_key_part():
    c = Coins(master=99)
    base = c.uniform(1, 2, 3)
    assert c.uniform(2, 2, 3) != base
    assert c.uniform(1, 3, 3) != base
    assert c.uniform(1, 2, 4) != base
    assert Coins(master=99, replication=1).uniform(1, 2, 3) != base
    assert Coins(master=98).uniform(1, 2, 3) != base


def test_coins_vectorised_matches_scalar():
    c = Coins(master=7, replication=4)
    obs = np.arange(50, dtype=np.uint64)
    vec = c.uniforms(2, 9, obs)
    scalars = np.array([c.uniform(2, 9, int(i)) for i in obs])
    assert np.array_equal(vec, scalars)
    # one call over arrays of (tree, node, observation) triples
    rng = np.random.default_rng(0)
    trees, nodes, obs = rng.integers(0, 2**40, (3, 300))
    vec = c.uniforms(trees, nodes, obs)
    scalars = [c.uniform(int(b), int(v), int(i)) for b, v, i in zip(trees, nodes, obs)]
    assert np.array_equal(vec, scalars)


def test_coins_look_uniform():
    c = Coins(master=1234)
    draws = c.uniforms(0, 0, np.arange(20000, dtype=np.uint64))
    assert abs(draws.mean() - 0.5) < 0.01
    assert abs((draws < 0.25).mean() - 0.25) < 0.01
    assert draws.min() >= 0.0 and draws.max() < 1.0


def test_tags_are_distinct():
    assert len({BOOTSTRAP, TREE, REPLICATION, COIN}) == 4
