"""Golden forest hashes: growth must stay bit for bit what it is.

Each case trains a 10-tree forest (seed 11) on the first draw of one
synthetic generator, with its native categorical columns and after the
one-hot transform.  Together they exercise the ordered, pseudo-value,
exhaustive and random-bitmask split searches, so any change to a split
kernel or to the growth loop that alters a threshold, a tie-break or the
rng stream changes a hash here.
"""
import pytest

from absentrf import synth
from absentrf.data import one_hot_transform
from absentrf.forest import ForestConfig, forest_hash, train_forest

GOLDEN = {
    ("price_regression", False): "f4869261218c62fd55a9162115bceee2f8a61a01898db81ce22cd2b58391f887",
    ("price_regression", True): "374546edcc89565414092f04d3b06a2c354416157632f14dc389bf290d82aeb6",
    ("rollcall_binary", False): "39c8a8090405fc8246a95e63291f7bed8c31fc9c19b626a78e91cb4490081416",
    ("rollcall_binary", True): "ada90903b7c624fb853dbb345eaa7735a0c43ed2cb61a4522ac71f6f939904de",
    ("bridge_multiclass", False): "3c0baf3529da435d9199463a39976b01b919106b9af431fb4029f5c87a31e035",
    ("bridge_multiclass", True): "cbdffbd2e8c7463becb19ed17e9daa33dbffff4c65eeea6fb193d983d8e06d92",
}


@pytest.mark.parametrize("generator,onehot", sorted(GOLDEN))
def test_forest_hash_is_unchanged(generator, onehot):
    d = getattr(synth, generator)(0)
    if onehot:
        d = one_hot_transform(d)
    forest = train_forest(d, ForestConfig(n_trees=10, seed=11))
    assert forest_hash(forest) == GOLDEN[(generator, onehot)]
