"""Golden forest hashes: growth must stay bit for bit what it is.

Each case trains a 10-tree forest (seed 11) on the first draw of one
synthetic generator, with its native categorical columns and after the
one-hot transform.  Together they exercise the ordered, pseudo-value,
exhaustive and random-bitmask split searches, so any change to a split
kernel or to the growth loop that alters a threshold, a tie-break or the
rng stream changes a hash here.

The out-of-bag digests pin routing the same way: every routed policy
scored out of bag on each native forest, so a change to routing, to the
coin draws or to the order in which tree outputs are summed changes a
digest here.
"""
import hashlib

import pytest

from absentrf import synth
from absentrf.data import one_hot_transform
from absentrf.forest import ForestConfig, default_coins, forest_hash, oob_predict_all, train_forest
from absentrf.heuristics import Heuristic

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


# the shapes the benchmark trains: forests with more trees than the cases
# above, so trees of very different sizes grow side by side for long
GOLDEN_LARGE = {
    ("bridge_multiclass", 40, 7): "114d4153da5002aa87dbf123647145a6444f141a8f1e06552a780d71dc35c165",
    ("price_regression", 20, 11): "9880ba9b7bc42d2b1dafc2c7c9b266ef5d599c0cc1c0eb54d8777d4a7327e609",
}


@pytest.mark.parametrize("generator,n_trees,seed", sorted(GOLDEN_LARGE))
def test_large_forest_hash_is_unchanged(generator, n_trees, seed):
    forest = train_forest(getattr(synth, generator)(0), ForestConfig(n_trees=n_trees, seed=seed))
    assert forest_hash(forest) == GOLDEN_LARGE[(generator, n_trees, seed)]


GOLDEN_OOB = {
    "price_regression": "b9cf8f44b4fc658cd0dc3823e6c521f7ed20763a1d575b274c2b79d04194ae9c",
    "rollcall_binary": "2b892116dd6aa8f344db6ba4ee2888223c43a311db62d6d77f9bb73ce58f71f3",
    "bridge_multiclass": "ad2ad50935a3292c201e65006946c55ce15b15437c01d67e777ba402ae822c71",
}
ROUTED = ("left", "right", "stop", "majority", "random", "dbi")


@pytest.mark.parametrize("generator", sorted(GOLDEN_OOB))
def test_oob_predictions_are_unchanged(generator):
    d = getattr(synth, generator)(0)
    forest = train_forest(d, ForestConfig(n_trees=10, seed=11))
    h = hashlib.sha256()
    policies = [Heuristic(token) for token in ROUTED]
    sets = oob_predict_all(forest, d, policies, default_coins(forest))
    for policy in policies:
        s = sets[policy]
        for arr in (s.predictions, s.probabilities, s.oob_tree_counts, s.absent_tree_counts):
            if arr is not None:
                h.update(arr.tobytes())
    assert h.hexdigest() == GOLDEN_OOB[generator]
