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

The artifact digests pin what users read: every file of a small
all-heuristic experiment on each generator, and the ``absentrf predict``
table of each routed policy, so a change to how a table is assembled or
formatted changes a digest here.
"""
import hashlib
from pathlib import Path

import pytest

from absentrf import synth
from absentrf.cli import EXIT_OK, main
from absentrf.data import one_hot_transform, save_schema, write_csv
from absentrf.experiment import ExperimentConfig, run_experiment_on
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


GOLDEN_EXPERIMENT = {
    "bridge_multiclass": {
        "absence_proportions.csv": "0b0bca749da6c580a7a7be83c914b5eaf2132945164310520dde919832f3ba42",
        "manifest.json": "8a75781ffeae2d17c97bd8e844bd096e68511543facb8a5dd2f3f4ec3e8e9bd8",
        "paired_differences.csv": "1e4d9d3880e350d0d50a9a98b4243079b687cfd92a317518e03964ab8aee05b9",
        "replication_0/manifest.json": "cd701bb6e68f4f670ddbdd1396e2127c864a2741c9ae9ef91fe755001404e89a",
        "replication_0/metrics.csv": "8c22e81f4c9d8a2986db4c945add81322ee59a1c189809cebbf99591508993be",
        "replication_0/oob_dbi.csv": "92d535118214215ae2e24e66097b97015c1b6b78a331e93fdb09ba84c5341694",
        "replication_0/oob_left.csv": "7c43c64659867fd9e2fc0d85e559d11e29b98196ec0785e3e750f439ad6f236a",
        "replication_0/oob_majority.csv": "6ebdfdb5231eba96e427a23e4a8d30d1ee2e9b79b9b9f4067a400e9de3ba7a15",
        "replication_0/oob_onehot.csv": "27246663324e3410838aee7cf2da27b76196142064c4b823f34545774f3132b8",
        "replication_0/oob_random.csv": "5fb0859837808e8b306c59e3ae4d3868a66405d311e602b751945a0b005b90aa",
        "replication_0/oob_right.csv": "616cee6342514274ceec79bfec90767895393b5abe03df2ec5592b1135183817",
        "replication_0/oob_stop.csv": "e4abff5f2644b7d6366b115f097beaf949282376fccde57fa85044aaf85ff99c",
        "replication_1/manifest.json": "cd11ae31d395db004a0bb0405f88e0a611fda8e5f82c4253ad1e486852e595d5",
        "replication_1/metrics.csv": "141061abab69ca3e598dfe7a4e589e0a6f37ecd7a7370c08e720fc67905a81eb",
        "replication_1/oob_dbi.csv": "e35ab9eb5b2c521b639e5aaf5b9b8f9a4a83122d98b7ccfb20ff205f113a8f8a",
        "replication_1/oob_left.csv": "359b84bfc2bd514e95dcd39714a78794f9409967ddfdf592796fdc8c4d554cd2",
        "replication_1/oob_majority.csv": "04515079969e5951a43161207a7e14fd2f826d75dd86a750ba70e202bf23c9ab",
        "replication_1/oob_onehot.csv": "726062a50da214304281897f99894e1951d47780a4a63f5b4bd73891b357ff8d",
        "replication_1/oob_random.csv": "858967c2e40a62dca71e7991720364fc8ce98b8c767a4d6e1c3751d67f920b17",
        "replication_1/oob_right.csv": "988a2255c6c87198256c17ed0d39c122c362ddd2917fa6a71f91b44533f63d60",
        "replication_1/oob_stop.csv": "fd8e00b050e370af7172c3c1be24fa486db164c135da121b8d127089a0d3d566",
        "summary.csv": "98a61b0b53ed0c092aa667ad4883d4d89cb6adb115c1006df1c1615bcee5f588",
    },
    "price_regression": {
        "absence_proportions.csv": "bd675f4c945dd1f797378de9f078338753085b769fa2e2270747f91426cce529",
        "manifest.json": "8ff71feecb6108de8848ecff2bb085f6a68ce9261b14be2f0d3e8fbbbfdb2a65",
        "paired_differences.csv": "a42b0d3497306a5a6d661dba923cf009905e427f04d5d4b81f633113153f7f2b",
        "replication_0/manifest.json": "981063bd821cc3e73616a420d8c87dfa23e11408b6c8724866f9b76d67a0ad30",
        "replication_0/metrics.csv": "d5dfcc77bd0854311ed54bf412ec70c02743b04f8b5b4022bb1a2bcf64fb903c",
        "replication_0/oob_dbi.csv": "45aa2025ba8a879ce434a322d325e87f1ed34be333c1e0b8dbc432074456606f",
        "replication_0/oob_left.csv": "cab84e75ccb5238649c262fd41b6f8970303fbd92c61d556ecd36394ffd98d8b",
        "replication_0/oob_majority.csv": "4c2d567072a6a9cb1d592dcef2bd8e459bad70fa760978e1bb255f0ad4c8cdbe",
        "replication_0/oob_onehot.csv": "74f28b06a6401f651fb4be315899576c6c6b3288a47c3ef80feed7426298c9a5",
        "replication_0/oob_random.csv": "6c2432fd822c9fd5878d74ef96f516051bf0ffbe42a84ad510332e0259f986ae",
        "replication_0/oob_right.csv": "ff7282806c7ce6e0175253d4979fb53c2e43d429b84a6e5ba8ad32119d905c32",
        "replication_0/oob_stop.csv": "b2676f9938977175b68771e7261afcb3bbfeebd137d7b4a0eef16cd9df663a7a",
        "replication_1/manifest.json": "37d97789aae7c3235c8cbe24aafee86a0b5ee21fa3847517ea9ffbdd6be5c881",
        "replication_1/metrics.csv": "6361faa760f33b0f67353b7ffa39f6a8598accda0fe1c70857a8a2f5d3356cf2",
        "replication_1/oob_dbi.csv": "7001719a45c1e685d248d8a5d6f915a4bbe338a5adc932d9b8f272fac6ee3b46",
        "replication_1/oob_left.csv": "1f8ce94b65e928db6cf2747394e0deadcf8f35358dac9e79bced550031222851",
        "replication_1/oob_majority.csv": "15c5b53d8f6bc4aa78353386980c2576a0fe6ea9936478a341ac704834f91b56",
        "replication_1/oob_onehot.csv": "760417d07a8688c7dc28c0dbd932db4086dea6187097c21bcad2d7ff2b33746b",
        "replication_1/oob_random.csv": "8c45cd2b74e731f585f839e851718c66e08aa11e8ab93858dadd18b01b7a0a3f",
        "replication_1/oob_right.csv": "b79c0e58ce9da4c62e342cd7e29886e0460e8ec58f2acfd403ed330a6147a4f4",
        "replication_1/oob_stop.csv": "6034a0f4a842a550de2799de83cfb5daed5fc50210270998727f79da9707a962",
        "summary.csv": "1cd15f1960ebc8ea668e596523652d5f7371fb5b7ef66d3d2184eb0ef227394c",
    },
    "rollcall_binary": {
        "absence_proportions.csv": "86ca192fb29e33866d90befed2d07c8d79274c35c891f4c631237d32a284dc20",
        "manifest.json": "8a75781ffeae2d17c97bd8e844bd096e68511543facb8a5dd2f3f4ec3e8e9bd8",
        "paired_differences.csv": "5515d41868132542ce2822814acdf656ece0c04e57e4240d82fa6e367d5f4b1f",
        "replication_0/manifest.json": "649d6eae7e59c948a9cc9a6d632e20e225095b2ecefb80d86cb5806c4c061565",
        "replication_0/metrics.csv": "39d9099fa6ae3c4ec14063934e6b1c5ba162904c9d6eb22f4afc4b7e36829877",
        "replication_0/oob_dbi.csv": "c21e3121d40608b5ca6a6925807847d6e701aec280391d077308919dba34db5e",
        "replication_0/oob_left.csv": "af7f4ed9b7ea88acca7348124e6c78744c70dcc753d92e84e2f82df9235abc14",
        "replication_0/oob_majority.csv": "7068f5fb3045e265d4272b801678643730b877cb6bb2af374023897ccd0d4ab8",
        "replication_0/oob_onehot.csv": "9dcc5223a4da951bb5a504e742f5c5326ac96f72c442875fc24001b9c0ca9241",
        "replication_0/oob_random.csv": "05c91f8ec2c2edb15a4b839743490c1a45d488e1771347864ccf00a032b8356c",
        "replication_0/oob_right.csv": "b88b528a0e5b2d2a66aa2f56b5a2702e18f7bc312f917f23d08cb5dfc3926c9b",
        "replication_0/oob_stop.csv": "7bd1ca7da568180ce96f4fa54ab7b9c5e6b2d38a3822458b0a4135a55ebb5e04",
        "replication_1/manifest.json": "ed4521e4c300279f53c6f1b80236f5171d1d3267da25f4a6040d8ab46ae6f1e8",
        "replication_1/metrics.csv": "b56475518e04486565343b93d64929be8459329bc6de1dafd4885e193fa70bd8",
        "replication_1/oob_dbi.csv": "c0b6823211c15ebec800140a2bc801498afeb182ebfb0d393091d2c81d9bc9b1",
        "replication_1/oob_left.csv": "37924a3abcb0087aaa07dfc705c3e4741e4c59893b633b08b10fbbe6607d57a3",
        "replication_1/oob_majority.csv": "8bea2d525439904e52b570ead9e10e86867c05899d0de862131c2b26583fe935",
        "replication_1/oob_onehot.csv": "582293fa1a29696dceabdb618beaf54923418499f2aa52531c6bc585472ee82f",
        "replication_1/oob_random.csv": "ae7715945994e4a8ae9d8b3f492c2232b98fc87c9f11b9a7131bf82931fcda9b",
        "replication_1/oob_right.csv": "6d16199eaa0b9548ac834155c675c5a72819f04e32e9cbb15c1c5cc2bfec0005",
        "replication_1/oob_stop.csv": "4c068f1cd0fa0be4dfc7feca40a5d4f17b03793b91fc1de16693fcc498daa66c",
        "summary.csv": "825f4e6c0ac1c98dff32168ea6b3a2643f27bcc0a9958f3478763a2aef06b541",
    },
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("generator", sorted(GOLDEN_EXPERIMENT))
def test_experiment_artifacts_are_unchanged(generator, tmp_path, monkeypatch):
    # relative paths keep the config echo in manifest.json independent of tmp_path
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig(
        dataset_path="data.csv",
        schema_path="schema.json",
        output_dir="out",
        heuristics=tuple(Heuristic),
        replications=2,
        n_trees=20,
        seed=11,
    )
    run_experiment_on(cfg, getattr(synth, generator)(0))
    out = tmp_path / "out"
    digests = {p.relative_to(out).as_posix(): _sha256(p) for p in sorted(out.rglob("*")) if p.is_file()}
    assert digests == GOLDEN_EXPERIMENT[generator]


GOLDEN_PREDICT = {
    "left": "49c1f716780456191b0ead9e67635dcd64c4d9af7f731755f9e406171453728d",
    "right": "d2caacda6bcc03bea6a1d35c06c5a4eb7dbb929968fa7274e4fe80c0dd709d36",
    "stop": "de4a4fcb3b61b9db6893306d0518419d4dfa33bfe18fa71d031537677524cec7",
    "majority": "bba2084e1ec2e712fd23ea402e191b49b3cae4de85dc924d18c117d60d86c52c",
    "random": "815db84bf3b543fd3b85afc453cd389a9818af1b5450d0c15b35785d9167c294",
    "dbi": "3e0d142da24ccfc7a5f9e24206bf260f2b77fc2d9c10d1b8f1b0a6459a29b255",
}


def test_predict_tables_are_unchanged(tmp_path):
    d = synth.bridge_multiclass(0)
    data, schema, model = tmp_path / "d.csv", tmp_path / "s.json", tmp_path / "m.json"
    write_csv(d, data)
    save_schema(schema, d.schema, d.response)
    common = ["--data", str(data), "--schema", str(schema)]
    assert main(["train", *common, "--out", str(model), "--trees", "40", "--seed", "7"]) == EXIT_OK
    digests = {}
    for token in ROUTED:
        out = tmp_path / f"{token}.csv"
        argv = ["predict", *common, "--model", str(model), "--heuristic", token, "--out", str(out)]
        assert main(argv) == EXIT_OK
        digests[token] = _sha256(out)
    assert digests == GOLDEN_PREDICT
