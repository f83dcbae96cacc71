"""Golden replay: a fixed tiny recipe must write the same bytes forever.

The digests below were captured by running exactly this recipe with the
code as it stood before the two architectures were merged into one
network type (separate ternary and binary classes, forward and backward
passes). They freeze the training curve (history) and the trained
parameters (checkpoint) of each architecture, so a refactor that
changes any operation's rounding shows here. The training split has
more rows than `training.TRAIN_ACC_ROWS`, so the train_acc subset is
frozen too. Digests hold for this numpy build; another BLAS or numpy
may round differently and needs fresh digests from the same recipe.
"""

import hashlib
import os

import pytest

import tritnet.cli as cli
import tritnet.training as tr

GOLDEN = {
    "ternary": {
        "ckpt": "cc26680c70cc3a72a9dddf73d9d48d252617c999b6772af3971bb5c326e78bb5",
        "history.jsonl": "378da1b5173430358b45cb7ecdc6110269e9e8ade87be3b138b530583ebb0143",
    },
    "binary": {
        "ckpt": "5ab6a505316b0b19109ea9429f2e202da15bd2167ef9ac4398c9f345c6b4b8cb",
        "history.jsonl": "c63b498f90ec641e42a61ca43cbe67a5c94000807100d096ef8513977f337568",
    },
}


@pytest.fixture(scope="module")
def moons(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("golden"))
    rc = cli.main(["gen-data", "--kind", "moons", "--n", "2600", "--noise", "0.3",
                   "--seed", "0", "--out", out, "--name", "moons"])
    assert rc == cli.EXIT_OK
    return out


@pytest.mark.parametrize("arch", sorted(GOLDEN))
def test_training_replays_frozen_bytes(moons, arch, capsys):
    train = os.path.join(moons, "moons.train.txt")
    with open(train) as fh:
        assert sum(1 for _ in fh) - 1 > tr.TRAIN_ACC_ROWS
    rc = cli.main(["train", "--train", train,
                   "--test", os.path.join(moons, "moons.test.txt"),
                   "--arch", arch, "--widths", "16,16", "--output-neurons", "8",
                   "--steps", "40", "--eval-every", "10", "--seed", "0",
                   "--out", moons, "--name", arch])
    assert rc == cli.EXIT_OK
    for suffix, digest in GOLDEN[arch].items():
        with open(os.path.join(moons, f"{arch}.{suffix}"), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, suffix
