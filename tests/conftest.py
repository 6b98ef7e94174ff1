import os
from pathlib import Path

import numpy as np
import pytest

import pau

DESK_SEED = 7
MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def find_mnist_dir():
    """Directory holding the four standard MNIST IDX files (optionally .gz),
    or None.  Checked: $PAU_DATA_DIR, ./data, ./data/mnist, ~/.cache/pau/mnist."""
    candidates = [os.environ.get("PAU_DATA_DIR"), "data", "data/mnist",
                  os.path.expanduser("~/.cache/pau/mnist")]
    for cand in candidates:
        if not cand:
            continue
        p = Path(cand)
        if all((p / f).exists() or (p / (f + ".gz")).exists() for f in MNIST_FILES):
            return p
    return None


def child_env(drop=(), **extra):
    """Environment for a child interpreter: this one's without the
    variables in ``drop``, plus ``extra``, with the source directory of
    the imported pau first on PYTHONPATH so that the child imports the
    same package (pytest's own pythonpath reaches this process only)."""
    src = str(Path(pau.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env.update(extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="session")
def mnist_sets():
    d = find_mnist_dir()
    if d is None:
        pytest.skip("MNIST IDX files not found (set PAU_DATA_DIR); "
                    "the synthetic-protocol twins cover this path")
    return pau.load_idx(d, "train"), pau.load_idx(d, "test")


@pytest.fixture(scope="session")
def synth_sets():
    """10k/2k split of the deterministic synthetic digit set."""
    full = pau.synth_digits(12000, seed=555)
    train = pau.DatasetHandle(full.images[:10000], full.labels[:10000], "train")
    test = pau.DatasetHandle(full.images[10000:], full.labels[10000:], "test")
    return train, test


def desk_protocol(train, test, seed=DESK_SEED, trainable=True, noise_alpha=0.0):
    """The desk-scale protocol: 784-128-10 net, lrelu(0.01) unit init,
    adam lr 0.002, batch 256, 5 epochs, 10k/2k subsets."""
    net = pau.build_network(pau.mlp_spec((784, 128, 10)), init="lrelu(0.01)",
                            seed=seed, trainable_units=trainable,
                            noise_alpha=noise_alpha)
    return pau.train_model(net, *desk_sets(train, test), desk_config(seed))


def desk_sets(train, test):
    """The desk protocol's data: the first 10k train and 2k test samples."""
    return train.subset(10000), test.subset(2000)


def desk_config(seed=DESK_SEED, epochs=5):
    return pau.TrainConfig(epochs=epochs, batch_size=256, optimizer="adam",
                           lr=0.002, seed=seed)
