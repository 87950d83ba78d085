import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tdcae.model import HTdcAutoencoder, LatentPartition
from tdcae.nn import Activation, Mlp

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    pass
else:
    # HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a CI
    # failure reproduces locally.
    settings.register_profile("ci", derandomize=True)
    if "HYPOTHESIS_PROFILE" in os.environ:
        settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


def one_layer_mlp(weights, bias, activation: Activation) -> Mlp:
    """An Mlp of one layer with the given (out, in) weights and bias, set
    through its views."""
    weights = np.asarray(weights, dtype=np.float64)
    mlp = Mlp([weights.shape[1], weights.shape[0]], [activation])
    mlp.layers[0].weights[...] = weights
    mlp.layers[0].bias[...] = bias
    return mlp


def identity_autoencoder(n_features: int) -> HTdcAutoencoder:
    """A model that reconstructs its input exactly: single identity layers
    and an all-statistical latent space."""
    eye = np.eye(n_features)
    encoder = one_layer_mlp(eye, 0.0, Activation.IDENTITY)
    decoder = one_layer_mlp(eye, 0.0, Activation.IDENTITY)
    return HTdcAutoencoder(encoder, decoder, LatentPartition(0, n_features))


def traced_peak(call) -> int:
    """The most bytes that Python's allocators held at once during call(),
    counted from its start."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def child_env(**extra) -> dict:
    """This process's environment for a child Python process, with the
    checkout's src first on PYTHONPATH, and the given variables set."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


@pytest.fixture
def rng():
    return np.random.default_rng(20240101)


def batadal_paths():
    """(train_csv, test_csv) when the public dataset is available, else None.

    Looked up under $BATADAL_DIR or ./data; training data is the attack-free
    file, the test file must carry the label column.
    """
    root = os.environ.get("BATADAL_DIR")
    candidates = [Path(root)] if root else []
    candidates.append(Path(__file__).resolve().parents[1] / "data")
    for base in candidates:
        train = base / "BATADAL_dataset03.csv"
        test = base / "BATADAL_test_dataset.csv"
        if train.exists() and test.exists():
            return train, test
    return None
