"""Byte stability across commits: criterion 8's chain, plus evaluate and
report, writes the bytes recorded in golden_chain.json.

Criterion 8 checks that two runs of one tree agree; this test checks that
a change kept the bytes of the commit that recorded the manifest. A change
meant to move bytes rewrites the manifest with

    PYTHONPATH=src python tests/test_golden_chain.py

and says which files moved and why. With `--print` the script writes the
digests to stdout and leaves the manifest as it is, so that runs of one
tree under different settings, such as BLAS thread counts, can be compared
on a machine whose kernels differ from the recording build's.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from tdcae.cli import main
from tdcae.synth import TankSystemConfig

MANIFEST = Path(__file__).with_name("golden_chain.json")

# The chain's bytes go through BLAS products, np.tanh and np.sin, whose
# last bits may differ between numpy builds, BLAS libraries and CPUs; the
# manifest holds where these give the recorded bits.
KERNEL_DIGEST = "02ab0ab5c9a02262f8b3b1f32d2c4fdb9f3bbd3e0750cdb9351ac1ae5eb70ce3"


def kernel_digest() -> str:
    """sha256 of products in the forms and at the shapes the chain's
    kernels use (8 features, 8 hidden, 7 latent; batches of 32 triples, the
    last of 14, and 398- and 400-row frames), their tanh, and the demand
    phases of the chain's 400-hour simulations."""
    rng = np.random.default_rng(0)
    h = hashlib.sha256()
    for rows in (14, 32, 42, 96, 398, 400):
        for fan_in, fan_out in ((8, 8), (8, 7), (7, 8)):
            x = rng.uniform(-1.0, 1.0, (rows, fan_in))
            weights = rng.uniform(-1.0, 1.0, (fan_out, fan_in))
            g = rng.uniform(-1.0, 1.0, (rows, fan_out))
            forward = x.dot(weights.T)
            for product in (forward, np.tanh(forward), g.T.dot(x), np.ones(rows).dot(g),
                            g.dot(weights), g.ravel().dot(g.ravel())):
                h.update(np.asarray(product).tobytes())
    config = TankSystemConfig(horizon=400)
    hours = np.arange(config.horizon)[:, None]
    phases = np.arange(config.n_tanks) / config.n_tanks
    h.update(np.sin(2.0 * np.pi * (hours / config.demand_period + phases)).tobytes())
    return h.hexdigest()


def chain_digests(base: Path) -> dict[str, str]:
    """Run the chain under base; the sha256 of each file it writes but
    config.json, keyed by its path relative to base."""
    chain = [
        ["synth", "--out", base / "train", "--horizon", 400, "--seed", 13, "--attacks", "none"],
        ["synth", "--out", base / "test", "--horizon", 400, "--seed", 1013,
         "--attacks", "default"],
        ["train", "--data", base / "train" / "data.csv", "--out", base / "model",
         "--epochs", 4, "--seed", 13],
        ["detect", "--model", base / "model" / "model.json", "--data", base / "test" / "data.csv",
         "--train-scores", base / "model" / "train_scores.csv", "--out", base / "det"],
        ["evaluate", "--detections", base / "det" / "detection.csv",
         "--labels", base / "test" / "data.csv", "--out", base / "eval"],
        ["report", "--model", base / "model" / "model.json", "--data", base / "test" / "data.csv",
         "--out", base / "report"],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in chain:
            assert main([str(a) for a in argv]) == 0, argv
    return {p.relative_to(base).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(base.rglob("*")) if p.is_file() and p.name != "config.json"}


def test_chain_writes_the_recorded_bytes(tmp_path):
    if kernel_digest() != KERNEL_DIGEST:
        pytest.skip("BLAS, np.tanh or np.sin differ in the last bits from the recording build")
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = chain_digests(tmp_path)
    assert sorted(got) == sorted(expected)
    moved = [name for name in expected if got[name] != expected[name]]
    assert not moved, f"bytes moved in {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = chain_digests(Path(work))
    text = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    if sys.argv[1:] == ["--print"]:
        sys.stdout.write(text)
    else:
        MANIFEST.write_text(text, encoding="utf-8")
        print(f"wrote {len(digests)} digests to {MANIFEST}; kernel digest {kernel_digest()}",
              file=sys.stderr)
