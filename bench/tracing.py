"""Span recorder for the traced benchmark run.

Each public function of a tdcae layer is wrapped from outside the package:
the wrapper replaces the function on its defining module and on every
module that imported it by name, so `tdcae.model.forward`, `tdcae.forward`
and `tdcae.nn.forward` all record the same span. Nothing under src/ is
edited. Spans stay in memory, in flat arrays, and are written out once at
the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# The package modules that are layers. `errors` does no work.
LAYERS = ("synth", "preprocess", "nn", "optim", "model", "detect", "metrics",
          "svgplot", "cli")


def _rows(x) -> int:
    return int(np.shape(x)[0])


def _sizes(mlp) -> tuple | None:
    sizes = getattr(mlp, "layer_sizes", None)
    return None if sizes is None else tuple(sizes)


# Work counts taken from a call's arguments and result: (rows, key). The key
# names the network shape for nn spans and the encoder shape for
# total_loss_grads, so encoder rows can be told from decoder rows.
DETAILS = {
    "nn.forward": lambda a, out: (_rows(a[1]), _sizes(a[0])),
    "nn.backward": lambda a, out: (_rows(a[2]), _sizes(a[0])),
    "model.total_loss_grads": lambda a, out: (_rows(a[2]), _sizes(a[0].encoder)),
    "synth.simulate": lambda a, out: (out.n_rows, None),
    "preprocess.load_csv": lambda a, out: (out.n_rows, None),
}


class SpanRecorder:
    """Spans as parallel arrays: name id, parent span, run id, start, end,
    rows of work and a key id. Run 0 is set-up; run k >= 1 is round k."""

    def __init__(self):
        self.names: list[str] = []
        self._key_ids: dict[tuple, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.key = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("d")
        self.stack: list[int] = []
        self.run_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] | None = None

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def key_id(self, key) -> int:
        if key is None:
            return -1
        return self._key_ids.setdefault(key, len(self._key_ids))

    @property
    def keys(self) -> list[tuple]:
        return list(self._key_ids)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark code, parent of the spans inside it."""
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.run.append(self.run_id)
        self.key.append(-1)
        self.rows.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        try:
            yield
        finally:
            self.end[i] = perf_counter()
            self.stack.pop()

    def _wrap(self, name: str, fn):
        # The body of span(), inlined: this runs on every traced call.
        name_id, detail, rec = self.name_id(name), DETAILS.get(name), self
        stack, names, parents, runs = self.stack, self.name, self.parent, self.run
        keys, rows, start, end = self.key, self.rows, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            runs.append(rec.run_id)
            keys.append(-1)
            rows.append(0.0)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if detail is not None:
                n, key = detail(args, out)
                rows[i] = n
                keys[i] = rec.key_id(key)
            return out

        return wrapper

    def _build_wrappers(self) -> dict[int, object]:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"tdcae.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        return wrappers

    def install(self) -> None:
        """Replace every reference a tdcae module holds to a layer function."""
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tdcae" and not mod_name.startswith("tdcae."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "run": np.frombuffer(self.run, dtype=np.int32),
            "key": np.frombuffer(self.key, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "rows": np.frombuffer(self.rows, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _macs(sizes: tuple) -> int:
    """Multiply-adds per row of a dense stack with these layer sizes."""
    return sum(a * b for a, b in zip(sizes, sizes[1:]))


def summarize(rec: SpanRecorder, n_setups: int, n_rounds: int) -> dict[str, dict]:
    """Per-layer figures for one round: set-up spans divided by the number of
    set-ups plus round spans divided by the number of traced rounds.

    Self time is a span's duration minus the duration of its child spans.
    """
    a = rec.arrays()
    n = len(a["start"])
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    setup = a["run"] == 0

    def per_round(mask, weights=None) -> float:
        def total(m):
            if weights is None:
                return float(np.count_nonzero(m))
            return float(weights[m].sum())
        return total(mask & setup) / n_setups + total(mask & ~setup) / n_rounds

    by_name = {}
    for i, name in enumerate(rec.names):
        m = a["name"] == i
        by_name[name] = {
            "calls": per_round(m),
            "self_s": per_round(m, self_t),
            "s": per_round(m, dur),
            "rows": per_round(m, a["rows"]),
        }
        by_name[name]["rows_per_s"] = by_name[name]["rows"] / max(by_name[name]["s"], 1e-12)

    # Count-based figures of the training step, over every total_loss_grads
    # span: forward calls and rows per batch, encoder rows per triple and
    # matmul FLOPs per triple, computed from the layer sizes.
    ids = {name: i for i, name in enumerate(rec.names)}
    tlg = a["name"] == ids.get("model.total_loss_grads", -1)
    fwd = a["name"] == ids.get("nn.forward", -1)
    bwd = a["name"] == ids.get("nn.backward", -1)
    under_tlg = has_parent & tlg[np.maximum(a["parent"], 0)]
    # Key -1 (no shape) indexes the trailing 0.
    macs = np.array([_macs(k) for k in rec.keys] + [0])
    flops = a["rows"] * macs[a["key"]] * np.where(fwd, 2, np.where(bwd, 4, 0))
    batches = int(tlg.sum())
    triples = float(a["rows"][tlg].sum())
    # A forward pass under total_loss_grads is an encoder pass when its
    # network shape is the encoder shape recorded on the parent span.
    enc_key = a["key"][np.maximum(a["parent"], 0)]
    enc_rows = float(a["rows"][fwd & under_tlg & (a["key"] == enc_key)].sum())
    fb = fwd | bwd
    by_name["nn"] = {
        "forward_calls_per_batch": float((fwd & under_tlg).sum()) / max(batches, 1),
        "forward_rows_per_batch": float(a["rows"][fwd & under_tlg].sum()) / max(batches, 1),
        "encoder_rows_per_triple": enc_rows / max(triples, 1.0),
        "flop_per_triple": float(flops[under_tlg].sum()) / max(triples, 1.0),
        "computed_gflop_per_s": float(flops[fb].sum()) / max(float(self_t[fb].sum()), 1e-12) / 1e9,
    }
    return by_name
