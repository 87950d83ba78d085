"""The three benchmark workloads. Each is a closed loop with one caller.

A workload prepares its inputs in `setup` (untimed by the round loop, timed
as set-up), then runs rounds: `round(k)` does one unit of timed work, checks
its outputs and returns the latencies of the operations it timed. Inputs are
derived from the workload seed only; the library receives generated frames
or files, never the seed itself.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import tdcae
import tdcae.cli

HORIZON = 4000
EPOCHS = 40
SEEDS_PER_FIT = 3


def pipeline_seeds(seed: int) -> list[int]:
    """Seed 0 gives 101, 102, 103: the criterion-5 seeds."""
    return [101 + SEEDS_PER_FIT * seed + k for k in range(SEEDS_PER_FIT)]


def frames(seed: int, horizon: int = HORIZON):
    """Attack-free training frame and attacked test frame, as criterion 5."""
    train = tdcae.simulate(tdcae.TankSystemConfig(horizon=horizon, seed=seed))
    test = tdcae.simulate(
        tdcae.TankSystemConfig(horizon=horizon, seed=seed + 1000),
        tdcae.default_attacks(horizon),
    )
    return train, test


def training_config(seed: int, n_features: int, epochs: int = EPOCHS):
    return tdcae.TrainingConfig(
        learning_rate=0.01, batch_size=32, alpha=0.002, epochs=epochs, seed=seed,
        hidden_size=n_features, partition=tdcae.LatentPartition(3, 1),
    )


def tdc_ratio(tdc_losses) -> float:
    """Last-epoch over first-epoch consistency loss (criterion 6)."""
    return float(tdc_losses[-1] / tdc_losses[0])


def _report_key(report) -> tuple:
    c = report.counts
    return (report.s, report.s_ttd, report.s_clf, c.tp, c.fp, c.tn, c.fn)


class Workload:
    min_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


class Fit(Workload):
    """fit_scaler -> apply_scaler -> train -> fit_threshold -> detect ->
    evaluate_flags on the criterion-5 configuration, one seed per round."""

    min_rounds = SEEDS_PER_FIT

    def setup(self) -> None:
        self.seeds = pipeline_seeds(self.seed)
        self.inputs = [frames(s) for s in self.seeds]
        # Warm-up: one epoch through the whole pipeline.
        self._pipeline(self.seeds[0], *self.inputs[0], epochs=1)
        self.reports: dict[int, tuple] = {}
        self.ratios: dict[int, float] = {}
        self.train_s: list[float] = []

    def _pipeline(self, seed, train_frame, test_frame, epochs=EPOCHS):
        started = perf_counter()
        scaler = tdcae.fit_scaler(train_frame)
        scaled_train = tdcae.apply_scaler(scaler, train_frame)
        scaled_test = tdcae.apply_scaler(scaler, test_frame)
        config = training_config(seed, train_frame.n_features, epochs)
        train_started = perf_counter()
        model, history = tdcae.train(config, scaled_train)
        train_s = perf_counter() - train_started
        dcfg = tdcae.DetectionConfig(window=7, percentile=95.0)
        threshold = tdcae.fit_threshold(model, scaled_train, dcfg)
        result = tdcae.detect(model, scaled_test, threshold, dcfg)
        report = tdcae.evaluate_flags(result.flags, test_frame.labels)
        return report, history, perf_counter() - started, train_s

    def round(self, k: int) -> list[float]:
        i = k % SEEDS_PER_FIT
        seed = self.seeds[i]
        self.attempted += 1
        try:
            report, history, elapsed, train_s = self._pipeline(seed, *self.inputs[i])
        except Exception:
            self.fail(1, f"seed {seed}: {traceback.format_exc(limit=3)}")
            return []
        losses = [(h.rec_loss, h.tdc_loss, h.total) for h in history]
        if not np.all(np.isfinite(losses)):
            self.fail(1, f"seed {seed}: non-finite loss")
        elif self.reports.setdefault(seed, _report_key(report)) != _report_key(report):
            self.fail(1, f"seed {seed}: report differs from the first run")
        self.ratios[seed] = tdc_ratio([h.tdc_loss for h in history])
        self.train_s.append(train_s)
        return [elapsed]

    def finish(self, latencies) -> tuple[dict, dict]:
        reports = list(self.reports.values())
        s, s_ttd, s_clf = (float(np.mean([r[j] for r in reports])) for j in range(3))
        # Criterion-5 floors, on the mean over the seeds.
        if not (s_clf >= 0.90 and s_ttd >= 0.85):
            self.fail(self.attempted - self.failed,
                      f"mean S_CLF {s_clf:.4f} < 0.90 or mean S_TTD {s_ttd:.4f} < 0.85")
        triples = self.inputs[0][0].n_rows - 2
        quality = {"s": s, "s_ttd": s_ttd, "s_clf": s_clf}
        extras = {
            "fit_s": (float(np.median(latencies)), "s"),
            "train_triples_per_s": (triples * EPOCHS / float(np.median(self.train_s)),
                                    "triples/s"),
            "tdc_ratio": (float(np.mean(list(self.ratios.values()))), "ratio"),
        }
        return quality, extras


class Stream(Workload):
    """Online scoring: one detect call per hour on the trailing window."""

    def setup(self) -> None:
        seed = pipeline_seeds(self.seed)[0]
        train_frame, self.test = frames(seed)
        self.scaler = tdcae.fit_scaler(train_frame)
        scaled_train = tdcae.apply_scaler(self.scaler, train_frame)
        self.model, history = tdcae.train(
            training_config(seed, train_frame.n_features), scaled_train
        )
        self.ratio = tdc_ratio([h.tdc_loss for h in history])
        self.dcfg = tdcae.DetectionConfig(window=7, percentile=95.0)
        self.threshold = tdcae.fit_threshold(self.model, scaled_train, self.dcfg)
        self.reference = tdcae.detect(
            self.model, tdcae.apply_scaler(self.scaler, self.test), self.threshold,
            self.dcfg,
        )
        self._pass(range(100))  # warm-up
        self.report = None

    def _pass(self, hours):
        names, values = self.test.feature_names, self.test.values
        stamps, window = self.test.timestamps, self.dcfg.window
        n = self.test.n_rows
        flags = np.zeros(n, dtype=bool)
        smoothed = np.full(n, np.nan)
        latencies = []
        for t in hours:
            lo = max(0, t - window + 1)
            started = perf_counter()
            try:
                frame = tdcae.DatasetFrame(names, values[lo : t + 1],
                                           timestamps=stamps[lo : t + 1])
                result = tdcae.detect(self.model, tdcae.apply_scaler(self.scaler, frame),
                                      self.threshold, self.dcfg)
                flags[t] = result.flags[-1]
                smoothed[t] = result.smoothed_scores[-1]
            except Exception:
                # Counted by round(): the hour's NaN score fails the comparison.
                self.fail(0, f"hour {t}: {traceback.format_exc(limit=3)}")
                continue
            latencies.append(perf_counter() - started)
        return flags, smoothed, latencies

    def round(self, k: int) -> list[float]:
        n = self.test.n_rows
        flags, smoothed, latencies = self._pass(range(n))
        self.attempted += n
        ref = self.reference
        wrong = (flags != ref.flags) | ~np.isclose(
            smoothed, ref.smoothed_scores, rtol=1e-9, atol=0.0
        )
        if wrong.any():
            self.fail(int(wrong.sum()),
                      f"round {k}: {int(wrong.sum())} hours differ from batch detect")
        self.report = tdcae.evaluate_flags(flags, self.test.labels)
        return latencies

    def finish(self, latencies) -> tuple[dict, dict]:
        r = self.report
        return {"s": r.s, "s_ttd": r.s_ttd, "s_clf": r.s_clf}, {
            "score_hours_per_s": (len(latencies) / sum(latencies), "hours/s"),
            "score_latency_p50_us": (1e6 * float(np.quantile(latencies, 0.5)), "us"),
            "score_latency_p99_us": (1e6 * float(np.quantile(latencies, 0.99)), "us"),
            "tdc_ratio": (self.ratio, "ratio"),
        }


# Artifacts that two chains with one seed must reproduce byte for byte, by
# the command that writes them (criterion 8 plus the evaluate outputs).
PRIMARY = {
    "synth": ("train/data.csv", "test/data.csv"),
    "train": ("model/model.json",),
    "detect": ("det/detection.csv",),
    "evaluate": ("eval/metrics.json", "eval/metrics.txt"),
}


class Cli(Workload):
    """The file pipeline through tdcae.cli.main, in process."""

    min_rounds = 2

    def chain(self, out: Path, seed: int, horizon: int, epochs: int) -> list[int]:
        o = str(out)
        commands = [
            ["synth", "--out", f"{o}/train", "--horizon", str(horizon),
             "--seed", str(seed), "--attacks", "none"],
            ["synth", "--out", f"{o}/test", "--horizon", str(horizon),
             "--seed", str(seed + 1000), "--attacks", "default"],
            ["train", "--data", f"{o}/train/data.csv", "--out", f"{o}/model",
             "--epochs", str(epochs), "--seed", str(seed)],
            ["detect", "--model", f"{o}/model/model.json", "--data",
             f"{o}/test/data.csv", "--train-scores", f"{o}/model/train_scores.csv",
             "--out", f"{o}/det"],
            ["evaluate", "--detections", f"{o}/det/detection.csv", "--labels",
             f"{o}/test/data.csv", "--out", f"{o}/eval"],
            ["report", "--model", f"{o}/model/model.json", "--data",
             f"{o}/test/data.csv", "--out", f"{o}/report"],
        ]
        codes = []
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(tdcae.cli.main(argv))
        return codes

    def setup(self) -> None:
        self.run_seed = pipeline_seeds(self.seed)[0]
        warm = self.workdir / "warm-up"
        codes = self.chain(warm, self.run_seed, horizon=2000, epochs=1)
        shutil.rmtree(warm)
        if any(codes):
            raise RuntimeError(f"warm-up chain exited with {codes}")
        self.digests = None

    def round(self, k: int) -> list[float]:
        out = self.workdir / f"round-{k}"
        started = perf_counter()
        codes = self.chain(out, self.run_seed, horizon=20000, epochs=2)
        elapsed = perf_counter() - started
        self.attempted += len(codes)
        bad = sum(1 for c in codes if c != 0)
        if bad:
            self.fail(bad, f"round {k}: exit codes {codes}")
        else:
            digests = {
                cmd: [hashlib.sha256((out / p).read_bytes()).hexdigest() for p in paths]
                for cmd, paths in PRIMARY.items()
            }
            if self.digests is None:
                self.digests = digests
            differ = [cmd for cmd in PRIMARY if digests[cmd] != self.digests[cmd]]
            if differ:
                self.fail(len(differ), f"round {k}: outputs of {differ} are not byte-identical")
            self.quality = json.loads((out / "eval" / "metrics.json").read_text())
            with (out / "model" / "loss_history.csv").open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            self.ratio = tdc_ratio([float(r["tdc_loss"]) for r in rows])
        shutil.rmtree(out)
        return [elapsed] if not bad else []

    def finish(self, latencies) -> tuple[dict, dict]:
        q = self.quality
        return {"s": q["s"], "s_ttd": q["s_ttd"], "s_clf": q["s_clf"]}, {
            "cli_pipeline_s": (float(np.median(latencies)), "s"),
            "tdc_ratio": (self.ratio, "ratio"),
        }


WORKLOADS = {"fit": Fit, "stream": Stream, "cli": Cli}
