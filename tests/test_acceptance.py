"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line that survives pytest's output capture."""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

import tdcae
from conftest import batadal_paths
from oracles import fd_gradient_mlp, rel_error
from tdcae.cli import main as cli_main
from tdcae.detect import DetectionConfig, detect, fit_threshold
from tdcae.metrics import ConfusionCounts, clf_scores, evaluate_flags, fuse_edges, ranking_score
from tdcae.model import (
    build_model,
    central_difference,
    edge_training_config,
    total_loss,
    total_loss_grads,
    train,
    TrainingConfig,
)
from tdcae.preprocess import EDGE_FEATURES, apply_scaler, fit_scaler, load_csv
from tdcae.synth import TankSystemConfig, default_attacks, simulate


def announce(criterion: int, ok: bool, detail: str) -> None:
    line = f"[acceptance] {'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_1_metric_oracle():
    started = time.perf_counter()
    scores = clf_scores(ConfusionCounts(tp=388, fp=5, tn=1677, fn=19))
    s = ranking_score(0.9650, scores.s_clf)
    elapsed = time.perf_counter() - started
    checks = {
        "TPR": (scores.tpr, 0.9533),
        "TNR": (scores.tnr, 0.9970),
        "PPV": (scores.ppv, 0.9873),
        "F1": (scores.f1, 0.9700),
        "S_CLF": (scores.s_clf, 0.9752),
        "S": (s, 0.9701),
    }
    ok = all(abs(got - want) <= 5e-5 for got, want in checks.values())
    ok = ok and elapsed < 1.0
    detail = (
        ", ".join(f"{k}={got:.5f}" for k, (got, _) in checks.items())
        + f" (all within 5e-5, {elapsed:.3f}s)"
    )
    announce(1, ok, detail)


def test_criterion_2_score_arithmetic():
    s = ranking_score(0.9974, 0.9555)
    ok = abs(s - 0.9765) <= 5e-5
    announce(2, ok, f"ranking score {s:.5f} vs 0.9765 (within 5e-5)")


def test_criterion_3_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    config = edge_training_config(1, seed=7)
    model = build_model(9, config)
    x_prev = rng.normal(size=(3, 9))
    x_t = rng.normal(size=(3, 9))
    x_next = rng.normal(size=(3, 9))
    alpha, delta_t = config.alpha, 1.0

    _, enc_grads, dec_grads = total_loss_grads(model, x_prev, x_t, x_next, alpha, delta_t)

    def loss():
        return total_loss(model, x_prev, x_t, x_next, alpha, delta_t).total

    worst = 0.0
    for mlp, grads in ((model.encoder, enc_grads), (model.decoder, dec_grads)):
        fd_w, fd_b = fd_gradient_mlp(loss, mlp)
        for got, want in zip(grads.weight_grads + grads.bias_grads, fd_w + fd_b):
            worst = max(worst, rel_error(got, want))
    elapsed = time.perf_counter() - started
    n_params = model.encoder.params.size + model.decoder.params.size
    ok = worst < 1e-5 and elapsed < 10.0
    announce(
        3,
        ok,
        f"max relative gradient error {worst:.2e} over {n_params} parameters "
        f"({elapsed:.2f}s)",
    )


def test_criterion_4_central_difference_exactness():
    # quadratic trajectories are differentiated exactly
    t = np.array([[1.0], [2.0], [3.0]]) ** 2
    quad_err = abs(central_difference(t[0:1], t[2:3], 1.0)[0, 0] - 4.0)

    # sine error falls at least 3.5x when the step is halved
    t0 = 0.9
    errors = []
    for dt in (0.2, 0.1):
        est = central_difference(
            np.array([[np.sin(t0 - dt)]]), np.array([[np.sin(t0 + dt)]]), dt
        )[0, 0]
        errors.append(abs(est - np.cos(t0)))
    reduction = errors[0] / errors[1]
    ok = quad_err < 1e-12 and reduction >= 3.5
    announce(
        4,
        ok,
        f"quadratic error {quad_err:.1e}, sine error reduction x{reduction:.2f} "
        f"on step halving",
    )


def run_synthetic_detection(seed: int):
    train_frame = simulate(TankSystemConfig(horizon=4000, seed=seed))
    test_frame = simulate(
        TankSystemConfig(horizon=4000, seed=seed + 1000), default_attacks(4000)
    )
    scaler = fit_scaler(train_frame)
    scaled_train = apply_scaler(scaler, train_frame)
    scaled_test = apply_scaler(scaler, test_frame)
    config = TrainingConfig(
        learning_rate=0.01,
        batch_size=32,
        alpha=0.002,
        epochs=40,
        seed=seed,
        hidden_size=train_frame.n_features,
        partition=tdcae.LatentPartition(3, 1),
    )
    model, history = train(config, scaled_train)
    detection_config = DetectionConfig(window=7, percentile=95.0)
    threshold = fit_threshold(model, scaled_train, detection_config)
    result = detect(model, scaled_test, threshold, detection_config)
    report = evaluate_flags(result.flags, test_frame.labels)
    return report, history


def test_criterion_5_end_to_end_synthetic_detection():
    started = time.perf_counter()
    reports = [run_synthetic_detection(seed)[0] for seed in (101, 102, 103)]
    mean_clf = float(np.mean([r.s_clf for r in reports]))
    mean_ttd = float(np.mean([r.s_ttd for r in reports]))
    elapsed = time.perf_counter() - started
    ok = mean_clf >= 0.90 and mean_ttd >= 0.85 and elapsed < 300.0
    announce(
        5,
        ok,
        f"mean S_CLF={mean_clf:.4f} (>=0.90), mean S_TTD={mean_ttd:.4f} (>=0.85) "
        f"over 3 seeds, 4000 steps, 4 attacks ({elapsed:.1f}s)",
    )


def test_criterion_6_tdc_convergence():
    ratios = []
    for seed in (1, 2, 3, 4, 5):
        frame = simulate(TankSystemConfig(horizon=4000, seed=seed))
        scaled = apply_scaler(fit_scaler(frame), frame)
        config = TrainingConfig(
            epochs=40, seed=seed, hidden_size=frame.n_features,
            partition=tdcae.LatentPartition(3, 1),
        )
        _, history = train(config, scaled)
        ratios.append(history[-1].tdc_loss / history[0].tdc_loss)
    ok = all(r < 0.2 for r in ratios)
    announce(
        6,
        ok,
        "epoch-40/epoch-1 consistency-loss ratios "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + " (all < 0.2)",
    )


def test_criterion_7_batadal_reproduction():
    paths = batadal_paths()
    if paths is None:
        print(
            "[acceptance] SKIP criterion 7: BATADAL CSVs not present "
            "(set BATADAL_DIR or place them under ./data)",
            file=sys.__stdout__,
            flush=True,
        )
        pytest.skip("BATADAL dataset not available")
    train_csv, test_csv = paths
    train_frame = load_csv(train_csv)
    test_frame = load_csv(test_csv)
    assert test_frame.labels is not None, "test CSV must carry the label column"

    per_edge_flags = []
    for edge_id, names in EDGE_FEATURES.items():
        edge_train, edge_test = train_frame.select(names), test_frame.select(names)
        scaler = fit_scaler(edge_train)
        scaled_train = apply_scaler(scaler, edge_train)
        scaled_test = apply_scaler(scaler, edge_test)
        config = edge_training_config(edge_id, seed=0)
        model, _ = train(config, scaled_train)
        detection_config = DetectionConfig(window=7, percentile=95.0)
        threshold = fit_threshold(model, scaled_train, detection_config)
        per_edge_flags.append(detect(model, scaled_test, threshold, detection_config).flags)

    fused = fuse_edges(per_edge_flags, rule="or")
    report = evaluate_flags(fused, test_frame.labels)
    ok = report.s_clf >= 0.92 and report.s_ttd >= 0.96
    announce(
        7,
        ok,
        f"BATADAL system-level S_CLF={report.s_clf:.4f} (>=0.92), "
        f"S_TTD={report.s_ttd:.4f} (>=0.96), S={report.s:.4f}",
    )


def _run_cli(*argv) -> int:
    return cli_main([str(a) for a in argv])


def test_criterion_8_determinism_suite(tmp_path):
    primaries = {
        "synth": ["data.csv", "attacks.json"],
        "train": ["model.json", "scaler.json", "loss_history.csv", "train_scores.csv"],
        "detect": ["detection.csv", "detection.svg"],
    }
    outputs: dict[str, list[bytes]] = {k: [] for k in primaries}
    for attempt in ("first", "second"):
        base = tmp_path / attempt
        assert _run_cli("synth", "--out", base / "train", "--horizon", 400,
                        "--seed", 13, "--attacks", "none") == 0
        assert _run_cli("synth", "--out", base / "test", "--horizon", 400,
                        "--seed", 1013, "--attacks", "default") == 0
        assert _run_cli("train", "--data", base / "train" / "data.csv",
                        "--out", base / "model", "--epochs", 4, "--seed", 13) == 0
        assert _run_cli("detect", "--model", base / "model" / "model.json",
                        "--data", base / "test" / "data.csv",
                        "--train-scores", base / "model" / "train_scores.csv",
                        "--out", base / "det") == 0
        for command, names in primaries.items():
            folder = {"synth": "train", "train": "model", "detect": "det"}[command]
            blob = b"".join((base / folder / n).read_bytes() for n in names)
            outputs[command].append(blob)
    mismatched = [k for k, (a, b) in outputs.items() if a != b]
    ok = not mismatched
    announce(
        8,
        ok,
        "synth/train/detect artifacts byte-identical across reruns"
        if ok
        else f"byte mismatch in {mismatched}",
    )
