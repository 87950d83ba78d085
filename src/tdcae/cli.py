"""Command-line pipeline: synth, train, detect, evaluate, report.

Every command returns the settings it resolved, and `main` writes them,
with the command's name, to config.json in the output directory. No
command mutates its inputs, and each is reproducible from config plus
seed. Exit codes: 0 success, 1 user error, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from . import model as model_mod
from . import preprocess as pre
from . import synth as synth_mod
from .detect import (
    DetectionConfig,
    _latent,
    detect as run_detection,
    fit_threshold,
    load_detection_flags,
    reconstruction_error,
    save_detection_csv,
    smooth,
    threshold_from_scores,
)
from .errors import ConfigError, NumericError, TdcaeError
from .model import _at, _settings, read_json
from .svgplot import _render, line_plot

TRAIN_SCORES_HEADER = ("timestamp", "raw")


class _Parser(argparse.ArgumentParser):
    # Usage problems are user errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _scaled_csv(path, scaler) -> pre.DatasetFrame:
    """A CSV's frame, restricted to the scaler's columns and scaled."""
    return pre.apply_scaler(scaler, pre.load_csv(path).select(scaler.feature_names))


def _label_shading(labels) -> list[tuple[int, int]]:
    if labels is None:
        return []
    return [
        (iv.start, iv.end) for iv in metrics_mod.intervals_from_labels(labels)
    ]


# ----------------------------------------------------------------- synth


def _attacks_from_doc(doc) -> list[synth_mod.AttackScenario]:
    """Attack scenarios from a JSON list, checked entry by entry."""
    if not isinstance(doc, list):
        raise ConfigError(f"attacks: expected a list, got {doc!r:.40}")
    defaults = {"kind": "", "target": 0, "start": 0, "end": 0, "magnitude": 0.0}
    out = []
    for k, entry in enumerate(doc):
        where = f"attacks[{k}]."
        fields = _settings(entry, defaults, where, required=("kind", "target", "start", "end"))
        with _at(where):
            interval = metrics_mod.AttackInterval(fields["start"], fields["end"])
            out.append(synth_mod.AttackScenario(fields["kind"], fields["target"], interval,
                                                fields["magnitude"]))
    return out


def _attacks_to_doc(attacks) -> list[dict]:
    return [
        {
            "kind": a.kind.value,
            "target": a.target,
            "start": a.interval.start,
            "end": a.interval.end,
            "magnitude": a.magnitude,
        }
        for a in attacks
    ]


def _in_file(path):
    """_at for the settings read from the file at `path`, if one was given:
    its errors start with the path, as load_model's and the CSV readers' do."""
    return _at(f"{path}: " if path else "")


def cmd_synth(args) -> dict:
    doc = read_json(args.config) if args.config else {}
    # The file's values are checked even where a flag overrides them.
    with _in_file(args.config):
        doc = _settings(doc, {"tanks": vars(synth_mod.TankSystemConfig()), "attacks": []}, "")
        with _at("tanks."):
            config = synth_mod.TankSystemConfig(**doc["tanks"])
    flags = {"horizon": args.horizon, "seed": args.seed}
    config = replace(config, **{k: v for k, v in flags.items() if v is not None})
    with _in_file(args.config):
        attacks = _attacks_from_doc(doc["attacks"])

    if args.attacks == "none":
        attacks = []
    elif args.attacks == "default":
        attacks = synth_mod.default_attacks(config.horizon)
    elif args.attacks != "config":
        listed = read_json(args.attacks)
        with _in_file(args.attacks):
            attacks = _attacks_from_doc(listed)

    frame = synth_mod.simulate(config, attacks)
    out = _out_dir(args.out)
    pre.save_csv(frame, out / "data.csv")
    attacks_doc = _attacks_to_doc(attacks)
    (out / "attacks.json").write_text(
        json.dumps(attacks_doc, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {out / 'data.csv'} ({frame.n_rows} rows, {frame.n_features} features)")
    return {
        "tanks": vars(config),
        "attacks": attacks_doc,
    }


# ----------------------------------------------------------------- train


def _resolve_training_config(args, n_features: int) -> model_mod.TrainingConfig:
    if args.edge is not None:
        config = model_mod.edge_training_config(args.edge)
    else:
        config = model_mod.TrainingConfig(hidden_size=n_features)
    doc = read_json(args.config) if args.config else {}
    # The file's values are checked even where a flag overrides them.
    with _in_file(args.config):
        fields = _settings(doc, config.to_dict(), "")
        fields = model_mod.TrainingConfig.from_dict(fields).to_dict()
    fields.update({k: getattr(args, k) for k in fields if getattr(args, k) is not None})
    return model_mod.TrainingConfig.from_dict(fields)


def cmd_train(args) -> dict:
    frame = pre.load_csv(args.data)
    if args.edge is not None:
        frame = frame.select(pre.EDGE_FEATURES[args.edge])
    config = _resolve_training_config(args, frame.n_features)

    scaler = pre.fit_scaler(frame)
    scaled = pre.apply_scaler(scaler, frame)
    del frame  # train and score over one frame, not two
    trained, history = model_mod.train(config, scaled)
    scores = reconstruction_error(trained, scaled)

    out = _out_dir(args.out)
    model_mod.save_model(out / "model.json", trained, scaler, config)
    rows = [(k, e.rec_loss, e.tdc_loss, e.total) for k, e in enumerate(history, start=1)]
    pre.write_table(out / "loss_history.csv", ["epoch", "rec_loss", "tdc_loss", "total"], zip(*rows))
    pre.write_table(out / "train_scores.csv", TRAIN_SCORES_HEADER, [scaled.stamps, scores])
    print(
        f"trained {config.epochs} epochs on {scaled.n_rows} rows; "
        f"final rec={history[-1].rec_loss:.6f} tdc={history[-1].tdc_loss:.6f}"
    )
    return {
        "data": str(args.data),
        "edge": args.edge,
        "training": config.to_dict(),
    }


# ---------------------------------------------------------------- detect


def _load_train_scores(path) -> np.ndarray:
    """The raw column of a train_scores.csv; the timestamp column is text."""
    return pre.read_numeric_table(path, lambda header: ([1], 0), TRAIN_SCORES_HEADER)[1][:, 1]


def cmd_detect(args) -> dict:
    trained, scaler, _ = model_mod.load_model(args.model)
    config = DetectionConfig(window=args.window, percentile=args.percentile)
    scored_frame = _scaled_csv(args.data, scaler)

    if args.threshold is not None:
        threshold = float(args.threshold)
    elif args.train_scores is not None:
        threshold = threshold_from_scores(
            _load_train_scores(args.train_scores), config
        )
    else:
        threshold = fit_threshold(trained, _scaled_csv(args.train_data, scaler), config)

    result = run_detection(trained, scored_frame, threshold, config)
    plot = Path(args.out) / "detection.svg"
    # The plot is drawn before anything is created: it refuses scores it
    # cannot place.
    svg = _render(
        plot,
        [("smoothed error", result.smoothed_scores)],
        title=f"reconstruction error (window {config.window})",
        threshold=result.threshold,
        shaded=_label_shading(scored_frame.labels),
        y_label="mse",
    )
    out = _out_dir(args.out)
    plot.write_text(svg, encoding="utf-8")
    save_detection_csv(result, scored_frame, out / "detection.csv")
    print(
        f"flagged {int(result.flags.sum())} of {len(result.flags)} timesteps "
        f"(threshold {threshold:.6g})"
    )
    return {
        "model": str(args.model),
        "data": str(args.data),
        "window": config.window,
        "percentile": config.percentile,
        "threshold": threshold,
    }


# -------------------------------------------------------------- evaluate


def cmd_evaluate(args) -> dict:
    flag_arrays = [load_detection_flags(p) for p in args.detections]
    labels_frame = pre.load_csv(args.labels)
    if labels_frame.labels is None:
        raise ConfigError(f"{args.labels}: no {pre.LABEL_COLUMN} column")
    fused = metrics_mod.fuse_edges(flag_arrays)
    if len(fused) != labels_frame.n_rows:
        raise ConfigError(
            f"detections cover {len(fused)} timesteps but labels cover "
            f"{labels_frame.n_rows}"
        )
    report = metrics_mod.evaluate_flags(fused, labels_frame.labels)

    out = _out_dir(args.out)
    (out / "metrics.json").write_text(metrics_mod.report_to_json(report) + "\n", encoding="utf-8")
    table = metrics_mod.format_table({"system": report})
    (out / "metrics.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    return {
        "detections": [str(p) for p in args.detections],
        "labels": str(args.labels),
    }


# ---------------------------------------------------------------- report


def cmd_report(args) -> dict:
    window = DetectionConfig(window=args.window).window
    trained, scaler, config = model_mod.load_model(args.model)
    scaled = _scaled_csv(args.data, scaler)
    rows = min(args.plot_rows, scaled.n_rows)
    if rows < 3:  # a central difference spans three rows
        raise ConfigError(f"need >= 3 rows to plot, got --plot-rows {args.plot_rows} "
                          f"on {scaled.n_rows} data rows")

    # The latent and each feature's spread (for the overlay below), with
    # overflow left to the checks: a spread that overflows cannot be
    # overlaid, so it is named before anything is written.
    with np.errstate(over="ignore", invalid="ignore"):
        latent = _latent(trained, scaled)
        feat_std = [np.std(scaled.values[:, f]) for f in range(scaled.n_features)]
    for name, std in zip(scaled.feature_names, feat_std):
        if not np.isfinite(std):
            raise NumericError(f"{args.data}: feature {name}: standard deviation overflows")

    p = trained.partition
    z, zdot = latent[:, p.z_slice], latent[:, p.zdot_slice]
    names = (
        [f"z{i + 1}" for i in range(p.n_pairs)]
        + [f"zdot{i + 1}" for i in range(p.n_pairs)]
        + [f"s{i + 1}" for i in range(p.n_stat)]
    )
    out = _out_dir(args.out)
    pre.write_table(out / "latent_trace.csv", ["timestamp"] + names, [scaled.stamps, *latent.T])

    shading = _label_shading(None if scaled.labels is None else scaled.labels[:rows])

    # Derivative nodes against the central difference of their static
    # partner, both smoothed to tame the noise in the numerical derivative.
    pair_series = []
    for i in range(p.n_pairs):
        cd = model_mod.central_difference(z[: rows - 2, i], z[2:rows, i], config.delta_t)
        cd_s = smooth(cd, window)
        node_s = smooth(zdot[1 : rows - 1, i], window)
        pair_series.append((f"central diff z{i + 1}", cd_s))
        pair_series.append((f"zdot{i + 1}", node_s))
    if pair_series:
        line_plot(
            out / "latent_pairs.svg",
            pair_series,
            title=f"derivative nodes vs central differences (window {window})",
            shaded=shading,
        )

    # For every latent node, overlay its most correlated input feature,
    # rescaled and offset onto the node's range.
    overlay_series = []
    for j, name in enumerate(names):
        node = latent[:, j]
        node_std = np.std(node)
        best, best_corr = None, 0.0
        for f in range(scaled.n_features):
            if feat_std[f] == 0 or node_std == 0:
                continue
            corr = float(np.corrcoef(node, scaled.values[:, f])[0, 1])
            if abs(corr) > abs(best_corr):
                best, best_corr = f, corr
        overlay_series.append((name, node[:rows]))
        if best is not None:
            feat = scaled.values[:, best]
            rescaled = (feat - feat.mean()) * (
                node_std / feat_std[best]
            ) * np.sign(best_corr) + node.mean()
            overlay_series.append(
                (f"{scaled.feature_names[best]} -> {name} (r={best_corr:.2f})",
                 rescaled[:rows])
            )
    line_plot(
        out / "latent_overlay.svg",
        overlay_series,
        title="latent nodes with their most correlated features (rescaled)",
        shaded=shading,
    )
    print(f"wrote latent trace with {len(names)} nodes over {scaled.n_rows} timesteps")
    return {
        "model": str(args.model),
        "data": str(args.data),
        "window": window,
        "plot_rows": rows,
    }


# ------------------------------------------------------------------ main


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tdcae", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON file with tank system settings and attacks")
    p.add_argument("--seed", type=int, help="override the simulator seed")
    p.add_argument("--horizon", type=int, help="override the horizon (hours)")
    p.add_argument(
        "--attacks",
        default="config",
        help="'none', 'default', 'config' (use the config file) or a JSON path",
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit an autoencoder on attack-free data")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--edge", type=int, choices=tuple(pre.EDGE_FEATURES), help="edge-area subset")
    p.add_argument("--config", help="JSON file with training settings")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--alpha", type=float, help="consistency-loss weight")
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--hidden", dest="hidden_size", type=int)
    p.add_argument("--pairs", dest="n_pairs", type=int, help="static/derivative latent pairs")
    p.add_argument("--stat", dest="n_stat", type=int, help="statistical latent nodes")
    p.add_argument("--delta-t", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="score data and flag anomalies")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=DetectionConfig.window)
    p.add_argument("--percentile", type=float, default=DetectionConfig.percentile)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--threshold", type=float, help="explicit threshold")
    source.add_argument("--train-scores", help="train_scores.csv from the train command")
    source.add_argument("--train-data", help="attack-free CSV to fit the threshold on")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="challenge metrics from detections")
    p.add_argument("--detections", nargs="+", required=True, help="detection CSVs, OR-fused")
    p.add_argument("--labels", required=True, help="CSV with the label column")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="latent-space traces and overlays")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=DetectionConfig.window,
                   help="plot smoothing window")
    p.add_argument("--plot-rows", type=int, default=500)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = args.func(args)
        (Path(args.out) / "config.json").write_text(
            json.dumps({"command": args.command, **settings}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return 0
    except (TdcaeError, OSError, MemoryError) as exc:
        # Besides the package's own errors: a path the system refuses, or a
        # size too large to allocate; numpy's MemoryError names the size
        # and the shape.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
