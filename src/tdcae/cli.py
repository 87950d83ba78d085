"""Command-line pipeline: synth, train, detect, evaluate, report.

Every command writes its fully resolved configuration into the output
directory, never mutates its inputs, and is reproducible from config plus
seed. The TDCAE_SEED environment variable overrides the seed of any
command that takes one (handy for CI). Exit codes: 0 success, 1 user
error, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from . import model as model_mod
from . import preprocess as pre
from . import synth as synth_mod
from .detect import (
    DetectionConfig,
    detect as run_detection,
    fit_threshold,
    load_detection_flags,
    reconstruction_error,
    save_detection_csv,
    smooth,
    threshold_from_scores,
)
from .errors import ConfigError, IngestionError, TdcaeError
from .model import _field, _finite, _number, read_json
from .svgplot import line_plot

SEED_ENV_VAR = "TDCAE_SEED"
TRAIN_SCORES_HEADER = ("timestamp", "raw")


class _Parser(argparse.ArgumentParser):
    # Usage problems are user errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _env_seed(seed: int) -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return seed
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR}={raw!r} is not an integer") from None


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(out: Path, payload: dict) -> None:
    (out / "config.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _load_settings(path) -> dict:
    """The JSON object in a --config file, or {} without one."""
    doc = read_json(path) if path else {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {doc!r:.40}")
    return doc


def _scaled_csv(path, scaler) -> pre.DatasetFrame:
    """A CSV's frame, restricted to the scaler's columns and scaled when
    the model carries a scaler."""
    frame = pre.load_csv(path)
    if scaler is None:
        return frame
    return pre.apply_scaler(scaler, frame.select(scaler.feature_names))


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
    kinds = [k.value for k in synth_mod.AttackKind]
    out = []
    for k, entry in enumerate(doc):
        where = f"attacks[{k}]."
        kind = _field(entry, "kind", str, where)
        if kind not in kinds:
            raise ConfigError(f"{where}kind: expected one of {kinds}")
        target, start, end = (_field(entry, key, int, where) for key in ("target", "start", "end"))
        magnitude = _number(entry, "magnitude", where) if "magnitude" in entry else 0.0
        out.append(
            synth_mod.AttackScenario(
                synth_mod.AttackKind(kind), target, metrics_mod.AttackInterval(start, end),
                float(magnitude),
            )
        )
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


_TANK_INTEGERS = ("n_tanks", "horizon", "seed")
_TANK_VECTORS = ("tank_area", "pump_on_level", "pump_off_level", "tank_height", "initial_levels")


def _tanks_from_doc(doc) -> dict:
    """TankSystemConfig arguments from the "tanks" object of a --config
    file, checked field by field: integers for n_tanks, horizon and seed,
    lists of finite numbers for the per-tank fields (initial_levels may
    be null) and finite numbers for the rest."""
    if not isinstance(doc, dict):
        raise ConfigError(f"tanks: expected a JSON object, got {doc!r:.40}")
    unknown = sorted(set(doc) - set(synth_mod.TankSystemConfig.__dataclass_fields__))
    if unknown:
        raise ConfigError(f"unknown tank settings: {', '.join(unknown)}")
    where = "tanks."
    out = {}
    for key, value in doc.items():
        if key in _TANK_INTEGERS:
            out[key] = _field(doc, key, int, where)
        elif key == "initial_levels" and value is None:
            out[key] = None
        elif key in _TANK_VECTORS:
            out[key] = tuple(
                float(_finite(v, f"{where}{key}[{i}]"))
                for i, v in enumerate(_field(doc, key, list, where))
            )
        else:
            out[key] = _number(doc, key, where)
    return out


def cmd_synth(args) -> int:
    doc = _load_settings(args.config)
    tank_doc = _tanks_from_doc(doc.get("tanks", {}))
    if args.horizon is not None:
        tank_doc["horizon"] = args.horizon
    if args.seed is not None:
        tank_doc["seed"] = args.seed
    tank_doc["seed"] = _env_seed(tank_doc.get("seed", 0))
    config = synth_mod.TankSystemConfig(**tank_doc)

    if args.attacks == "none":
        attacks = []
    elif args.attacks == "default":
        attacks = synth_mod.default_attacks(config.horizon)
    elif args.attacks == "config":
        attacks = _attacks_from_doc(doc.get("attacks", []))
    else:
        attacks = _attacks_from_doc(read_json(args.attacks))

    frame = synth_mod.simulate(config, attacks)
    out = _out_dir(args.out)
    pre.save_csv(frame, out / "data.csv")
    (out / "attacks.json").write_text(
        json.dumps(_attacks_to_doc(attacks), indent=2) + "\n", encoding="utf-8"
    )
    _echo_config(
        out,
        {
            "command": "synth",
            "tanks": {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in vars(config).items()
            },
            "attacks": _attacks_to_doc(attacks),
        },
    )
    print(f"wrote {out / 'data.csv'} ({frame.n_rows} rows, {frame.n_features} features)")
    return 0


# ----------------------------------------------------------------- train


def _resolve_training_config(args, n_features: int) -> model_mod.TrainingConfig:
    if args.edge is not None:
        config = model_mod.edge_training_config(args.edge)
    else:
        config = model_mod.TrainingConfig(hidden_size=n_features)
    doc = _load_settings(args.config)
    base = config.to_dict()
    unknown = sorted(set(doc) - set(base))
    if unknown:
        raise ConfigError(f"unknown training settings: {', '.join(unknown)}")
    base.update(doc)
    # Check the file itself, so that a flag or TDCAE_SEED cannot hide a bad field.
    model_mod.TrainingConfig.from_dict(base)
    overrides = {
        "learning_rate": args.lr,
        "batch_size": args.batch_size,
        "alpha": args.alpha,
        "epochs": args.epochs,
        "seed": args.seed,
        "hidden_size": args.hidden,
        "n_pairs": args.pairs,
        "n_stat": args.stat,
        "delta_t": args.delta_t,
    }
    base.update({k: v for k, v in overrides.items() if v is not None})
    base["seed"] = _env_seed(base["seed"])
    return model_mod.TrainingConfig.from_dict(base)


def cmd_train(args) -> int:
    frame = pre.load_csv(args.data)
    if args.edge is not None:
        frame = frame.select(pre.EDGE_FEATURES[args.edge])
    config = _resolve_training_config(args, frame.n_features)

    scaler = pre.fit_scaler(frame)
    scaled = pre.apply_scaler(scaler, frame)
    trained, history = model_mod.train(config, scaled)

    out = _out_dir(args.out)
    model_mod.save_model(out / "model.json", trained, scaler, config)
    model_mod.save_scaler(scaler, out / "scaler.json")
    rows = [(k, e.rec_loss, e.tdc_loss, e.total) for k, e in enumerate(history, start=1)]
    pre.write_table(out / "loss_history.csv", ["epoch", "rec_loss", "tdc_loss", "total"], zip(*rows))
    scores = reconstruction_error(trained, scaled)
    pre.write_table(out / "train_scores.csv", TRAIN_SCORES_HEADER, [scaled.stamps, scores])
    _echo_config(
        out,
        {
            "command": "train",
            "data": str(args.data),
            "edge": args.edge,
            "training": config.to_dict(),
        },
    )
    print(
        f"trained {config.epochs} epochs on {frame.n_rows} rows; "
        f"final rec={history[-1].rec_loss:.6f} tdc={history[-1].tdc_loss:.6f}"
    )
    return 0


# ---------------------------------------------------------------- detect


def _load_train_scores(path) -> np.ndarray:
    """The raw column of a train_scores.csv: read by numpy's C text reader,
    or by read_table and float() per cell when that reader refuses it."""
    table = pre._read_numbers(Path(path), lambda header: 0)
    if table is not None and table[0][:2] == list(TRAIN_SCORES_HEADER):
        return table[1][:, 1]
    try:
        return np.array(
            [pre._parse_cell(cells[1], row_number, "raw")
             for row_number, cells in pre.read_table(path, TRAIN_SCORES_HEADER)]
        )
    except IngestionError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def cmd_detect(args) -> int:
    trained, scaler, _ = model_mod.load_model(args.model)
    config = DetectionConfig(window=args.window, percentile=args.percentile)
    scored_frame = _scaled_csv(args.data, scaler)

    if args.threshold is not None:
        threshold = float(args.threshold)
    elif args.train_scores is not None:
        threshold = threshold_from_scores(
            _load_train_scores(args.train_scores), config
        )
    elif args.train_data is not None:
        threshold = fit_threshold(trained, _scaled_csv(args.train_data, scaler), config)
    else:
        raise ConfigError(
            "a threshold source is required: --threshold, --train-scores or --train-data"
        )

    result = run_detection(trained, scored_frame, threshold, config)
    out = _out_dir(args.out)
    save_detection_csv(result, scored_frame, out / "detection.csv")
    line_plot(
        out / "detection.svg",
        [("smoothed error", result.smoothed_scores)],
        title=f"reconstruction error (window {config.window})",
        threshold=result.threshold,
        shaded=_label_shading(scored_frame.labels),
        y_label="mse",
    )
    _echo_config(
        out,
        {
            "command": "detect",
            "model": str(args.model),
            "data": str(args.data),
            "window": config.window,
            "percentile": config.percentile,
            "threshold": threshold,
        },
    )
    print(
        f"flagged {int(result.flags.sum())} of {len(result.flags)} timesteps "
        f"(threshold {threshold:.6g})"
    )
    return 0


# -------------------------------------------------------------- evaluate


def cmd_evaluate(args) -> int:
    flag_arrays = [load_detection_flags(p) for p in args.detections]
    labels_frame = pre.load_csv(args.labels)
    if labels_frame.labels is None:
        raise ConfigError(f"{args.labels}: no {pre.LABEL_COLUMN} column")
    fused = metrics_mod.fuse_edges(flag_arrays, rule=args.fuse)
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
    _echo_config(
        out,
        {
            "command": "evaluate",
            "detections": [str(p) for p in args.detections],
            "labels": str(args.labels),
            "fuse": args.fuse,
        },
    )
    print(table)
    return 0


# ---------------------------------------------------------------- report


def cmd_report(args) -> int:
    trained, scaler, _ = model_mod.load_model(args.model)
    scaled = _scaled_csv(args.data, scaler)
    rows = min(args.plot_rows, scaled.n_rows)
    if rows < 3:  # a central difference spans three rows
        raise ConfigError(f"need >= 3 rows to plot, got --plot-rows {args.plot_rows} "
                          f"on {scaled.n_rows} data rows")

    z, zdot, s = model_mod.encode(trained, scaled.values)
    p = trained.partition
    names = (
        [f"z{i + 1}" for i in range(p.n_pairs)]
        + [f"zdot{i + 1}" for i in range(p.n_pairs)]
        + [f"s{i + 1}" for i in range(p.n_stat)]
    )
    latent = np.hstack([z, zdot, s])

    out = _out_dir(args.out)
    pre.write_table(out / "latent_trace.csv", ["timestamp"] + names, [scaled.stamps, *latent.T])

    shading = _label_shading(None if scaled.labels is None else scaled.labels[:rows])

    # Derivative nodes against the central difference of their static
    # partner, both smoothed to tame the noise in the numerical derivative.
    pair_series = []
    for i in range(p.n_pairs):
        cd = model_mod.central_difference(z[:-2, i], z[2:, i], 1.0)
        cd_s = smooth(cd[: rows - 2], args.window)
        node_s = smooth(zdot[1 : rows - 1, i], args.window)
        pair_series.append((f"central diff z{i + 1}", cd_s))
        pair_series.append((f"zdot{i + 1}", node_s))
    if pair_series:
        line_plot(
            out / "latent_pairs.svg",
            pair_series,
            title=f"derivative nodes vs central differences (window {args.window})",
            shaded=shading,
        )

    # For every latent node, overlay its most correlated input feature,
    # rescaled and offset onto the node's range.
    overlay_series = []
    for j, name in enumerate(names):
        node = latent[:, j]
        best, best_corr = None, 0.0
        for f in range(scaled.n_features):
            feat = scaled.values[:, f]
            if np.std(feat) == 0 or np.std(node) == 0:
                continue
            corr = float(np.corrcoef(node, feat)[0, 1])
            if abs(corr) > abs(best_corr):
                best, best_corr = f, corr
        overlay_series.append((name, node[:rows]))
        if best is not None:
            feat = scaled.values[:, best]
            rescaled = (feat - feat.mean()) * (
                np.std(node) / np.std(feat)
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
    _echo_config(
        out,
        {
            "command": "report",
            "model": str(args.model),
            "data": str(args.data),
            "window": args.window,
            "plot_rows": rows,
        },
    )
    print(f"wrote latent trace with {len(names)} nodes over {scaled.n_rows} timesteps")
    return 0


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
    p.add_argument("--edge", type=int, choices=(1, 2, 3), help="edge-area subset")
    p.add_argument("--config", help="JSON file with training settings")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--alpha", type=float, help="consistency-loss weight")
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--pairs", type=int, help="static/derivative latent pairs")
    p.add_argument("--stat", type=int, help="statistical latent nodes")
    p.add_argument("--delta-t", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="score data and flag anomalies")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=7)
    p.add_argument("--percentile", type=float, default=95.0)
    p.add_argument("--threshold", type=float, help="explicit threshold override")
    p.add_argument("--train-scores", help="train_scores.csv from the train command")
    p.add_argument("--train-data", help="attack-free CSV to fit the threshold on")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="challenge metrics from detections")
    p.add_argument("--detections", nargs="+", required=True, help="detection CSVs")
    p.add_argument("--labels", required=True, help="CSV with the label column")
    p.add_argument("--out", required=True)
    p.add_argument("--fuse", choices=("or", "majority"), default="or")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="latent-space traces and overlays")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=7, help="plot smoothing window")
    p.add_argument("--plot-rows", type=int, default=500)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TdcaeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
