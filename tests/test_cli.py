import json
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from batadal_fixture import write_batadal_csv
from oracles import polyline_reference
from tdcae import preprocess
from tdcae.cli import TRAIN_SCORES_HEADER, _load_train_scores, main
from tdcae.detect import load_detection_flags, smooth
from tdcae.metrics import AttackInterval
from tdcae.model import central_difference, load_model
from tdcae.nn import forward
from tdcae.preprocess import DatasetFrame, apply_scaler, load_csv, read_table, save_csv
from tdcae.synth import MAX_HORIZON, AttackKind, AttackScenario, TankSystemConfig, simulate


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small synth + train + detect chain shared across CLI tests."""
    base = tmp_path_factory.mktemp("pipeline")
    assert run("synth", "--out", base / "train", "--horizon", 600,
               "--seed", 3, "--attacks", "none") == 0
    assert run("synth", "--out", base / "test", "--horizon", 600,
               "--seed", 1003, "--attacks", "default") == 0
    assert run("train", "--data", base / "train" / "data.csv",
               "--out", base / "model", "--epochs", 10, "--seed", 3) == 0
    assert run("detect", "--model", base / "model" / "model.json",
               "--data", base / "test" / "data.csv",
               "--train-scores", base / "model" / "train_scores.csv",
               "--out", base / "det") == 0
    return base


class TestSynthCommand:
    def test_default_config_writes_4000_rows(self, tmp_path):
        assert run("synth", "--out", tmp_path / "s", "--attacks", "none") == 0
        frame = load_csv(tmp_path / "s" / "data.csv")
        assert frame.n_rows == 4000
        assert (tmp_path / "s" / "attacks.json").exists()
        assert (tmp_path / "s" / "config.json").exists()

    def test_invalid_hysteresis_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(
            {"tanks": {"pump_on_level": [6.0, 6.0], "pump_off_level": [5.5, 4.8]}}
        ))
        code = run("synth", "--out", tmp_path / "s", "--config", cfg)
        assert code == 1
        assert "pump_on_level" in capsys.readouterr().err

    def test_same_seed_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            assert run("synth", "--out", tmp_path / name, "--horizon", 300,
                       "--seed", 77, "--attacks", "default") == 0
        assert (tmp_path / "a" / "data.csv").read_bytes() == \
               (tmp_path / "b" / "data.csv").read_bytes()

    def test_seed_comes_from_the_command_line_not_the_environment(self, tmp_path, monkeypatch):
        assert run("synth", "--out", tmp_path / "plain", "--horizon", 300,
                   "--seed", 99, "--attacks", "none") == 0
        # No environment variable sets the seed, not even one named for it.
        monkeypatch.setenv("TDCAE_SEED", "5")
        assert run("synth", "--out", tmp_path / "env", "--horizon", 300,
                   "--seed", 99, "--attacks", "none") == 0
        assert (tmp_path / "plain" / "data.csv").read_bytes() == \
               (tmp_path / "env" / "data.csv").read_bytes()

    # Each value fails before anything is allocated; at 10**11 hours the
    # simulator's arrays alone would need terabytes.
    @pytest.mark.parametrize("horizon, source", [
        (10**11, "flag"), (10**20, "flag"), (10**11, "config"),
    ])
    def test_horizon_beyond_the_limit_is_user_error(self, tmp_path, capsys, horizon, source):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tanks": {"horizon": horizon}}))
        extra = ["--horizon", horizon] if source == "flag" else ["--config", cfg]
        assert run("synth", "--out", tmp_path / "s", "--attacks", "none", *extra) == 1
        assert f"horizon must be in [100, {MAX_HORIZON}]" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_unknown_tank_setting_is_user_error(self, tmp_path, capsys):
        cfg = tmp_path / "typo.json"
        for doc, names in [
            ({"tanks": {"pump_flo": 10}}, ["tanks.pump_flo"]),
            # Misspelt top-level keys would otherwise give the 4000 default rows.
            ({"tank": {"horizon": 150}, "atacks": []}, ["atacks", "tank"]),
        ]:
            cfg.write_text(json.dumps(doc))
            assert run("synth", "--out", tmp_path / "s", "--config", cfg) == 1
            err = capsys.readouterr().err
            assert all(name in err for name in names), err
        assert not (tmp_path / "s").exists()

    def test_settings_file_with_a_byte_order_mark(self, tmp_path):
        cfg = tmp_path / "bom.json"
        cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"tanks": {"horizon": 150}}).encode())
        assert run("synth", "--out", tmp_path / "s", "--config", cfg, "--attacks", "none") == 0
        assert load_csv(tmp_path / "s" / "data.csv").n_rows == 150
        # The tank count is the length of the per-tank lists, not a setting.
        assert "n_tanks" not in json.loads((tmp_path / "s" / "config.json").read_text())["tanks"]

    def test_attacks_from_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "tanks": {"horizon": 300, "seed": 1},
            "attacks": [{"kind": "sensor_freeze", "target": 0,
                         "start": 100, "end": 130}],
        }))
        assert run("synth", "--out", tmp_path / "s", "--config", cfg) == 0
        frame = load_csv(tmp_path / "s" / "data.csv")
        assert frame.labels.sum() == 31


class TestTrainCommand:
    def test_artifacts_written(self, pipeline):
        model_dir = pipeline / "model"
        assert (model_dir / "model.json").exists()
        assert not (model_dir / "scaler.json").exists()  # model.json carries the scaler
        lines = (model_dir / "loss_history.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,rec_loss,tdc_loss,total"
        assert len(lines) == 11  # header + one row per epoch

    def test_alpha_zero_runs_plain_autoencoder(self, pipeline, tmp_path):
        out = tmp_path / "plain"
        assert run("train", "--data", pipeline / "train" / "data.csv",
                   "--out", out, "--epochs", 2, "--alpha", 0, "--seed", 1) == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["config"]["alpha"] == 0

    def test_unknown_training_setting_is_user_error(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({"alpa": 0.1}))
        code = run("train", "--data", pipeline / "train" / "data.csv",
                   "--out", tmp_path / "o", "--config", cfg)
        assert code == 1
        assert "alpa" in capsys.readouterr().err

    def test_edge_selection_on_wrong_schema_fails_cleanly(self, pipeline, capsys):
        code = run("train", "--data", pipeline / "train" / "data.csv",
                   "--out", pipeline / "nope", "--edge", 1)
        assert code == 1
        assert "missing features" in capsys.readouterr().err

    def test_repeated_feature_name_is_user_error(self, tmp_path, capsys):
        data = tmp_path / "dup.csv"
        data.write_text("a,b,a\n" + "1.0,2.0,3.0\n" * 8)
        assert run("train", "--data", data, "--out", tmp_path / "o", "--epochs", 1) == 1
        assert capsys.readouterr().err == f"error: {data}: duplicate feature names\n"
        assert not (tmp_path / "o").exists()

    def test_train_scores_carry_the_datetime_cells(self, pipeline, tmp_path):
        frame = load_csv(pipeline / "train" / "data.csv")
        stamps = [f"{1 + t // 24:02d}/01/16 {t % 24:02d}" for t in range(frame.n_rows)]
        save_csv(DatasetFrame(frame.feature_names, frame.values, frame.labels,
                              datetimes=stamps), tmp_path / "d.csv")
        assert run("train", "--data", tmp_path / "d.csv", "--out", tmp_path / "m",
                   "--epochs", 1) == 0
        rows = (tmp_path / "m" / "train_scores.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == stamps

    def test_train_scores_of_a_batadal_file_are_read_by_numpy(self, tmp_path, monkeypatch):
        write_batadal_csv(tmp_path / "b.csv", rows=200, attacks=False)
        assert run("train", "--data", tmp_path / "b.csv", "--edge", 1,
                   "--out", tmp_path / "m", "--epochs", 1) == 0
        path = tmp_path / "m" / "train_scores.csv"
        expected = np.array([float(cells[1]) for _, cells in read_table(path, TRAIN_SCORES_HEADER)])

        def refuse(*args):
            raise AssertionError("the reference reader ran")

        monkeypatch.setattr(preprocess, "read_table", refuse)
        assert _load_train_scores(path).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("layout", ["synth", "batadal"])
    def test_training_data_labelled_as_attacked_is_user_error(self, pipeline, tmp_path,
                                                              capsys, layout):
        # The synth frame labels the hours of its default attacks; the
        # BATADAL fixture labels rows 100-119, the rest carry the -999
        # sentinel.
        if layout == "synth":
            data, argv = pipeline / "test" / "data.csv", []
            labels = load_csv(data).labels
            want = f"{labels.sum()} of 600 hours labelled as attacked (ATT_FLAG = 1), " \
                   f"the first at row {labels.argmax()} (stamp {labels.argmax()})"
        else:
            data, argv = write_batadal_csv(tmp_path / "b.csv", rows=200), ["--edge", 1]
            want = "20 of 200 hours labelled as attacked (ATT_FLAG = 1), " \
                   "the first at row 100 (stamp 10/01/14 04)"
        assert run("train", "--data", data, "--out", tmp_path / "m", "--epochs", 1, *argv) == 1
        assert want in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("batch_size", [2**62, 2**63 - 1, 2**63])
    def test_batch_size_beyond_the_triple_count_trains_one_batch(
        self, pipeline, tmp_path, batch_size
    ):
        # 600 rows make 598 triples: any larger batch holds them all.
        docs = {}
        for size in (598, batch_size):
            out = tmp_path / str(size)
            assert run("train", "--data", pipeline / "train" / "data.csv", "--out", out,
                       "--epochs", 2, "--seed", 5, "--batch-size", size) == 0
            docs[size] = json.loads((out / "model.json").read_text())
            assert docs[size].pop("config")["batch_size"] == size
            assert json.loads((out / "config.json").read_text())["training"]["batch_size"] == size
        assert docs[batch_size] == docs[598]

    def test_deterministic_model_bytes(self, pipeline, tmp_path):
        outs = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            assert run("train", "--data", pipeline / "train" / "data.csv",
                       "--out", out, "--epochs", 3, "--seed", 11) == 0
            outs.append((out / "model.json").read_bytes())
        assert outs[0] == outs[1]


class TestDetectCommand:
    def test_detection_csv_schema(self, pipeline):
        lines = (pipeline / "det" / "detection.csv").read_text().splitlines()
        assert lines[0] == "timestamp,raw,smoothed,flag"
        assert len(lines) == 601

    def test_svg_has_threshold_and_shading(self, pipeline):
        svg = (pipeline / "det" / "detection.svg").read_text()
        assert "threshold" in svg
        assert 'fill="#bbbbbb"' in svg  # shaded attack intervals from labels

    # Without an ATT_FLAG column there are no attack intervals to shade.
    def test_detect_and_report_shade_no_band_without_labels(self, pipeline, tmp_path):
        frame = load_csv(pipeline / "test" / "data.csv")
        save_csv(DatasetFrame(frame.feature_names, frame.values), tmp_path / "d.csv")
        assert "ATT_FLAG" not in (tmp_path / "d.csv").read_text()
        assert run("detect", "--model", pipeline / "model" / "model.json",
                   "--data", tmp_path / "d.csv",
                   "--train-scores", pipeline / "model" / "train_scores.csv",
                   "--out", tmp_path / "det") == 0
        assert run("report", "--model", pipeline / "model" / "model.json",
                   "--data", tmp_path / "d.csv", "--out", tmp_path / "rep") == 0
        for svg in ("det/detection.svg", "rep/latent_pairs.svg", "rep/latent_overlay.svg"):
            assert "#bbbbbb" not in (tmp_path / svg).read_text(encoding="utf-8"), svg

    def test_flags_in_labeled_window(self, pipeline):
        flags = load_detection_flags(pipeline / "det" / "detection.csv")
        labels = load_csv(pipeline / "test" / "data.csv").labels
        assert flags[labels == 1].sum() >= 1

    def test_threshold_override_used_verbatim(self, pipeline, tmp_path):
        out = tmp_path / "ovr"
        assert run("detect", "--model", pipeline / "model" / "model.json",
                   "--data", pipeline / "test" / "data.csv",
                   "--threshold", 0.5, "--out", out) == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["threshold"] == 0.5
        assert sorted(echoed) == ["command", "data", "model", "percentile", "threshold", "window"]

    @pytest.mark.parametrize("option", [["--smoothing", "centered"], ["--threshold-source", "raw"],
                                        ["--fuse", "or"]])
    def test_retired_options_are_usage_errors(self, pipeline, tmp_path, capsys, option):
        # Smoothing is trailing only, the threshold always comes from
        # smoothed training scores and evaluate always OR-fuses its
        # detections; none of them has an option any more.
        test = pipeline / "test" / "data.csv"
        if option[0] == "--fuse":
            argv = ["evaluate", "--detections", pipeline / "det" / "detection.csv", "--labels", test]
        else:
            argv = ["detect", "--model", pipeline / "model" / "model.json", "--data", test,
                    "--train-scores", pipeline / "model" / "train_scores.csv"]
        with pytest.raises(SystemExit) as info:
            run(*argv, "--out", tmp_path / "out", *option)
        assert info.value.code == 1
        assert f"error: unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_train_data_labelled_as_attacked_is_user_error(self, pipeline, tmp_path, capsys):
        assert run("detect", "--model", pipeline / "model" / "model.json",
                   "--data", pipeline / "test" / "data.csv",
                   "--train-data", pipeline / "test" / "data.csv", "--out", tmp_path / "d") == 1
        assert "hours labelled as attacked (ATT_FLAG = 1)" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_missing_threshold_source_is_user_error(self, pipeline, capsys):
        with pytest.raises(SystemExit) as info:
            run("detect", "--model", pipeline / "model" / "model.json",
                "--data", pipeline / "test" / "data.csv",
                "--out", pipeline / "nope2")
        assert info.value.code == 1
        assert ("one of the arguments --threshold --train-scores --train-data is required"
                in capsys.readouterr().err)
        assert not (pipeline / "nope2").exists()

    # Files that do not exist: the conflict is reported before any is read.
    @pytest.mark.parametrize("sources", [
        ["--threshold", 0.5, "--train-scores", "missing.csv"],
        ["--train-scores", "missing.csv", "--train-data", "missing.csv"],
        ["--threshold", 0.5, "--train-scores", "missing.csv", "--train-data", "missing.csv"],
    ])
    def test_more_than_one_threshold_source_is_user_error(self, pipeline, tmp_path, capsys,
                                                          sources):
        with pytest.raises(SystemExit) as info:
            run("detect", "--model", pipeline / "model" / "model.json",
                "--data", pipeline / "test" / "data.csv", "--out", tmp_path / "det", *sources)
        assert info.value.code == 1
        assert f"argument {sources[2]}: not allowed with argument {sources[0]}" in (
            capsys.readouterr().err)
        assert not (tmp_path / "det").exists()

    def test_train_data_threshold_source(self, pipeline, tmp_path):
        out = tmp_path / "fit"
        assert run("detect", "--model", pipeline / "model" / "model.json",
                   "--data", pipeline / "test" / "data.csv",
                   "--train-data", pipeline / "train" / "data.csv",
                   "--out", out) == 0
        assert (out / "detection.csv").exists()

    def test_a_bad_train_data_file_is_named(self, pipeline, tmp_path, capsys):
        lines = (pipeline / "train" / "data.csv").read_text().splitlines()
        header, row = lines[0].split(","), lines[2].split(",")
        row[1] = "nan"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([lines[0], lines[1], ",".join(row), *lines[3:]]) + "\n")
        assert run("detect", "--model", pipeline / "model" / "model.json",
                   "--data", pipeline / "test" / "data.csv",
                   "--train-data", bad, "--out", tmp_path / "fit") == 1
        assert capsys.readouterr().err == f"error: {bad}: row 3: non-finite value in {header[1]}\n"


class TestEvaluateCommand:
    def test_crafted_detections_reproduce_benchmark_row(self, tmp_path, capsys):
        # craft flags/labels realizing the counts (388, 5, 1677, 19) and an
        # immediate detection for every attack run
        tp, fp, tn, fn = 388, 5, 1677, 19
        labels = np.concatenate([
            np.ones(tp, int), np.zeros(fp, int), np.zeros(tn, int), np.ones(fn, int),
        ])
        flags = np.concatenate([
            np.ones(tp, bool), np.ones(fp, bool), np.zeros(tn, bool), np.zeros(fn, bool),
        ])
        det = tmp_path / "det.csv"
        with det.open("w") as fh:
            fh.write("timestamp,raw,smoothed,flag\n")
            for t, f in enumerate(flags):
                fh.write(f"{t},0.0,0.0,{int(f)}\n")
        labels_csv = tmp_path / "labels.csv"
        with labels_csv.open("w") as fh:
            fh.write("x,ATT_FLAG\n")
            for lab in labels:
                fh.write(f"0.0,{lab}\n")
        assert run("evaluate", "--detections", det, "--labels", labels_csv,
                   "--out", tmp_path / "ev") == 0
        doc = json.loads((tmp_path / "ev" / "metrics.json").read_text())
        assert doc["tpr"] == pytest.approx(0.9533, abs=1e-4)
        assert doc["tnr"] == pytest.approx(0.9970, abs=1e-4)
        assert doc["ppv"] == pytest.approx(0.9873, abs=1e-4)
        assert doc["f1"] == pytest.approx(0.9700, abs=1e-4)
        assert doc["s_clf"] == pytest.approx(0.9752, abs=1e-4)
        table = capsys.readouterr().out
        assert "S_TTD" in table

    def test_perfect_flags_score_one(self, tmp_path):
        labels = np.zeros(40, int)
        labels[10:20] = 1
        det = tmp_path / "det.csv"
        with det.open("w") as fh:
            fh.write("timestamp,raw,smoothed,flag\n")
            for t in range(40):
                fh.write(f"{t},0.0,0.0,{int(labels[t])}\n")
        labels_csv = tmp_path / "labels.csv"
        with labels_csv.open("w") as fh:
            fh.write("x,ATT_FLAG\n")
            for lab in labels:
                fh.write(f"0.0,{lab}\n")
        assert run("evaluate", "--detections", det, "--labels", labels_csv,
                   "--out", tmp_path / "ev") == 0
        doc = json.loads((tmp_path / "ev" / "metrics.json").read_text())
        assert doc["s"] == 1.0

    def test_an_attack_free_run_has_undefined_attack_scores(self, pipeline, tmp_path):
        data = pipeline / "train" / "data.csv"
        assert run("detect", "--model", pipeline / "model" / "model.json", "--data", data,
                   "--train-scores", pipeline / "model" / "train_scores.csv",
                   "--out", tmp_path / "det") == 0
        assert run("evaluate", "--detections", tmp_path / "det" / "detection.csv",
                   "--labels", data, "--out", tmp_path / "ev") == 0
        doc = json.loads((tmp_path / "ev" / "metrics.json").read_text())
        assert [doc[k] for k in ("s", "s_ttd", "s_clf", "tpr", "f1")] == [None] * 5
        assert doc["tp"] == doc["fn"] == 0 and doc["tnr"] is not None
        row = (tmp_path / "ev" / "metrics.txt").read_text().splitlines()[1].split()
        assert row[1:4] == ["undefined"] * 3

    def test_several_detections_are_or_fused(self, tmp_path):
        # Edge 0 alone flags the attack hours, so majority fusion would
        # miss every attack hour.
        labels_csv = tmp_path / "labels.csv"
        with labels_csv.open("w") as fh:
            fh.write("x,ATT_FLAG\n")
            for t in range(10):
                fh.write(f"0.0,{1 if t < 5 else 0}\n")
        dets = []
        for k, pattern in enumerate([(1, 0), (0, 0), (0, 0)]):
            det = tmp_path / f"d{k}.csv"
            with det.open("w") as fh:
                fh.write("timestamp,raw,smoothed,flag\n")
                for t in range(10):
                    fh.write(f"{t},0.0,0.0,{pattern[0] if t < 5 else pattern[1]}\n")
            dets.append(det)
        assert run("evaluate", "--detections", *dets, "--labels", labels_csv,
                   "--out", tmp_path / "ev") == 0
        doc = json.loads((tmp_path / "ev" / "metrics.json").read_text())
        assert doc["tpr"] == 1.0 and doc["tnr"] == 1.0

    @staticmethod
    def detections(path, rows):
        with path.open("w") as fh:
            fh.write("timestamp,raw,smoothed,flag\n")
            for t in range(rows):
                fh.write(f"{t},0.0,0.0,0\n")
        return path

    def test_labels_without_a_label_column(self, tmp_path, capsys):
        det = self.detections(tmp_path / "det.csv", 3)
        labels_csv = tmp_path / "labels.csv"
        labels_csv.write_text("x\n0.0\n0.0\n0.0\n")
        assert run("evaluate", "--detections", det, "--labels", labels_csv,
                   "--out", tmp_path / "ev") == 1
        assert capsys.readouterr().err == f"error: {labels_csv}: no ATT_FLAG column\n"
        assert not (tmp_path / "ev").exists()

    def test_detections_and_labels_of_different_lengths(self, tmp_path, capsys):
        det = self.detections(tmp_path / "det.csv", 200)
        labels_csv = tmp_path / "labels.csv"
        labels_csv.write_text("x,ATT_FLAG\n" + "0.0,0\n" * 50)
        assert run("evaluate", "--detections", det, "--labels", labels_csv,
                   "--out", tmp_path / "ev") == 1
        assert (capsys.readouterr().err
                == "error: detections cover 200 timesteps but labels cover 50\n")
        assert not (tmp_path / "ev").exists()

    def test_edge_pipeline_on_the_batadal_fixture(self, tmp_path):
        """Criterion 7's three-edge pipeline through the CLI, on the in-repo
        fixture: it checks the path, not the paper's scores."""
        data = write_batadal_csv(tmp_path / "batadal.csv", rows=400)
        train_data = write_batadal_csv(tmp_path / "train.csv", rows=400, attacks=False)

        def chain(out):
            for e in (1, 2, 3):
                model = out / f"model{e}"
                assert run("train", "--data", train_data, "--edge", e, "--epochs", 1,
                           "--out", model) == 0
                assert run("detect", "--model", model / "model.json", "--data", data,
                           "--train-scores", model / "train_scores.csv",
                           "--out", out / f"det{e}") == 0
            detections = [out / f"det{e}" / "detection.csv" for e in (1, 2, 3)]
            assert run("evaluate", "--detections", *detections, "--labels", data,
                       "--out", out / "eval") == 0
            return [(out / d / name).read_bytes() for e in (1, 2, 3)
                    for d, name in ((f"model{e}", "model.json"), (f"det{e}", "detection.csv"))]

        first = chain(tmp_path / "a")
        widths = [json.loads(first[2 * k])["encoder"]["layer_sizes"][0] for k in range(3)]
        assert widths == [9, 19, 15]
        for e in (1, 2, 3):
            rows = read_table(tmp_path / "a" / f"det{e}" / "detection.csv",
                              ("timestamp", "raw", "smoothed", "flag"))
            scores = np.array([[float(c) for c in cells[1:3]] for _, cells in rows])
            assert scores.shape == (400, 2) and np.isfinite(scores).all()
        metrics = json.loads((tmp_path / "a" / "eval" / "metrics.json").read_text())
        assert all(np.isfinite(metrics[k]) for k in ("s", "s_ttd", "s_clf"))
        assert chain(tmp_path / "b") == first


class TestReportCommand:
    def test_latent_trace_and_plots(self, pipeline, tmp_path):
        out = tmp_path / "rep"
        assert run("report", "--model", pipeline / "model" / "model.json",
                   "--data", pipeline / "test" / "data.csv",
                   "--out", out) == 0
        header = (out / "latent_trace.csv").read_text().splitlines()[0].split(",")
        doc = json.loads((pipeline / "model" / "model.json").read_text())
        width = 2 * doc["partition"]["n_pairs"] + doc["partition"]["n_stat"]
        assert len(header) == 1 + width  # timestamp + one column per node
        assert header[1] == "z1"
        assert (out / "latent_pairs.svg").exists()
        assert (out / "latent_overlay.svg").exists()

    def test_latent_trace_carries_the_datetime_cells(self, pipeline, tmp_path):
        frame = load_csv(pipeline / "test" / "data.csv")
        stamps = [f"{1 + t // 24:02d}/01/16 {t % 24:02d}" for t in range(frame.n_rows)]
        save_csv(DatasetFrame(frame.feature_names, frame.values, frame.labels,
                              datetimes=stamps), tmp_path / "d.csv")
        assert run("report", "--model", pipeline / "model" / "model.json",
                   "--data", tmp_path / "d.csv", "--out", tmp_path / "rep") == 0
        rows = (tmp_path / "rep" / "latent_trace.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == stamps

    def test_latent_trace_is_one_encoder_pass(self, pipeline, tmp_path):
        assert run("report", "--model", pipeline / "model" / "model.json",
                   "--data", pipeline / "test" / "data.csv", "--out", tmp_path / "rep") == 0
        model, scaler, _ = load_model(pipeline / "model" / "model.json")
        scaled = apply_scaler(scaler, load_csv(pipeline / "test" / "data.csv"))
        latent = forward(model.encoder, scaled.values)
        rows = (tmp_path / "rep" / "latent_trace.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1:] for row in rows] == [list(map(repr, r)) for r in latent.tolist()]

    def test_latent_pairs_use_the_model_delta_t(self, pipeline, tmp_path):
        data = pipeline / "train" / "data.csv"
        assert run("train", "--data", data, "--out", tmp_path / "m", "--epochs", 2,
                   "--seed", 3, "--delta-t", 4) == 0
        assert run("report", "--model", tmp_path / "m" / "model.json", "--data", data,
                   "--out", tmp_path / "rep", "--plot-rows", 50, "--window", 3) == 0
        model, scaler, _ = load_model(tmp_path / "m" / "model.json")
        latent = forward(model.encoder, apply_scaler(scaler, load_csv(data)).values)
        p = model.partition
        z, zdot = latent[:, p.z_slice], latent[:, p.zdot_slice]
        series = []
        for i in range(p.n_pairs):
            series.append(smooth(central_difference(z[:-2, i], z[2:, i], 4.0)[:48], 3))
            series.append(smooth(zdot[1:49, i], 3))
        svg = (tmp_path / "rep" / "latent_pairs.svg").read_text(encoding="utf-8")
        assert re.findall(r'points="([^"]*)"', svg) == polyline_reference(series)

    # Without derivative pairs nothing is smoothed, so the window is
    # checked on its own, before anything is written.
    @pytest.mark.parametrize("pairs", [None, 0])
    def test_a_bad_window_writes_nothing(self, pipeline, tmp_path, capsys, pairs):
        model = pipeline / "model" / "model.json"
        if pairs is not None:
            assert run("train", "--data", pipeline / "train" / "data.csv", "--out", tmp_path / "m",
                       "--epochs", 1, "--pairs", pairs, "--stat", 3) == 0
            model = tmp_path / "m" / "model.json"
        assert run("report", "--model", model, "--data", pipeline / "test" / "data.csv",
                   "--out", tmp_path / "rep", "--window", 0) == 1
        assert "window must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_a_constant_feature_is_overlaid_on_no_node(self, pipeline, tmp_path):
        frame = load_csv(pipeline / "train" / "data.csv")
        values = frame.values.copy()
        values[:, 1] = 2.5
        constant = frame.feature_names[1]
        save_csv(frame.with_values(values), tmp_path / "d.csv")
        assert run("train", "--data", tmp_path / "d.csv", "--out", tmp_path / "m",
                   "--epochs", 1) == 0
        assert run("report", "--model", tmp_path / "m" / "model.json",
                   "--data", tmp_path / "d.csv", "--out", tmp_path / "rep") == 0
        svg = (tmp_path / "rep" / "latent_overlay.svg").read_text(encoding="utf-8")
        assert " -> z1 (r=" in svg and f"{constant} -> " not in svg

    def test_svg_text_is_escaped(self, pipeline, tmp_path):
        frame = load_csv(pipeline / "train" / "data.csv")
        names = ["a<b", "c&d", *frame.feature_names[2:]]
        save_csv(DatasetFrame(names, frame.values, frame.labels), tmp_path / "d.csv")
        assert run("train", "--data", tmp_path / "d.csv", "--out", tmp_path / "m",
                   "--epochs", 1) == 0
        assert run("report", "--model", tmp_path / "m" / "model.json",
                   "--data", tmp_path / "d.csv", "--out", tmp_path / "rep") == 0
        for svg in ("latent_pairs.svg", "latent_overlay.svg"):
            ET.parse(tmp_path / "rep" / svg)


# synth, then train, detect and report on the data with every feature
# renamed to a non-ASCII name. The script text itself stays ASCII, so a C
# locale reads it unchanged.
NON_ASCII_CHAIN = r"""
import sys
from pathlib import Path
from tdcae.cli import main

def run(*argv):
    if main(list(argv)) != 0:
        sys.exit(f"{argv[0]} failed")

for out, attacks in (("s", "none"), ("t", "default")):
    run("synth", "--out", out, "--horizon", "120", "--seed", "5", "--attacks", attacks)
    data = Path(out, "data.csv")
    head, sep, rest = data.read_bytes().partition(b"\r\n")
    names = [n if n == "ATT_FLAG" else "F\u00fcllstand_" + n for n in head.decode().split(",")]
    data.write_bytes(",".join(names).encode("utf-8") + sep + rest)
run("train", "--data", "s/data.csv", "--out", "m", "--epochs", "2", "--seed", "5")
run("detect", "--model", "m/model.json", "--data", "t/data.csv",
    "--train-scores", "m/train_scores.csv", "--out", "d")
run("report", "--model", "m/model.json", "--data", "t/data.csv", "--out", "r")
"""


class TestConfigJson:
    """main writes each command's config.json from the settings it returns."""

    @pytest.mark.parametrize("command, keys", [
        ("synth", ["tanks", "attacks"]),
        ("train", ["data", "edge", "training"]),
        ("detect", ["model", "data", "window", "percentile", "threshold"]),
        ("evaluate", ["detections", "labels"]),
        ("report", ["model", "data", "window", "plot_rows"]),
    ])
    def test_keys_and_command(self, pipeline, tmp_path, command, keys):
        model, test = pipeline / "model" / "model.json", pipeline / "test" / "data.csv"
        argv = {
            "synth": ["--horizon", 200, "--attacks", "none"],
            "train": ["--data", pipeline / "train" / "data.csv", "--epochs", 1],
            "detect": ["--model", model, "--data", test, "--threshold", 1.0],
            "evaluate": ["--detections", pipeline / "det" / "detection.csv", "--labels", test],
            "report": ["--model", model, "--data", test],
        }[command]
        assert run(command, *argv, "--out", tmp_path / "o") == 0
        doc = json.loads((tmp_path / "o" / "config.json").read_text())
        assert sorted(doc) == sorted(["command", *keys])
        assert doc["command"] == command


class TestLocale:
    @staticmethod
    def chain(cwd: Path, **env) -> dict:
        cwd.mkdir()
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, **env}
        done = subprocess.run([sys.executable, "-c", NON_ASCII_CHAIN], cwd=cwd, env=env,
                              capture_output=True, text=True, errors="replace")
        assert done.returncode == 0, done.stderr
        return {str(p.relative_to(cwd)): p.read_bytes() for p in cwd.rglob("*") if p.is_file()}

    def test_c_locale_writes_the_same_bytes(self, tmp_path):
        default = self.chain(tmp_path / "default")
        ascii_locale = self.chain(tmp_path / "c", LC_ALL="C", PYTHONUTF8="0",
                                  PYTHONCOERCECLOCALE="0")
        assert "F\u00fcllstand_".encode() in default["r/latent_overlay.svg"]
        assert ascii_locale == default


# tdcae.cli.main on the command-line arguments, in a process whose address
# space is limited to 4 GiB.
LIMITED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
from tdcae.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestExitCodes:
    def test_unknown_argument_is_user_error(self):
        assert pytest.raises(SystemExit, run, "synth", "--bogus").value.code == 1

    def test_missing_file_is_user_error(self, tmp_path, capsys):
        code = run("train", "--data", tmp_path / "absent.csv", "--out", tmp_path / "o")
        assert code == 1

    @pytest.mark.parametrize("case", ["detect --data DIR", "detect --out FILE",
                                      "train --out FILE"])
    def test_path_of_the_wrong_kind_is_user_error(self, pipeline, tmp_path, capsys, case):
        # A directory where a file should be, or a file where a directory should be.
        file = tmp_path / "f.txt"
        file.write_text("x\n")
        detect = ["detect", "--model", pipeline / "model" / "model.json", "--threshold", 1.0]
        argv, path = {
            "detect --data DIR": (detect + ["--data", pipeline / "train", "--out", tmp_path / "o"],
                                  pipeline / "train"),
            "detect --out FILE": (detect + ["--data", pipeline / "test" / "data.csv",
                                            "--out", file], file),
            "train --out FILE": (["train", "--data", pipeline / "train" / "data.csv",
                                  "--out", file, "--epochs", 1], file),
        }[case]
        assert run(*argv) == 1
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--hidden", "--pairs", "--stat"])
    def test_width_too_large_to_allocate_is_user_error(self, pipeline, tmp_path, flag):
        # 10**12 nodes ask for tens of TiB of weights. Under a 4 GiB
        # address-space limit the allocation fails at once, whether or not
        # the machine overcommits memory.
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", LIMITED_MAIN, "train", "--data",
             str(pipeline / "train" / "data.csv"), "--out", str(tmp_path / "o"),
             "--epochs", "1", flag, str(10**12)],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True, text=True,
        )
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error: Unable to allocate")
        assert "Traceback" not in done.stderr

    def test_internal_error_is_exit_two(self, tmp_path, capsys, monkeypatch):
        # An exception outside the package's error hierarchy is a bug.
        def broken_loader(path):
            raise RuntimeError("unexpected failure")

        monkeypatch.setattr("tdcae.model.load_model", broken_loader)
        frame = simulate(TankSystemConfig(horizon=120, seed=0))
        save_csv(frame, tmp_path / "d.csv")
        code = run("detect", "--model", tmp_path / "model.json", "--data", tmp_path / "d.csv",
                   "--threshold", 1.0, "--out", tmp_path / "o")
        assert code == 2
        assert "RuntimeError" in capsys.readouterr().err


class TestMalformedModel:
    """A damaged model.json is a user error (exit 1) naming the bad field."""

    @staticmethod
    def detect_with(doc, tmp_path, capsys):
        broken = tmp_path / "model.json"
        broken.write_text(json.dumps(doc))
        code = run("detect", "--model", broken,
                   "--data", tmp_path / "d.csv", "--threshold", 1.0,
                   "--out", tmp_path / "o")
        return code, capsys.readouterr().err

    @pytest.fixture
    def doc(self, pipeline, tmp_path):
        save_csv(load_csv(pipeline / "test" / "data.csv"), tmp_path / "d.csv")
        return json.loads((pipeline / "model" / "model.json").read_text())

    def test_intact_copy_loads(self, doc, tmp_path, capsys):
        assert self.detect_with(doc, tmp_path, capsys)[0] == 0

    def test_truncated_weight_list(self, doc, tmp_path, capsys):
        doc["encoder"]["layers"][0]["weights"].pop()
        code, err = self.detect_with(doc, tmp_path, capsys)
        assert code == 1
        assert "encoder.layers[0].weights" in err

    def test_missing_decoder(self, doc, tmp_path, capsys):
        del doc["decoder"]
        code, err = self.detect_with(doc, tmp_path, capsys)
        assert code == 1
        assert "decoder" in err

    def test_binary_file(self, tmp_path, capsys, pipeline):
        save_csv(load_csv(pipeline / "test" / "data.csv"), tmp_path / "d.csv")
        (tmp_path / "model.json").write_bytes(b"\xff\xfe{}")
        code = run("detect", "--model", tmp_path / "model.json",
                   "--data", tmp_path / "d.csv", "--threshold", 1.0, "--out", tmp_path / "o")
        assert code == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_only_format_field(self, tmp_path, capsys, pipeline):
        save_csv(load_csv(pipeline / "test" / "data.csv"), tmp_path / "d.csv")
        code, err = self.detect_with({"format": "tdcae-model-v1"}, tmp_path, capsys)
        assert code == 1
        assert "partition" in err

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d.update(format="tdcae-model-v0"), "tdcae-model-v1"),
        (lambda d: d["partition"].update(n_pairs="3"), "partition.n_pairs"),
        (lambda d: d["partition"].update(n_stat=5), "partition.n_stat"),
        (lambda d: d["encoder"].update(layer_sizes=[8, 0, 7]), "encoder.layer_sizes"),
        (lambda d: d["decoder"]["activations"].__setitem__(0, "relu"), "decoder.activations[0]"),
        (lambda d: d["decoder"]["layers"][1]["bias"].append(0.0), "decoder.layers[1].bias"),
        (lambda d: d["decoder"]["layers"][0]["weights"].__setitem__(2, "x"), "weights[2]"),
        (lambda d: d["scaler"].popitem(), "scaler"),
        (lambda d: next(iter(d["scaler"].values())).pop("iqr"), "iqr"),
        pytest.param(lambda d: d["scaler"]["L_T1"].update(median="x"), "scaler.L_T1.median",
                     id="scaler-median-x"),
        pytest.param(lambda d: d.update(scaler=[1, 2]), "scaler: expected dict, got [1, 2]",
                     id="scaler-list"),
        # Without its scaler, detect would score unscaled data and exit 0.
        pytest.param(lambda d: d.update(scaler=None), "scaler: expected dict, got None",
                     id="scaler-null"),
        pytest.param(lambda d: d.pop("scaler"), "missing field scaler", id="scaler-missing"),
        pytest.param(lambda d: d.update(config=None), "config: expected dict, got None",
                     id="config-null"),
        (lambda d: d["config"].pop("alpha"), "config"),
        (lambda d: d["config"].update(seed=-1), "seed must be >= 0"),
        (lambda d: d["config"].update(alpa=0.1), "unknown settings: config.alpa"),
        pytest.param(lambda d: d["encoder"]["layers"].pop(),
                     "encoder.layers: expected 2 layers, got 1", id="encoder-layer-dropped"),
        pytest.param(lambda d: d["decoder"]["layers"][1]["bias"].__setitem__(0, float("nan")),
                     "decoder.layers[1].bias[0] must be finite, got nan", id="bias-nan"),
        pytest.param(lambda d: d["scaler"]["L_T1"].update(median=[1.0]),
                     "scaler.L_T1.median must be a number, got [1.0]", id="scaler-median-list"),
        # Every median a list of one length: still one entry per feature.
        pytest.param(lambda d: [e.update(median=[1.0]) for e in d["scaler"].values()],
                     "scaler.L_T1.median must be a number, got [1.0]",
                     id="scaler-medians-lists"),
    ])
    def test_each_field_is_checked(self, doc, tmp_path, capsys, mutate, field):
        mutate(doc)
        code, err = self.detect_with(doc, tmp_path, capsys)
        assert code == 1
        assert field in err

    def test_negative_iqr_is_named(self, doc, tmp_path, capsys):
        # The scaler would divide by it and flip the feature's sign.
        doc["scaler"]["L_T1"]["iqr"] = -1
        code, err = self.detect_with(doc, tmp_path, capsys)
        assert code == 1
        assert err == f"error: {tmp_path / 'model.json'}: scaler.L_T1.iqr must be >= 0\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", [
        "batch_size", "epochs", "seed", "hidden_size", "n_pairs", "n_stat",
    ])
    @pytest.mark.parametrize("value", [32.7, 3.0])
    def test_integer_config_field_rejects_non_integers(
        self, doc, tmp_path, capsys, key, value
    ):
        doc["config"][key] = value
        code, err = self.detect_with(doc, tmp_path, capsys)
        assert code == 1
        assert f"config.{key}" in err

    # The first two keep the latent width, so the parent loaded them: the
    # first relabelled the latent columns, the second disagreed with its config.
    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d["partition"].update(n_pairs=2, n_stat=3),
         "partition.n_pairs: expected 3 from config n_pairs=3, n_stat=1"),
        (lambda d: d["config"].update(n_pairs=1, n_stat=5),
         "partition.n_pairs: expected 1 from config n_pairs=1, n_stat=5"),
        (lambda d: d.update(scaler={}), "encoder.layer_sizes[0]: expected 0 from config"),
    ])
    def test_architecture_must_be_the_one_config_and_scaler_give(
        self, doc, tmp_path, capsys, mutate, field
    ):
        mutate(doc)
        code, err = self.detect_with(doc, tmp_path, capsys)
        assert code == 1
        assert field in err


def with_cell(src, dst, row, value) -> Path:
    """A copy of the CSV src with the first cell of data row `row` set to value."""
    lines = Path(src).read_text().splitlines()
    cells = lines[row + 1].split(",")
    lines[row + 1] = ",".join([value] + cells[1:])
    Path(dst).write_text("\n".join(lines) + "\n")
    return Path(dst)


class TestOverflow:
    """Finite input whose reconstruction error or plot range overflows is a
    user error (exit 1) naming it; no inf or nan reaches the outputs."""

    def test_detect_names_the_row(self, pipeline, tmp_path, capsys):
        data = with_cell(pipeline / "test" / "data.csv", tmp_path / "d.csv", 100, "1e200")
        code = run("detect", "--model", pipeline / "model" / "model.json", "--data", data,
                   "--train-scores", pipeline / "model" / "train_scores.csv",
                   "--out", tmp_path / "o")
        assert code == 1
        assert "row 100 (timestamp 100): reconstruction error overflows" in capsys.readouterr().err
        assert not (tmp_path / "o" / "detection.csv").exists()

    def test_fit_threshold_names_the_row(self, pipeline, tmp_path, capsys):
        data = with_cell(pipeline / "train" / "data.csv", tmp_path / "d.csv", 100, "1e200")
        code = run("detect", "--model", pipeline / "model" / "model.json",
                   "--data", pipeline / "test" / "data.csv", "--train-data", data,
                   "--out", tmp_path / "o")
        assert code == 1
        assert "row 100 (timestamp 100): reconstruction error overflows" in capsys.readouterr().err

    def test_train_scores_name_the_row(self, pipeline, tmp_path, capsys):
        # The last row is only ever an x_next, so training's loss stays finite.
        data = with_cell(pipeline / "train" / "data.csv", tmp_path / "d.csv", 599, "1e200")
        code = run("train", "--data", data, "--out", tmp_path / "m", "--epochs", 1)
        assert code == 1
        assert "row 599 (timestamp 599): reconstruction error overflows" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_report_names_the_feature_whose_spread_overflows(self, pipeline, tmp_path, capsys):
        data = with_cell(pipeline / "test" / "data.csv", tmp_path / "d.csv", 100, "1e200")
        feature = data.read_text().split(",", 1)[0]
        code = run("report", "--model", pipeline / "model" / "model.json", "--data", data,
                   "--out", tmp_path / "o")
        assert code == 1
        assert (capsys.readouterr().err
                == f"error: {data}: feature {feature}: standard deviation overflows\n")
        assert not (tmp_path / "o").exists()

    def test_detect_names_the_first_window_sum_that_overflows(self, pipeline, tmp_path,
                                                                capsys):
        # Scaled values of 4.5e153 give errors of about 2.0e307, and nine
        # of them sum beyond the largest float.
        _, scaler, _ = load_model(pipeline / "model" / "model.json")
        frame = load_csv(pipeline / "test" / "data.csv")
        values = frame.values.copy()
        values[100:130] = scaler.median + 4.5e153 * scaler.divisors
        save_csv(frame.with_values(values), tmp_path / "d.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("detect", "--model", pipeline / "model" / "model.json",
                       "--data", tmp_path / "d.csv", "--window", 20,
                       "--train-scores", pipeline / "model" / "train_scores.csv",
                       "--out", tmp_path / "o")
        assert code == 1
        assert (capsys.readouterr().err
                == "error: smoothed score overflows at row 108\n")
        assert not (tmp_path / "o").exists()

    def test_plot_range_beyond_the_largest_float(self, pipeline, tmp_path, capsys):
        code = run("detect", "--model", pipeline / "model" / "model.json",
                   "--data", pipeline / "test" / "data.csv", "--threshold=-1.7e308",
                   "--out", tmp_path / "o")
        assert code == 1
        assert "detection.svg: no finite y range to plot" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestMalformedInput:
    """Bad settings and malformed input files are user errors (exit 1)
    whose message names the culprit."""

    @staticmethod
    def train(pipeline, tmp_path, *extra):
        return run("train", "--data", pipeline / "train" / "data.csv",
                   "--out", tmp_path / "m", "--epochs", 1, *extra)

    @pytest.mark.parametrize("command", ["synth", "train"])
    @pytest.mark.parametrize("flag, settings", [(["--seed", -1], None), ([], -1)])
    def test_negative_seed(self, pipeline, tmp_path, capsys, command, flag, settings):
        # A seed comes from --seed or from the settings file.
        if settings is not None:
            doc = {"tanks": {"seed": settings}} if command == "synth" else {"seed": settings}
            (tmp_path / "cfg.json").write_text(json.dumps(doc))
            flag = ["--config", tmp_path / "cfg.json"]
        if command == "synth":
            code = run("synth", "--out", tmp_path / "s", "--horizon", 200, "--attacks", "none", *flag)
        else:
            code = self.train(pipeline, tmp_path, *flag)
        assert code == 1
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("content, field", [
        (b'{"batch_size": "abc"}', "batch_size"),
        # self.train's --epochs 1 must not hide the file's bad value.
        pytest.param(b'{"epochs": "abc"}', "epochs must be an integer, got 'abc'",
                     id="epochs-abc"),
        (b'{"hidden_size": 2.5}', "hidden_size"),
        (b'{"seed": -1}', "seed"),
        (b'{"seed": "abc"}', "seed"),
        (b'{"seed": null}', "seed"),
        (b'{"seed": 1.5}', "seed"),
        (b'{"seed": true}', "seed"),
        (b"[1, 2]", "expected a JSON object"),
        (b"\xff\xfe{}", "invalid JSON"),
    ])
    def test_training_config_file(self, pipeline, tmp_path, capsys, content, field):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        assert self.train(pipeline, tmp_path, "--config", path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and field in err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("attack, field", [
        ({"kind": "bogus", "target": 0, "start": 10, "end": 20}, "attacks[0].kind"),
        ({"kind": "sensor_freeze", "start": 10, "end": 20}, "attacks[0].target"),
        ({"kind": "sensor_freeze", "target": 0, "end": 20}, "attacks[0].start"),
        ({"kind": "sensor_freeze", "target": 0, "start": 10}, "attacks[0].end"),
        ({"kind": "sensor_freeze", "target": 0, "start": 10, "end": 20, "magnitude": "x"},
         "attacks[0].magnitude"),
        # A misspelt magnitude would otherwise label hours that no spoof touched.
        ({"kind": "level_spoof_offset", "target": 0, "start": 10, "end": 20, "magnitud": 3.0},
         "attacks[0].magnitud"),
        ({"kind": "bogus", "target": 0, "start": 10, "end": 20},
         "attacks[0].kind must be one of sensor_freeze, pump_force_off, level_spoof_offset"),
        ({"kind": "sensor_freeze", "target": -1, "start": 10, "end": 20},
         "attacks[0].target must be >= 0"),
        ({"kind": "sensor_freeze", "target": 0, "start": 20, "end": 10},
         "attacks[0].end must be >= 20"),
    ])
    # With two files, the first holds the bad attack and the second a good one.
    @pytest.mark.parametrize("source", ["attacks", "config", "attacks+config", "config+attacks"])
    def test_attacks_file(self, tmp_path, capsys, attack, field, source):
        good = {"kind": "sensor_freeze", "target": 0, "start": 10, "end": 20}
        files = []
        for name, entry in zip(source.split("+"), [attack, good]):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps([entry] if name == "attacks" else {"attacks": [entry]}))
            files += [f"--{name}", path]
        code = run("synth", "--out", tmp_path / "s", "--horizon", 200, *files)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {files[1]}: ") and field in err

    @pytest.mark.parametrize("tanks, field", [
        ({"horizon": "abc"}, "tanks.horizon"),
        ({"horizon": 300.0}, "tanks.horizon"),
        ({"seed": "x"}, "tanks.seed"),
        ({"seed": True}, "tanks.seed"),
        ({"n_tanks": 2}, "unknown settings: tanks.n_tanks"),
        ({"pump_flow": "fast"}, "tanks.pump_flow"),
        ({"noise_std": None}, "tanks.noise_std"),
        ({"demand_period": 1e999}, "tanks.demand_period"),
        ({"tank_area": 140}, "tanks.tank_area"),
        ({"tank_height": [7.5, "6.8"]}, "tanks.tank_height[1]"),
        ({"initial_levels": [1.0, None]}, "tanks.initial_levels[1]"),
        (5, "tanks: expected a JSON object"),
        # Entries are checked before lengths: a one-entry list names its entry.
        ({"tank_area": [None]}, "tanks.tank_area[0] must be a number, got None"),
    ])
    def test_tank_settings(self, tmp_path, capsys, tanks, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tanks": tanks}))
        assert run("synth", "--out", tmp_path / "s", "--config", path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and field in err

    @pytest.mark.parametrize("doc, flags, message", [
        ({"attacks": 5}, ["--attacks", "none"], "attacks: expected a list, got 5"),
        ({"attacks": 5}, ["--attacks", "default"], "attacks: expected a list, got 5"),
        ({"attacks": [{"kind": "bogus", "target": 0, "start": 10, "end": 20}]},
         ["--attacks", "none"], "attacks[0].kind must be one of"),
        ({"tanks": {"horizon": "abc"}}, ["--horizon", 150],
         "tanks.horizon must be an integer, got 'abc'"),
        ({"tanks": {"seed": 2.5}}, ["--seed", 1], "tanks.seed must be an integer, got 2.5"),
    ])
    def test_a_flag_does_not_hide_a_bad_value_in_the_file(
        self, tmp_path, capsys, doc, flags, message
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert run("synth", "--out", tmp_path / "s", "--config", path, *flags) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_tank_settings_of_every_type_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tanks": {
            "horizon": 150, "seed": 3, "pump_flow": 150,
            "noise_std": 0.01, "tank_area": [100], "pump_on_level": [2.0],
            "pump_off_level": [5.0], "tank_height": [7.0], "initial_levels": None,
        }}))
        assert run("synth", "--out", tmp_path / "s", "--config", path, "--attacks", "none") == 0
        echoed = json.loads((tmp_path / "s" / "config.json").read_text())["tanks"]
        assert (echoed["pump_flow"], echoed["tank_area"]) == (150, [100.0])

    @pytest.mark.parametrize("row, message", [
        ("0,1.0", "row 3: expected 4 cells, got 2"),
        ("0,1.0,1.0,2", "row 3: flag must be 0 or 1"),
    ])
    def test_detection_file(self, tmp_path, capsys, row, message):
        det = tmp_path / "det.csv"
        det.write_text(f"timestamp,raw,smoothed,flag\n0,1.0,1.0,1\n{row}\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("x,ATT_FLAG\n0.0,1\n0.0,0\n")
        code = run("evaluate", "--detections", det, "--labels", labels, "--out", tmp_path / "ev")
        assert code == 1
        assert f"det.csv: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["abc", "nan", None, b"\xff", "0.5,extra"])
    def test_train_scores_file(self, pipeline, tmp_path, capsys, cell):
        lines = (pipeline / "model" / "train_scores.csv").read_bytes().splitlines()
        raw = cell if isinstance(cell, bytes) else str(cell).encode()
        lines[2] = b"1" if cell is None else b"1," + raw
        (tmp_path / "scores.csv").write_bytes(b"\n".join(lines) + b"\n")
        code = run("detect", "--model", pipeline / "model" / "model.json",
                   "--data", pipeline / "test" / "data.csv",
                   "--train-scores", tmp_path / "scores.csv", "--out", tmp_path / "o")
        assert code == 1
        where = "not UTF-8 text" if isinstance(cell, bytes) else "row 3"
        assert f"scores.csv: {where}" in capsys.readouterr().err

    def test_negative_train_score(self, pipeline, tmp_path, capsys):
        # A reconstruction error is a mean of squares, so a negative score
        # is an edited or corrupt file.
        lines = (pipeline / "model" / "train_scores.csv").read_text().splitlines()
        lines[1:3] = ["0,-1e308", "1,1e308"]
        (tmp_path / "scores.csv").write_text("\n".join(lines) + "\n")
        code = run("detect", "--model", pipeline / "model" / "model.json",
                   "--data", pipeline / "test" / "data.csv",
                   "--train-scores", tmp_path / "scores.csv", "--out", tmp_path / "o")
        assert code == 1
        assert "training score at row 0 is negative: -1e+308" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("plot_rows, data_rows", [(1, 600), (2, 600), (500, 2)])
    def test_report_needs_three_plot_rows(self, pipeline, tmp_path, capsys, plot_rows, data_rows):
        lines = (pipeline / "test" / "data.csv").read_text().splitlines()
        (tmp_path / "d.csv").write_text("\n".join(lines[: 1 + data_rows]) + "\n")
        code = run("report", "--model", pipeline / "model" / "model.json", "--data",
                   tmp_path / "d.csv", "--plot-rows", plot_rows, "--out", tmp_path / "o")
        assert code == 1
        assert "need >= 3 rows to plot" in capsys.readouterr().err
