"""End-to-end command-line workflows over on-disk scenarios."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import flowtrack
import flowtrack.cli as cli
import flowtrack.kitti_io as kitti_io
from flowtrack.cli import main, run_tracking
from flowtrack.flow import FlowDataError
from flowtrack.kitti_io import LabelRow, camera_to_lidar_boxes, read_labels, write_labels
import flowtrack.tracker as tracker
from flowtrack.preprocess import Calibration, PointCloud
from flowtrack.sim import NoiseSpec, demo_scenario, generate, write_scenario
from flowtrack.tracker import TrackerConfig, UsageError
from oracles import iou3d_reference

SIM_ARGS = ["--frames", "12", "--objects", "3"]


def run(args: list) -> int:
    return main([str(a) for a in args])


def one_line_error(capsys, command: str) -> str:
    """The captured standard error, checked to be one error line of ``command``."""
    err = capsys.readouterr().err
    assert err.startswith(f"flowtrack {command}: error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim") / "scene"
    assert run(["sim", *SIM_ARGS, "--write-flow", "--out", out]) == 0
    return out


def track_args(sim_dir, out, **overrides):
    args = {
        "--detections": sim_dir / "detections.txt",
        "--clouds": sim_dir / "velodyne",
        "--calib": sim_dir / "calib.txt",
        "--gt": sim_dir / "gt.txt",
        "--flow-source": "oracle",
        "--out": out,
    }
    args.update(overrides)
    flat = ["track"]
    for key, value in args.items():
        if value is None:
            continue
        flat.extend([key, value])
    return flat


@pytest.fixture(scope="module")
def tracked_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trk") / "run"
    assert run(track_args(sim_dir, out)) == 0
    return out


class TestPipeline:
    def test_outputs_laid_out(self, sim_dir):
        assert (sim_dir / "calib.txt").exists()
        assert (sim_dir / "gt.txt").exists()
        assert (sim_dir / "detections.txt").exists()
        assert len(list((sim_dir / "velodyne").glob("*.bin"))) == 12
        assert len(list((sim_dir / "flow").glob("*.sfl"))) == 11

    def test_all_ground_scene_runs_silently(self, tmp_path, capsys):
        # Without objects every point left after the crop is ground, so no
        # frame has a sample or flow, and neither command warns.
        scene = tmp_path / "ground"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["sim", "--frames", "3", "--objects", "0", "--write-flow",
                        "--out", scene]) == 0
            assert run(track_args(scene, tmp_path / "tracked")) == 0
        assert capsys.readouterr().err == ""
        assert not list(scene.glob("flow/*.sfl"))

    def test_noise_free_run_scores_perfectly(self, sim_dir, tracked_dir, tmp_path):
        out = tmp_path / "eval"
        assert run(
            ["eval", "--gt", sim_dir / "gt.txt", "--results",
             tracked_dir / "results.txt", "--out", out]
        ) == 0
        report = json.loads((out / "report_iou0.25.json").read_text())
        assert report["sAMOTA"] == 100.0
        assert report["AMOTA"] == 100.0
        assert report["MOTA"] == 1.0
        assert report["MOTP"] == 1.0
        assert report["IDS"] == 0

    def test_manifest_written_per_command(self, sim_dir, tracked_dir, tmp_path):
        sim_manifest = json.loads((sim_dir / "run_manifest.json").read_text())
        assert sim_manifest["command"] == "sim"
        assert "version" in sim_manifest
        track_manifest = json.loads((tracked_dir / "run_manifest.json").read_text())
        assert track_manifest["command"] == "track"
        arguments = track_manifest["arguments"]
        assert arguments["resolved_config"] == {"iou_min": 0.01, "max_mis": 2, "min_det": 3}
        assert (arguments["flow_source"], arguments["category"]) == ("oracle", "Car")
        out = tmp_path / "eval"
        run(["eval", "--gt", sim_dir / "gt.txt", "--results",
             tracked_dir / "results.txt", "--out", out])
        assert json.loads((out / "run_manifest.json").read_text())["command"] == "eval"

    def test_eval_prints_table(self, sim_dir, tracked_dir, tmp_path, capsys):
        run(["eval", "--gt", sim_dir / "gt.txt", "--results",
             tracked_dir / "results.txt", "--out", tmp_path / "e"])
        captured = capsys.readouterr().out
        assert "sAMOTA" in captured
        assert "100.00" in captured

    def test_idle_frames_build_no_similarity(self, tmp_path, monkeypatch):
        # Every frame from 0 to 5,000 is stepped, but only a frame with a live
        # tracklet or a detection reaches the association.
        row = "-1 Car 0 0 0 0 0 10 10 1.5 1.6 3.9 0 1.5 10 0 0.9"
        detections = tmp_path / "detections.txt"
        detections.write_text(f"0 {row}\n5000 {row}\n")
        sizes = []
        original = tracker.build_similarity

        def counted(predicted, detections, **kwargs):
            sizes.append((len(predicted), len(detections)))
            return original(predicted, detections, **kwargs)

        monkeypatch.setattr(tracker, "build_similarity", counted)
        args = ["track", "--detections", detections, "--predictor", "cv", "--out", tmp_path / "o"]
        assert run(args) == 0
        # Frame 0's detection, frame 1's tracklet (unconfirmed, it ends on
        # that miss) and frame 5,000's detection.
        assert sizes == [(0, 1), (1, 0), (0, 1)]

    def test_one_read_and_one_conversion_per_label_file(self, sim_dir, tmp_path, monkeypatch):
        calls = []

        def counted(owner, name):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a: calls.append(name) or original(*a))

        counted(cli, "read_labels")
        counted(cli, "camera_to_lidar_boxes")
        counted(cli, "result_rows")
        counted(kitti_io, "result_rows")
        assert run(track_args(sim_dir, tmp_path / "trk")) == 0
        # Detections and oracle ground truth in; results out.
        assert calls == ["read_labels", "camera_to_lidar_boxes"] * 2 + ["result_rows"]
        calls.clear()
        assert run(["eval", "--gt", sim_dir / "gt.txt", "--results",
                    tmp_path / "trk" / "results.txt", "--out", tmp_path / "eval"]) == 0
        assert calls == ["read_labels", "camera_to_lidar_boxes"] * 2
        calls.clear()
        assert run(["sim", *SIM_ARGS, "--out", tmp_path / "sim"]) == 0
        assert calls == ["result_rows"] * 2


class TestDeterminism:
    def test_track_byte_identical_repeat(self, sim_dir, tracked_dir, tmp_path):
        out = tmp_path / "again"
        run(track_args(sim_dir, out))
        assert (out / "results.txt").read_bytes() == (
            tracked_dir / "results.txt"
        ).read_bytes()

    def test_sim_byte_identical_repeat(self, sim_dir, tmp_path):
        out = tmp_path / "scene2"
        run(["sim", *SIM_ARGS, "--write-flow", "--out", out])
        for name in ("gt.txt", "detections.txt", "calib.txt"):
            assert (out / name).read_bytes() == (sim_dir / name).read_bytes()
        assert (out / "velodyne" / "000000.bin").read_bytes() == (
            sim_dir / "velodyne" / "000000.bin"
        ).read_bytes()
        assert (out / "flow" / "000000.sfl").read_bytes() == (
            sim_dir / "flow" / "000000.sfl"
        ).read_bytes()

    def test_scenario_file_reproduces_demo(self, sim_dir, tmp_path):
        scenario = demo_scenario(frames=12, num_objects=3)
        path = tmp_path / "demo.scn"
        write_scenario(path, scenario)
        out = tmp_path / "from_file"
        run(["sim", "--scenario", path, "--out", out])
        assert (out / "gt.txt").read_bytes() == (sim_dir / "gt.txt").read_bytes()


class TestFlowSources:
    def test_file_flow_matches_oracle(self, sim_dir, tracked_dir, tmp_path):
        out = tmp_path / "file_flow"
        run(track_args(sim_dir, out, **{
            "--flow-source": "file", "--flow-dir": sim_dir / "flow",
        }))
        assert (out / "results.txt").read_bytes() == (
            tracked_dir / "results.txt"
        ).read_bytes()

    def test_missing_flow_file_names_frame(self, sim_dir, tmp_path, capsys):
        flow_dir = tmp_path / "flow"
        shutil.copytree(sim_dir / "flow", flow_dir)
        (flow_dir / "000005.sfl").unlink()
        args = track_args(sim_dir, tmp_path / "out", **{
            "--flow-source": "file", "--flow-dir": flow_dir,
        })
        with pytest.raises(FlowDataError, match="frame 5"):
            cli.run_tracking_files(
                detections_path=sim_dir / "detections.txt", clouds_dir=sim_dir / "velodyne",
                calib_path=sim_dir / "calib.txt", out_dir=tmp_path / "out",
                flow_source="file", flow_dir=flow_dir,
            )
        # The command reports the same error in one line, with status 2.
        assert run(args) == 2
        assert "frame 5" in capsys.readouterr().err

    def test_nn_flow_runs(self, sim_dir, tmp_path):
        out = tmp_path / "nn"
        assert run(track_args(sim_dir, out, **{"--flow-source": "nn"})) == 0
        assert (out / "results.txt").stat().st_size > 0

    def test_missing_cloud_tracks_by_constant_velocity(self, sim_dir, tmp_path):
        clouds = tmp_path / "velodyne"
        shutil.copytree(sim_dir / "velodyne", clouds)
        (clouds / "000006.bin").unlink()
        nn = {"--flow-source": "nn"}
        assert run(track_args(sim_dir, tmp_path / "full", **nn)) == 0
        assert run(track_args(sim_dir, tmp_path / "gap", **nn, **{"--clouds": clouds})) == 0

        def rows(run_dir):
            lines = (run_dir / "results.txt").read_text().splitlines()
            return {f: [line for line in lines if int(line.split()[0]) == f] for f in range(12)}

        full, gap = rows(tmp_path / "full"), rows(tmp_path / "gap")
        assert all(full[frame] == gap[frame] for frame in range(6))
        # Frames 6 and 7 have no flow, and their tracks carry on.
        assert all(len(gap[frame]) == 3 for frame in range(12))

    @pytest.mark.parametrize("flow_source", ["nn", "oracle"])
    def test_empty_cloud_tracks_like_a_missing_one(self, sim_dir, tmp_path, flow_source):
        # A zero-byte cloud, and one the crop empties (every point behind the
        # camera), give no flow into or out of their frame.
        behind = PointCloud(positions=[[-10.0, 0.0, 0.0], [-12.0, 1.0, 0.0]])
        results = {}
        for name in ("missing", "empty", "cropped"):
            clouds = tmp_path / name / "velodyne"
            shutil.copytree(sim_dir / "velodyne", clouds)
            cloud = clouds / "000006.bin"
            if name == "missing":
                cloud.unlink()
            elif name == "empty":
                cloud.write_bytes(b"")
            else:
                kitti_io.write_velodyne(cloud, behind)
            out = tmp_path / name / "out"
            args = {"--flow-source": flow_source, "--clouds": clouds}
            assert run(track_args(sim_dir, out, **args)) == 0
            results[name] = (out / "results.txt").read_bytes()
        assert results["empty"] == results["missing"] == results["cropped"]

    def test_non_default_image_size_file_flow_round_trip(self, tmp_path):
        # sim --write-flow and track crop by the same rule, the one the
        # calibration gives, so the flow files fit track's default crop.
        scenario = demo_scenario(frames=12, num_objects=3)
        scenario.sensor = replace(scenario.sensor, image_width=1000)
        write_scenario(tmp_path / "w1000.scn", scenario)
        scene = tmp_path / "scene"
        assert run(["sim", "--scenario", tmp_path / "w1000.scn", "--write-flow",
                    "--out", scene]) == 0
        assert run(["track", "--detections", scene / "detections.txt",
                    "--clouds", scene / "velodyne", "--calib", scene / "calib.txt",
                    "--flow-source", "file", "--flow-dir", scene / "flow",
                    "--out", tmp_path / "trk"]) == 0
        assert run(["eval", "--gt", scene / "gt.txt", "--results", tmp_path / "trk" / "results.txt",
                    "--out", tmp_path / "eval"]) == 0
        report = json.loads((tmp_path / "eval" / "report_iou0.25.json").read_text())
        assert report["sAMOTA"] == 100.0

    def test_constant_velocity_needs_no_clouds(self, sim_dir, tmp_path):
        out = tmp_path / "cv"
        assert run([
            "track", "--detections", sim_dir / "detections.txt",
            "--predictor", "cv", "--out", out,
        ]) == 0
        assert (out / "results.txt").stat().st_size > 0

    def test_constant_velocity_skips_cloud_preprocessing(self, sim_dir, tmp_path, monkeypatch):
        without = tmp_path / "without"
        assert run([
            "track", "--detections", sim_dir / "detections.txt",
            "--predictor", "cv", "--out", without,
        ]) == 0
        calls = []
        monkeypatch.setattr(cli, "preprocess_frame", lambda *args: calls.append(args))
        with_clouds = tmp_path / "with"
        assert run(track_args(sim_dir, with_clouds, **{"--predictor": "cv"})) == 0
        assert calls == []
        assert (with_clouds / "results.txt").read_bytes() == (
            without / "results.txt"
        ).read_bytes()

    def test_constant_velocity_reads_no_cloud(self, sim_dir, tmp_path, monkeypatch):
        reads = []
        monkeypatch.setattr(cli, "read_velodyne", reads.append)
        assert run(track_args(sim_dir, tmp_path / "cv", **{"--predictor": "cv"})) == 0
        assert reads == []

    def test_flow_reads_each_cloud_once_within_lookahead(self, sim_dir, tracked_dir, tmp_path,
                                                         monkeypatch):
        eager = {
            int(path.stem): cli.read_velodyne(path)
            for path in sorted((sim_dir / "velodyne").glob("*.bin"))
        }
        reads = []
        read = cli.read_velodyne
        monkeypatch.setattr(cli, "read_velodyne", lambda path: reads.append(path.name) or read(path))
        # Reads made by the time each frame is tracked: the worker threads
        # may run ahead of the tracker by the lookahead, and no further.
        seen = []
        step = tracker.Tracker.step
        monkeypatch.setattr(
            tracker.Tracker, "step",
            lambda self, *a, **k: seen.append(len(reads)) or step(self, *a, **k),
        )
        assert run(track_args(sim_dir, tmp_path / "lazy")) == 0
        assert sorted(reads) == [f"{frame:06d}.bin" for frame in sorted(eager)]
        assert all(count <= i + 1 + cli.PREPROCESS_LOOKAHEAD for i, count in enumerate(seen))
        # The lazy mapping tracks exactly as a dict of every cloud read up front.
        calib = cli.read_calib(sim_dir / "calib.txt")
        detections = {
            frame: [cli.Detection(box, row.score, row.category) for row, box in pairs]
            for frame, pairs in cli.read_boxes(sim_dir / "detections.txt", calib, "Car").items()
        }
        estimator = cli.OracleFlowEstimator({
            frame: {row.track_id: box for row, box in pairs}
            for frame, pairs in cli.read_boxes(sim_dir / "gt.txt", calib, "Car").items()
        })
        results = run_tracking(detections, eager, estimator, TrackerConfig(), calib=calib)
        cli.write_results(tmp_path / "eager.txt", results, calib)
        assert (tmp_path / "eager.txt").read_bytes() == (tracked_dir / "results.txt").read_bytes()
        assert (tmp_path / "lazy" / "results.txt").read_bytes() == (
            tracked_dir / "results.txt"
        ).read_bytes()

    def test_iou_kernel_tracks_like_the_scalar_loop(self, tmp_path, monkeypatch):
        scenario = demo_scenario(
            40, 12, seed=3, noise=NoiseSpec(0.4, 0.1, 0.8, 0.1, (0.5, 1.0))
        )
        frames = generate(scenario)
        detections = {f.index: f.detections for f in frames}
        calib = scenario.sensor.calibration()

        def tracked(name):
            results = run_tracking(detections, None, None, TrackerConfig())
            cli.write_results(tmp_path / name, results, calib)
            return (tmp_path / name).read_bytes()

        kernel = tracked("kernel.txt")

        def loop_iou_matrix(rows, cols, categories=None):
            matrix = np.zeros((len(rows), len(cols)))
            for i, a in enumerate(rows):
                for j, b in enumerate(cols):
                    if categories is None or categories[0][i] == categories[1][j]:
                        matrix[i, j] = iou3d_reference(a, b)
            return matrix

        overlaps = []
        monkeypatch.setattr(
            tracker, "iou_matrix",
            lambda *args: overlaps.append(m := loop_iou_matrix(*args)) or m,
        )
        assert tracked("loop.txt") == kernel
        # Crowded: detections overlap more than one tracklet.
        assert any(((m > 0).sum(axis=0) > 1).any() for m in overlaps)

    def test_constant_velocity_frame_range_spans_clouds(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "preprocess_frame", lambda *args: calls.append(args))
        cloud = PointCloud(positions=np.zeros((4, 3)))
        results = run_tracking({0: []}, {0: cloud, 4: cloud}, None, TrackerConfig())
        assert sorted(results) == [0, 1, 2, 3, 4]
        assert calls == []

    def test_late_start_keeps_the_warm_up(self):
        frames = generate(demo_scenario(frames=12, num_objects=3))
        detections = {f.index: f.detections for f in frames}
        from_zero = run_tracking(detections, None, None, TrackerConfig())
        late = run_tracking(
            {frame + 50: dets for frame, dets in detections.items()}, None, None, TrackerConfig()
        )
        assert [len(from_zero[frame]) for frame in sorted(from_zero)] == [3] * 12
        # Stepping from frame 0 used up the warm-up on 50 empty frames: [0, 0, 3, ...].
        assert [len(late.get(frame, [])) for frame in range(50, 62)] == [3] * 12
        assert sorted(late) == list(range(50, 62))
        assert all(late[frame + 50] == tracks for frame, tracks in from_zero.items())

    def test_oracle_requires_ground_truth(self, sim_dir, tmp_path, capsys):
        with pytest.raises(ValueError, match="--gt"):
            cli.run_tracking_files(
                sim_dir / "detections.txt", sim_dir / "velodyne", sim_dir / "calib.txt",
                tmp_path / "x", flow_source="oracle",
            )
        assert run(track_args(sim_dir, tmp_path / "x", **{"--gt": None})) == 2
        assert capsys.readouterr().err == (
            "flowtrack track: error: --flow-source oracle needs --gt for the true motions\n"
        )

    def test_file_source_requires_flow_dir(self, sim_dir, tmp_path, capsys):
        with pytest.raises(ValueError, match="--flow-dir"):
            cli.run_tracking_files(
                sim_dir / "detections.txt", sim_dir / "velodyne", sim_dir / "calib.txt",
                tmp_path / "x", flow_source="file",
            )
        assert run(track_args(sim_dir, tmp_path / "x", **{"--flow-source": "file"})) == 2
        assert capsys.readouterr().err == (
            "flowtrack track: error: --flow-source file needs --flow-dir\n"
        )

    def test_unknown_predictor_is_a_usage_error(self, sim_dir, tmp_path):
        with pytest.raises(UsageError, match="unknown predictor 'kalman'"):
            cli.run_tracking_files(
                sim_dir / "detections.txt", sim_dir / "velodyne", sim_dir / "calib.txt",
                tmp_path / "x", predictor="kalman",
            )

    def test_unknown_flow_source_is_a_usage_error(self, sim_dir, tmp_path):
        with pytest.raises(UsageError, match="unknown flow source 'magic'"):
            cli.run_tracking_files(
                sim_dir / "detections.txt", sim_dir / "velodyne", sim_dir / "calib.txt",
                tmp_path / "x", flow_source="magic",
            )


class TestConfigFile:
    def test_config_reflected_in_manifest(self, sim_dir, tmp_path):
        cfg = tmp_path / "tracker.cfg"
        cfg.write_text("iou_min = 0.2\nmax_mis = 5\n")
        out = tmp_path / "cfg_run"
        assert run(track_args(sim_dir, out, **{"--config": cfg})) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        resolved = manifest["arguments"]["resolved_config"]
        assert resolved == {"iou_min": 0.2, "max_mis": 5, "min_det": 3}


class TestSettingsFiles:
    def track_with_config(self, sim_dir, tmp_path, text: str) -> tuple[int, Path]:
        cfg = tmp_path / "tracker.cfg"
        cfg.write_text(text)
        return run(track_args(sim_dir, tmp_path / "out", **{"--config": cfg})), cfg

    def test_out_of_range_config_value_one_line_exit_2(self, sim_dir, tmp_path, capsys):
        code, cfg = self.track_with_config(
            sim_dir, tmp_path, "# gate\niou_min = 0.5\nmin_det = 0\nmax_mis = -4\n"
        )
        assert code == 2
        err = one_line_error(capsys, "track")
        assert f"{cfg}:3: min_det: " in err and "min_det must be >= 1, got 0" in err
        assert not (tmp_path / "out" / "results.txt").exists()

    def test_zero_iou_min_one_line_exit_2(self, sim_dir, tmp_path, capsys):
        # At 0 the solver's leftover zero-IoU pairs would count as matches.
        code, cfg = self.track_with_config(sim_dir, tmp_path, "iou_min = 0\n")
        assert code == 2
        err = one_line_error(capsys, "track")
        assert f"{cfg}:1: iou_min: iou_min must be in (0, 1], got 0.0" in err

    def test_unknown_config_key_one_line_exit_2(self, sim_dir, tmp_path, capsys):
        code, cfg = self.track_with_config(sim_dir, tmp_path, "max_mis 4\nbogus_key = 3\n")
        assert code == 2
        assert f"{cfg}:2: unknown key 'bogus_key'" in one_line_error(capsys, "track")

    def test_flow_source_config_key_one_line_exit_2(self, sim_dir, tmp_path, capsys):
        code, cfg = self.track_with_config(sim_dir, tmp_path, "flow_source = nn\n")
        assert code == 2
        assert f"{cfg}:1: unknown key 'flow_source'" in one_line_error(capsys, "track")

    def test_config_section_one_line_exit_2(self, sim_dir, tmp_path, capsys):
        code, cfg = self.track_with_config(sim_dir, tmp_path, "[tracker]\niou_min = 0.2\n")
        assert code == 2
        assert f"{cfg}:1: unknown section [tracker]" in one_line_error(capsys, "track")

    def test_unparsable_scenario_value_one_line_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text("seed = 4\nframes = x\n")
        assert run(["sim", "--scenario", path, "--out", tmp_path / "out"]) == 2
        err = one_line_error(capsys, "sim")
        assert f"{path}:2: frames: expected an integer, got 'x'" in err

    def test_uncovered_scenario_frames_one_line_exit_2(self, tmp_path, capsys):
        path = tmp_path / "late.scn"
        path.write_text("frames = 4\n[object]\nwaypoint = 2 5 0 0.8 0\nwaypoint = 3 8 0 0.8 0\n")
        assert run(["sim", "--scenario", path, "--out", tmp_path / "out"]) == 2
        assert "waypoint span [2, 3]" in one_line_error(capsys, "sim")

    def test_zero_frames_one_line_exit_2(self, tmp_path, capsys):
        assert run(["sim", "--frames", "0", "--out", tmp_path / "out"]) == 2
        assert "at least one frame, got 0" in one_line_error(capsys, "sim")

    def test_negative_object_count_one_line_exit_2(self, tmp_path, capsys):
        assert run(["sim", "--objects", "-2", "--out", tmp_path / "out"]) == 2
        assert "object count must be at least 0, got -2" in one_line_error(capsys, "sim")
        assert not (tmp_path / "out").exists()

    def test_negative_sim_seed_one_line_exit_2(self, tmp_path, capsys):
        assert run(["sim", "--seed", "-1", "--out", tmp_path / "out"]) == 2
        assert "scenario seed must be at least 0, got -1" in one_line_error(capsys, "sim")
        assert not (tmp_path / "out").exists()

    def test_negative_scenario_file_seed_one_line_exit_2(self, tmp_path, capsys):
        path = tmp_path / "neg.scn"
        write_scenario(path, replace(demo_scenario(frames=3, num_objects=1), seed=-2))
        assert run(["sim", "--scenario", path, "--out", tmp_path / "out"]) == 2
        assert "scenario seed must be at least 0, got -2" in one_line_error(capsys, "sim")

    @pytest.mark.parametrize("flags", [["--frames", "12"], ["--objects", "7"],
                                       ["--frames", "30", "--objects", "5"]])
    def test_demo_flags_with_scenario_one_line_exit_2(self, tmp_path, capsys, flags):
        path = tmp_path / "s.scn"
        write_scenario(path, demo_scenario(frames=5, num_objects=2))
        assert run(["sim", "--scenario", path, *flags, "--out", tmp_path / "out"]) == 2
        err = one_line_error(capsys, "sim")
        assert "--frames and --objects build the demo scenario" in err
        assert not (tmp_path / "out").exists()

    def test_demo_defaults_recorded(self, tmp_path):
        assert run(["sim", "--frames", "2", "--out", tmp_path / "out"]) == 0
        arguments = json.loads((tmp_path / "out" / "run_manifest.json").read_text())["arguments"]
        assert (arguments["frames"], arguments["objects"]) == (2, 5)

    @pytest.mark.parametrize("text, message", [
        ("[ground]\nx_range = -1e308 1e308\n", "[ground] x_range: numbers must be finite"),
        ("[ground]\nnum_points = -5\n", "point counts must be at least 0"),
        ("points_per_object = -1\n[object]\nwaypoint = 0 5 0 0.8 0\n",
         "point counts must be at least 0"),
        ("[noise]\npos_sigma = nan\n", "[noise] pos_sigma: numbers must be finite"),
        ("[noise]\nscore_range = 0 inf\n", "[noise] score_range: numbers must be finite"),
        ("[noise]\nscore_range = 1 0.5\n", "[noise] score_range: a range runs from low to high"),
        ("[object]\ndims = 0 1.8 1.6\nwaypoint = 0 5 0 0.8 0\n", "object 1: sizes must be"),
        ("[object]\ndims = -4 1.8 1.6\nwaypoint = 0 5 0 0.8 0\n", "object 1: sizes must be"),
        ("[object]\ndims = 1e300 1e300 1.6\nwaypoint = 0 5 0 0.8 0\n",
         "object 1: sizes must be positive and numbers must be finite"),
        ("frames = 2\n[object]\nwaypoint = 0 -1e308 0 0.8 0\nwaypoint = 1 1e308 0 0.8 0\n",
         "object 1: sizes must be positive and numbers must be finite"),
    ])
    def test_scenario_numbers_out_of_range_one_line_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.scn"
        path.write_text(text)
        assert run(["sim", "--scenario", path, "--out", tmp_path / "out"]) == 2
        assert message in one_line_error(capsys, "sim")

    @pytest.mark.parametrize("command", ["track", "sim"])
    def test_undecodable_settings_file_one_line_exit_2(self, sim_dir, tmp_path, capsys, command):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"frames = 2\xff\n" if command == "sim" else b"max_mis = 2\xff\n")
        if command == "sim":
            args = ["sim", "--scenario", path, "--out", tmp_path / "out"]
        else:
            args = track_args(sim_dir, tmp_path / "out", **{"--config": path})
        assert run(args) == 2
        assert f"{path}:1: " in one_line_error(capsys, command)

    def test_zero_focal_scenario_one_line_exit_2(self, tmp_path, capsys):
        # Rejected where the calibration is built, with or without --write-flow.
        path = tmp_path / "blind.scn"
        scenario = demo_scenario(frames=3, num_objects=1)
        write_scenario(path, replace(scenario, sensor=replace(scenario.sensor, focal=0.0)))
        assert run(["sim", "--scenario", path, "--out", tmp_path / "out"]) == 2
        assert "degenerate projection: fx=0.0 fy=0.0" in one_line_error(capsys, "sim")


class TestEvalCommand:
    def test_multiple_thresholds_write_report_pairs(self, sim_dir, tracked_dir, tmp_path):
        out = tmp_path / "eval"
        run(["eval", "--gt", sim_dir / "gt.txt", "--results",
             tracked_dir / "results.txt", "--iou-thres", "0.25",
             "--iou-thres", "0.5", "--out", out])
        for stem in ("report_iou0.25", "report_iou0.5"):
            assert (out / f"{stem}.txt").exists()
            assert (out / f"{stem}.json").exists()
        strict = json.loads((out / "report_iou0.5.json").read_text())
        assert strict["iou_thres"] == 0.5

    def test_empty_results_score_zero(self, sim_dir, tmp_path):
        empty = tmp_path / "results.txt"
        empty.write_text("")
        out = tmp_path / "eval"
        run(["eval", "--gt", sim_dir / "gt.txt", "--results", empty,
             "--recall-steps", "4", "--out", out])
        report = json.loads((out / "report_iou0.25.json").read_text())
        assert report["sAMOTA"] == 0.0
        assert report["AMOTA"] == 0.0
        assert all(row["MOTA"] == 0.0 for row in report["rows"])

    @staticmethod
    def write_shifted(results: Path, shifted: Path) -> None:
        """``results`` with every frame index moved 100 frames on."""
        moved = []
        for line in results.read_text().splitlines():
            tokens = line.split()
            tokens[0] = str(int(tokens[0]) + 100)
            moved.append(" ".join(tokens))
        shifted.write_text("\n".join(moved) + "\n")

    def test_disjoint_frames_rejected(self, sim_dir, tracked_dir, tmp_path, capsys):
        shifted = tmp_path / "shifted.txt"
        self.write_shifted(tracked_dir / "results.txt", shifted)
        assert run(["eval", "--gt", sim_dir / "gt.txt", "--results", shifted,
                    "--out", tmp_path / "eval"]) == 2
        assert "disjoint frame ranges" in one_line_error(capsys, "eval")

    def test_disjoint_frames_rejected_per_sequence(self, sim_dir, tracked_dir, tmp_path,
                                                  capsys):
        # Sequence 0000 is aligned, so the frames of the two directories
        # overlap as a whole; sequence 0001 alone is shifted.
        gt, results = tmp_path / "gt", tmp_path / "results"
        gt.mkdir()
        results.mkdir()
        for name in ("0000", "0001"):
            shutil.copyfile(sim_dir / "gt.txt", gt / f"{name}.txt")
        shutil.copyfile(tracked_dir / "results.txt", results / "0000.txt")
        self.write_shifted(tracked_dir / "results.txt", results / "0001.txt")
        assert run(["eval", "--gt", gt, "--results", results, "--out", tmp_path / "eval"]) == 2
        err = one_line_error(capsys, "eval")
        assert "sequence 0001: results and ground truth cover disjoint frame ranges" in err

    def test_file_against_directory_one_line_exit_2(self, sim_dir, tracked_dir, tmp_path,
                                                    capsys):
        assert run(["eval", "--gt", sim_dir / "gt.txt", "--results", tracked_dir,
                    "--out", tmp_path / "eval"]) == 2
        assert "both be files or both be directories" in one_line_error(capsys, "eval")

    @pytest.mark.parametrize("value", ["0", "-1", "1.5", "nan"])
    def test_iou_threshold_out_of_range_one_line_exit_2(self, sim_dir, tracked_dir, tmp_path,
                                                        capsys, value):
        assert run(["eval", "--gt", sim_dir / "gt.txt", "--results", tracked_dir / "results.txt",
                    "--iou-thres", "0.25", "--iou-thres", value, "--out", tmp_path / "eval"]) == 2
        assert "IoU threshold must be in (0, 1]" in one_line_error(capsys, "eval")
        assert not (tmp_path / "eval").exists()

    def test_zero_recall_steps_one_line_exit_2(self, sim_dir, tracked_dir, tmp_path, capsys):
        assert run(["eval", "--gt", sim_dir / "gt.txt", "--results",
                    tracked_dir / "results.txt", "--recall-steps", "0",
                    "--out", tmp_path / "eval"]) == 2
        assert "recall steps must be positive, got 0" in one_line_error(capsys, "eval")

    @pytest.mark.parametrize("steps", ["1001", "1000000000"])
    def test_too_many_recall_steps_one_line_exit_2(self, sim_dir, tracked_dir, tmp_path, capsys,
                                                   steps):
        assert run(["eval", "--gt", sim_dir / "gt.txt", "--results",
                    tracked_dir / "results.txt", "--recall-steps", steps,
                    "--out", tmp_path / "eval"]) == 2
        assert f"recall steps must be at most 1000, got {steps}" in one_line_error(capsys, "eval")
        assert not (tmp_path / "eval").exists()

    def test_loaded_boxes_keep_frames_of_other_categories(self, tmp_path):
        def row(frame, track_id, category, x):
            return LabelRow(frame, track_id, category, 0.0, 0, 0.0, (0.0, 0.0, 0.0, 0.0),
                            1.5, 1.6, 3.9, x, 1.5, 12.0, -1.5, 0.5 + 0.1 * track_id)

        path = tmp_path / "labels.txt"
        rows = {0: [row(0, 1, "Car", 2.0), row(0, 2, "Pedestrian", -3.0)],
                1: [row(1, 2, "Pedestrian", -2.5)],
                2: [row(2, 1, "Car", 2.5), row(2, 3, "Car", 7.0)]}
        write_labels(path, rows)
        loaded = cli.load_tracked_frames(path, "Car")
        assert sorted(loaded) == [0, 1, 2] and loaded[1] == []
        cars = [r for frame_rows in read_labels(path).values() for r in frame_rows
                if r.category == "Car"]
        assert [b.box for frame in (0, 2) for b in loaded[frame]] == camera_to_lidar_boxes(
            cars, Calibration.nominal()
        )
        assert [(b.track_id, b.score) for b in loaded[2]] == [(1, 0.6), (3, 0.8)]
        assert [len(v) for v in cli.load_tracked_frames(path).values()] == [2, 1, 2]

    def test_smota_mode_flag_removed(self, sim_dir, tracked_dir, tmp_path):
        with pytest.raises(SystemExit):
            run(["eval", "--gt", sim_dir / "gt.txt", "--results",
                 tracked_dir / "results.txt", "--smota-mode", "ratio", "--out", tmp_path / "e"])


def write_with_bad_size(source: Path, target: Path, column: int, value: str) -> tuple[int, int]:
    """Copy a label file with one box column (10 h, 11 w, 12 l, 13 x, 14 y,
    15 z) of its third row replaced; returns that row's frame and track id."""
    lines = source.read_text().splitlines()
    tokens = lines[2].split()
    tokens[column] = value
    lines[2] = " ".join(tokens)
    target.write_text("\n".join(lines) + "\n")
    return int(tokens[0]), int(tokens[1])


def write_calib_value(source: Path, target: Path, key: str, index: int, value: str) -> Path:
    """Copy a calibration file with value ``index`` of row ``key`` replaced."""
    lines = source.read_text().splitlines()
    for k, line in enumerate(lines):
        if line.startswith(f"{key}:"):
            tokens = line.split()
            tokens[1 + index] = value
            lines[k] = " ".join(tokens)
    target.write_text("\n".join(lines) + "\n")
    return target


class TestCleanFailures:
    def test_malformed_label_file_one_line_exit_2(self, sim_dir, tmp_path, capsys):
        bad = tmp_path / "results.txt"
        bad.write_text("0 1 Car 0 0 not-a-number\n")
        code = run(["eval", "--gt", sim_dir / "gt.txt", "--results", bad,
                    "--out", tmp_path / "eval"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("flowtrack eval: error: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert str(bad) in err

    def test_short_calibration_row_one_line_exit_2(self, sim_dir, tmp_path, capsys):
        calib = tmp_path / "calib.txt"
        lines = (sim_dir / "calib.txt").read_text().splitlines()
        calib.write_text("\n".join(
            " ".join(line.split()[:4]) if line.startswith("P2") else line for line in lines
        ) + "\n")
        args = track_args(sim_dir, tmp_path / "out", **{"--calib": calib})
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("flowtrack track: error: ")
        assert "'P2' needs 12 numbers, got 3" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key, index, value, message", [
        ("Tr_velo_to_cam", 3, "nan", "calibration entries must be finite"),
        ("P2", 0, "0", "degenerate projection"),
        ("R0_rect", 0, "0", "not invertible"),
        # Invertible on paper, but its determinant is below the floor.
        ("R0_rect", 0, "1e-13", "not invertible"),
        # Finite, but a projection or transform this large overflows.
        ("R0_rect", 2, "1e308", "at most 1e+06 in magnitude"),
        ("P2", 0, "1e308", "at most 1e+06 in magnitude"),
        ("R0_rect", 1, "1e300", "at most 1e+06 in magnitude"),
    ])
    def test_bad_calibration_values_one_line_exit_2(
        self, sim_dir, tmp_path, capsys, key, index, value, message
    ):
        calib = write_calib_value(sim_dir / "calib.txt", tmp_path / "calib.txt", key, index, value)
        args = ["track", "--detections", sim_dir / "detections.txt", "--calib", calib,
                "--predictor", "cv", "--out", tmp_path / "out"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(args) == 2
        err = one_line_error(capsys, "track")
        assert f"{calib}: " in err and message in err
        assert not (tmp_path / "out" / "results.txt").exists()

    def test_overflowing_conversion_one_line_exit_2(self, sim_dir, tmp_path, capsys):
        # An invertible calibration that scales camera x by 1e-303 and y by
        # 1e303, whose inverse would take a label row at the largest accepted
        # x past the float range, is refused before any row is converted
        # (``camera_to_lidar_boxes`` still checks its own input).
        calib = write_calib_value(sim_dir / "calib.txt", tmp_path / "calib.txt", "R0_rect", 0,
                                  "1e-303")
        calib = write_calib_value(calib, calib, "R0_rect", 4, "1e303")
        detections = tmp_path / "detections.txt"
        detections.write_text("0 -1 Car 0 0 0 0 0 10 10 1.6 1.8 4 1e6 1.5 10 0 0.9\n")
        args = ["track", "--detections", detections, "--calib", calib,
                "--predictor", "cv", "--out", tmp_path / "out"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(args) == 2
        err = one_line_error(capsys, "track")
        assert f"{calib}: calibration entries must be finite and at most 1e+06" in err
        # At the limits, the same far row converts and tracks without a warning.
        calib = write_calib_value(calib, calib, "R0_rect", 0, "1e-6")
        calib = write_calib_value(calib, calib, "R0_rect", 4, "1e6")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(args) == 0
        assert capsys.readouterr().err == ""

    def test_non_finite_cloud_one_line_exit_2(self, sim_dir, tmp_path, capsys):
        clouds = tmp_path / "velodyne"
        shutil.copytree(sim_dir / "velodyne", clouds)
        records = np.fromfile(clouds / "000003.bin", dtype="<f4").reshape(-1, 4)
        records[5, 0] = np.nan
        records.tofile(clouds / "000003.bin")
        assert run(track_args(sim_dir, tmp_path / "out", **{"--clouds": clouds})) == 2
        err = capsys.readouterr().err
        assert err.startswith("flowtrack track: error: ")
        assert err.count("\n") == 1
        assert "000003.bin: record 5 has a non-finite coordinate" in err

    def test_non_finite_detection_one_line_exit_2(self, sim_dir, tmp_path, capsys):
        lines = (sim_dir / "detections.txt").read_text().splitlines()
        tokens = lines[2].split()
        tokens[12] = "nan"
        lines[2] = " ".join(tokens)
        detections = tmp_path / "detections.txt"
        detections.write_text("\n".join(lines) + "\n")
        args = ["track", "--detections", detections, "--predictor", "cv", "--out", tmp_path / "o"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("flowtrack track: error: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{detections}:3: non-finite number 'nan'" in err

    @pytest.mark.parametrize("column, value", [(10, "0"), (11, "-1.5"), (12, "0.0")])
    def test_nonpositive_size_result_row_one_line_exit_2(
        self, sim_dir, tracked_dir, tmp_path, capsys, column, value
    ):
        results = tmp_path / "results.txt"
        frame, track_id = write_with_bad_size(tracked_dir / "results.txt", results, column, value)
        args = ["eval", "--gt", sim_dir / "gt.txt", "--results", results, "--out", tmp_path / "e"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("flowtrack eval: error: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{results}: frame {frame}, id {track_id}: box sizes must be positive" in err

    def test_overflowing_volume_one_line_exit_2(self, tmp_path, capsys):
        labels = tmp_path / "x.txt"
        labels.write_text("0 1 Car 0 0 0 0 0 10 10 1e300 1e300 1e300 0 1.5 10 0 0.9\n")
        assert run(["eval", "--gt", labels, "--results", labels, "--out", tmp_path / "e"]) == 2
        err = one_line_error(capsys, "eval")
        assert f"{labels}: frame 0, id 1: box sizes must be positive, and sizes and center " \
            "at most 1e+06 m in magnitude; got h=1e+300" in err
        args = ["track", "--detections", labels, "--predictor", "cv", "--out", tmp_path / "t"]
        assert run(args) == 2
        assert f"{labels}: frame 0, id 1: box sizes" in one_line_error(capsys, "track")

    def test_huge_width_result_row_one_line_exit_2(self, sim_dir, tmp_path, capsys):
        # The volume is finite, but the IoU kernel would overflow on the box.
        results = tmp_path / "results.txt"
        results.write_text("0 1 Car 0 0 0 0 0 10 10 1.5 1e300 3.9 0 1.5 10 0 0.9\n")
        args = ["eval", "--gt", sim_dir / "gt.txt", "--results", results, "--out", tmp_path / "e"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(args) == 2
        err = one_line_error(capsys, "eval")
        assert f"{results}: frame 0, id 1: box sizes must be positive, and sizes and center " \
            "at most 1e+06 m in magnitude; got h=1.5 w=1e+300 l=3.9" in err

    def test_far_detection_one_line_exit_2(self, tmp_path, capsys):
        # Its result row would overflow on the way back to the camera frame.
        detections = tmp_path / "detections.txt"
        detections.write_text("0 -1 Car 0 0 0 0 0 10 10 1.5 1.6 3.9 1e308 1.5 10 0 0.9\n")
        args = ["track", "--detections", detections, "--predictor", "cv", "--out", tmp_path / "t"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(args) == 2
        err = one_line_error(capsys, "track")
        assert f"{detections}: frame 0, id -1: box sizes must be positive, and sizes and " \
            "center at most 1e+06 m in magnitude; got h=1.5 w=1.6 l=3.9 x=1e+308" in err
        assert not (tmp_path / "t" / "results.txt").exists()

    @pytest.mark.parametrize("column", [10, 11, 12, 13, 14, 15])
    def test_sizes_and_center_bounded(self, sim_dir, tmp_path, column):
        # Each of h, w, l, x, y and z: accepted at the bound, rejected past it.
        detections = tmp_path / "detections.txt"
        args = ["track", "--detections", detections, "--predictor", "cv", "--out", tmp_path / "o"]
        write_with_bad_size(sim_dir / "detections.txt", detections, column, "1e6")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(args) == 0
        past = "1.000001e6" if column < 13 else "-1.000001e6"
        write_with_bad_size(sim_dir / "detections.txt", detections, column, past)
        assert run(args) == 2

    def test_vanishing_boxes_track_silently(self, tmp_path, capsys):
        # Sizes of 1e-120 m: the IoU of two such boxes has no volume to divide by.
        row = "-1 Car 0 0 0 0 0 10 10 1e-120 1e-120 1e-120 0 0 0 0 0.9"
        detections = tmp_path / "detections.txt"
        detections.write_text(f"0 {row}\n1 {row}\n")
        args = ["track", "--detections", detections, "--predictor", "cv", "--out", tmp_path / "o"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(args) == 0
        assert capsys.readouterr().err == ""

    def test_nonpositive_size_detection_one_line_exit_2(self, sim_dir, tmp_path, capsys):
        detections = tmp_path / "detections.txt"
        frame, _ = write_with_bad_size(sim_dir / "detections.txt", detections, 10, "0")
        args = ["track", "--detections", detections, "--predictor", "cv", "--out", tmp_path / "o"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("flowtrack track: error: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{detections}: frame {frame}, id -1: box sizes must be positive" in err

    def test_oracle_flow_past_the_float_range_one_line_exit_2(self, sim_dir, tmp_path, capsys):
        # Frame 2's true boxes jump by 1e308: finite vectors whose mean is not.
        gt = tmp_path / "gt.txt"
        rows = [line.split() for line in (sim_dir / "gt.txt").read_text().splitlines()]
        for tokens in rows:
            if tokens[0] == "2":
                tokens[13] = "1e308"
        gt.write_text("".join(" ".join(tokens) + "\n" for tokens in rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(track_args(sim_dir, tmp_path / "out", **{"--gt": gt})) == 2
        err = one_line_error(capsys, "track")
        assert f"{gt}: frame 2, id " in err and "at most 1e+06 m in magnitude" in err
        # Past the label reader, the predictor reports such a jump itself.
        calib = cli.read_calib(sim_dir / "calib.txt")
        detections = {
            frame: [cli.Detection(box, row.score, row.category) for row, box in pairs]
            for frame, pairs in cli.read_boxes(sim_dir / "detections.txt", calib, "Car").items()
        }
        estimator = cli.OracleFlowEstimator({
            frame: {row.track_id: replace(box, y=-1e308) if frame == 2 else box
                    for row, box in pairs}
            for frame, pairs in cli.read_boxes(sim_dir / "gt.txt", calib, "Car").items()
        })
        with warnings.catch_warnings(), pytest.raises(FlowDataError, match="leaves the float"):
            warnings.simplefilter("error")
            run_tracking(detections, cli.CloudFiles(sim_dir / "velodyne"), estimator,
                         TrackerConfig(), calib=calib)

    def test_nonpositive_size_oracle_gt_one_line_exit_2(self, sim_dir, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        frame, track_id = write_with_bad_size(sim_dir / "gt.txt", gt, 12, "-4")
        assert run(track_args(sim_dir, tmp_path / "out", **{"--gt": gt})) == 2
        err = capsys.readouterr().err
        assert err.startswith("flowtrack track: error: ")
        assert err.count("\n") == 1
        assert f"{gt}: frame {frame}, id {track_id}: box sizes must be positive" in err

    def test_other_categories_keep_any_size(self, sim_dir, tracked_dir, tmp_path):
        # KITTI marks ignored regions with DontCare rows of size -1.
        dont_care = "DontCare -1 -1 -10 0 0 10 10 -1 -1 -1 -1000 -1000 -1000 -10"
        paths = {}
        for name, source, track_id, score in (
            ("gt", sim_dir / "gt.txt", -1, ""),
            ("results", tracked_dir / "results.txt", 99, " 0.5"),
            ("detections", sim_dir / "detections.txt", -1, " 0.5"),
        ):
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(
                source.read_text() + f"2 {track_id} {dont_care}{score}\n"
            )
        assert run(["eval", "--gt", paths["gt"], "--results", paths["results"],
                    "--out", tmp_path / "e"]) == 0
        assert run(["eval", "--gt", sim_dir / "gt.txt", "--results", tracked_dir / "results.txt",
                    "--out", tmp_path / "e0"]) == 0
        assert ((tmp_path / "e" / "report_iou0.25.json").read_bytes()
                == (tmp_path / "e0" / "report_iou0.25.json").read_bytes())
        assert run(["track", "--detections", paths["detections"], "--predictor", "cv",
                    "--out", tmp_path / "t"]) == 0

    @pytest.mark.parametrize("flag, value, message", [
        ("--nn-max-dist", "0", "--nn-max-dist must be positive, got 0.0"),
    ])
    def test_nonpositive_nn_flow_flag_one_line_exit_2(
        self, sim_dir, tmp_path, capsys, flag, value, message
    ):
        args = track_args(sim_dir, tmp_path / "out", **{"--flow-source": "nn", flag: value})
        assert run(args) == 2
        assert message in one_line_error(capsys, "track")
        assert not (tmp_path / "out" / "results.txt").exists()

    def test_flow_predictor_without_clouds_one_line_exit_2(self, sim_dir, tmp_path, capsys):
        assert run(track_args(sim_dir, tmp_path / "out", **{"--clouds": None})) == 2
        assert "--predictor flow needs --clouds" in one_line_error(capsys, "track")
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(track_args(sim_dir, tmp_path / "out", **{"--clouds": empty})) == 2
        assert f"--clouds {empty}: no .bin cloud" in one_line_error(capsys, "track")
        assert run(track_args(sim_dir, tmp_path / "cv", **{"--clouds": empty,
                                                           "--predictor": "cv"})) == 0

    @pytest.mark.parametrize("predictor", ["flow", "cv"])
    def test_missing_clouds_directory_one_line_exit_2(self, sim_dir, tmp_path, capsys, predictor):
        missing = tmp_path / "nope_dir"
        args = track_args(sim_dir, tmp_path / "out", **{"--clouds": missing,
                                                        "--predictor": predictor})
        assert run(args) == 2
        assert f"--clouds {missing}: no such directory" in one_line_error(capsys, "track")
        assert not (tmp_path / "out" / "results.txt").exists()

    @pytest.mark.parametrize("flag", ["--detections", "--config", "--scenario"])
    def test_missing_input_file_one_line_exit_2(self, sim_dir, tmp_path, capsys, flag):
        missing = tmp_path / "nope.txt"
        if flag == "--scenario":
            command, args = "sim", ["sim", "--scenario", missing, "--out", tmp_path / "out"]
        else:
            command, args = "track", track_args(sim_dir, tmp_path / "out", **{flag: missing})
        assert run(args) == 2
        err = one_line_error(capsys, command)
        assert "No such file or directory" in err and str(missing) in err

    @pytest.mark.parametrize("command", ["eval", "decimate"])
    def test_ignored_seed_flag_removed(self, sim_dir, tmp_path, command):
        if command == "eval":
            args = ["eval", "--gt", sim_dir / "gt.txt", "--results", sim_dir / "gt.txt"]
        else:
            args = ["decimate", "--in", sim_dir, "--stride", "2"]
        with pytest.raises(SystemExit):
            run([*args, "--seed", "3", "--out", tmp_path / "out"])

    @pytest.mark.parametrize("command, flag", [
        ("track", "--fov-margin"), ("track", "--num-points"), ("track", "--seed"),
        ("sim", "--num-points"),
    ])
    def test_preprocessing_flags_removed(self, sim_dir, tmp_path, command, flag):
        # The crop margin, the sample size and the draws are fixed, so a
        # flow file fits its cloud whenever both come from one calibration.
        args = track_args(sim_dir, tmp_path / "out") if command == "track" else [
            "sim", "--frames", "3", "--out", tmp_path / "out"]
        with pytest.raises(SystemExit):
            run([*args, flag, "10"])
        assert not (tmp_path / "out").exists()


def scene_copy(sim_dir: Path, tmp_path: Path) -> Path:
    scene = tmp_path / "scene"
    shutil.copytree(sim_dir, scene)
    return scene


class TestFrameIndices:
    """A frame index, in a cloud file name or a label row, is ASCII digits
    of value at most 999999; each frame has at most one cloud file."""

    @pytest.mark.parametrize("name", ["foo.bin", "-000005.bin", "1_0.bin", "+7.bin",
                                      "1000000.bin", "\u0663.bin", " 3.bin"])
    @pytest.mark.parametrize("command", ["track", "decimate"])
    def test_cloud_name_not_a_frame_index_one_line_exit_2(
        self, sim_dir, tmp_path, capsys, command, name
    ):
        scene = scene_copy(sim_dir, tmp_path)
        stray = scene / "velodyne" / name
        shutil.copyfile(scene / "velodyne" / "000003.bin", stray)
        if command == "track":
            args = track_args(scene, tmp_path / "out")
        else:
            args = ["decimate", "--in", scene, "--stride", "1", "--out", tmp_path / "out"]
        assert run(args) == 2
        err = one_line_error(capsys, command)
        assert f"{stray}: a cloud file is named by its frame index" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["track", "decimate"])
    def test_two_files_for_one_frame_one_line_exit_2(self, sim_dir, tmp_path, capsys, command):
        scene = scene_copy(sim_dir, tmp_path)
        shutil.copyfile(scene / "velodyne" / "000003.bin", scene / "velodyne" / "1.bin")
        if command == "track":
            args = track_args(scene, tmp_path / "out", **{"--predictor": "cv"})
        else:
            args = ["decimate", "--in", scene, "--stride", "1", "--out", tmp_path / "out"]
        assert run(args) == 2
        err = one_line_error(capsys, command)
        assert "000001.bin and 1.bin are both the cloud of frame 1" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("frame", ["-4", "+7", "1_0", "1000000"])
    @pytest.mark.parametrize("command", ["track", "eval"])
    def test_label_frame_not_an_index_one_line_exit_2(
        self, sim_dir, tracked_dir, tmp_path, capsys, command, frame
    ):
        name = "detections.txt" if command == "track" else "gt.txt"
        labels = tmp_path / name
        row = (sim_dir / name).read_text().splitlines()[-1].split(" ", 1)[1]
        labels.write_text((sim_dir / name).read_text() + f"{frame} {row}\n")
        if command == "track":
            args = track_args(sim_dir, tmp_path / "out", **{"--detections": labels,
                                                            "--predictor": "cv"})
        else:
            args = ["eval", "--gt", labels, "--results", tracked_dir / "results.txt",
                    "--out", tmp_path / "out"]
        lines = len(labels.read_text().splitlines())
        assert run(args) == 2
        err = one_line_error(capsys, command)
        assert f"{labels}:{lines}: frame {frame!r} is not a frame index" in err
        assert not (tmp_path / "out").exists()

    def test_sim_past_the_largest_frame_index_one_line_exit_2(self, tmp_path, capsys):
        assert run(["sim", "--frames", "1000001", "--out", tmp_path / "out"]) == 2
        assert "at most 1000000 frames" in one_line_error(capsys, "sim")
        assert not (tmp_path / "out").exists()


class TestDecimateCommand:
    def test_stride_2_halves_scene(self, sim_dir, tmp_path):
        out = tmp_path / "half"
        assert run(["decimate", "--in", sim_dir, "--stride", "2", "--out", out]) == 0
        bins = sorted(p.name for p in (out / "velodyne").glob("*.bin"))
        assert bins == [f"{i:06d}.bin" for i in range(6)]
        assert (out / "velodyne" / "000002.bin").read_bytes() == (
            sim_dir / "velodyne" / "000004.bin"
        ).read_bytes()
        gt_frames = {int(line.split()[0]) for line in (out / "gt.txt").read_text().splitlines()}
        assert gt_frames == set(range(6))
        assert (out / "calib.txt").read_bytes() == (sim_dir / "calib.txt").read_bytes()
        assert json.loads((out / "run_manifest.json").read_text())["command"] == "decimate"

    def test_offset_keeps_the_odd_frames(self, sim_dir, tmp_path):
        out = tmp_path / "odd"
        assert run(["decimate", "--in", sim_dir, "--stride", "2", "--offset", "1",
                    "--out", out]) == 0
        assert [p.read_bytes() for p in sorted((out / "velodyne").glob("*.bin"))] == [
            (sim_dir / "velodyne" / f"{i:06d}.bin").read_bytes() for i in range(1, 12, 2)
        ]

    def test_stride_composes(self, sim_dir, tmp_path):
        half = tmp_path / "half"
        run(["decimate", "--in", sim_dir, "--stride", "2", "--out", half])
        quarter = tmp_path / "quarter"
        run(["decimate", "--in", half, "--stride", "2", "--out", quarter])
        direct = tmp_path / "direct"
        run(["decimate", "--in", sim_dir, "--stride", "4", "--out", direct])
        assert (quarter / "gt.txt").read_bytes() == (direct / "gt.txt").read_bytes()
        assert (quarter / "velodyne" / "000001.bin").read_bytes() == (
            direct / "velodyne" / "000001.bin"
        ).read_bytes()

    def test_scene_without_clouds_keeps_label_frames(self, sim_dir, tmp_path):
        labels_only = tmp_path / "labels_only"
        labels_only.mkdir()
        for name in ("calib.txt", "gt.txt", "detections.txt"):
            shutil.copyfile(sim_dir / name, labels_only / name)
        assert cli.run_decimation(labels_only, tmp_path / "half", 2, 0) == list(range(0, 12, 2))
        cli.run_decimation(sim_dir, tmp_path / "with_clouds", 2, 0)
        for name in ("gt.txt", "detections.txt"):
            assert (tmp_path / "half" / name).read_bytes() == (
                tmp_path / "with_clouds" / name
            ).read_bytes()
        assert not (tmp_path / "half" / "velodyne").exists()

    def test_clouds_listed_as_track_lists_them(self, sim_dir, tmp_path):
        scene = tmp_path / "scene"
        shutil.copytree(sim_dir, scene)
        (scene / "velodyne" / "000003.bin").rename(scene / "velodyne" / "3.bin")
        assert cli.run_decimation(scene, tmp_path / "third", 3, 0) == [0, 3, 6, 9]
        assert (tmp_path / "third" / "velodyne" / "000001.bin").read_bytes() == (
            sim_dir / "velodyne" / "000003.bin"
        ).read_bytes()

    def test_oracle_flow_exact_across_dropped_frames(self, sim_dir, tmp_path):
        third = tmp_path / "third"
        assert run(["decimate", "--in", sim_dir, "--stride", "3", "--out", third]) == 0
        assert run(track_args(third, tmp_path / "trk")) == 0
        assert run(["eval", "--gt", third / "gt.txt", "--results",
                    tmp_path / "trk" / "results.txt", "--out", tmp_path / "eval"]) == 0
        report = json.loads((tmp_path / "eval" / "report_iou0.25.json").read_text())
        assert (report["sAMOTA"], report["MOTA"], report["MOTP"]) == (100.0, 1.0, 1.0)

    def test_file_flow_on_decimated_scene_exits_2(self, sim_dir, tmp_path, capsys):
        half = tmp_path / "half"
        assert run(["decimate", "--in", sim_dir, "--stride", "2", "--out", half]) == 0
        assert not (half / "flow").exists()
        args = track_args(half, tmp_path / "trk", **{
            "--flow-source": "file", "--flow-dir": half / "flow",
        })
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("flowtrack track: error: no flow file for frame 0")
        assert err.count("\n") == 1

    def test_stride_required_and_keep_removed(self, sim_dir, tmp_path):
        with pytest.raises(SystemExit):
            run(["decimate", "--in", sim_dir, "--out", tmp_path / "x"])
        with pytest.raises(SystemExit):
            run(["decimate", "--in", sim_dir, "--keep", "even", "--stride", "2",
                 "--out", tmp_path / "x"])

    @pytest.mark.parametrize("stride", ["0", "-2"])
    def test_stride_below_one_one_line_exit_2(self, sim_dir, tmp_path, capsys, stride):
        assert run(["decimate", "--in", sim_dir, "--stride", stride, "--out", tmp_path / "x"]) == 2
        assert capsys.readouterr().err == (
            f"flowtrack decimate: error: stride must be at least 1, got {stride}\n"
        )

    def test_negative_offset_is_a_usage_error(self, sim_dir, tmp_path):
        with pytest.raises(UsageError, match="offset must be non-negative, got -1"):
            cli.run_decimation(sim_dir, tmp_path / "x", 2, -1)
        assert UsageError in cli.DOMAIN_ERRORS

    def test_missing_input_directory_one_line_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope_dir"
        args = ["decimate", "--in", missing, "--stride", "2", "--out", tmp_path / "out"]
        assert run(args) == 2
        assert f"--in {missing}: no such directory" in one_line_error(capsys, "decimate")
        assert not (tmp_path / "out").exists()

    def test_empty_input_one_line_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty_scene"
        empty.mkdir()
        assert run(["decimate", "--in", empty, "--stride", "2", "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == (
            "flowtrack decimate: error: decimation with stride 2 and offset 0 keeps no frame "
            "of 0\n"
        )
        assert not (tmp_path / "out").exists()

    def test_offset_past_the_last_frame_one_line_exit_2(self, sim_dir, tmp_path, capsys):
        args = ["decimate", "--in", sim_dir, "--stride", "2", "--offset", "40",
                "--out", tmp_path / "out"]
        assert run(args) == 2
        assert capsys.readouterr().err == (
            "flowtrack decimate: error: decimation with stride 2 and offset 40 keeps no frame "
            "of 12\n"
        )
        assert not (tmp_path / "out").exists()


class TestImport:
    def test_cli_import_loads_no_scipy(self):
        # scipy is imported by the nn flow estimator on first use only.
        src = str(Path(flowtrack.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        ))
        probe = (
            "import sys, flowtrack.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_cv_track_and_eval_load_no_scipy(self, sim_dir, tmp_path):
        # The association path (IoU matrix and assignment) stays scipy-free:
        # importing scipy.optimize alone costs more than a whole small eval.
        src = str(Path(flowtrack.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        ))
        track = track_args(
            sim_dir, tmp_path / "trk", **{"--predictor": "cv", "--flow-source": None}
        )
        evaluate = ["eval", "--gt", sim_dir / "gt.txt", "--results",
                    tmp_path / "trk" / "results.txt", "--out", tmp_path / "eval"]
        probe = (
            "import sys, flowtrack.cli as cli; "
            f"assert cli.main({[str(a) for a in track]!r}) == 0; "
            f"assert cli.main({[str(a) for a in evaluate]!r}) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip().splitlines()[-1] == "[]"
        assert (tmp_path / "eval" / "report_iou0.25.json").exists()
