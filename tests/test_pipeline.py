"""The pipelined preprocess -> flow chain and the per-frame point attribution.

``cli.preprocessed_flows`` reads and preprocesses upcoming clouds on worker
threads while the caller's thread estimates flow and tracks; it must yield
what the sequential loop ``oracles.preprocessed_flows_reference`` yields,
raise a bad cloud's error where that loop raises it, and leave no thread
behind however it ends.  ``cli.run_tracking`` estimates flow only for the
points inside live boxes, found by one attribution pass per frame.
"""

from __future__ import annotations

import concurrent.futures
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import flowtrack.cli as cli
import flowtrack.tracker as tracker
from flowtrack.flow import NearestNeighborFlowEstimator, OracleFlowEstimator, read_flow_file
from flowtrack.geometry import Box3D
from flowtrack.kitti_io import VelodyneFormatError, write_velodyne
from flowtrack.preprocess import PointCloud
from flowtrack.sim import NoiseSpec, demo_scenario, generate
from flowtrack.tracker import Detection, TrackerConfig
from oracles import points_in_boxes_reference, preprocessed_flows_reference


@pytest.fixture(scope="module")
def scene():
    # Dense enough that more than ``cli.SAMPLE_SIZE`` points are left after
    # the crop and the ground fit, so the sample is drawn.
    scenario = demo_scenario(14, 4, seed=5, noise=NoiseSpec(0.2, 0.05, 0.5, 0.1, (0.5, 1.0)))
    scenario = replace(scenario, points_per_object=1800,
                       ground=replace(scenario.ground, num_points=6000))
    return scenario, generate(scenario)


def shifted_clouds(frames, start: int, missing: int) -> dict:
    """Clouds re-indexed from ``start``, without the one of frame ``missing``."""
    return {f.index + start: f.cloud for f in frames if f.index + start != missing}


def spawned_threads(before: set) -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t not in before and t.is_alive()]


def assert_same_chain(got, want) -> None:
    got, want = list(got), list(want)
    assert [g[0] for g in got] == [w[0] for w in want]
    for (_, *clouds), (_, *clouds_ref) in zip(got, want):
        for cloud, cloud_ref in zip(clouds, clouds_ref):
            assert (cloud is None) == (cloud_ref is None)
            if cloud is not None:
                assert cloud.positions.tobytes() == cloud_ref.positions.tobytes()
                assert cloud.features.tobytes() == cloud_ref.features.tobytes()
                assert cloud.labels.tobytes() == cloud_ref.labels.tobytes()


class TestPipelinedChain:
    @pytest.mark.parametrize("switch_interval", [None, 1e-6])
    def test_yields_the_sequential_loop(self, scene, tmp_path, switch_interval):
        scenario, frames = scene
        # A late start (clouds from frame 50), two frames before the first
        # cloud, and a cloud missing mid-sequence.
        clouds = shifted_clouds(frames, 50, missing=57)
        on_disk = tmp_path / "velodyne"
        for frame, cloud in clouds.items():
            write_velodyne(on_disk / f"{frame:06d}.bin", cloud)
        calib = scenario.sensor.calibration()
        span = range(48, 50 + len(frames))
        previous = sys.getswitchinterval()
        try:
            if switch_interval is not None:
                sys.setswitchinterval(switch_interval)
            for source in (clouds, cli.CloudFiles(on_disk)):
                assert_same_chain(
                    cli.preprocessed_flows(source, span, calib),
                    preprocessed_flows_reference(source, span, calib),
                )
            assert len(cli.preprocess_frame(clouds[50], calib, 50)) == cli.SAMPLE_SIZE
        finally:
            sys.setswitchinterval(previous)

    def test_malformed_cloud_raises_after_the_same_steps(self, tmp_path, monkeypatch):
        scene_dir = tmp_path / "scene"
        assert cli.main(["sim", "--frames", "12", "--objects", "3", "--out", str(scene_dir)]) == 0
        bad = scene_dir / "velodyne" / "000006.bin"
        bad.write_bytes(bad.read_bytes()[:-3])
        steps = []
        step = tracker.Tracker.step
        monkeypatch.setattr(
            tracker.Tracker, "step", lambda self, *a, **k: steps.append(1) or step(self, *a, **k)
        )

        def track():
            steps.clear()
            with pytest.raises(VelodyneFormatError) as raised:
                cli.run_tracking_files(
                    scene_dir / "detections.txt", scene_dir / "velodyne",
                    scene_dir / "calib.txt", tmp_path / "out", flow_source="nn",
                )
            return str(raised.value), len(steps)

        pipelined = track()
        monkeypatch.setattr(cli, "preprocessed_flows", preprocessed_flows_reference)
        assert pipelined == track()
        assert pipelined[0].startswith(f"{bad}: size ")
        assert pipelined[1] == 6

    def test_no_thread_left_running(self, scene, monkeypatch):
        scenario, frames = scene
        clouds = {f.index: f.cloud for f in frames}
        calib = scenario.sensor.calibration()
        detections = {f.index: f.detections for f in frames}
        before = set(threading.enumerate())

        cli.run_tracking(detections, clouds, NearestNeighborFlowEstimator(), TrackerConfig(),
                         calib=calib)
        assert spawned_threads(before) == []

        # A tracker that fails on frame 5, while workers preprocess ahead.
        class FailsAtFrame5(tracker.Tracker):
            def step(self, detections, flow=None, members=None):
                if self.frames_seen == 5:
                    raise RuntimeError("step failed on frame 5")
                return super().step(detections, flow, members)

        monkeypatch.setattr(cli, "Tracker", FailsAtFrame5)
        with pytest.raises(RuntimeError, match="frame 5") as raised:
            cli.run_tracking(detections, clouds, NearestNeighborFlowEstimator(),
                             TrackerConfig(), calib=calib)
        # Stopped by run_tracking itself, not by the collection of a chain
        # that the kept traceback still holds.
        assert raised.traceback and spawned_threads(before) == []

        chain = cli.preprocessed_flows(clouds, range(len(frames)), calib)
        next(chain)
        next(chain)
        assert spawned_threads(before)
        chain.close()
        assert spawned_threads(before) == []

    def test_no_clouds_start_no_thread(self, scene, monkeypatch):
        scenario, frames = scene
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)
        detections = {f.index: f.detections for f in frames}
        clouds = {f.index: f.cloud for f in frames}
        by_cv = cli.run_tracking(detections, clouds, None, TrackerConfig())
        # An estimator without clouds has no flow to give: constant velocity.
        assert cli.run_tracking(
            detections, None, NearestNeighborFlowEstimator(), TrackerConfig()
        ) == by_cv
        chain = cli.preprocessed_flows({}, range(3), None)
        assert list(chain) == [(0, None, None), (1, None, None), (2, None, None)]

    def test_written_flow_files_match_the_sequential_loop(self, scene, tmp_path):
        scenario, frames = scene
        calib = scenario.sensor.calibration()
        cli.write_scenario_outputs(frames, tmp_path, calib, write_flow=True)
        estimator = OracleFlowEstimator({f.index: {g.obj_id: g.box for g in f.gt} for f in frames})
        reference = preprocessed_flows_reference(
            cli.CloudFiles(tmp_path / "velodyne"), [f.index for f in frames], calib
        )
        written = sorted(Path(tmp_path / "flow").glob("*.sfl"))
        expected = [
            (frame, estimator.estimate(prev, curr, frame - 1))
            for frame, prev, curr in reference if prev is not None and curr is not None
        ]
        assert [path.name for path in written] == [f"{frame - 1:06d}.sfl" for frame, _ in expected]
        for path, (_, flow) in zip(written, expected):
            field = read_flow_file(path)
            assert field.sources.tobytes() == flow.sources.astype("<f4").astype(float).tobytes()
            assert field.vectors.tobytes() == flow.vectors.astype("<f4").astype(float).tobytes()


class TestAttribution:
    def test_tracks_like_the_per_box_loop(self, scene, monkeypatch):
        scenario, frames = scene
        clouds = {f.index: f.cloud for f in frames}
        detections = {f.index: f.detections for f in frames}

        def tracked():
            return cli.run_tracking(
                detections, clouds, NearestNeighborFlowEstimator(), TrackerConfig(),
                calib=scenario.sensor.calibration(),
            )

        kernel = tracked()
        # The per-box loop of the oracles attributes the points instead of
        # the x-sorted pass.
        found = []
        monkeypatch.setattr(
            tracker, "points_in_boxes",
            lambda *args, **kwargs: found.append(points_in_boxes_reference(*args, **kwargs))
            or found[-1],
        )
        assert tracked() == kernel
        # The loop ran once per frame after the first, and found points.
        assert len(found) == len(frames) - 1
        assert sum(len(inside) for members in found for inside in members) > 0


class TestFlowWhereRead:
    def test_offsets_match_a_field_over_every_point(self, scene, monkeypatch):
        scenario, frames = scene
        full = []

        class BothWays(NearestNeighborFlowEstimator):
            def estimate(self, prev, curr, frame_index, reads=None):
                assert reads is not None and (np.diff(reads) > 0).all()
                full.append(super().estimate(prev, curr, frame_index))
                field = super().estimate(prev, curr, frame_index, reads)
                assert field.sources.tobytes() == full[-1].sources.tobytes()
                return field

        offsets = []
        compute_offset = tracker.compute_offset

        def spy(flow, inside):
            offsets.append((compute_offset(flow, inside), compute_offset(full[-1], inside)))
            return offsets[-1][0]

        monkeypatch.setattr(tracker, "compute_offset", spy)
        cli.run_tracking(
            {f.index: f.detections for f in frames}, {f.index: f.cloud for f in frames},
            BothWays(), TrackerConfig(), calib=scenario.sensor.calibration(),
        )
        assert sum(mean is not None for (mean, _), _ in offsets) > 10
        for (mean, count), (mean_all, count_all) in offsets:
            assert count == count_all
            assert (mean is None) == (mean_all is None)
            if mean is not None:
                assert mean.tobytes() == mean_all.tobytes()

    def test_one_attribution_pass_and_no_flow_without_a_live_tracklet(self, scene, monkeypatch):
        scenario, frames = scene
        events = []
        points_in_boxes = tracker.points_in_boxes
        monkeypatch.setattr(
            tracker, "points_in_boxes",
            lambda *a, **k: events.append("attribution") or points_in_boxes(*a, **k),
        )
        step = tracker.Tracker.step
        monkeypatch.setattr(
            tracker.Tracker, "step",
            lambda self, *a, **k: events.append(("step", len(self.tracklets))) or step(self, *a, **k),
        )

        class Spy(NearestNeighborFlowEstimator):
            def estimate(self, *args):
                events.append("estimate")
                return super().estimate(*args)

        # No detection in frames 5-8: every tracklet dies after its third
        # missed frame, and frames 8 and 9 start without a live one.
        detections = {f.index: [] if 5 <= f.index <= 8 else f.detections for f in frames}
        cli.run_tracking(detections, {f.index: f.cloud for f in frames}, Spy(), TrackerConfig(),
                         calib=scenario.sensor.calibration())
        # The calls before each step belong to its frame.
        per_frame, calls = [], []
        for event in events:
            if isinstance(event, tuple):
                per_frame.append((event[1], calls))
                calls = []
            else:
                calls.append(event)
        assert len(per_frame) == len(frames)
        assert per_frame[0] == (0, [])
        for live, calls in per_frame[1:]:
            assert calls.count("attribution") == (1 if live else 0)
            assert calls.count("estimate") <= (1 if live else 0)
        assert [live for live, _ in per_frame[8:10]] == [0, 0]
        assert sum(calls.count("estimate") for _, calls in per_frame) >= len(frames) - 4

    def test_no_point_in_a_box_estimates_no_flow(self, monkeypatch):
        # The cloud lies 100 m away from the only car.
        detections = {k: [Detection(Box3D(10.0 + k, 0.0, 0.0, 4.0, 2.0, 2.0, 0.0), 1.0, "Car")]
                      for k in range(6)}
        far = np.random.default_rng(0).uniform(100.0, 110.0, size=(200, 3))
        clouds = {k: PointCloud(positions=far + 0.1 * k) for k in range(6)}
        assert len(cli.preprocess_frame(clouds[0], None, 0)) > 0
        monkeypatch.setattr(NearestNeighborFlowEstimator, "estimate", None)
        by_flow = cli.run_tracking(detections, clouds, NearestNeighborFlowEstimator(),
                                   TrackerConfig())
        assert by_flow == cli.run_tracking(detections, None, None, TrackerConfig())
