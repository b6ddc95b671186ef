"""Scenario generation: exact flow, noise models, decimation, files."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from flowtrack.flow import motions_from_boxes
from flowtrack.geometry import Box3D, iou3d, wrap_angle
from flowtrack.preprocess import UNLABELED, PointCloud, filter_fov
from flowtrack import sim
from flowtrack.tracker import SettingsError, UsageError
from flowtrack.sim import (
    FrameData,
    GroundSpec,
    NoiseSpec,
    ObjectSpec,
    Scenario,
    Waypoint,
    arc_waypoints,
    demo_scenario,
    generate,
    read_scenario,
    select_frames,
    write_scenario,
)


def straight_object(
    obj_id: int = 1,
    speed: float = 1.0,
    frames: int = 10,
    y: float = 0.0,
    start_x: float = 10.0,
) -> ObjectSpec:
    return ObjectSpec(
        obj_id=obj_id,
        category="Car",
        l=4.0,
        w=1.8,
        h=1.6,
        waypoints=[
            Waypoint(frame=0, x=start_x, y=y, z=0.8, yaw=0.0),
            Waypoint(frame=frames - 1, x=start_x + speed * (frames - 1), y=y, z=0.8, yaw=0.0),
        ],
    )


def quiet_scenario(objects, frames: int = 10, seed: int = 3) -> Scenario:
    return Scenario(
        frames=frames,
        objects=objects,
        ground=GroundSpec(z=0.0, num_points=300),
        seed=seed,
        points_per_object=60,
    )


def instance_points(frame: FrameData, obj_id: int) -> np.ndarray:
    return frame.cloud.positions[frame.cloud.labels == obj_id]


def pose_motions(prev: FrameData, curr: FrameData):
    """The motions the oracle flow uses: pose changes of the ground truth."""
    return motions_from_boxes(
        {g.obj_id: g.box for g in prev.gt}, {g.obj_id: g.box for g in curr.gt}
    )


def assert_motions_move_points(prev: FrameData, curr: FrameData) -> None:
    motions = pose_motions(prev, curr)
    assert set(motions) == {g.obj_id for g in curr.gt}
    for obj_id, motion in motions.items():
        moved = motion.apply(instance_points(prev, obj_id))
        np.testing.assert_allclose(moved, instance_points(curr, obj_id), atol=1e-9)


class TestTrajectories:
    def test_pose_interpolates_linearly(self):
        spec = straight_object(speed=2.0, frames=5)
        x, y, z, yaw = spec.pose_at(2)
        assert (x, y, z, yaw) == (14.0, 0.0, 0.8, 0.0)

    def test_yaw_interpolates_along_shortest_path(self):
        spec = ObjectSpec(
            obj_id=1, category="Car", l=4.0, w=1.8, h=1.6,
            waypoints=[
                Waypoint(frame=0, x=0.0, y=0.0, z=0.0, yaw=3.0),
                Waypoint(frame=2, x=0.0, y=0.0, z=0.0, yaw=-3.0),
            ],
        )
        _, _, _, yaw = spec.pose_at(1)
        # Halfway between 3.0 and -3.0 through the cut, not through zero.
        assert min(abs(yaw - math.pi), abs(yaw + math.pi)) < 1e-9

    def test_pose_outside_span_rejected(self):
        spec = straight_object(frames=5)
        with pytest.raises(ValueError, match="outside"):
            spec.pose_at(-1)
        with pytest.raises(ValueError, match="outside"):
            spec.pose_at(5)

    def test_arc_waypoints_straight(self):
        points = arc_waypoints(
            Waypoint(frame=0, x=1.0, y=2.0, z=0.0, yaw=0.0), speed=0.5,
            turn_rate=0.0, frames=4,
        )
        assert [p.x for p in points] == [1.0, 1.5, 2.0, 2.5]
        assert all(p.y == 2.0 and p.yaw == 0.0 for p in points)

    def test_arc_waypoints_constant_turn(self):
        speed, turn = 1.0, 0.2
        points = arc_waypoints(
            Waypoint(frame=0, x=0.0, y=0.0, z=0.0, yaw=0.1), speed=speed,
            turn_rate=turn, frames=6,
        )
        for k, p in enumerate(points):
            assert p.yaw == pytest.approx(wrap_angle(0.1 + k * turn), abs=1e-12)
        for a, b in zip(points, points[1:]):
            assert math.hypot(b.x - a.x, b.y - a.y) == pytest.approx(speed, abs=1e-12)


class TestGenerate:
    def test_zero_noise_detections_equal_ground_truth(self):
        frames = generate(quiet_scenario([straight_object()]))
        for frame in frames:
            assert len(frame.detections) == len(frame.gt)
            for det, gt in zip(frame.detections, frame.gt):
                assert det.box == gt.box
                assert iou3d(det.box, gt.box) == 1.0
                assert det.confidence == 1.0
                assert det.category == gt.category

    def test_static_object_identity_motion(self):
        frames = generate(quiet_scenario([straight_object(speed=0.0)]))
        for prev, curr in zip(frames, frames[1:]):
            motion = pose_motions(prev, curr)[1]
            probe = np.array([[10.0, 0.5, 1.2]])
            assert motion.apply(probe) == pytest.approx(probe, abs=1e-12)

    def test_unit_speed_translation_motion(self):
        frames = generate(quiet_scenario([straight_object(speed=1.0)]))
        for prev, curr in zip(frames, frames[1:]):
            gt_prev = prev.gt[0].box
            gt_curr = curr.gt[0].box
            assert gt_curr.x - gt_prev.x == pytest.approx(1.0, abs=1e-12)
            moved = pose_motions(prev, curr)[1].apply(gt_prev.center.reshape(1, 3))[0]
            assert moved == pytest.approx(gt_curr.center, abs=1e-12)

    def test_oracle_flow_exact_on_instance_points(self):
        scenario = quiet_scenario(
            [straight_object(1, speed=0.8), straight_object(2, speed=0.3, y=6.0)]
        )
        frames = generate(scenario)
        for prev, curr in zip(frames, frames[1:]):
            assert_motions_move_points(prev, curr)

    def test_ground_points_static_and_unlabeled(self):
        frames = generate(quiet_scenario([straight_object()]))
        ground_mask = frames[0].cloud.labels == UNLABELED
        assert ground_mask.sum() == 300
        np.testing.assert_array_equal(
            frames[0].cloud.positions[ground_mask],
            frames[4].cloud.positions[frames[4].cloud.labels == UNLABELED],
        )
        assert np.all(frames[0].cloud.positions[ground_mask][:, 2] == 0.0)

    def test_object_points_lie_on_box_surface(self):
        frames = generate(quiet_scenario([straight_object(speed=0.0)]))
        box = frames[0].gt[0].box
        local = frames[0].cloud.positions[frames[0].cloud.labels == 1] - box.center
        hl, hw, hh = box.l / 2.0, box.w / 2.0, box.h / 2.0
        on_face = (
            np.isclose(np.abs(local[:, 0]), hl)
            | np.isclose(np.abs(local[:, 1]), hw)
            | np.isclose(local[:, 2], hh)
        )
        assert on_face.all()
        # The bottom face is never sampled.
        assert not np.any(np.isclose(local[:, 2], -hh))

    def test_full_miss_rate_drops_all_detections(self):
        scenario = quiet_scenario([straight_object()])
        scenario.noise = NoiseSpec(fn_rate=1.0)
        frames = generate(scenario)
        assert all(frame.detections == [] for frame in frames)
        assert all(len(frame.gt) == 1 for frame in frames)

    def test_false_positive_rate_injects_detections(self):
        scenario = quiet_scenario([straight_object()])
        scenario.noise = NoiseSpec(fp_rate=1.0, fp_score_range=(0.1, 0.5))
        frames = generate(scenario)
        for frame in frames:
            assert len(frame.detections) == 2
            spurious = frame.detections[-1]
            assert 0.1 <= spurious.confidence <= 0.5

    def test_position_noise_perturbs_centers(self):
        scenario = quiet_scenario([straight_object()])
        scenario.noise = NoiseSpec(pos_sigma=0.1, score_range=(0.5, 1.0))
        frames = generate(scenario)
        offsets = [
            abs(frame.detections[0].box.x - frame.gt[0].box.x) for frame in frames
        ]
        assert any(o > 0.0 for o in offsets)
        assert all(o < 1.0 for o in offsets)
        assert all(0.5 <= frame.detections[0].confidence <= 1.0 for frame in frames)

    def test_deterministic_and_seed_sensitive(self):
        scenario = quiet_scenario([straight_object()])
        scenario.noise = NoiseSpec(pos_sigma=0.05, fp_rate=0.5)
        a = generate(scenario)
        b = generate(scenario)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.cloud.positions, fb.cloud.positions)
            assert [d.box for d in fa.detections] == [d.box for d in fb.detections]
        other = generate(
            Scenario(
                frames=scenario.frames,
                objects=scenario.objects,
                ground=scenario.ground,
                noise=scenario.noise,
                seed=scenario.seed + 1,
                points_per_object=scenario.points_per_object,
            )
        )
        assert not np.array_equal(a[0].cloud.positions, other[0].cloud.positions)

    def test_duplicate_object_ids_rejected(self):
        scenario = quiet_scenario([straight_object(1), straight_object(1, y=6.0)])
        with pytest.raises(SettingsError, match="duplicate"):
            generate(scenario)

    def test_waypoints_must_cover_scenario_span(self):
        scenario = quiet_scenario([straight_object(frames=5)], frames=10)
        with pytest.raises(SettingsError, match="outside"):
            generate(scenario)

    def test_empty_scenario_rejected(self):
        with pytest.raises(SettingsError, match="at least one frame"):
            generate(Scenario(frames=0, objects=[]))

    def test_frames_past_the_largest_file_index_rejected_before_any_is_built(self, monkeypatch):
        def built(*_args):
            raise AssertionError("a frame was built")

        monkeypatch.setattr(sim, "_world_points", built)
        with pytest.raises(SettingsError, match="at most 1000000 frames, indexed 0 to 999999"):
            generate(demo_scenario(frames=1_000_001, num_objects=2))
        # A million frames pass the count; the next check stops this one.
        with pytest.raises(SettingsError, match="seed must be at least 0"):
            generate(demo_scenario(frames=1_000_000, num_objects=2, seed=-1))


class TestDecimate:
    def scenario_frames(self, frames: int = 10) -> list[FrameData]:
        return generate(
            quiet_scenario(
                [straight_object(1, speed=1.0, frames=frames),
                 straight_object(2, speed=0.4, y=6.0, frames=frames)],
                frames=frames,
            )
        )

    def test_keep_even(self):
        # Re-indexing is ``run_decimation``'s; see TestDecimateCommand.
        frames = self.scenario_frames(10)
        kept = select_frames(frames, stride=2, offset=0)
        assert [f.index for f in kept] == [0, 2, 4, 6, 8]
        assert [f.gt[0].box.x for f in kept] == [
            frames[i].gt[0].box.x for i in (0, 2, 4, 6, 8)
        ]

    def test_keep_odd_offsets(self):
        frames = self.scenario_frames(10)
        kept = select_frames(frames, stride=2, offset=1)
        assert len(kept) == 5
        assert kept[0].gt[0].box.x == frames[1].gt[0].box.x

    def test_stride_one_is_identity(self):
        frames = self.scenario_frames(6)
        same = select_frames(frames, stride=1, offset=0)
        assert len(same) == len(frames) and all(a is b for a, b in zip(frames, same))

    def test_empty_result_rejected(self):
        frames = self.scenario_frames(3)
        with pytest.raises(UsageError, match="stride 2 and offset 5 keeps no frame of 3"):
            select_frames(frames, stride=2, offset=5)

    def test_invalid_parameters(self):
        frames = self.scenario_frames(4)
        with pytest.raises(ValueError, match="stride"):
            select_frames(frames, stride=0, offset=0)
        with pytest.raises(ValueError, match="offset"):
            select_frames(frames, stride=2, offset=-1)

    def turning_frames(self, frames: int = 12) -> list[FrameData]:
        objects = [
            ObjectSpec(
                obj_id=i + 1, category="Car", l=4.0, w=1.8, h=1.6,
                waypoints=arc_waypoints(
                    Waypoint(frame=0, x=12.0, y=8.0 * i - 8.0, z=0.8, yaw=0.3),
                    0.8 + 0.3 * i, turn, frames,
                ),
            )
            for i, turn in enumerate((0.05, -0.12, 0.2))
        ]
        return generate(quiet_scenario(objects, frames=frames))

    def test_motion_between_kept_frames_stays_exact(self):
        for frames in (self.scenario_frames(10), self.turning_frames()):
            for stride, offset in ((2, 0), (3, 0), (3, 1), (4, 2)):
                kept = select_frames(frames, stride=stride, offset=offset)
                assert len(kept) >= 2
                for prev, curr in zip(kept, kept[1:]):
                    assert_motions_move_points(prev, curr)

    def test_nested_strides_compose(self):
        frames = self.scenario_frames(10)
        twice = select_frames(select_frames(frames, stride=2, offset=0), stride=2, offset=0)
        direct = select_frames(frames, stride=4, offset=0)
        assert [f.index for f in twice] == [f.index for f in direct] == [0, 4, 8]
        assert all(a is b for a, b in zip(twice, direct))


class TestDemoScenario:
    def test_objects_stay_inside_frustum(self):
        scenario = demo_scenario()
        calib = scenario.sensor.calibration()
        for frame in range(scenario.frames):
            centers = np.array(
                [spec.box_at(frame).center for spec in scenario.objects]
            )
            kept = filter_fov(PointCloud(positions=centers), calib)
            assert len(kept) == len(scenario.objects)

    def test_boxes_rest_on_ground(self):
        scenario = demo_scenario(num_objects=3)
        for spec in scenario.objects:
            box = spec.box_at(0)
            assert box.z - box.h / 2.0 == pytest.approx(scenario.ground.z)

    def test_speeds_distinct_per_object(self):
        scenario = demo_scenario(frames=11, num_objects=4)
        speeds = []
        for spec in scenario.objects:
            x0 = spec.box_at(0).x
            x10 = spec.box_at(10).x
            speeds.append((x10 - x0) / 10.0)
        assert len(set(round(s, 6) for s in speeds)) == 4


class TestScenarioFiles:
    def test_round_trip_exact(self, tmp_path):
        scenario = demo_scenario(frames=12, num_objects=3, seed=11)
        scenario.noise = NoiseSpec(pos_sigma=0.05, fp_rate=0.25, score_range=(0.6, 0.95))
        path = tmp_path / "scenario.txt"
        write_scenario(path, scenario)
        back = read_scenario(path)
        assert back == scenario

    def test_round_trip_generates_identically(self, tmp_path):
        scenario = demo_scenario(frames=6, num_objects=2)
        path = tmp_path / "scenario.txt"
        write_scenario(path, scenario)
        a = generate(scenario)
        b = generate(read_scenario(path))
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.cloud.positions, fb.cloud.positions)

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("frames = 5\n[ground]\nbumpiness = 3\n")
        with pytest.raises(ValueError, match=r"bad\.txt:3.*bumpiness"):
            read_scenario(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("[weather]\nrain = 1\n")
        with pytest.raises(ValueError, match="weather"):
            read_scenario(path)

    def test_object_without_waypoints_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("frames = 5\n[object]\nid = 3\n")
        with pytest.raises(ValueError, match="waypoints"):
            read_scenario(path)

    def test_written_text_is_pinned(self, tmp_path):
        scenario = Scenario(
            frames=3,
            objects=[ObjectSpec(4, "Pedestrian", 0.8, 0.6, 1.75, [
                Waypoint(0, 10.0, -2.5, -0.855, 0.25), Waypoint(2, 11.5, -2.0, -0.855, 0.5),
            ])],
            ground=GroundSpec(z=-1.73, x_range=(0.0, 40.5), num_points=500),
            noise=NoiseSpec(pos_sigma=0.1, fp_rate=0.25, score_range=(0.5, 1.0)),
            seed=9,
        )
        path = tmp_path / "scenario.txt"
        write_scenario(path, scenario)
        assert path.read_bytes() == (
            b"frames = 3\nseed = 9\npoints_per_object = 200\n"
            b"\n[ground]\nz = -1.73\nx_range = 0.0 40.5\ny_range = -25.0 25.0\n"
            b"num_points = 500\nnoise_sigma = 0.0\n"
            b"\n[sensor]\nfocal = 600.0\nimage_width = 1200\nimage_height = 400\n"
            b"\n[noise]\npos_sigma = 0.1\nyaw_sigma = 0.0\nfp_rate = 0.25\nfn_rate = 0.0\n"
            b"score_range = 0.5 1.0\nfp_score_range = 0.1 0.5\n"
            b"\n[object]\nid = 4\ncategory = Pedestrian\ndims = 0.8 0.6 1.75\n"
            b"waypoint = 0 10.0 -2.5 -0.855 0.25\nwaypoint = 2 11.5 -2.0 -0.855 0.5\n"
        )
        assert read_scenario(path) == scenario

    @pytest.mark.parametrize("text, message", [
        ("frames = x\n", "bad.txt:1: frames: expected an integer, got 'x'"),
        ("[ground]\nx_range = 0 40 2\n", "bad.txt:2: x_range: expected 2 numbers, got '0 40 2'"),
        ("[noise]\nfp_rate = often\n", "bad.txt:2: fp_rate: expected a number, got 'often'"),
        ("[object]\nwaypoint = 0 1 2 3\n", "bad.txt:2: waypoint: expected 5 numbers"),
        ("[object]\nwaypoint = 2.5 1 2 3 4\n", "bad.txt:2: waypoint: expected 5 numbers"),
        ("[object]\nspeed = 3\n", "bad.txt:2: unknown key 'speed'"),
        ("[sensor]\nmargin_deg = 3\n", "bad.txt:2: unknown key 'margin_deg'"),
    ])
    def test_malformed_value_names_line_and_key(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(SettingsError, match=re.escape(message)):
            read_scenario(path)

    def test_equals_sign_optional(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("frames 3\n[sensor]\nfocal 550\n")
        scenario = read_scenario(path)
        assert (scenario.frames, scenario.sensor.focal) == (3, 550.0)

    def test_comments_and_blanks_tolerated(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text(
            "# a scenario\nframes = 4   # four frames\n\n"
            "[object]\nid = 2\ndims = 4 1.8 1.6\nwaypoint = 0 5 0 0.8 0\nwaypoint = 3 8 0 0.8 0\n"
        )
        scenario = read_scenario(path)
        assert scenario.frames == 4
        assert scenario.objects[0].obj_id == 2
        assert len(scenario.objects[0].waypoints) == 2
