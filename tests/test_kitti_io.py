"""Label grammar, frame conversions, point-cloud and calibration files."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowtrack.geometry import Box3D, wrap_angle
from flowtrack.kitti_io import (
    LabelFormatError,
    LabelRow,
    VelodyneFormatError,
    camera_to_lidar_boxes,
    read_calib,
    read_labels,
    read_velodyne,
    result_row,
    result_rows,
    write_calib,
    write_labels,
    write_results,
    write_velodyne,
)
from flowtrack.preprocess import Calibration, CalibrationError, PointCloud
from flowtrack.tracker import EmittedTrack
from oracles import result_rows_reference

DET_ROW = "Car 0.00 0 -1.57 100.0 150.0 200.0 250.0 1.50 1.60 3.90 2.00 1.50 10.00 -1.50"
TRACK_PREFIX = "3 7 "


class TestLabelGrammar:
    def test_detection_row_15_columns(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text(DET_ROW + "\n")
        frames = read_labels(path)
        assert list(frames) == [0]
        row = frames[0][0]
        assert (row.frame, row.track_id, row.score) == (0, -1, None)
        assert row.category == "Car"
        assert (row.h, row.w, row.l) == (1.5, 1.6, 3.9)
        assert (row.x, row.y, row.z) == (2.0, 1.5, 10.0)
        assert row.rotation_y == -1.5

    def test_detection_row_16_columns_score(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text(DET_ROW + " 0.87\n")
        row = read_labels(path)[0][0]
        assert row.score == 0.87
        assert row.track_id == -1

    def test_tracking_row_17_columns(self, tmp_path):
        path = tmp_path / "trk.txt"
        path.write_text(TRACK_PREFIX + DET_ROW + "\n")
        frames = read_labels(path)
        row = frames[3][0]
        assert (row.frame, row.track_id, row.score) == (3, 7, None)

    def test_tracking_row_18_columns_score(self, tmp_path):
        path = tmp_path / "trk.txt"
        path.write_text(TRACK_PREFIX + DET_ROW + " 0.55\n")
        row = read_labels(path)[3][0]
        assert (row.frame, row.track_id, row.score) == (3, 7, 0.55)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(DET_ROW + "\n" + "Car 0.0 0\n")
        with pytest.raises(LabelFormatError, match=r"bad\.txt:2.*3 columns"):
            read_labels(path)

    def test_too_many_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(TRACK_PREFIX + DET_ROW + " 0.5 0.5\n")
        with pytest.raises(LabelFormatError, match="19 columns"):
            read_labels(path)

    def test_unparsable_field_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(DET_ROW.replace("10.00", "ten") + "\n")
        with pytest.raises(LabelFormatError, match=r"bad\.txt:1"):
            read_labels(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_field_names_line(self, tmp_path, token):
        path = tmp_path / "bad.txt"
        path.write_text(DET_ROW + "\n" + TRACK_PREFIX + DET_ROW.replace("1.60", token) + "\n")
        with pytest.raises(LabelFormatError, match=rf"bad\.txt:2: non-finite number '{token}'"):
            read_labels(path)

    @pytest.mark.parametrize("prefix", ["x 7 ", "3 inf ", "3 nan "])
    def test_unparsable_frame_or_track_id_names_line(self, tmp_path, prefix):
        path = tmp_path / "bad.txt"
        path.write_text(prefix + DET_ROW + "\n")
        with pytest.raises(LabelFormatError, match=r"bad\.txt:1"):
            read_labels(path)

    @pytest.mark.parametrize("frame", ["-4", "+7", "1_0", "1000000", "1000000000", "7.0", "\u0663"])
    def test_frame_not_an_index_names_line(self, tmp_path, frame):
        path = tmp_path / "bad.txt"
        path.write_text(TRACK_PREFIX + DET_ROW + "\n" + f"{frame} 7 " + DET_ROW + "\n")
        message = rf"bad\.txt:2: frame {re.escape(repr(frame))} is not a frame index in ASCII digits"
        with pytest.raises(LabelFormatError, match=message):
            read_labels(path)

    @pytest.mark.parametrize("frame, index", [("0", 0), ("000007", 7), ("999999", 999_999),
                                              ("0000999999", 999_999)])
    def test_frame_of_ascii_digits_up_to_999999_read(self, tmp_path, frame, index):
        path = tmp_path / "trk.txt"
        path.write_text(f"{frame} 7 " + DET_ROW + "\n")
        assert list(read_labels(path)) == [index]

    def test_empty_file_and_blank_lines(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert read_labels(path) == {}
        path.write_text("\n\n" + DET_ROW + "\n\n")
        assert len(read_labels(path)[0]) == 1

    def test_rows_grouped_by_frame_in_order(self, tmp_path):
        path = tmp_path / "trk.txt"
        path.write_text(
            "1 5 " + DET_ROW + "\n"
            "0 2 " + DET_ROW + "\n"
            "1 3 " + DET_ROW + "\n"
        )
        frames = read_labels(path)
        assert sorted(frames) == [0, 1]
        assert [r.track_id for r in frames[1]] == [5, 3]


def nominal_row(**overrides) -> LabelRow:
    values = dict(
        frame=0, track_id=1, category="Car", truncated=0.0, occluded=0,
        alpha=0.0, bbox=(0.0, 0.0, 0.0, 0.0), h=1.5, w=1.6, l=3.9,
        x=2.0, y=1.5, z=10.0, rotation_y=-1.5, score=None,
    )
    values.update(overrides)
    return LabelRow(**values)


def rotation_about_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def custom_calibration() -> Calibration:
    nominal = Calibration.nominal()
    rect = np.eye(4)
    rect[:3, :3] = rotation_about_z(0.03)
    velo_to_cam = np.eye(4)
    velo_to_cam[:3, :3] = np.array(
        [[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]
    ) @ rotation_about_z(-0.05)
    velo_to_cam[:3, 3] = [0.1, -0.2, 0.3]
    return Calibration(
        projection=nominal.projection, rect=rect, velo_to_cam=velo_to_cam
    )


def camera_location(box: Box3D, calib: Calibration) -> tuple[list[float], float]:
    """Camera-frame bottom-face center and yaw that ``result_row`` writes."""
    row = result_row(0, EmittedTrack(1, box, 1.0, "Car"), calib)
    return [row.x, row.y, row.z], row.rotation_y


class TestFrameConversion:
    def test_nominal_axis_permutation_and_height_shift(self):
        row = nominal_row(rotation_y=-math.pi / 2.0)
        [box] = camera_to_lidar_boxes([row], Calibration.nominal())
        # Sensor x = camera z, sensor y = -camera x; the vertical center
        # rises by h/2 from the bottom-face location.
        assert (box.x, box.y) == (10.0, -2.0)
        assert box.z == pytest.approx(-1.5 + 0.75)
        assert box.theta == pytest.approx(0.0, abs=1e-12)
        assert (box.l, box.w, box.h) == (3.9, 1.6, 1.5)

    def test_nominal_calibration_is_exactly_the_axis_permutation(self, rng):
        # Sensor x = camera z, sensor y = -camera x, sensor z = -camera y,
        # with no rounding: evaluation relies on it for every label file.
        rows = [
            nominal_row(x=x, y=y, z=z, h=h, rotation_y=ry)
            for x, y, z, h, ry in zip(*rng.uniform(-80.0, 80.0, (3, 500)),
                                      rng.uniform(0.1, 5.0, 500), rng.uniform(-4.0, 4.0, 500))
        ]
        boxes = camera_to_lidar_boxes(rows, Calibration.nominal())
        assert boxes == [
            Box3D(x=r.z, y=-r.x, z=-r.y + r.h / 2.0, l=r.l, w=r.w, h=r.h,
                  theta=wrap_angle(-r.rotation_y - math.pi / 2.0))
            for r in rows
        ]

    def test_round_trip_nominal(self):
        row = nominal_row()
        [box] = camera_to_lidar_boxes([row], Calibration.nominal())
        bottom, rotation_y = camera_location(box, Calibration.nominal())
        assert bottom == pytest.approx([row.x, row.y, row.z], abs=1e-9)
        assert rotation_y == pytest.approx(row.rotation_y, abs=1e-9)

    def test_round_trip_custom_calibration(self, rng):
        calib = custom_calibration()
        rows = [
            nominal_row(
                x=float(rng.uniform(-10, 10)),
                y=float(rng.uniform(-2, 3)),
                z=float(rng.uniform(4, 60)),
                h=float(rng.uniform(1.0, 2.5)),
                rotation_y=float(rng.uniform(-math.pi, math.pi)),
            )
            for _ in range(200)
        ]
        for row, box in zip(rows, camera_to_lidar_boxes(rows, calib)):
            bottom, rotation_y = camera_location(box, calib)
            assert bottom == pytest.approx([row.x, row.y, row.z], abs=1e-9)
            assert wrap_angle(rotation_y - row.rotation_y) == pytest.approx(
                0.0, abs=1e-9
            )

    def test_overflowing_center_raises(self):
        # The calibration scales camera x by 1e-10, so its inverse takes the
        # second row, finite and far, past the float range.
        nominal = Calibration.nominal()
        rect = np.diag([1e-10, 1.0, 1.0, 1.0])
        calib = Calibration(projection=nominal.projection, rect=rect,
                            velo_to_cam=nominal.velo_to_cam)
        rows = [nominal_row(), nominal_row(x=1e300, frame=4, track_id=7)]
        with pytest.raises(CalibrationError, match=r"frame 4, id 7: .* non-finite"):
            camera_to_lidar_boxes(rows, calib)
        assert len(camera_to_lidar_boxes(rows[:1], calib)) == 1

    def test_yaw_convention_self_inverse(self):
        for ry in (-3.0, -1.5, 0.0, 0.4, 3.1):
            theta = wrap_angle(-ry - math.pi / 2.0)
            assert wrap_angle(-theta - math.pi / 2.0) == pytest.approx(
                wrap_angle(ry), abs=1e-12
            )


class TestVelodyne:
    def test_round_trip_bit_exact(self, tmp_path):
        positions = np.array([[0.5, -0.25, 1.5], [8.0, 2.0, -0.125]])
        intensity = np.array([[0.5], [0.75]])
        cloud = PointCloud(positions=positions, features=intensity)
        path = tmp_path / "000000.bin"
        write_velodyne(path, cloud)
        back = read_velodyne(path)
        assert back.positions.tolist() == positions.tolist()
        assert back.features.tolist() == intensity.tolist()

    def test_32_bytes_is_two_records(self, tmp_path):
        path = tmp_path / "two.bin"
        path.write_bytes(np.zeros(8, dtype="<f4").tobytes())
        assert len(read_velodyne(path)) == 2

    def test_empty_file_is_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert len(read_velodyne(path)) == 0

    def test_ragged_size_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 33)
        with pytest.raises(VelodyneFormatError, match="33"):
            read_velodyne(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_names_file(self, tmp_path, value):
        records = np.zeros((3, 4), dtype="<f4")
        records[1, 2] = value
        path = tmp_path / "000004.bin"
        path.write_bytes(records.tobytes())
        with pytest.raises(VelodyneFormatError, match=r"000004\.bin: record 1 "):
            read_velodyne(path)

    def test_signalling_nan_rejected_without_a_warning(self, tmp_path):
        path = tmp_path / "000002.bin"
        path.write_bytes(b"\x00" * 20 + b"\x01\x00\x80\x7f" + b"\x00" * 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(VelodyneFormatError, match=r"000002\.bin: record 1 "):
                read_velodyne(path)

    def test_non_finite_intensity_kept(self, tmp_path):
        path = tmp_path / "000000.bin"
        path.write_bytes(np.array([[1.0, 2.0, 3.0, np.nan]], dtype="<f4").tobytes())
        assert np.isnan(read_velodyne(path).features[0, 0])

    def test_missing_intensity_written_as_zero(self, tmp_path):
        cloud = PointCloud(positions=np.array([[1.0, 2.0, 3.0]]))
        path = tmp_path / "p.bin"
        write_velodyne(path, cloud)
        back = read_velodyne(path)
        assert back.features.tolist() == [[0.0]]


class TestCalibrationFiles:
    def test_write_read_round_trip(self, tmp_path):
        calib = custom_calibration()
        path = tmp_path / "calib.txt"
        write_calib(path, calib)
        back = read_calib(path)
        assert back.projection == pytest.approx(calib.projection, abs=1e-9)
        assert back.rect == pytest.approx(calib.rect, abs=1e-9)
        assert back.velo_to_cam == pytest.approx(calib.velo_to_cam, abs=1e-9)

    def test_alternate_key_spellings(self, tmp_path):
        nominal = Calibration.nominal()
        proj = " ".join(str(v) for v in nominal.projection.ravel())
        rect = " ".join(str(v) for v in nominal.rect[:3, :3].ravel())
        tr = " ".join(str(v) for v in nominal.velo_to_cam[:3, :4].ravel())
        path = tmp_path / "calib.txt"
        path.write_text(f"P2 {proj}\nR_rect {rect}\nTr_velo_cam: {tr}\n")
        back = read_calib(path)
        assert back.projection == pytest.approx(nominal.projection)
        assert back.rect == pytest.approx(nominal.rect)
        assert back.velo_to_cam == pytest.approx(nominal.velo_to_cam)

    def test_missing_projection_named(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("R0_rect: 1 0 0 0 1 0 0 0 1\n")
        with pytest.raises(CalibrationError, match="P2"):
            read_calib(path)

    @pytest.mark.parametrize("key", ["P2", "R_rect", "Tr_velo_cam"])
    def test_short_row_named(self, tmp_path, key):
        nominal = Calibration.nominal()
        rows = {
            "P2": nominal.projection.ravel(),
            "R_rect": nominal.rect[:3, :3].ravel(),
            "Tr_velo_cam": nominal.velo_to_cam[:3, :4].ravel(),
        }
        rows[key] = rows[key][:3]
        path = tmp_path / "calib.txt"
        path.write_text(
            "".join(f"{k}: {' '.join(str(v) for v in values)}\n" for k, values in rows.items())
        )
        with pytest.raises(CalibrationError, match=rf"'{key}' needs \d+ numbers, got 3"):
            read_calib(path)

    @pytest.mark.parametrize("row, message", [
        ("Tr_velo_to_cam: nan 0 0 0 0 1 0 0 0 0 1 0", "calibration entries must be finite"),
        ("Tr_velo_to_cam: 0 0 0 0 0 0 0 0 0 0 0 0",
         "sensor-to-camera transform is not invertible"),
        ("P2: 0 0 600 0 0 600 200 0 0 0 1 0", "degenerate projection: fx=0.0 fy=600.0"),
    ])
    def test_invalid_values_named_with_the_file(self, tmp_path, row, message):
        path = tmp_path / "calib.txt"
        write_calib(path, Calibration.nominal())
        with path.open("a") as handle:
            handle.write(row + "\n")
        with pytest.raises(CalibrationError, match=re.escape(f"{path}: {message}")):
            read_calib(path)

    def test_unrelated_keys_ignored(self, tmp_path):
        calib = Calibration.nominal()
        path = tmp_path / "calib.txt"
        write_calib(path, calib)
        with path.open("a") as handle:
            handle.write("P0: " + " ".join(["0"] * 12) + "\n")
            handle.write("comment_key: not numbers at all\n")
        back = read_calib(path)
        assert back.projection == pytest.approx(calib.projection, abs=1e-9)


def track(track_id: int, x: float, score: float = 0.9) -> EmittedTrack:
    return EmittedTrack(
        track_id=track_id,
        box=Box3D(x=x, y=1.0, z=-0.5, l=4.0, w=1.8, h=1.6, theta=0.3),
        confidence=score,
        category="Car",
    )


class TestResults:
    def test_empty_results_file(self, tmp_path):
        path = tmp_path / "results.txt"
        write_results(path, {})
        assert path.read_text() == ""

    def test_rows_sorted_and_18_columns(self, tmp_path):
        path = tmp_path / "results.txt"
        write_results(path, {1: [track(5, 20.0), track(2, 30.0)], 0: [track(9, 10.0)]})
        lines = path.read_text().strip().splitlines()
        assert [len(line.split()) for line in lines] == [18, 18, 18]
        keys = [(int(l.split()[0]), int(l.split()[1])) for l in lines]
        assert keys == [(0, 9), (1, 2), (1, 5)]
        assert float(lines[0].split()[17]) == 0.9

    def test_ground_truth_rows_have_17_columns(self, tmp_path):
        path = tmp_path / "gt.txt"
        write_labels(path, {0: [nominal_row(score=None)]})
        assert len(path.read_text().split()) == 17

    @pytest.mark.parametrize("score, column", [
        (None, b""), (-0.0, b" -0.000000"), (1e15, b" 1000000000000000.000000"),
        (1e-300, b" 0.000000"), (0.5000005, b" 0.500000"),
    ])
    def test_written_bytes_on_edge_values(self, tmp_path, score, column):
        row = LabelRow(12, 7, "Car", -0.0, 1, 1e15, (-0.0, 1e-300, 1e15, -1e-300),
                       1e15, 1e-300, 2.5, -0.0, -1e-7, 123456.7890125, -3.14159265, score)
        write_labels(tmp_path / "labels.txt", {12: [row]})
        assert (tmp_path / "labels.txt").read_bytes() == (
            b"12 7 Car -0.000000 1 1000000000000000.000000 -0.000000 0.000000 "
            b"1000000000000000.000000 -0.000000 1000000000000000.000000 0.000000 2.500000 "
            b"-0.000000 -0.000000 123456.789012 -3.141593" + column + b"\n"
        )

    def test_round_trip_box_within_text_precision(self, tmp_path):
        original = track(3, 15.0)
        path = tmp_path / "results.txt"
        write_results(path, {0: [original]})
        row = read_labels(path)[0][0]
        [box] = camera_to_lidar_boxes([row], Calibration.nominal())
        assert box.center == pytest.approx(original.box.center, abs=1e-4)
        assert box.theta == pytest.approx(original.box.theta, abs=1e-4)
        assert (row.l, row.w, row.h) == pytest.approx(
            (original.box.l, original.box.w, original.box.h), abs=1e-6
        )
        assert row.score == pytest.approx(0.9, abs=1e-6)

    def test_alpha_is_yaw_minus_bearing(self):
        row = result_row(0, track(1, 15.0))
        expected = wrap_angle(row.rotation_y - math.atan2(row.x, row.z))
        assert row.alpha == pytest.approx(expected, abs=1e-12)

    def test_bbox_finite_in_front_sentinel_behind(self):
        front = result_row(0, track(1, 15.0))
        x1, y1, x2, y2 = front.bbox
        assert x1 < x2 and y1 < y2
        behind = result_row(0, track(1, -15.0))
        assert behind.bbox == (-1.0, -1.0, -1.0, -1.0)


def scattered_tracks(rng: np.random.Generator, count: int) -> list[EmittedTrack]:
    """Tracks in front of, behind and straddling the camera, ids unsorted."""
    tracks = []
    for track_id in rng.permutation(count):
        box = Box3D(
            x=float(rng.uniform(-20.0, 60.0)),
            y=float(rng.uniform(-15.0, 15.0)),
            z=float(rng.uniform(-2.0, 1.0)),
            l=float(rng.uniform(0.5, 5.0)),
            w=float(rng.uniform(0.5, 2.5)),
            h=float(rng.uniform(0.5, 2.5)),
            theta=float(rng.uniform(-math.pi, math.pi)),
        )
        tracks.append(EmittedTrack(int(track_id), box, float(rng.uniform()), "Car"))
    return tracks


def file_calibration(tmp_path, calib: Calibration) -> Calibration:
    write_calib(tmp_path / "calib.txt", calib)
    return read_calib(tmp_path / "calib.txt")


BATCH = settings(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestBatchedConversion:
    """Each frame is converted in one batch.  The calibration transforms
    spell their products out elementwise, so under any calibration a batch
    gives the bits of one row at a time."""

    @BATCH
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["nominal", "nominal file", "rotated"]))
    def test_rows_equal_per_row_reference(self, tmp_path, seed, calibration):
        rng = np.random.default_rng(seed)
        calib = {
            "nominal": Calibration.nominal(),
            "nominal file": file_calibration(tmp_path, Calibration.nominal()),
            "rotated": custom_calibration(),
        }[calibration]
        tracks = scattered_tracks(rng, int(rng.integers(0, 30)))
        # Frames in any order, an empty one, all converted in one batch.
        by_frame = {5: tracks[::2], 2: tracks[1::2], 9: []}
        rows = result_rows(by_frame, calib)
        assert list(rows) == [5, 2, 9]
        assert rows == {
            frame: result_rows_reference(frame, frame_tracks, calib)
            for frame, frame_tracks in by_frame.items()
        }
        assert [result_row(5, t, calib) for t in tracks] == result_rows_reference(5, tracks, calib)

    def test_behind_the_camera_gets_the_sentinel_bbox(self):
        rows = result_rows({0: [track(1, 15.0), track(2, -15.0), track(3, 1.0)]})[0]
        assert rows[0].bbox[0] < rows[0].bbox[2]
        # The third box straddles the camera plane: some corners lie behind.
        assert rows[1].bbox == rows[2].bbox == (-1.0, -1.0, -1.0, -1.0)
        assert result_rows({0: []}) == {0: []}
        assert result_rows({}) == {}

    @pytest.mark.parametrize("calibration", ["default", "nominal file", "rotated file"])
    def test_write_results_byte_identical(self, tmp_path, rng, calibration):
        calib = {
            "default": None,
            "nominal file": file_calibration(tmp_path, Calibration.nominal()),
            "rotated file": file_calibration(tmp_path, custom_calibration()),
        }[calibration]
        reference_calib = calib if calib is not None else Calibration.nominal()
        # Unsorted frames, an empty one, and unsorted ids within frames.
        tracks_by_frame = {7: scattered_tracks(rng, 25), 0: [], 3: scattered_tracks(rng, 40)}
        write_results(tmp_path / "batched.txt", tracks_by_frame, calib)
        reference = {
            frame: result_rows_reference(frame, tracks, reference_calib)
            for frame, tracks in tracks_by_frame.items()
        }
        write_labels(tmp_path / "reference.txt", reference)
        written = (tmp_path / "batched.txt").read_bytes()
        assert written == (tmp_path / "reference.txt").read_bytes()
        assert b"-1.000000 -1.000000 -1.000000 -1.000000" in written

    @pytest.mark.parametrize("calibration", ["nominal", "nominal file", "rotated file"])
    def test_read_path_batch_equals_per_row(self, tmp_path, rng, calibration):
        calib = Calibration.nominal()
        if calibration != "nominal":
            calib = file_calibration(
                tmp_path, custom_calibration() if calibration == "rotated file" else calib
            )
        rows = [
            nominal_row(
                x=float(rng.uniform(-10, 10)), y=float(rng.uniform(-2, 3)),
                z=float(rng.uniform(4, 60)), h=float(rng.uniform(1.0, 2.5)),
                rotation_y=float(rng.uniform(-math.pi, math.pi)),
            )
            for _ in range(300)
        ]
        batched = camera_to_lidar_boxes(rows, calib)
        one_by_one = [camera_to_lidar_boxes([row], calib)[0] for row in rows]
        assert batched == one_by_one
        assert camera_to_lidar_boxes([], calib) == []

    def test_transforms_give_one_row_the_bits_of_a_batch(self, rng):
        calib = custom_calibration()
        points = rng.uniform(-50.0, 50.0, size=(200, 3))
        for transform in (calib.lidar_to_camera, calib.camera_to_lidar):
            batched = transform(points)
            one_by_one = np.concatenate([transform(point) for point in points])
            assert batched.tobytes() == one_by_one.tobytes()
        uv, depth = calib.project_to_image(points)
        one_by_one = [calib.project_to_image(point) for point in points]
        assert uv.tobytes() == np.concatenate([u for u, _ in one_by_one]).tobytes()
        assert depth.tobytes() == np.concatenate([d for _, d in one_by_one]).tobytes()


# --- fuzzing: a malformed file raises the reader's own error, nothing else ---

FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
NUMBER_TOKENS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["nan", "-inf", "1e400", "0x10", "1_0", "", "Car", "-", "+1", "1,5"]),
)


def label_lines():
    row = st.lists(NUMBER_TOKENS, min_size=12, max_size=19).map(
        lambda tokens: " ".join(tokens[:2] + ["Car"] + tokens[2:])
    )
    return st.lists(st.one_of(row, st.text(max_size=40)), max_size=6).map("\n".join)


def calib_lines():
    key = st.sampled_from(["P2", "R0_rect", "R_rect", "Tr_velo_to_cam", "Tr_velo_cam", "P0", ""])
    numbers = st.lists(NUMBER_TOKENS, max_size=14).map(" ".join)
    line = st.tuples(key, st.sampled_from([":", " ", ": "]), numbers).map("".join)
    return st.lists(st.one_of(line, st.text(max_size=30)), max_size=5).map("\n".join)


class TestReaderFuzz:
    @FUZZ
    @given(st.one_of(label_lines().map(str.encode), st.binary(max_size=80)))
    def test_labels(self, tmp_path, content):
        path = tmp_path / "labels.txt"
        path.write_bytes(content)
        try:
            frames = read_labels(path)
        except LabelFormatError:
            return
        for rows in frames.values():
            for row in rows:
                numbers = [row.truncated, row.alpha, *row.bbox, row.h, row.w, row.l,
                           row.x, row.y, row.z, row.rotation_y]
                assert all(math.isfinite(v) for v in numbers)

    @FUZZ
    @given(st.one_of(calib_lines().map(str.encode), st.binary(max_size=80)))
    def test_calibration(self, tmp_path, content):
        path = tmp_path / "calib.txt"
        path.write_bytes(content)
        try:
            calib = read_calib(path)
        except CalibrationError:
            return
        assert calib.projection.shape == (3, 4)

    @FUZZ
    @given(
        st.lists(st.tuples(*[st.floats(width=32)] * 4), max_size=6),
        st.sampled_from([b"", b"", b"\x00", b"\x00" * 7]),
    )
    def test_velodyne(self, tmp_path, records, tail):
        path = tmp_path / "000000.bin"
        path.write_bytes(np.array(records, dtype="<f4").tobytes() + tail)
        try:
            cloud = read_velodyne(path)
        except VelodyneFormatError:
            return
        assert len(cloud) == len(records) and np.isfinite(cloud.positions).all()
