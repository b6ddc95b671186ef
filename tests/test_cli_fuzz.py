"""Fuzz test over ``main()``: drawn arguments and damaged input files end in
exit status 0 with nothing on standard error, or in exit status 2 with one
error line, never in a traceback.

Every subcommand runs on one tiny scene written once per module.  A run
draws in-range flags, then at most one bad flag value and at most one
damaged input, so that each fault reaches the code behind the others.
Counts and frame indices stay small: ``track`` steps every frame index
between the first and the last of its inputs, so the damage writes no
digit but in a frame index or a track id, and the only indices it writes
that are read are small ones.  The one large count, of recall steps, is
past its cap.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import shutil
import struct
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowtrack.cli import main
from flowtrack.sim import demo_scenario, write_scenario

# Numbers written over a value of an input file.
HUGE = ["nan", "inf", "-inf", "1e300", "-1e300", "1e308", "0", "-0.5"]
HUGE_F32 = [float("nan"), float("inf"), float("-inf"), 3e38, -3e38, 0.0]
# Bytes written over bytes of an input file: no digit, so no frame index grows.
DAMAGE = list(b"x-.e \n\t\x00\xff#:=[]")
# Frame columns written over a label row's: negative, signed, underscored
# and seven-digit ones.  Only the zero-padded seven digits are an index.
FRAMES = ["-4", "-0", "+7", "1_0", "1000000", "9999999", "0000003"]
# Track-id columns written over a label row's: none is an integer.
TRACK_IDS = ["0.9", "1e3", "-1.5", "+3", "1_0"]
# Stems of a cloud copied under a name that is no frame index.
STRAY = ["notes", "foo", "-000005", "1_0", "+1", "1000000", " 3", "3.0"]
# Values drawn for the one bad flag of a run.
BAD_VALUES = ["0", "-1", "-7", "abc", "nan", "inf", "-inf", ""]

DAMAGED = st.one_of(
    st.just(("absent",)),
    st.just(("empty",)),
    st.tuples(st.just("truncated"), st.floats(0.0, 1.0)),
    st.tuples(
        st.just("bytes"),
        st.lists(st.tuples(st.integers(0, 1 << 20), st.sampled_from(DAMAGE)), min_size=1,
                 max_size=4),
    ),
    st.tuples(st.just("number"), st.integers(0, 1 << 20), st.integers(0, 1 << 20),
              st.integers(0, len(HUGE) - 1)),
    st.tuples(st.just("frame"), st.integers(0, 1 << 20), st.sampled_from(FRAMES)),
    st.tuples(st.just("id"), st.integers(0, 1 << 20), st.sampled_from(TRACK_IDS)),
    # A copy of a cloud under a stray name, or under a second name of its frame.
    st.tuples(st.just("stray"), st.sampled_from(STRAY)),
    st.just(("twin",)),
)

# Input files and directories of the scene, by the name a flag value gives.
FILES = ("detections.txt", "velodyne", "calib.txt", "gt.txt", "flows", "tracker.cfg",
         "results.txt", "scene.scn", "scene")

# Per subcommand, each flag with its in-range values (None leaves it out),
# and a --recall-steps far past its cap, which must end the run at once.
FLAGS = {
    "track": [
        ("--detections", ["detections.txt"]),
        ("--clouds", [None, "velodyne", "velodyne"]),
        ("--calib", [None, "calib.txt"]),
        ("--gt", [None, "gt.txt", "gt.txt"]),
        ("--flow-source", [None, "oracle", "nn", "file"]),
        ("--flow-dir", [None, "flows"]),
        ("--predictor", [None, "flow", "cv"]),
        ("--config", [None, "tracker.cfg"]),
        ("--category", [None, "Car", "Car", "Pedestrian"]),
        ("--nn-max-dist", [None, "0.5", "2"]),
    ],
    "eval": [
        ("--gt", ["gt.txt"]),
        ("--results", ["results.txt"]),
        ("--iou-thres", [None, "0.25", "0.5", "1"]),
        ("--iou-thres", [None, "0.5"]),
        ("--category", [None, "Car", "Car", "Pedestrian"]),
        ("--recall-steps", [None, "1", "2", "40", "1000000000"]),
    ],
    "sim": [
        ("--scenario", [None, "scene.scn"]),
        # Given with --scenario, either ends the run: mostly left out.
        ("--frames", [None, None, None, "1", "2", "3"]),
        ("--objects", [None, None, None, "0", "1", "2"]),
        ("--seed", [None, "0", "5"]),
        ("--write-flow", [None, True]),
    ],
    "decimate": [
        ("--in", ["scene"]),
        ("--stride", ["1", "2", "3"]),
        ("--offset", [None, "0", "1", "2"]),
    ],
}


def damage(recipe: tuple, source: Path, target: Path) -> None:
    """Write ``source`` to ``target`` as ``recipe`` damages it.  A number
    replaces a value of a text file (never one of the first three columns
    of a label row: frame, id and category) or a float32 of a binary one;
    a frame replaces the first value of a line of a text file, an id the
    second.  A stray or twin name leaves a file as it is."""
    kind = recipe[0]
    if kind == "absent":
        return
    data = source.read_bytes()
    if kind == "empty":
        data = b""
    elif kind == "truncated":
        data = data[: int(len(data) * recipe[1])]
    elif kind == "bytes" and data:
        data = bytearray(data)
        for position, value in recipe[1]:
            data[position % len(data)] = value
        data = bytes(data)
    elif kind == "number" and data:
        _, where, column, pick = recipe
        if source.suffix in (".bin", ".sfl"):
            header = 8 if source.suffix == ".sfl" else 0
            slots = (len(data) - header) // 4
            offset = header + 4 * (where % slots)
            value = struct.pack("<f", HUGE_F32[pick % len(HUGE_F32)])
            data = data[:offset] + value + data[offset + 4:]
        else:
            lines = data.decode().splitlines()
            row = where % len(lines)
            tokens = lines[row].split()
            first = 3 if source.suffix == ".txt" and source.name != "calib.txt" else 1
            if len(tokens) > first:
                tokens[first + column % (len(tokens) - first)] = HUGE[pick]
                lines[row] = " ".join(tokens)
            data = ("\n".join(lines) + "\n").encode()
    elif kind == "frame" and data and source.suffix not in (".bin", ".sfl"):
        lines = data.decode().splitlines()
        row = recipe[1] % len(lines)
        lines[row] = " ".join([recipe[2], *lines[row].split()[1:]])
        data = ("\n".join(lines) + "\n").encode()
    elif kind == "id" and data and source.suffix not in (".bin", ".sfl"):
        lines = data.decode().splitlines()
        row = recipe[1] % len(lines)
        tokens = lines[row].split()
        tokens[1:2] = [recipe[2]]
        lines[row] = " ".join(tokens)
        data = ("\n".join(lines) + "\n").encode()
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(data)


def write_input(name: str, source: Path, target: Path, fault: tuple | None) -> None:
    """Copy input ``name`` from ``source`` to ``target``, damaged by
    ``fault = (recipe, which)`` when given.  In a directory the ``which``-th
    file is damaged (of the scene: its ground truth, detections or
    calibration); an absent or empty recipe applies to the directory, and a
    stray or twin name copies the ``which``-th file of the directory (of the
    scene: of its clouds) under that name."""
    if fault is None:
        if source.is_dir():
            shutil.copytree(source, target, ignore=shutil.ignore_patterns("tracked"))
        else:
            shutil.copyfile(source, target)
        return
    recipe, which = fault
    if not source.is_dir():
        damage(recipe, source, target)
        return
    if recipe[0] == "absent":
        return
    target.mkdir()
    if recipe[0] == "empty":
        return
    shutil.copytree(source, target, dirs_exist_ok=True, ignore=shutil.ignore_patterns("tracked"))
    if recipe[0] in ("stray", "twin"):
        folder = target / "velodyne" if name == "scene" else target
        files = sorted(folder.iterdir())
        picked = files[which % len(files)]
        stem = recipe[1] if recipe[0] == "stray" else str(int(picked.stem))
        shutil.copyfile(picked, folder / f"{stem}{picked.suffix}")
        return
    files = (["gt.txt", "detections.txt", "calib.txt"] if name == "scene"
             else sorted(p.name for p in source.iterdir()))
    picked = files[which % len(files)]
    (target / picked).unlink()
    damage(recipe, source / picked, target / picked)


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """Each input of :data:`FILES`, from a four-frame, two-object scene with
    flow, and a counter of runs."""
    root = tmp_path_factory.mktemp("fuzz")
    sim = root / "scene"
    assert main(["sim", "--frames", "4", "--objects", "2", "--write-flow", "--out", str(sim)]) == 0
    assert main(["track", "--detections", str(sim / "detections.txt"), "--clouds",
                 str(sim / "velodyne"), "--calib", str(sim / "calib.txt"), "--gt",
                 str(sim / "gt.txt"), "--out", str(sim / "tracked")]) == 0
    write_scenario(root / "scene.scn", demo_scenario(frames=3, num_objects=1))
    (root / "tracker.cfg").write_text("iou_min = 0.05\nmax_mis = 1\nmin_det = 2\n")
    sources = {name: sim / name for name in FILES}
    sources.update({"flows": sim / "flow", "tracker.cfg": root / "tracker.cfg",
                    "scene.scn": root / "scene.scn",
                    "results.txt": sim / "tracked" / "results.txt", "scene": sim})
    return {"root": root, "sources": sources, "runs": itertools.count()}


@st.composite
def invocations(draw) -> tuple[str, list[tuple[str, object]], dict]:
    """A subcommand, its flags and the fault of at most one input file,
    ``{name: (recipe, which)}``."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = [(key, draw(st.sampled_from(values))) for key, values in FLAGS[command]]
    if command == "sim" and dict(flags)["--scenario"] is None and dict(flags)["--frames"] is None:
        # The demo's default 30 frames would make the run too slow.
        flags[1] = ("--frames", "2")
    settable = [k for k, (key, value) in enumerate(flags)
                if value not in FILES and key != "--write-flow"]
    if settable and draw(st.booleans()):
        k = draw(st.sampled_from(settable))
        flags[k] = (flags[k][0], draw(st.sampled_from(BAD_VALUES)))
    inputs = [value for _, value in flags if value in FILES]
    faults = {}
    if inputs and draw(st.booleans()):
        faults[draw(st.sampled_from(inputs))] = (draw(DAMAGED), draw(st.integers(0, 7)))
    return command, flags, faults


def materialize(scene: dict, invocation) -> list[str]:
    """The argument vector of an invocation, its inputs written under a
    fresh directory."""
    command, flags, faults = invocation
    work = scene["root"] / f"run{next(scene['runs'])}"
    work.mkdir()
    argv = [command]
    for key, value in flags:
        if value is None:
            continue
        argv.append(key)
        if value in FILES:
            write_input(value, scene["sources"][value], work / value, faults.get(value))
            argv.append(str(work / value))
        elif value is not True:
            argv.append(value)
    return [*argv, "--out", str(work / "out")]


def run_main(argv: list[str]) -> tuple[int, bool, str, list]:
    """Exit status, whether argparse exited, standard error and warnings."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code, parser_exit = main(argv), False
        except SystemExit as exc:
            code, parser_exit = exc.code, True
    return code, parser_exit, err.getvalue(), caught


def assert_exits_0_or_2_with_one_error_line(argv: list[str]) -> int:
    """The exit status of ``main(argv)``, checked to keep the contract."""
    code, parser_exit, err, caught = run_main(argv)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        # A run that succeeds prints nothing on standard error and warns of nothing.
        assert err == "" and not caught, (argv, err, [str(w.message) for w in caught])
    if code == 2:
        assert err.splitlines()[-1].startswith(f"flowtrack {argv[0]}: error: "), (argv, err)
        if not parser_exit:
            # Reported by the program: one line, no warning printed before it.
            assert err.count("\n") == 1, (argv, err)
            assert not caught, (argv, [str(w.message) for w in caught])
    return code


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_main_exits_0_or_2_with_one_error_line(scene, invocation):
    assert_exits_0_or_2_with_one_error_line(materialize(scene, invocation))


# Every frame-index damage on an input of each command that reads frame
# indices: label rows of a file or a scene, cloud names of a directory or a
# scene.  All but the zero-padded frame column exit 2.
FRAME_INDEX_DAMAGE = [
    *[(command, flags, {name: (("frame", row, frame), 0)})
      for command, flags, name, row in [
          ("track", [("--detections", "detections.txt"), ("--predictor", "cv")],
           "detections.txt", 3),
          ("eval", [("--gt", "gt.txt"), ("--results", "results.txt")], "results.txt", 5),
          ("decimate", [("--in", "scene"), ("--stride", "1")], "scene", 2),
      ]
      for frame in FRAMES],
    *[(command, flags, {name: (recipe, 2)})
      for command, flags, name in [
          ("track", [("--detections", "detections.txt"), ("--clouds", "velodyne"),
                     ("--calib", "calib.txt"), ("--flow-source", "nn")], "velodyne"),
          ("decimate", [("--in", "scene"), ("--stride", "1")], "scene"),
      ]
      for recipe in [*[("stray", stem) for stem in STRAY], ("twin",)]],
]


@pytest.mark.parametrize("invocation", FRAME_INDEX_DAMAGE, ids=lambda invocation: "-".join(
    [invocation[0], *map(str, next(iter(invocation[2].values()))[0])]))
def test_frame_index_damage_exits_0_or_2_with_one_error_line(scene, invocation):
    (recipe, _), = invocation[2].values()
    code = assert_exits_0_or_2_with_one_error_line(materialize(scene, invocation))
    assert code == 2 or recipe[-1] == "0000003"


# Every track-id damage on the label rows each command reads: all exit 2.
TRACK_ID_DAMAGE = [
    (command, flags, {name: (("id", row, track_id), 0)})
    for command, flags, name, row in [
        ("track", [("--detections", "detections.txt"), ("--predictor", "cv")],
         "detections.txt", 3),
        ("eval", [("--gt", "gt.txt"), ("--results", "results.txt")], "results.txt", 5),
        ("decimate", [("--in", "scene"), ("--stride", "1")], "scene", 2),
    ]
    for track_id in TRACK_IDS
]


@pytest.mark.parametrize("invocation", TRACK_ID_DAMAGE, ids=lambda invocation: "-".join(
    [invocation[0], *map(str, next(iter(invocation[2].values()))[0])]))
def test_track_id_damage_exits_2_with_one_error_line(scene, invocation):
    assert assert_exits_0_or_2_with_one_error_line(materialize(scene, invocation)) == 2
