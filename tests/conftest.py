"""Shared fixtures and random-input generators."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import flowtrack.geometry as geometry
from flowtrack.geometry import Box3D


def random_box(
    rng: np.random.Generator,
    center_range: float = 10.0,
    dim_low: float = 0.5,
    dim_high: float = 5.0,
) -> Box3D:
    """A valid box with uniform center, dims and yaw."""
    return Box3D(
        x=float(rng.uniform(-center_range, center_range)),
        y=float(rng.uniform(-center_range, center_range)),
        z=float(rng.uniform(-2.0, 2.0)),
        l=float(rng.uniform(dim_low, dim_high)),
        w=float(rng.uniform(dim_low, dim_high)),
        h=float(rng.uniform(dim_low, dim_high)),
        theta=float(rng.uniform(-np.pi, np.pi)),
    )


def nearby_box(rng: np.random.Generator, base: Box3D) -> Box3D:
    """A box perturbed from ``base`` so overlap is common but not certain."""
    return Box3D(
        x=base.x + float(rng.uniform(-base.l, base.l)),
        y=base.y + float(rng.uniform(-base.w, base.w)),
        z=base.z + float(rng.uniform(-base.h, base.h)),
        l=float(rng.uniform(0.5, 5.0)),
        w=float(rng.uniform(0.5, 5.0)),
        h=float(rng.uniform(0.5, 5.0)),
        theta=float(rng.uniform(-np.pi, np.pi)),
    )


def record_kernel_pairs(monkeypatch) -> Counter:
    """Count the box pairs handed to the batched IoU kernel, keyed by
    ``(row box, column box)``."""
    pairs: Counter = Counter()
    kernel = geometry._field_ious

    def recording(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        pairs.update((Box3D(*p), Box3D(*q)) for p, q in zip(a.tolist(), b.tolist()))
        return kernel(a, b)

    monkeypatch.setattr(geometry, "_field_ious", recording)
    return pairs


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
