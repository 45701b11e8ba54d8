"""Synthetic rotation-robust classification datasets.

Each class is a fixed random band-limited template on the sphere; examples
are the template plus complex Gaussian coefficient noise, optionally
rotated by a Haar-random rotation, then synthesized onto the Driscoll-Healy
grid.  A dataset on disk is one SPH1 signal file (one channel per example)
plus a sidecar label file with one integer per line.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .sht import (
    HarmonicCoefficients,
    SphericalSignal,
    forward_sht,
    inverse_sht,
    read_signal,
    write_signal,
)
from .so3 import random_rotation, wigner_D


@dataclass
class Dataset:
    """Grid signals (one channel per example) with integer class labels."""

    signal: SphericalSignal
    labels: np.ndarray

    def __len__(self) -> int:
        return self.labels.shape[0]


def class_templates(classes: int, L: int, seed: int) -> list:
    """Fixed per-class coefficient templates, i.i.d. complex Gaussian.

    One draw for all classes; per class, degree by degree, the real parts
    and then the imaginary parts.
    """
    draws = np.random.default_rng(seed).standard_normal(
        (classes, 2 * (L + 1) ** 2))
    templates = []
    for row in draws:
        blocks = []
        for ell in range(L + 1):
            re, im = row[2 * ell * ell:2 * (ell + 1) ** 2].reshape(
                2, 2 * ell + 1, 1)
            blocks.append(re + 1j * im)
        templates.append(HarmonicCoefficients(L, blocks))
    return templates


def generate_split(cfg: ExperimentConfig, per_class: int, rotated: bool,
                   seed: int) -> Dataset:
    """Draw a class-balanced split.

    Templates come from ``cfg.seed``; ``seed`` fixes the noise and, from a
    generator of their own, the rotations, so one seed gives the same
    underlying examples both unrotated and rotated.  An unrotated split
    draws no rotations.  A rotated one draws them all first, then rotates
    each degree's block of examples with one stack of Wigner-D matrices.
    """
    L, b = cfg.bandlimit, cfg.grid_bandwidth
    templates = class_templates(cfg.classes, L, cfg.seed)
    labels = np.repeat(np.arange(cfg.classes), per_class)
    # per example, degree by degree: the real noise, then the imaginary
    noise = np.random.default_rng(seed).standard_normal(
        (labels.shape[0], 2 * (L + 1) ** 2))
    if rotated:
        rot_rng = np.random.default_rng(seed + 1)
        rots = [random_rotation(rot_rng) for _ in labels]
    blocks = []
    for ell in range(L + 1):
        re, im = noise[:, 2 * ell * ell:2 * (ell + 1) ** 2].reshape(
            -1, 2, 2 * ell + 1).transpose(1, 0, 2)
        t = np.stack([tmpl.blocks[ell][:, 0] for tmpl in templates])[labels]
        x = t + cfg.noise_sigma * (re + 1j * im)  # (examples, 2l+1)
        if rotated:
            x = (wigner_D(ell, rots).matrix @ x[..., None])[..., 0]
        blocks.append(x.T)
    # one transform for the split: examples ride the channel axis
    return Dataset(inverse_sht(HarmonicCoefficients(L, blocks), b), labels)


def dataset_coefficients(dataset: Dataset, L: int) -> HarmonicCoefficients:
    """Forward transform of every example (examples ride the channel axis)."""
    return forward_sht(dataset.signal, L)


def write_dataset(prefix, dataset: Dataset) -> None:
    """Write ``<prefix>.sph`` and ``<prefix>.labels``."""
    prefix = Path(prefix)
    write_signal(prefix.with_suffix(".sph"), dataset.signal)
    prefix.with_suffix(".labels").write_text(
        "".join(f"{int(k)}\n" for k in dataset.labels))


def read_dataset(prefix) -> Dataset:
    """Read ``<prefix>.sph`` and ``<prefix>.labels``; every label must be a
    non-negative integer, one per example."""
    prefix = Path(prefix)
    signal = read_signal(prefix.with_suffix(".sph"))
    labels_path = prefix.with_suffix(".labels")
    text = labels_path.read_text().split()
    bad = [t for t in text if not t.isdecimal()]
    if bad:
        raise ValueError(
            f"{labels_path}: label {bad[0]!r} is not a non-negative integer")
    labels = np.asarray([int(t) for t in text], dtype=int)
    if labels.shape[0] != signal.n_channels:
        raise ValueError(
            f"{labels_path}: label count {labels.shape[0]} does not match "
            f"{signal.n_channels} examples")
    return Dataset(signal, labels)
