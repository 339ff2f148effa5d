"""Synthetic class-conditional image datasets.

The paper evaluates on CIFAR-10, CIFAR-100 and ImageNet, none of which are
available offline.  The substitution (documented in DESIGN.md §2) is a
procedural generator producing datasets with the same tensor shapes and a
controllable difficulty: each class is defined by a random mixture of
oriented sinusoidal gratings and Gaussian blobs; samples jitter the phase,
position and amplitude of the class template and add pixel noise.  The
result is learnable by the scaled VGG/ResNet models to high accuracy yet
non-trivial (tens of percent error at high noise), which is all the
fault-injection study needs: a trained network whose accuracy degradation
under bit errors can be compared across dataflow strategies.

The three paper datasets map to:

* ``cifar10_like``   — 32x32x3, 10 classes
* ``cifar100_like``  — 32x32x3, 20 classes (reduced from 100 so the scaled
  models reach useful accuracy in offline training; top-3 accuracy is
  reported as in Fig. 11)
* ``imagenet32_like`` — 32x32x3, 40 classes (stand-in for ImageNet at the
  32x32 "downsampled ImageNet" resolution)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class DatasetSpec:
    """Configuration of a synthetic dataset."""

    name: str
    n_classes: int
    image_size: int = 32
    channels: int = 3
    n_gratings: int = 3
    n_blobs: int = 2
    noise_sigma: float = 0.12
    jitter: float = 0.35
    seed: int = 2023

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ConfigurationError("need at least 2 classes")
        if self.image_size < 8:
            raise ConfigurationError("image_size must be >= 8")


class SyntheticImageDataset:
    """Generator for one :class:`DatasetSpec`.

    Class templates are fixed by the spec's seed; :meth:`sample` draws
    i.i.d. images given a separate stream seed, so train/test splits are
    disjoint by construction.
    """

    def __init__(self, spec: DatasetSpec) -> None:
        self.spec = spec
        self._templates = self._build_templates()

    # ------------------------------------------------------------------ #
    def _build_templates(self) -> Dict[int, dict]:
        spec = self.spec
        rng = np.random.default_rng(spec.seed)
        templates = {}
        for cls in range(spec.n_classes):
            gratings = []
            for _ in range(spec.n_gratings):
                gratings.append(
                    {
                        "freq": rng.uniform(1.0, 5.0),
                        "angle": rng.uniform(0, np.pi),
                        "phase": rng.uniform(0, 2 * np.pi),
                        "color": rng.dirichlet(np.ones(spec.channels)),
                        "amp": rng.uniform(0.4, 1.0),
                    }
                )
            blobs = []
            for _ in range(spec.n_blobs):
                blobs.append(
                    {
                        "cy": rng.uniform(0.2, 0.8),
                        "cx": rng.uniform(0.2, 0.8),
                        "sigma": rng.uniform(0.08, 0.25),
                        "color": rng.uniform(0.3, 1.0, size=spec.channels),
                        "amp": rng.uniform(0.5, 1.2),
                    }
                )
            templates[cls] = {"gratings": gratings, "blobs": blobs}
        return templates

    # ------------------------------------------------------------------ #
    def sample(
        self, n: int, stream_seed: int, count: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` images: returns ``(images, labels)``.

        Images are float64 in [0, 1] with shape ``(n, C, H, W)``; labels
        are balanced across classes (round-robin then shuffled).

        ``count`` returns only the first ``count`` images of the draw
        (shape ``(count, C, H, W)``), bit for bit, without drawing the
        rest: all ``n`` labels are shuffled first, and each image's
        jitter, noise and normalization use only its own draws.
        """
        spec = self.spec
        count = n if count is None else count
        if not 0 <= count <= n:
            raise ConfigurationError(f"count {count} outside [0, {n}]")
        rng = np.random.default_rng(stream_seed)
        labels = np.arange(n) % spec.n_classes
        rng.shuffle(labels)
        labels = labels[:count]

        size = spec.image_size
        yy, xx = np.meshgrid(
            np.linspace(0, 1, size), np.linspace(0, 1, size), indexing="ij"
        )
        images = np.zeros((count, spec.channels, size, size))
        for i, cls in enumerate(labels):
            template = self._templates[int(cls)]
            img = np.zeros((spec.channels, size, size))
            for g in template["gratings"]:
                phase = g["phase"] + rng.uniform(-spec.jitter, spec.jitter) * np.pi
                amp = g["amp"] * (1 + rng.uniform(-spec.jitter, spec.jitter))
                wave = np.sin(
                    2 * np.pi * g["freq"] * (np.cos(g["angle"]) * xx + np.sin(g["angle"]) * yy)
                    + phase
                )
                img += amp * g["color"][:, None, None] * wave[None]
            for b in template["blobs"]:
                cy = b["cy"] + rng.uniform(-spec.jitter, spec.jitter) * 0.2
                cx = b["cx"] + rng.uniform(-spec.jitter, spec.jitter) * 0.2
                blob = np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * b["sigma"] ** 2)))
                img += b["amp"] * b["color"][:, None, None] * blob[None]
            img += rng.normal(0, spec.noise_sigma, size=img.shape)
            images[i] = img
        # normalize each image into [0, 1]
        flat = images.reshape(count, spec.channels * size * size)
        lo = flat.min(axis=1)[:, None]
        hi = flat.max(axis=1)[:, None]
        flat = (flat - lo) / np.maximum(hi - lo, 1e-9)
        return flat.reshape(images.shape), labels.astype(np.int64)

    def train_split(self, n_train: int, seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """The training draw of :meth:`train_test` (stream ``seed*2+1``)."""
        return self.sample(n_train, stream_seed=seed * 2 + 1)

    def test_split(
        self, n_test: int, seed: int = 0, count: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The test draw of :meth:`train_test` (stream ``seed*2+2``).

        Its stream is independent of the training stream, so a caller
        that needs only test images draws only them; ``count`` draws only
        the split's first ``count`` images (see :meth:`sample`).
        """
        return self.sample(n_test, stream_seed=seed * 2 + 2, count=count)

    def train_test(
        self, n_train: int, n_test: int, seed: int = 0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Disjoint train/test draws: ``(x_train, y_train, x_test, y_test)``."""
        return self.train_split(n_train, seed) + self.test_split(n_test, seed)


#: Named dataset specs mirroring the paper's three benchmarks.
DATASET_SPECS: Dict[str, DatasetSpec] = {
    "cifar10_like": DatasetSpec(name="cifar10_like", n_classes=10),
    "cifar100_like": DatasetSpec(name="cifar100_like", n_classes=20, seed=2024),
    "imagenet32_like": DatasetSpec(name="imagenet32_like", n_classes=40, seed=2025),
}


def load_dataset(name: str) -> SyntheticImageDataset:
    """Look up a named synthetic dataset (see module docstring)."""
    if name not in DATASET_SPECS:
        raise ConfigurationError(
            f"unknown dataset {name!r}; expected one of {sorted(DATASET_SPECS)}"
        )
    return SyntheticImageDataset(DATASET_SPECS[name])
