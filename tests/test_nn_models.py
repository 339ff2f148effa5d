"""Tests for model builders, datasets, and the training loop."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TrainingError
from repro.nn.datasets import DATASET_SPECS, DatasetSpec, SyntheticImageDataset, load_dataset
from repro.nn.models import build_model, build_resnet, build_vgg16
from repro.nn.training import SgdMomentum, Trainer


class TestModelBuilders:
    def test_vgg16_has_13_convs(self):
        model = build_vgg16(width=0.0625)
        assert len(model.conv_layers()) == 13

    def test_resnet18_has_17_main_convs(self):
        model = build_resnet("resnet18", width=0.0625)
        assert len(model.conv_layers()) == 17

    def test_resnet18_shortcuts_counted_separately(self):
        model = build_resnet("resnet18", width=0.0625)
        with_shortcuts = model.conv_layers(include_shortcuts=True)
        assert len(with_shortcuts) == 17 + 3  # three projection stages

    def test_resnet34_has_33_main_convs(self):
        model = build_resnet("resnet34", width=0.0625)
        assert len(model.conv_layers()) == 33

    def test_forward_shapes(self):
        for name in ("vgg16", "resnet18"):
            model = build_model(name, n_classes=7, width=0.0625)
            out = model.forward(np.random.default_rng(0).normal(size=(2, 3, 32, 32)))
            assert out.shape == (2, 7)

    def test_width_scales_channels(self):
        narrow = build_vgg16(width=0.0625)
        wide = build_vgg16(width=0.125)
        n_params = lambda m: sum(p.data.size for p in m.parameters())
        assert n_params(wide) > n_params(narrow)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            build_model("alexnet")

    def test_unknown_resnet_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            build_resnet("resnet50")

    def test_needs_two_classes(self):
        with pytest.raises(ConfigurationError):
            build_vgg16(n_classes=1)

    def test_seed_reproducible(self):
        m1 = build_vgg16(width=0.0625, seed=7)
        m2 = build_vgg16(width=0.0625, seed=7)
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(p1.data, p2.data)


class TestDatasets:
    def test_registry_names(self):
        assert set(DATASET_SPECS) == {"cifar10_like", "cifar100_like", "imagenet32_like"}

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            load_dataset("mnist")

    def test_sample_shapes_and_range(self):
        ds = load_dataset("cifar10_like")
        x, y = ds.sample(20, stream_seed=0)
        assert x.shape == (20, 3, 32, 32)
        assert y.shape == (20,)
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert set(y.tolist()) <= set(range(10))

    def test_labels_balanced(self):
        ds = load_dataset("cifar10_like")
        _, y = ds.sample(100, stream_seed=1)
        counts = np.bincount(y, minlength=10)
        assert counts.min() == counts.max() == 10

    def test_deterministic_given_seed(self):
        ds = load_dataset("cifar10_like")
        x1, y1 = ds.sample(5, stream_seed=42)
        x2, y2 = ds.sample(5, stream_seed=42)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_train_test_disjoint_streams(self):
        ds = load_dataset("cifar10_like")
        x_train, _, x_test, _ = ds.train_test(8, 8, seed=0)
        assert not np.array_equal(x_train, x_test)

    def test_classes_are_distinguishable(self):
        """Per-class mean images must differ (the datasets are learnable)."""
        ds = load_dataset("cifar10_like")
        x, y = ds.sample(200, stream_seed=3)
        means = np.stack([x[y == c].mean(axis=0) for c in range(10)])
        dists = np.abs(means[0] - means[1]).mean()
        assert dists > 0.01

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            DatasetSpec(name="bad", n_classes=1)
        with pytest.raises(ConfigurationError):
            DatasetSpec(name="bad", n_classes=4, image_size=4)


class TestTraining:
    def test_sgd_requires_positive_lr(self):
        with pytest.raises(TrainingError):
            SgdMomentum([], lr=0.0)

    def test_sgd_step_moves_parameters(self):
        model = build_vgg16(width=0.0625, seed=0)
        params = list(model.parameters())
        before = params[0].data.copy()
        opt = SgdMomentum(params, lr=0.1)
        params[0].grad[...] = 1.0
        opt.step()
        assert not np.array_equal(params[0].data, before)

    def test_training_reduces_loss(self):
        """A few steps on a tiny problem must reduce the loss."""
        ds = SyntheticImageDataset(DatasetSpec(name="t", n_classes=3, image_size=16))
        x, y = ds.sample(96, stream_seed=0)
        model = build_model("resnet18", n_classes=3, width=0.0625, seed=0)
        trainer = Trainer(model, lr=0.02, batch_size=32, seed=0)
        history = trainer.fit(x, y, epochs=3)
        assert history.loss[-1] < history.loss[0]

    def test_evaluation_between_epochs_does_not_perturb_training(self):
        """Snapshots trained while a test set was evaluated after every
        epoch must equal ones trained without: evaluation is read-only."""
        ds = SyntheticImageDataset(DatasetSpec(name="t", n_classes=3, image_size=16))
        x, y = ds.sample(64, stream_seed=0)
        x_test, y_test = ds.sample(24, stream_seed=1)
        trained = []
        for evaluate_between in (True, False):
            model = build_model("resnet18", n_classes=3, width=0.0625, seed=0)
            trainer = Trainer(model, lr=0.02, batch_size=32, seed=0)
            if evaluate_between:
                for _ in range(2):
                    trainer.fit(x, y, epochs=1)
                    trainer.evaluate(x_test, y_test)
            else:
                trainer.fit(x, y, epochs=2)
            trained.append([p.data.copy() for p in model.parameters()])
        assert all(np.array_equal(a, b) for a, b in zip(*trained))

    def test_evaluate_in_unit_interval(self):
        ds = SyntheticImageDataset(DatasetSpec(name="t", n_classes=3, image_size=16))
        x, y = ds.sample(24, stream_seed=0)
        model = build_model("resnet18", n_classes=3, width=0.0625, seed=0)
        trainer = Trainer(model)
        acc = trainer.evaluate(x, y)
        assert 0.0 <= acc <= 1.0

    def test_lr_decays(self):
        ds = SyntheticImageDataset(DatasetSpec(name="t", n_classes=2, image_size=16))
        x, y = ds.sample(32, stream_seed=0)
        model = build_model("resnet18", n_classes=2, width=0.0625, seed=0)
        trainer = Trainer(model, lr=0.04, lr_decay=0.5, lr_decay_every=1, batch_size=16)
        trainer.fit(x, y, epochs=2)
        assert trainer.optimizer.lr == pytest.approx(0.01)
