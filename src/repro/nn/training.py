"""SGD training loop for the numpy DNN framework.

Minimal but complete: SGD with momentum and weight decay, step-decayed
learning rate, minibatch shuffling, and a :class:`Trainer` that records a
per-epoch history.  Enough to train the scaled VGG/ResNet models to high
accuracy on the synthetic datasets so the fault-injection study has a
meaningful accuracy to degrade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..errors import TrainingError
from . import functional as F
from .layers import Module, Parameter


class SgdMomentum:
    """SGD with classical momentum and decoupled weight decay."""

    def __init__(
        self,
        parameters: List[Parameter],
        lr: float = 0.05,
        momentum: float = 0.9,
        weight_decay: float = 1e-4,
    ) -> None:
        if lr <= 0:
            raise TrainingError("learning rate must be positive")
        self.parameters = list(parameters)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        for p, v in zip(self.parameters, self._velocity):
            grad = p.grad + self.weight_decay * p.data
            v *= self.momentum
            v -= self.lr * grad
            p.data += v

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()


@dataclass
class TrainHistory:
    """Per-epoch metrics collected by the trainer."""

    loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)


class Trainer:
    """Minibatch SGD trainer with step learning-rate decay."""

    def __init__(
        self,
        model: Module,
        lr: float = 0.05,
        momentum: float = 0.9,
        weight_decay: float = 1e-4,
        batch_size: int = 64,
        lr_decay: float = 0.5,
        lr_decay_every: int = 5,
        seed: int = 0,
        regularizer=None,
    ) -> None:
        self.model = model
        self.optimizer = SgdMomentum(
            list(model.parameters()), lr=lr, momentum=momentum, weight_decay=weight_decay
        )
        self.batch_size = batch_size
        self.lr_decay = lr_decay
        self.lr_decay_every = lr_decay_every
        self.rng = np.random.default_rng(seed)
        #: optional reliability-aware penalty (see repro.nn.regularizers)
        self.regularizer = regularizer

    # ------------------------------------------------------------------ #
    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        epochs: int,
        verbose: bool = False,
    ) -> TrainHistory:
        """Train for ``epochs`` passes; returns the metric history."""
        history = TrainHistory()
        n = x_train.shape[0]
        for epoch in range(epochs):
            self.model.train()
            order = self.rng.permutation(n)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                loss = self._train_step(x_train[idx], y_train[idx])
                epoch_loss += loss
                n_batches += 1
            history.loss.append(epoch_loss / max(n_batches, 1))
            history.train_accuracy.append(self.evaluate(x_train[:512], y_train[:512]))
            if verbose:  # pragma: no cover - console output
                print(
                    f"epoch {epoch + 1}/{epochs}: loss={history.loss[-1]:.4f} "
                    f"train_acc={history.train_accuracy[-1]:.3f}"
                )
            if (epoch + 1) % self.lr_decay_every == 0:
                self.optimizer.lr *= self.lr_decay
        return history

    def _train_step(self, x: np.ndarray, y: np.ndarray) -> float:
        self.optimizer.zero_grad()
        logits = self.model.forward(x)
        loss, grad = F.cross_entropy(logits, y)
        self.model.backward(grad)
        if self.regularizer is not None:
            loss += self.regularizer.apply(self.model.parameters())
        self.optimizer.step()
        return loss

    # ------------------------------------------------------------------ #
    def evaluate(
        self, x: np.ndarray, y: np.ndarray, topk: int = 1, batch_size: int = 256
    ) -> float:
        """Top-k accuracy in inference mode."""
        self.model.eval()
        correct_weighted = 0.0
        for start in range(0, x.shape[0], batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            logits = self.model.forward(xb)
            correct_weighted += F.accuracy(logits, yb, topk=topk) * xb.shape[0]
        return correct_weighted / x.shape[0]
