"""Optimizers for the from-scratch DNN.

The paper trains its DNN with Adam (eta=1e-4) and weight decay 1e-5
(Section IV-A3b); weight decay is applied as an L2 term added to the
gradient, matching the (non-decoupled) ``torch.optim.Adam`` semantics the
original implementation used.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.ml.dnn.layers import Parameter

__all__ = ["Adam"]


class Adam:
    """Adam with (coupled) weight decay, per Kingma & Ba and the paper."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        learning_rate: float = 1e-4,
        *,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 1e-5,
    ):
        self.parameters = list(parameters)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m: List[np.ndarray] = [np.zeros_like(p.value) for p in self.parameters]
        self._v: List[np.ndarray] = [np.zeros_like(p.value) for p in self.parameters]

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        for p, m, v in zip(self.parameters, self._m, self._v):
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.value
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(grad)
            p.value -= self.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()
