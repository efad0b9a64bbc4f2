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

#: Adam's moment decay rates and denominator guard (Kingma & Ba defaults).
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


class Adam:
    """Adam with (coupled) weight decay, per Kingma & Ba and the paper."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        learning_rate: float = 1e-4,
        *,
        weight_decay: float = 1e-5,
    ):
        self.parameters = list(parameters)
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self._step = 0
        self._m: List[np.ndarray] = [np.zeros_like(p.value) for p in self.parameters]
        self._v: List[np.ndarray] = [np.zeros_like(p.value) for p in self.parameters]

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        self._step += 1
        bias1 = 1.0 - _BETA1**self._step
        bias2 = 1.0 - _BETA2**self._step
        for p, m, v in zip(self.parameters, self._m, self._v):
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.value
            m *= _BETA1
            m += (1.0 - _BETA1) * grad
            v *= _BETA2
            v += (1.0 - _BETA2) * np.square(grad)
            p.value -= self.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + _EPS)

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()
