"""Gradient-descent optimisers.

The paper's platform accumulates weight/bias gradient *sums* over a batch
in the SRAM global buffer and applies one update per training iteration
(Fig. 3b); the optimiser here therefore exposes a plain ``step()`` over
already-accumulated gradients, mirroring that execution model.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Parameter

__all__ = ["Optimizer", "SGD"]


class Optimizer:
    """Base optimiser over an explicit parameter list."""

    def __init__(self, params: list[Parameter], lr: float):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not params:
            raise ValueError("optimiser needs at least one parameter")
        self.params = list(params)
        self.lr = lr

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Clear the gradients of all managed parameters."""
        for p in self.params:
            p.zero_grad()


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, params: list[Parameter], lr: float = 1e-3, momentum: float = 0.0):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        for vel, p in zip(self._velocity, self.params):
            if self.momentum:
                vel *= self.momentum
                vel += p.grad
                p.value -= self.lr * vel
            else:
                p.value -= self.lr * p.grad

