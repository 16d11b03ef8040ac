"""Weight initialisers."""

from __future__ import annotations

import numpy as np

__all__ = ["he_normal"]


def he_normal(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He (Kaiming) normal initialisation, suited to ReLU networks."""
    if fan_in <= 0:
        raise ValueError("fan_in must be positive")
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)
