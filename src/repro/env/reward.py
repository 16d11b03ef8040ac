"""Reward generation from depth images.

Section II.B: "The depth map generated is segmented into a smaller window
in the center.  The reward is taken to be the average depth in this
center window.  The closer the drone is to the obstacles, the lesser the
average depth in the center window and the smaller the reward is."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RewardConfig", "compute_reward"]


@dataclass(frozen=True)
class RewardConfig:
    """Reward shaping parameters.

    Parameters
    ----------
    window_fraction:
        Side of the centre window as a fraction of each image dimension.
    crash_reward:
        Reward delivered on collision (episode-terminal).
    """

    window_fraction: float = 1.0 / 3.0
    crash_reward: float = -1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.window_fraction <= 1.0:
            raise ValueError("window_fraction must be in (0, 1]")
        if self.crash_reward >= 0.0:
            raise ValueError("crash reward should be negative")


def compute_reward(depth_image: np.ndarray, config: RewardConfig) -> float:
    """Average normalised depth over the image's centre window.

    ``depth_image`` must already be normalised to [0, 1] (divide by the
    camera far plane); the reward is then in [0, 1] with larger values
    meaning more open space ahead.
    """
    img = np.asarray(depth_image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("depth image must be 2-D")
    h, w = img.shape
    wh = max(int(round(h * config.window_fraction)), 1)
    ww = max(int(round(w * config.window_fraction)), 1)
    top = (h - wh) // 2
    left = (w - ww) // 2
    return float(img[top : top + wh, left : left + ww].mean())
