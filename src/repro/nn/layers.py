"""NumPy layer implementations (NCHW data layout).

Each layer exposes ``forward(x, training)`` and ``backward(grad_out)``,
returning the gradient with respect to its input, and accumulates
parameter gradients into :class:`Parameter` objects.  The layer set is
exactly what the paper's modified AlexNet needs: convolution, ReLU, local
response normalisation, overlapping max-pooling, flatten and dense.

The im2col/col2im unfolding and the convolution GEMMs are the shared
batched kernels of :mod:`repro.systolic.kernels` — the same code paths
the functional systolic fast path uses, so training layers and
accelerator simulation stay numerically aligned.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.initializers import he_normal
from repro.systolic.kernels import col2im, conv_out_size, im2col

__all__ = [
    "im2col",
    "col2im",
    "Parameter",
    "Layer",
    "Conv2D",
    "Dense",
    "ReLU",
    "LocalResponseNorm",
    "MaxPool2D",
    "Flatten",
]


class Parameter:
    """A trainable tensor with an accumulated gradient."""

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def size(self) -> int:
        """Number of scalar elements."""
        return self.value.size

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero."""
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter({self.name}, shape={self.value.shape})"


class Layer:
    """Base class for all layers."""

    #: Human-readable name; set by subclasses or the network container.
    name: str = "layer"

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for input ``x``."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Propagate ``grad_out`` to the input, accumulating param grads."""
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        """Trainable parameters (empty for stateless layers)."""
        return []

    @property
    def weight_count(self) -> int:
        """Total number of trainable scalars in this layer."""
        return sum(p.size for p in self.parameters())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name})"


# im2col/col2im live in repro.systolic.kernels (stride-tricks based) and
# are re-exported here for backward compatibility.
_out_size = conv_out_size


class Conv2D(Layer):
    """2-D convolution via im2col, as mapped onto the systolic array."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        pad: int = 0,
        name: str = "conv",
        rng: np.random.Generator | None = None,
    ):
        if kernel_size <= 0 or stride <= 0:
            raise ValueError("kernel_size and stride must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        self.name = name
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kernel_size * kernel_size
        weights = he_normal(
            (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng
        )
        self.weight = Parameter(f"{name}.weight", weights)
        self.bias = Parameter(f"{name}.bias", np.zeros(out_channels))
        self._cache: tuple | None = None

    def output_shape(self, h: int, w: int) -> tuple[int, int, int]:
        """(channels, height, width) of the output for an (h, w) input."""
        oh = _out_size(h, self.kernel_size, self.stride, self.pad)
        ow = _out_size(w, self.kernel_size, self.stride, self.pad)
        return self.out_channels, oh, ow

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} input channels, got {c}"
            )
        k, s, p = self.kernel_size, self.stride, self.pad
        cols = im2col(x, k, k, s, p)
        w_mat = self.weight.value.reshape(self.out_channels, -1)
        # One broadcast GEMM over the whole batch: (OC, F) @ (N, F, P).
        out = np.matmul(w_mat, cols) + self.bias.value[None, :, None]
        _, oh, ow = self.output_shape(h, w)
        out = out.reshape(n, self.out_channels, oh, ow)
        if training:
            self._cache = (x.shape, cols)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward before forward(training=True)")
        x_shape, cols = self._cache
        n = grad_out.shape[0]
        grad_mat = grad_out.reshape(n, self.out_channels, -1)
        w_mat = self.weight.value.reshape(self.out_channels, -1)
        self.weight.grad += np.tensordot(
            grad_mat, cols, axes=([0, 2], [0, 2])
        ).reshape(self.weight.value.shape)
        self.bias.grad += grad_mat.sum(axis=(0, 2))
        dcols = np.matmul(w_mat.T, grad_mat)
        k, s, p = self.kernel_size, self.stride, self.pad
        return col2im(dcols, x_shape, k, k, s, p)

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        name: str = "fc",
        rng: np.random.Generator | None = None,
    ):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.name = name
        rng = rng or np.random.default_rng(0)
        self.weight = Parameter(
            f"{name}.weight", he_normal((in_features, out_features), in_features, rng)
        )
        self.bias = Parameter(f"{name}.bias", np.zeros(out_features))
        self._cache: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected (N, {self.in_features}) input, got {x.shape}"
            )
        if training:
            self._cache = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward before forward(training=True)")
        x = self._cache
        self.weight.grad += x.T @ grad_out
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.value.T

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]


class ReLU(Layer):
    """Rectified linear unit (hardware: the PE comparator units)."""

    def __init__(self, name: str = "relu"):
        self.name = name
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = x > 0
        if training:
            self._mask = mask
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError(f"{self.name}: backward before forward(training=True)")
        return grad_out * self._mask


class LocalResponseNorm(Layer):
    """AlexNet-style local response normalisation across channels.

    ``b[i] = a[i] / (k + alpha/n * sum_{j near i} a[j]^2) ** beta``
    """

    def __init__(
        self,
        size: int = 5,
        alpha: float = 1e-4,
        beta: float = 0.75,
        k: float = 2.0,
        name: str = "norm",
    ):
        if size <= 0:
            raise ValueError("window size must be positive")
        self.size = size
        self.alpha = alpha
        self.beta = beta
        self.k = k
        self.name = name
        self._cache: tuple | None = None

    def _denominators(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        sq = x**2
        half = self.size // 2
        padded = np.zeros((n, c + 2 * half, h, w), dtype=x.dtype)
        padded[:, half : half + c] = sq
        window_sum = np.zeros_like(x)
        for offset in range(self.size):
            window_sum += padded[:, offset : offset + c]
        return self.k + (self.alpha / self.size) * window_sum

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        denom = self._denominators(x)
        out = x * denom ** (-self.beta)
        if training:
            self._cache = (x, denom)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward before forward(training=True)")
        x, denom = self._cache
        n, c, h, w = x.shape
        half = self.size // 2
        pow_term = denom ** (-self.beta)
        # d(out_j)/d(x_i) has a direct term (i == j) and cross terms for
        # every j whose window contains i.
        direct = grad_out * pow_term
        cross_coeff = (
            grad_out * x * (-self.beta) * denom ** (-self.beta - 1.0)
        ) * (2.0 * self.alpha / self.size)
        padded = np.zeros((n, c + 2 * half, h, w), dtype=x.dtype)
        for offset in range(self.size):
            padded[:, offset : offset + c] += cross_coeff
        cross = padded[:, half : half + c] * x
        return direct + cross


class MaxPool2D(Layer):
    """Max pooling with overlapping windows (AlexNet uses 3x3 stride 2)."""

    def __init__(self, pool_size: int = 3, stride: int = 2, name: str = "maxpool"):
        if pool_size <= 0 or stride <= 0:
            raise ValueError("pool_size and stride must be positive")
        self.pool_size = pool_size
        self.stride = stride
        self.name = name
        self._cache: tuple | None = None

    def output_shape(self, h: int, w: int) -> tuple[int, int]:
        return (
            _out_size(h, self.pool_size, self.stride, 0),
            _out_size(w, self.pool_size, self.stride, 0),
        )

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.pool_size, self.stride
        cols = im2col(x.reshape(n * c, 1, h, w), k, k, s, 0)
        # cols: (n*c, k*k, oh*ow)
        argmax = cols.argmax(axis=1)
        out = np.take_along_axis(cols, argmax[:, None, :], axis=1)[:, 0, :]
        oh, ow = self.output_shape(h, w)
        if training:
            self._cache = (x.shape, argmax, cols.shape)
        return out.reshape(n, c, oh, ow)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward before forward(training=True)")
        x_shape, argmax, cols_shape = self._cache
        n, c, h, w = x_shape
        k, s = self.pool_size, self.stride
        grad_cols = np.zeros(cols_shape)
        flat = grad_out.reshape(n * c, -1)
        np.put_along_axis(grad_cols, argmax[:, None, :], flat[:, None, :], axis=1)
        dx = col2im(grad_cols, (n * c, 1, h, w), k, k, s, 0)
        return dx.reshape(n, c, h, w)


class Flatten(Layer):
    """Flatten (N, C, H, W) feature maps into (N, C*H*W) vectors."""

    def __init__(self, name: str = "flatten"):
        self.name = name
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._shape = x.shape
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError(f"{self.name}: backward before forward(training=True)")
        return grad_out.reshape(self._shape)
