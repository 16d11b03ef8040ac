"""Batched NumPy compute kernels shared by the systolic simulators and
:mod:`repro.nn.layers`.

One implementation of the im2col/GEMM idiom serves every consumer: the
functional systolic datapath (:mod:`repro.systolic.functional`), the
systolic execution backend and the NumPy training layers
(:mod:`repro.nn.layers`).  ``im2col`` builds the unfolded matrix from a
stride-tricks sliding-window view — no Python loop over kernel taps —
and every product is a single (batched) BLAS call via
``np.matmul``/``np.tensordot``.

This module deliberately imports nothing but NumPy so it can sit at the
bottom of the dependency graph (``repro.nn`` and ``repro.systolic``
both import it without cycles).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "conv_out_size",
    "im2col",
    "col2im",
    "conv2d_gemm",
    "fc_forward_gemm",
    "fc_backward_gemm",
]


def conv_out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Output extent of a convolution along one spatial axis."""
    return (size + 2 * pad - kernel) // stride + 1


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Unfold ``x`` (N, C, H, W) into columns (N, C*kh*kw, OH*OW).

    Built from a zero-copy sliding-window view; the only data movement
    is the final reshape into the GEMM-ready layout.
    """
    n, c, h, w = x.shape
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (N, C, OH, OW, KH, KW)
    return np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3)).reshape(
        n, c * kh * kw, oh * ow
    )


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold columns back into an image, summing overlapping windows.

    The scatter-add over overlapping windows cannot be expressed as a
    strided view, so this stays a (kh x kw)-step loop of vectorised
    strided adds — each step touches OH*OW elements at once.
    """
    n, c, h, w = x_shape
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j, :, :]
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


def conv2d_gemm(
    x: np.ndarray,
    weights: np.ndarray,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Batched convolution forward: im2col + one broadcast GEMM.

    ``x`` is (N, C, H, W), ``weights`` (OC, C, KH, KW); returns
    (N, OC, OH, OW).  ``np.matmul`` broadcasts the (OC, F) filter matrix
    against the (N, F, P) column stack, so the whole batch is one BLAS
    dispatch.  (Bias handling stays with the callers: the systolic model
    drains bias-free partial sums, and ``Conv2D`` adds its bias onto the
    same GEMM while keeping ``cols`` for its training cache.)
    """
    n = x.shape[0]
    oc, _, kh, kw = weights.shape
    oh = conv_out_size(x.shape[2], kh, stride, pad)
    ow = conv_out_size(x.shape[3], kw, stride, pad)
    cols = im2col(x, kh, kw, stride, pad)
    out = np.matmul(weights.reshape(oc, -1), cols)  # (N, OC, OH*OW)
    return out.reshape(n, oc, oh, ow)


def fc_forward_gemm(vectors: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """FC forward product ``v @ M`` for one vector (I,) or a batch (B, I)."""
    return vectors @ matrix


def fc_backward_gemm(vectors: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """FC transposed product ``v @ M.T`` without materialising ``M.T``
    (the BLAS call reads ``M`` with swapped strides, which is exactly
    the Fig. 8 trick in software form)."""
    return vectors @ matrix.T
