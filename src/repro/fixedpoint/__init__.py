"""Fixed-point arithmetic used by the embedded platform model.

The paper's accelerator computes in 16-bit fixed point (Fig. 4b,
"Arithmetic precision: 16 bit fixed-point").  This package provides a
small, NumPy-vectorised Q-format toolkit used by

* :mod:`repro.backend` for the quantised datapath's numerics,
* :mod:`repro.memory` for sizing weights in bits, and
* tests validating that quantisation error behaves as expected.
"""

from repro.fixedpoint.qformat import (
    QFormat,
    Q8_8,
    Q2_13,
    QuantizationStats,
    quantization_stats,
)

__all__ = [
    "QFormat",
    "Q8_8",
    "Q2_13",
    "QuantizationStats",
    "quantization_stats",
]
