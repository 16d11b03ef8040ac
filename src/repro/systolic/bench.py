"""Paper-scale functional forward harness.

Backs ``python -m repro systolic-bench`` and
``benchmarks/test_systolic_throughput.py``:
:func:`simulate_network_forward` runs a whole network spec — by default
the paper-scale modified AlexNet — through the functional simulators
layer by layer, collecting wall time, MACs and array cycles per layer.
The fast-vs-oracle timer of the same benchmark lives with the
loop-level PE oracle in ``tests/pe_reference.py``.

Local response norm layers are shape-preserving and run on the
comparator/vector units outside the MAC datapath, so the forward walk
skips them; max-pools execute functionally (they change the geometry
the next conv layer is costed at).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.systolic.array import ArrayConfig, PAPER_ARRAY
from repro.systolic.fc_functional import simulate_fc_forward
from repro.systolic.functional import simulate_conv_rowstationary

__all__ = [
    "LayerForwardCost",
    "NetworkForwardResult",
    "bench_payload",
    "simulate_network_forward",
]


@dataclass(frozen=True)
class LayerForwardCost:
    """Wall time and array cost of one simulated layer."""

    name: str
    kind: str  # "conv" | "fc"
    macs: int
    array_cycles: int
    wall_seconds: float


@dataclass(frozen=True)
class NetworkForwardResult:
    """A full functional forward pass, layer by layer."""

    network: str
    batch: int
    layers: tuple[LayerForwardCost, ...]
    wall_seconds: float

    @property
    def total_macs(self) -> int:
        """MACs across all simulated layers."""
        return sum(l.macs for l in self.layers)

    @property
    def total_array_cycles(self) -> int:
        """Array cycles (MAC + drain wavefronts) across all layers."""
        return sum(l.array_cycles for l in self.layers)

    @property
    def macs_per_second(self) -> float:
        """Simulated MAC throughput of the whole pass."""
        return self.total_macs / self.wall_seconds

    def array_seconds(self, config: ArrayConfig = PAPER_ARRAY) -> float:
        """Time the modelled array would need for the pass."""
        return config.seconds(self.total_array_cycles)


def bench_payload(forward: NetworkForwardResult) -> dict:
    """Machine-readable forward results.

    One schema for every emitter — the ``systolic-bench --json`` CLI
    flag and the ``BENCH_systolic.json`` benchmark artifact — so
    trajectory-tracking consumers parse a single format.
    """
    return {
        "alexnet_forward": {
            "network": forward.network,
            "batch": forward.batch,
            "wall_seconds": forward.wall_seconds,
            "macs_per_second": forward.macs_per_second,
            "total_macs": forward.total_macs,
            "total_array_cycles": forward.total_array_cycles,
            "modelled_array_seconds": forward.array_seconds(),
        }
    }


def simulate_network_forward(
    spec=None,
    batch: int = 1,
    seed: int = 0,
    config: ArrayConfig | None = None,
) -> NetworkForwardResult:
    """Run a network spec through the functional systolic simulators.

    ``spec`` defaults to the paper-scale modified AlexNet
    (:func:`repro.nn.alexnet.modified_alexnet_spec`).  Weights are
    randomly initialised (the cost accounting depends only on shapes).
    """
    # Imported lazily: repro.nn imports repro.systolic.kernels, so a
    # module-level import here would be circular.
    from repro.nn.alexnet import modified_alexnet_spec
    from repro.nn.layers import MaxPool2D
    from repro.nn.specs import ConvSpec, FCSpec

    if spec is None:
        spec = modified_alexnet_spec()
    rng = np.random.default_rng(seed)
    array = config or PAPER_ARRAY

    x = rng.normal(size=(batch, spec.input_channels, spec.input_side, spec.input_side))
    layers: list[LayerForwardCost] = []
    total_start = time.perf_counter()
    flattened = False
    for layer_spec in spec.layers:
        if isinstance(layer_spec, ConvSpec):
            w = rng.normal(
                size=(
                    layer_spec.out_channels,
                    layer_spec.in_channels,
                    layer_spec.kernel,
                    layer_spec.kernel,
                ),
                scale=0.05,
            )
            start = time.perf_counter()
            x, stats = simulate_conv_rowstationary(
                x, w, stride=layer_spec.stride, config=array, pad=layer_spec.pad
            )
            conv_seconds = time.perf_counter() - start
            # ReLU/pool run outside the timed window: the cost fields
            # cover the convolution only, so must the wall time.
            x = np.maximum(x, 0.0)
            if layer_spec.pool is not None:
                x = MaxPool2D(layer_spec.pool, layer_spec.pool_stride).forward(x)
            layers.append(
                LayerForwardCost(
                    name=layer_spec.name,
                    kind="conv",
                    macs=stats.total_pe_cycles,
                    array_cycles=stats.total_cycles,
                    wall_seconds=conv_seconds,
                )
            )
        elif isinstance(layer_spec, FCSpec):
            if not flattened:
                x = x.reshape(batch, -1)
                flattened = True
            m = rng.normal(
                size=(layer_spec.in_features, layer_spec.out_features), scale=0.05
            )
            start = time.perf_counter()
            result = simulate_fc_forward(x, m, array=array)
            x = result.output
            if layer_spec is not spec.layers[-1]:
                x = np.maximum(x, 0.0)
            layers.append(
                LayerForwardCost(
                    name=layer_spec.name,
                    kind="fc",
                    macs=result.mac_cycles,
                    array_cycles=result.total_cycles,
                    wall_seconds=time.perf_counter() - start,
                )
            )
        else:  # pragma: no cover - spec classes are closed
            raise TypeError(f"unknown spec type: {type(layer_spec)!r}")
    return NetworkForwardResult(
        network=spec.name,
        batch=batch,
        layers=tuple(layers),
        wall_seconds=time.perf_counter() - total_start,
    )
