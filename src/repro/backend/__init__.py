"""Pluggable execution backends for the Q network.

One seam — :meth:`ExecutionBackend.forward_batch(states) ->
(q_values, StepCost)` — replaces the four places that used to
re-implement "run the network": the agent's float predict, the
quantised network, the systolic fast path and the fleet scheduler's
post-hoc batch costing.  Four registered implementations:

* ``numpy`` — :class:`NumpyBackend`, the float path, zero overhead and
  zero cycle budget (the default; bitwise-identical to the historical
  agent behaviour);
* ``quantized`` — :class:`QuantizedBackend`, the 16-bit fixed-point
  datapath's numerics (Q2.13 weights, Q8.8 activations re-quantised
  after every layer) with no cycle model;
* ``systolic`` — :class:`SystolicBackend`, the accelerator-in-the-loop
  path: the same datapath — one quantised serving buffer, GEMMs on
  fixed-point values through the shared systolic kernels — plus
  closed-form per-step cycle budgets;
* ``sharded`` — :class:`ShardedBackend`, K systolic arrays priced over
  one datapath (``shard="sample"`` splits the batch, ``shard="layer"``
  splits conv filters / FC output neurons, ``shard="pipeline"`` stages
  the layers), bitwise-equal to the single-array path and filling the
  per-array / critical-path / NoC fields of the same :class:`StepCost`.

Every backend returns one record type, :class:`StepCost`, and any run
of costs sums with ``+`` (``StepCost()`` is the zero record) — the
agent's ledgers and the fleet report are such sums.

Training-side weight updates reach a deployed datapath through the
double-buffered :class:`WeightBus` (flip every ``sync_every`` updates,
tracked staleness) instead of a synchronous per-update ``sync()``.

``python -m repro fleet --backend {numpy,quantized,systolic,sharded}``
selects one for whole fleet rollouts.
"""

from repro.backend.base import (
    BACKENDS,
    ExecutionBackend,
    StepCost,
    WeightBus,
    make_backend,
    register_backend,
)
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.systolic_backend import QuantizedBackend, SystolicBackend
from repro.backend.sharded import SHARD_POLICIES, ShardedBackend, ShardPlan

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "StepCost",
    "WeightBus",
    "make_backend",
    "register_backend",
    "NumpyBackend",
    "QuantizedBackend",
    "SystolicBackend",
    "ShardedBackend",
    "ShardPlan",
    "SHARD_POLICIES",
]
