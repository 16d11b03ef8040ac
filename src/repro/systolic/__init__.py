"""Systolic PE-array model (Fig. 4b, Fig. 6–8).

The paper's accelerator is a 32x32 array of processing elements, each
with a 4.5 KB register file, 8 MACs and 8 comparators, fed by a global
SRAM buffer (row-stationary dataflow after Eyeriss).  This package
provides:

* the array/PE configuration dataclasses,
* the three convolution mapping schemes of Fig. 6 (Type I/II/III) with
  their segment/set geometry and active-PE counts,
* the FC forward (vector-matrix, Fig. 7) and backward
  (vector-transposed-matrix, Fig. 8) mappings,
* one functional datapath: layer numerics from shared batched
  im2col/GEMM kernels (:mod:`repro.systolic.kernels`) and cycle
  statistics in closed form (:mod:`repro.systolic.cycles`), running
  paper-scale layers and whole batches in one call.  Conv filter rows
  and FC weight tiles stay resident while a batch streams through, so
  their load cycles amortise across the batch (the Fig. 13
  fps-vs-batch weight-reuse effect),
* whole-network training-step costs (:mod:`repro.systolic.training`),
* a paper-scale forward harness (:mod:`repro.systolic.bench`) backing
  ``python -m repro systolic-bench``.

The loop-level per-PE oracle the closed-form counters are proven
against is test-only code (``tests/pe_reference.py``).
"""

from repro.systolic.array import PEConfig, ArrayConfig, PAPER_ARRAY
from repro.systolic.kernels import (
    conv_out_size,
    im2col,
    col2im,
    conv2d_gemm,
)
from repro.systolic.cycles import (
    SimulationStats,
    FCScheduleStats,
    ConvBackwardStats,
    conv_rowstationary_stats,
    fc_tile_stats,
    fc_backward_stats,
    fc_weight_grad_stats,
    conv_backward_gemm_stats,
)
from repro.systolic.conv_mapping import (
    MappingType,
    ConvMapping,
    map_conv_layer,
)
from repro.systolic.fc_mapping import FCMapping, map_fc_layer
from repro.systolic.functional import simulate_conv_rowstationary
from repro.systolic.fc_functional import (
    FCSimResult,
    simulate_fc_forward,
    simulate_fc_backward_transposed,
)
from repro.systolic.noc import (
    NOC_TOPOLOGIES,
    CommunicationCost,
    NocModel,
    analyze_conv_communication,
)
from repro.systolic.bench import NetworkForwardResult, simulate_network_forward
from repro.systolic.training import (
    LayerTrainingCost,
    TrainingStepCost,
    training_step_stats,
    network_training_step_cost,
)

__all__ = [
    "PEConfig",
    "ArrayConfig",
    "PAPER_ARRAY",
    "conv_out_size",
    "im2col",
    "col2im",
    "conv2d_gemm",
    "SimulationStats",
    "FCScheduleStats",
    "conv_rowstationary_stats",
    "fc_tile_stats",
    "MappingType",
    "ConvMapping",
    "map_conv_layer",
    "FCMapping",
    "map_fc_layer",
    "simulate_conv_rowstationary",
    "FCSimResult",
    "simulate_fc_forward",
    "simulate_fc_backward_transposed",
    "CommunicationCost",
    "NocModel",
    "NOC_TOPOLOGIES",
    "analyze_conv_communication",
    "NetworkForwardResult",
    "simulate_network_forward",
    "ConvBackwardStats",
    "fc_backward_stats",
    "fc_weight_grad_stats",
    "conv_backward_gemm_stats",
    "LayerTrainingCost",
    "TrainingStepCost",
    "training_step_stats",
    "network_training_step_cost",
]
