"""Performance model: per-layer latency/power/energy and training-rate.

Reproduces the paper's hardware evaluation:

* Fig. 12 — per-layer processing latency, active PEs, power and energy
  for forward and backward propagation (:mod:`repro.perf.layer_cost`);
* Fig. 13a — maximum sustainable frames/second per training topology and
  batch size (:mod:`repro.perf.training`);
* Fig. 13b — per-iteration latency/energy totals and the headline
  79-84 % savings of TL-based topologies over E2E.

The model is structural — mapping geometry, streaming bandwidths, pass
counts, memory residency — with a small set of calibration factors fit
against the published Fig. 12 tables (:mod:`repro.perf.calibration`),
because the paper does not publish enough microarchitectural detail to
derive per-PE sustained throughput ab initio.  EXPERIMENTS.md records
model-vs-paper residuals for every cell.
"""

from repro.perf.calibration import (
    CostCalibration,
    DEFAULT_CALIBRATION,
    PAPER_FIG12_FORWARD,
    PAPER_FIG12_BACKWARD,
    PaperLayerRow,
)
from repro.perf.power import PowerModel
from repro.perf.layer_cost import LayerCost, LayerCostModel
from repro.perf.training import (
    TrainingIterationModel,
    IterationCost,
    fps_vs_batch_table,
    savings_vs_e2e,
)
from repro.perf.traffic import (
    TrafficSimulator,
    IterationTraffic,
    EnduranceEstimate,
)
from repro.perf.roofline import RooflineModel, RooflinePoint
from repro.perf.timeline import Phase, IterationTimeline, build_timeline
from repro.perf.sensitivity import (
    SensitivityPoint,
    scale_calibration,
    sensitivity_sweep,
)

__all__ = [
    "CostCalibration",
    "DEFAULT_CALIBRATION",
    "PAPER_FIG12_FORWARD",
    "PAPER_FIG12_BACKWARD",
    "PaperLayerRow",
    "PowerModel",
    "LayerCost",
    "LayerCostModel",
    "TrainingIterationModel",
    "IterationCost",
    "fps_vs_batch_table",
    "savings_vs_e2e",
    "TrafficSimulator",
    "IterationTraffic",
    "EnduranceEstimate",
    "RooflineModel",
    "RooflinePoint",
    "Phase",
    "IterationTimeline",
    "build_timeline",
    "SensitivityPoint",
    "scale_calibration",
    "sensitivity_sweep",
]
