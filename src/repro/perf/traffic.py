"""Per-iteration memory-traffic simulation and NVM endurance model.

The layer-cost model answers "how long / how much energy"; this module
answers "which device moved how many bits" by walking one full training
iteration (Fig. 3b) and charging every transfer to the platform's device
counters:

* camera DRAM → global buffer: one frame per image over the DDR6 link,
* STT-MRAM → PE array: frozen weights, once per forward pass,
* SRAM buffer: trainable-tail weights (fwd + bwd passes) and gradient
  accumulator read-modify-writes,
* STT-MRAM writes (E2E only): the frozen portion's weight update plus
  any gradient spill round trips.

From the sustained NVM write rate an **endurance estimate** follows: how
long until the most-written cell exceeds the technology's write budget —
the quantitative version of the paper's "NVM is unsuitable for real-time
RL model storage" argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.devices import CameraDram, GlobalBuffer, SttMramStack
from repro.nn.specs import FCSpec, NetworkSpec
from repro.perf.layer_cost import LayerCostModel
from repro.rl.transfer import TransferConfig

__all__ = [
    "IterationTraffic",
    "TrafficSimulator",
    "EnduranceEstimate",
]

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class IterationTraffic:
    """Bits moved per device in one batch-N training iteration."""

    config_name: str
    batch_size: int
    dram_read_bits: int
    nvm_read_bits: int
    nvm_write_bits: int
    sram_read_bits: int
    sram_write_bits: int

    @property
    def total_bits(self) -> int:
        """All bits moved in the iteration."""
        return (
            self.dram_read_bits
            + self.nvm_read_bits
            + self.nvm_write_bits
            + self.sram_read_bits
            + self.sram_write_bits
        )

    @property
    def nvm_write_fraction(self) -> float:
        """Share of traffic that is NVM writes (the expensive kind)."""
        if self.total_bits == 0:
            return 0.0
        return self.nvm_write_bits / self.total_bits


@dataclass(frozen=True)
class EnduranceEstimate:
    """Lifetime of the NVM stack under a sustained write rate."""

    writes_per_cell_per_day: float
    endurance_cycles: float

    @property
    def lifetime_days(self) -> float:
        """Days until the write budget is exhausted (inf if no writes)."""
        if self.writes_per_cell_per_day == 0.0:
            return float("inf")
        return self.endurance_cycles / self.writes_per_cell_per_day

    @property
    def lifetime_years(self) -> float:
        """Lifetime in years."""
        return self.lifetime_days / 365.25


class TrafficSimulator:
    """Walks one training iteration and charges the device counters."""

    def __init__(
        self,
        spec: NetworkSpec,
        config: TransferConfig,
        nvm: SttMramStack | None = None,
        buffer: GlobalBuffer | None = None,
        camera_dram: CameraDram | None = None,
    ):
        self.spec = spec
        self.config = config
        self.nvm = nvm or SttMramStack()
        self.buffer = buffer or GlobalBuffer()
        self.camera_dram = camera_dram or CameraDram()
        self.cost_model = LayerCostModel(
            spec, config, nvm=self.nvm, buffer=self.buffer
        )
        self._frame_bits = (
            spec.input_side * spec.input_side * spec.input_channels * spec.weight_bits
        )

    def _layer_bits(self, name: str) -> int:
        return self.spec.layer(name).weight_count * self.spec.weight_bits

    def simulate_iteration(self, batch_size: int) -> IterationTraffic:
        """Charge one batch-N iteration; returns the traffic summary.

        Device counters accumulate (call the devices'
        ``reset_counters()`` between experiments to separate runs).
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        dram_r = nvm_r = nvm_w = sram_r = sram_w = 0
        trainable = set(self.cost_model.trainable_layer_names())
        for _ in range(batch_size):
            # Camera frame: DRAM -> buffer.
            dram_r += self.camera_dram.read(self._frame_bits).bits
            sram_w += self.buffer.write(self._frame_bits).bits
            # Forward: every layer's weights stream from their device.
            for layer in self.spec.layers:
                bits = self._layer_bits(layer.name)
                if self.cost_model.is_nvm_resident(layer.name):
                    nvm_r += self.nvm.read(bits).bits
                else:
                    sram_r += self.buffer.read(bits).bits
            # Backward: trainable layers stream weights again (dX pass)
            # and read-modify-write their gradient accumulators.
            for name in trainable:
                bits = self._layer_bits(name)
                if self.cost_model.is_nvm_resident(name):
                    nvm_r += self.nvm.read(bits).bits
                else:
                    sram_r += self.buffer.read(bits).bits
                layer = self.spec.layer(name)
                if isinstance(layer, FCSpec) and self.cost_model._gradient_spills(layer):
                    nvm_w += self.nvm.write(bits).bits
                    nvm_r += self.nvm.read(bits).bits
                else:
                    sram_r += self.buffer.read(bits).bits
                    sram_w += self.buffer.write(bits).bits
        # Weight update: read gradient + read/write weights.
        for name in trainable:
            bits = self._layer_bits(name)
            sram_r += self.buffer.read(bits).bits
            if self.cost_model.is_nvm_resident(name):
                nvm_r += self.nvm.read(bits).bits
                nvm_w += self.nvm.write(bits).bits
            else:
                sram_r += self.buffer.read(bits).bits
                sram_w += self.buffer.write(bits).bits
        return IterationTraffic(
            config_name=self.config.name,
            batch_size=batch_size,
            dram_read_bits=dram_r,
            nvm_read_bits=nvm_r,
            nvm_write_bits=nvm_w,
            sram_read_bits=sram_r,
            sram_write_bits=sram_w,
        )

    def endurance(
        self,
        traffic: IterationTraffic,
        iterations_per_second: float,
        endurance_cycles: float = 1e12,
    ) -> EnduranceEstimate:
        """Endurance under a sustained iteration rate.

        Assumes writes spread uniformly over the written footprint (the
        trainable NVM-resident weights plus spill region) — optimistic,
        i.e. real lifetimes are shorter.
        """
        if iterations_per_second <= 0:
            raise ValueError("iterations_per_second must be positive")
        if endurance_cycles <= 0:
            raise ValueError("endurance_cycles must be positive")
        if traffic.nvm_write_bits == 0:
            return EnduranceEstimate(0.0, endurance_cycles)
        footprint_bits = self.nvm.capacity_bytes * 8
        writes_per_bit_per_iter = traffic.nvm_write_bits / footprint_bits
        per_day = writes_per_bit_per_iter * iterations_per_second * SECONDS_PER_DAY
        return EnduranceEstimate(per_day, endurance_cycles)
