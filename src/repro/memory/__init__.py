"""Memory hierarchy model: STT-MRAM stack, SRAM global buffer, DRAM.

Models the platform of Fig. 4: a 3-D stacked STT-MRAM array (HBM-style
organisation, 1024 I/Os at 2 Gb/s each) holding the frozen weights, an
on-die SRAM global buffer holding the online-trainable FC tail plus
gradient accumulators and scratchpad, and an off-chip camera DRAM behind
a DDR6 link.  Device timings/energies follow Table 1 for STT-MRAM, with
SRAM/DRAM parameters documented in :mod:`repro.memory.technology`.
"""

from repro.memory.technology import (
    MemoryTechnology,
    STT_MRAM,
    ON_DIE_SRAM,
    DDR_DRAM,
    PCM_LIKE,
    RRAM_LIKE,
    NVM_TECHNOLOGIES,
)
from repro.memory.devices import (
    AccessResult,
    AccessCounters,
    MemoryDevice,
    SttMramStack,
    GlobalBuffer,
    CameraDram,
)
from repro.memory.mapping import WeightMapper, Placement, MappingReport

__all__ = [
    "MemoryTechnology",
    "STT_MRAM",
    "ON_DIE_SRAM",
    "DDR_DRAM",
    "PCM_LIKE",
    "RRAM_LIKE",
    "NVM_TECHNOLOGIES",
    "AccessResult",
    "AccessCounters",
    "MemoryDevice",
    "SttMramStack",
    "GlobalBuffer",
    "CameraDram",
    "WeightMapper",
    "Placement",
    "MappingReport",
]
