"""PE-array configuration (Fig. 4b).

Each PE has a 4.5 KB register file, 8 MAC units, 8 comparators (for
ReLU and max-pool), 128-bit links to its four neighbours plus a
diagonal link to the upper-right PE, and runs at 1 GHz on 16-bit
fixed-point data.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PEConfig", "ArrayConfig", "PAPER_ARRAY"]


@dataclass(frozen=True)
class PEConfig:
    """Static PE parameters.

    ``rf_words`` (register-file capacity in data words) and
    ``words_per_link_beat`` (data words moved per cycle over one
    inter-PE link) are derived once at construction, as cached
    attributes rather than recomputed properties.
    """

    rf_bytes: int = 4608  # 4.5 KB
    n_macs: int = 8
    n_comparators: int = 8
    link_bits: int = 128
    word_bits: int = 16

    def __post_init__(self) -> None:
        if min(self.rf_bytes, self.n_macs, self.n_comparators, self.link_bits) <= 0:
            raise ValueError("PE parameters must be positive")
        if self.word_bits not in (8, 16, 32):
            raise ValueError("word_bits must be 8, 16 or 32")
        object.__setattr__(self, "rf_words", self.rf_bytes * 8 // self.word_bits)
        object.__setattr__(
            self, "words_per_link_beat", self.link_bits // self.word_bits
        )


@dataclass(frozen=True)
class ArrayConfig:
    """Static parameters of the systolic array and its buffer port.

    The paper: 1024 PEs in a 32x32 grid at 1 GHz; the global buffer has
    4096 connections to the 32 PEs of the first row (one 128-bit lane per
    column) and can broadcast a row of data to every PE row.
    """

    rows: int = 32
    cols: int = 32
    clock_hz: float = 1e9
    buffer_port_bits: int = 4096
    stream_bits_per_cycle: int = 128
    pe: PEConfig = PEConfig()

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("array dimensions must be positive")
        if self.clock_hz <= 0:
            raise ValueError("clock must be positive")
        if self.buffer_port_bits <= 0 or self.stream_bits_per_cycle <= 0:
            raise ValueError("port widths must be positive")

    @property
    def total_pes(self) -> int:
        """Number of PEs in the array."""
        return self.rows * self.cols

    @property
    def words_per_stream_cycle(self) -> int:
        """Data words entering the array per cycle on the streaming port.

        This 128-bit/cycle weight-streaming path is what bounds FC-layer
        throughput in Fig. 12a (~7-8 GMAC/s for every FC layer).
        """
        return self.stream_bits_per_cycle // self.pe.word_bits

    def seconds(self, cycles: float) -> float:
        """Convert a cycle count to seconds."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        return cycles / self.clock_hz


#: The paper's array: 32x32 PEs, 1 GHz, 16-bit, 4.5 KB RFs.
PAPER_ARRAY = ArrayConfig()
