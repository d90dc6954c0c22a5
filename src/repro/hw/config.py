"""Design configuration parameters (Table VIII of the paper)."""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["EngineConfig", "PEConfig"]


@dataclass(frozen=True)
class PEConfig:
    """Per-PE resources (Table VIII, top half).

    Attributes:
        n_mul: multipliers per PE (8).
        mul_width: multiplier word width in bits (16).
        n_acc: accumulators per PE (128).
        acc_width: accumulator width in bits (24).
        weight_sram_banks: weight SRAM sub-banks (16); one active per cycle.
        weight_sram_width: bits per weight SRAM row (32).
        weight_sram_depth: rows per weight SRAM sub-bank (2048).
        perm_sram_width: permutation SRAM width (48 bits: several small
            ``log2 p`` values per row).
        perm_sram_depth: permutation SRAM rows (2048).
    """

    n_mul: int = 8
    mul_width: int = 16
    n_acc: int = 128
    acc_width: int = 24
    weight_sram_banks: int = 16
    weight_sram_width: int = 32
    weight_sram_depth: int = 2048
    perm_sram_width: int = 48
    perm_sram_depth: int = 2048

    def __post_init__(self) -> None:
        if self.n_mul <= 0 or self.n_acc <= 0:
            raise ValueError("n_mul and n_acc must be positive")
        if self.n_acc % self.n_mul != 0:
            raise ValueError(
                "n_acc must be a multiple of n_mul (accumulator banks of "
                "g = n_acc/n_mul per selector, Fig. 9)"
            )

    @property
    def accumulators_per_bank(self) -> int:
        """``g = N_ACC / N_MUL`` accumulators behind each selector."""
        return self.n_acc // self.n_mul

    @property
    def weight_sram_bits(self) -> int:
        return self.weight_sram_banks * self.weight_sram_width * self.weight_sram_depth

    @property
    def perm_sram_bits(self) -> int:
        return self.perm_sram_width * self.perm_sram_depth


@dataclass(frozen=True)
class EngineConfig:
    """Whole-engine resources (Table VIII, bottom half).

    Attributes:
        n_pe: number of processing elements (32).
        quant_bits: activation/weight word width (16-bit quantization).
        weight_sharing_bits: virtual-weight LUT index width (4).
        pipeline_stages: pipeline depth (5).
        act_sram_banks: activation SRAM banks (8).
        act_sram_width: bits per activation SRAM row (64).
        act_sram_depth: activation SRAM rows (2048).
        act_fifo_width: activation FIFO width (32 bits).
        act_fifo_depth: activation FIFO depth (32).  Both are sizing
            figures only: the cycle model does not simulate FIFO stalls.
        clock_ghz: clock frequency (1.2 GHz at 28 nm).
        tech_nm: technology node (28).
        pe: the per-PE configuration.
    """

    n_pe: int = 32
    quant_bits: int = 16
    weight_sharing_bits: int = 4
    pipeline_stages: int = 5
    act_sram_banks: int = 8
    act_sram_width: int = 64
    act_sram_depth: int = 2048
    act_fifo_width: int = 32
    act_fifo_depth: int = 32
    clock_ghz: float = 1.2
    tech_nm: int = 28
    pe: PEConfig = PEConfig()

    def __post_init__(self) -> None:
        if self.n_pe <= 0:
            raise ValueError("n_pe must be positive")
        if self.clock_ghz <= 0:
            raise ValueError("clock_ghz must be positive")

    @property
    def activations_written_per_cycle(self) -> int:
        """Group-writing rate: ``N_ACTMB * W_ACTM / q`` values per cycle."""
        return self.act_sram_banks * self.act_sram_width // self.quant_bits

    @property
    def peak_macs_per_cycle(self) -> int:
        return self.n_pe * self.pe.n_mul

    @property
    def peak_gops(self) -> float:
        """Peak compressed-domain throughput: 2 ops per MAC.

        The paper: 32 PEs x 8 muls x 1.2 GHz x 2 = 614.4 GOPS.
        """
        return 2.0 * self.peak_macs_per_cycle * self.clock_ghz

    def with_pes(self, n_pe: int) -> "EngineConfig":
        """Copy with a different PE count (scalability studies, Fig. 13)."""
        return replace(self, n_pe=n_pe)
