"""Expert-designed baseline accelerators compared against in Figure 8.

The paper evaluates Eyeriss, NVDLA-Small, NVDLA-Large and the default Gemmini
configuration with Timeloop, searching 10,000 valid mappings per layer with a
random-pruned mapper.  This reproduction evaluates parameterized stand-ins for
these designs under the same reference model, so the comparison exercises the
same code path (fixed hardware + mapping-only search) even though the absolute
numbers come from our Table-2 cost model rather than each design's own energy
tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import GEMMINI_DEFAULT, HardwareConfig


@dataclass(frozen=True)
class BaselineAccelerator:
    """A named, fixed hardware design point used as a comparison baseline."""

    name: str
    config: HardwareConfig


# Eyeriss (Chen et al.): 168 PEs (modelled as a 12x12 array under the square
# constraint), a 108 KB global buffer and relatively large per-PE storage.
EYERISS = BaselineAccelerator(
    name="Eyeriss",
    config=HardwareConfig(pe_dim=12, accumulator_kb=16, scratchpad_kb=108),
)

# NVDLA-Small: 64 MACs with a small convolution buffer.
NVDLA_SMALL = BaselineAccelerator(
    name="NVDLA Small",
    config=HardwareConfig(pe_dim=8, accumulator_kb=16, scratchpad_kb=128),
)

# NVDLA-Large: 1024 MACs with a 512 KB convolution buffer.
NVDLA_LARGE = BaselineAccelerator(
    name="NVDLA Large",
    config=HardwareConfig(pe_dim=32, accumulator_kb=64, scratchpad_kb=512),
)

# The hand-tuned Gemmini default (Section 6.5).
GEMMINI_DEFAULT_BASELINE = BaselineAccelerator(name="Gemmini Default",
                                               config=GEMMINI_DEFAULT)


def baseline_accelerators() -> list[BaselineAccelerator]:
    """The four fixed baselines of Figure 8, in the order the paper plots them."""
    return [EYERISS, NVDLA_SMALL, NVDLA_LARGE, GEMMINI_DEFAULT_BASELINE]
