"""Machine descriptions of the Cerebras WSE2 and WSE3.

All numbers are taken from the paper (Sections 1, 2 and 6.3) and from the
public Cerebras architecture disclosures it cites:

* WSE2: 850,000 PEs, 40 GB of on-chip SRAM (48 kB per PE);
* WSE3: 900,000 PEs, 44 GB of on-chip SRAM, 214 Pb/s aggregate fabric
  bandwidth, 1.52 PFLOP/s FP32 peak, 18.22 PB/s memory bandwidth and
  3.30 PB/s fabric bandwidth (Figure 7's roofline ceilings);
* each PE performs a 128-bit read and a 64-bit write per cycle and exchanges
  one 32-bit wavelet per direction per cycle.

The WSE2's switch limitation — every PE must also transmit to itself when
configuring the four cardinal routes (Section 6) — is modelled with the
``self_transmit_overhead`` flag, which the WSE3 communications library no
longer needs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WseMachineSpec:
    """Static description of one WSE generation."""

    name: str
    #: usable PE grid (the fabric reserves some rows/columns for IO).
    grid_width: int
    grid_height: int
    #: clock frequency in Hz.
    clock_hz: float
    #: per-PE local memory in bytes (48 kB on both generations).
    pe_memory_bytes: int
    #: FP32 peak of the whole wafer, FLOP/s.
    peak_flops: float
    #: aggregate local-memory bandwidth, bytes/s.
    memory_bandwidth: float
    #: aggregate fabric bandwidth, bytes/s.
    fabric_bandwidth: float
    #: FP32 multiply-accumulate lanes per PE per cycle.
    simd_lanes: int
    #: wavelets (32-bit words) a PE can send per direction per cycle.
    wavelets_per_cycle: float
    #: task switch / activation overhead in cycles.
    task_activation_cycles: int
    #: WSE2 switch restriction: PEs transmit to themselves as well.
    self_transmit_overhead: bool


#: The CS-2's wafer: 750 x 994 usable PEs (the paper's "large" size fully
#: occupies the WSE2 grid).
WSE2 = WseMachineSpec(
    name="wse2",
    grid_width=750,
    grid_height=994,
    clock_hz=850e6,
    pe_memory_bytes=48 * 1024,
    peak_flops=0.97e15,
    memory_bandwidth=12.9e15,
    fabric_bandwidth=2.33e15,
    simd_lanes=4,
    wavelets_per_cycle=1.0,
    task_activation_cycles=60,
    self_transmit_overhead=True,
)

#: The CS-3's wafer: about 900,000 PEs with upgraded switching logic.
WSE3 = WseMachineSpec(
    name="wse3",
    grid_width=762,
    grid_height=1176,
    clock_hz=975e6,
    pe_memory_bytes=48 * 1024,
    peak_flops=1.52e15,
    memory_bandwidth=18.22e15,
    fabric_bandwidth=3.30e15,
    simd_lanes=4,
    wavelets_per_cycle=1.0,
    task_activation_cycles=55,
    self_transmit_overhead=False,
)

