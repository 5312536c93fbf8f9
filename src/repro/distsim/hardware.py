"""Hardware profiles for the cluster simulator.

Calibration follows Section 6.2.4: A800 at 312 TFLOPS with 20%
utilisation and 1 GB/s GPU-to-CPU snapshot bandwidth; H100 at 989 TFLOPS,
20% utilisation, 2 GB/s snapshot bandwidth.  Interconnect and storage
numbers are representative of the paper's testbed class (NVLink intra-
node, HDR InfiniBand inter-node, a distributed filesystem per node).
"""

from __future__ import annotations

from dataclasses import dataclass

GB = 1024**3
TFLOP = 1e12


@dataclass(frozen=True)
class GPUSpec:
    """A single accelerator's capabilities."""

    name: str
    peak_tflops: float  # dense peak, TFLOPS
    utilization: float  # achieved fraction of peak for F&B
    d2h_bandwidth: float  # GPU->CPU snapshot bandwidth, bytes/s
    hbm_bandwidth: float  # device memory bandwidth, bytes/s

    @property
    def effective_flops(self) -> float:
        return self.peak_tflops * TFLOP * self.utilization


@dataclass(frozen=True)
class ClusterSpec:
    """Node and fabric characteristics."""

    gpu: GPUSpec
    gpus_per_node: int = 8
    intra_node_bandwidth: float = 200 * GB  # NVLink, bytes/s per GPU pair
    inter_node_bandwidth: float = 25 * GB  # IB per node, bytes/s
    storage_bandwidth_per_node: float = 6 * GB  # to distributed FS, bytes/s

    # Cross-node collectives degrade super-linearly with participant count
    # (fat-tree oversubscription, incast); ASTRA-sim models this via its
    # network topology — we approximate it with a power-law divisor.
    congestion_exponent: float = 0.6

    def a2a_bandwidth(self, ep_within_node: bool, num_nodes: int = 1) -> float:
        """Effective per-GPU all-to-all bandwidth for expert dispatch.

        ``num_nodes`` is the number of nodes the EP group spans; bandwidth
        decays as ``nodes ** -congestion_exponent`` once it leaves a node.
        """
        if ep_within_node:
            return self.intra_node_bandwidth
        factor = max(num_nodes, 1) ** self.congestion_exponent
        return self.inter_node_bandwidth / factor


A800 = GPUSpec(
    name="A800",
    peak_tflops=312.0,
    utilization=0.20,
    d2h_bandwidth=1 * GB,
    hbm_bandwidth=2039 * GB // 1,
)

H100 = GPUSpec(
    name="H100",
    peak_tflops=989.0,
    utilization=0.20,
    d2h_bandwidth=2 * GB,
    hbm_bandwidth=3350 * GB // 1,
)

A800_CLUSTER = ClusterSpec(gpu=A800)
H100_CLUSTER = ClusterSpec(
    gpu=H100,
    intra_node_bandwidth=450 * GB,
    inter_node_bandwidth=50 * GB,
    storage_bandwidth_per_node=8 * GB,
)
