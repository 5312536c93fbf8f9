"""Fully sharded checkpointing strategies (Section 4, Figure 7/10).

The planner assigns checkpoint *work* — bytes to serialize and write — to
distributed ranks.  It understands the ZeRO-2 DP + EP layout of Figure 6:

* Optimizer states are already partitioned (ZeRO-2): every rank persists
  its own shard regardless of policy.  The non-expert optimizer is
  partitioned across all DP ranks; each expert's optimizer is partitioned
  across that expert's replicas (one per EP group).
* Model *parameters* are replicated, so a policy decides which rank saves
  which copy:

  - ``BASELINE`` (Megatron-DeepSpeed, Figure 7(a)): rank 0 saves all
    non-expert parameters; the owner ranks in EP group 0 save expert
    parameters.
  - ``EE``: expert parameters split equally across EP groups (Figure
    7(b), expert half on each group's replica).
  - ``EE_EN``: EE plus greedy equal sharding of non-expert layers over
    all DP ranks.
  - ``EE_AN``: EE plus *adaptive* sharding — the greedy allocator seeds
    each rank with its PEC expert workload so non-expert layers fill the
    spare capacity (Section 4.3).

The same planner is used by the discrete-event simulator (GB-scale model
specs, Figures 10-13) and by the real trainer (tiny models), so tests on
one validate the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..models.serial import ExpertKey
from .config import ShardingPolicy
from .pec import PECPlan


@dataclass(frozen=True)
class ShardTopology:
    """The DP+EP rank layout (Table 2's Cases are instances of this).

    ``d_dp`` ranks total; EP groups are contiguous blocks of ``d_ep``
    ranks; each rank in an EP group owns ``num_experts / d_ep``
    consecutive experts of every MoE layer.
    """

    d_dp: int
    d_ep: int
    gpus_per_node: int = 8

    def __post_init__(self) -> None:
        if self.d_dp < 1 or self.d_ep < 1:
            raise ValueError("parallel degrees must be >= 1")
        if self.d_dp % self.d_ep != 0:
            raise ValueError(f"d_dp={self.d_dp} must be a multiple of d_ep={self.d_ep}")
        if self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be >= 1")

    @property
    def num_ranks(self) -> int:
        return self.d_dp

    @property
    def num_ep_groups(self) -> int:
        return self.d_dp // self.d_ep

    @property
    def num_nodes(self) -> int:
        return (self.d_dp + self.gpus_per_node - 1) // self.gpus_per_node

    def ep_group_of(self, rank: int) -> int:
        return rank // self.d_ep

    def ep_rank_of(self, rank: int) -> int:
        return rank % self.d_ep

    def node_of(self, rank: int) -> int:
        return rank // self.gpus_per_node

    def experts_per_rank(self, num_experts: int) -> int:
        if num_experts % self.d_ep != 0:
            raise ValueError(
                f"num_experts={num_experts} must be a multiple of d_ep={self.d_ep}"
            )
        return num_experts // self.d_ep

    def owner_rank(self, ep_group: int, expert: int, num_experts: int) -> int:
        """Global rank holding ``expert`` inside ``ep_group`` (contiguous)."""
        per_rank = self.experts_per_rank(num_experts)
        ep_rank = expert // per_rank
        return ep_group * self.d_ep + ep_rank

    def ranks_hosting_expert(self, expert: int, num_experts: int) -> List[int]:
        """All replicas of ``expert`` — one rank per EP group."""
        return [
            self.owner_rank(group, expert, num_experts)
            for group in range(self.num_ep_groups)
        ]


@dataclass
class CheckpointWorkload:
    """Byte sizes of everything a checkpoint must write.

    Weight entries are *replicated* state needing a policy; optimizer
    entries are per-parameter bytes that ZeRO-2 has already partitioned.
    Expert byte fields are per single expert (layer instance).
    """

    non_expert_param_items: List[Tuple[str, int]]
    expert_param_bytes: int
    num_moe_layers: int
    num_experts: int
    non_expert_master_bytes: int
    non_expert_moment_bytes: int
    expert_master_bytes: int
    expert_moment_bytes: int
    other_bytes: int = 0

    def all_expert_keys(self) -> List[ExpertKey]:
        return [
            ExpertKey(layer, expert)
            for layer in range(self.num_moe_layers)
            for expert in range(self.num_experts)
        ]


@dataclass(frozen=True)
class ShardItem:
    """One unit of checkpoint work assigned to a rank."""

    key: str
    nbytes: int
    kind: str  # "ne_param" | "expert_param" | "ne_opt" | "expert_opt" | "other"


@dataclass
class ShardPlan:
    """Per-rank checkpoint assignments with workload queries."""

    topology: ShardTopology
    assignments: Dict[int, List[ShardItem]] = field(default_factory=dict)

    def add(self, rank: int, item: ShardItem) -> None:
        if not 0 <= rank < self.topology.num_ranks:
            raise ValueError(f"rank {rank} outside topology of {self.topology.num_ranks}")
        self.assignments.setdefault(rank, []).append(item)

    def rank_bytes(self, rank: int) -> int:
        return sum(item.nbytes for item in self.assignments.get(rank, []))

    def per_rank_bytes(self) -> List[int]:
        return [self.rank_bytes(r) for r in range(self.topology.num_ranks)]

    def bottleneck_bytes(self) -> int:
        return max(self.per_rank_bytes())

    def total_bytes(self) -> int:
        return sum(self.per_rank_bytes())

    def node_bytes(self, node: int) -> int:
        return sum(
            self.rank_bytes(r)
            for r in range(self.topology.num_ranks)
            if self.topology.node_of(r) == node
        )

    def imbalance(self) -> float:
        """Bottleneck / mean — 1.0 is perfectly balanced."""
        per_rank = self.per_rank_bytes()
        mean = sum(per_rank) / len(per_rank)
        return max(per_rank) / mean if mean > 0 else 1.0


def _selected_experts(
    workload: CheckpointWorkload, pec_plan: Optional[PECPlan], component: str
) -> List[ExpertKey]:
    """Experts whose ``component`` ("weights" | "moments") gets saved."""
    if pec_plan is None:
        return workload.all_expert_keys()
    restricted = (
        pec_plan.apply_to_weights if component == "weights" else pec_plan.apply_to_moments
    )
    if not restricted:
        return workload.all_expert_keys()
    return sorted(pec_plan.persist_experts)


def _assign_optimizer_shards(
    plan: ShardPlan,
    workload: CheckpointWorkload,
    pec_plan: Optional[PECPlan],
) -> None:
    """ZeRO-2 optimizer shards: every rank saves its own partition."""
    topo = plan.topology
    ne_opt = workload.non_expert_master_bytes + workload.non_expert_moment_bytes
    per_rank_ne = ne_opt // topo.num_ranks
    for rank in range(topo.num_ranks):
        if per_rank_ne > 0:
            plan.add(rank, ShardItem(f"ne_opt/shard{rank}", per_rank_ne, "ne_opt"))

    moment_experts = set(_selected_experts(workload, pec_plan, "moments"))
    groups = topo.num_ep_groups
    for key in workload.all_expert_keys():
        master_share = workload.expert_master_bytes // groups
        moment_share = (
            workload.expert_moment_bytes // groups if key in moment_experts else 0
        )
        nbytes = master_share + moment_share
        if nbytes <= 0:
            continue
        for group in range(groups):
            rank = topo.owner_rank(group, key.expert, workload.num_experts)
            plan.add(
                rank,
                ShardItem(
                    f"expert_opt/l{key.moe_layer}e{key.expert}/g{group}", nbytes, "expert_opt"
                ),
            )


def _assign_expert_weights(
    plan: ShardPlan,
    workload: CheckpointWorkload,
    pec_plan: Optional[PECPlan],
    equal_sharding: bool,
) -> None:
    """Expert weight copies: EP-group-0 only (baseline) or split (EE)."""
    topo = plan.topology
    selected = _selected_experts(workload, pec_plan, "weights")
    groups = topo.num_ep_groups if equal_sharding else 1
    share = workload.expert_param_bytes // groups
    for key in selected:
        for group in range(groups):
            rank = topo.owner_rank(group, key.expert, workload.num_experts)
            plan.add(
                rank,
                ShardItem(
                    f"expert_w/l{key.moe_layer}e{key.expert}/g{group}", share, "expert_param"
                ),
            )


def _greedy_placement(
    num_ranks: int,
    items: Sequence[Tuple[str, int]],
    initial_loads: Optional[Dict[int, int]] = None,
) -> Dict[int, List[Tuple[str, int]]]:
    """Longest-processing-time greedy: largest item to least-loaded rank."""
    loads = {rank: 0 for rank in range(num_ranks)}
    if initial_loads:
        for rank, load in initial_loads.items():
            loads[rank] = load
    placement: Dict[int, List[Tuple[str, int]]] = {rank: [] for rank in range(num_ranks)}
    for name, size in sorted(items, key=lambda pair: (-pair[1], pair[0])):
        target = min(loads, key=lambda r: (loads[r], r))
        placement[target].append((name, size))
        loads[target] += size
    return placement


def _apply_placement(plan: ShardPlan, placement: Dict[int, List[Tuple[str, int]]]) -> None:
    for rank, items in placement.items():
        for name, size in items:
            plan.add(rank, ShardItem(f"ne_w/{name}", size, "ne_param"))


def _greedy_assign(
    plan: ShardPlan,
    items: Sequence[Tuple[str, int]],
    initial_loads: Optional[Dict[int, int]] = None,
) -> None:
    _apply_placement(
        plan, _greedy_placement(plan.topology.num_ranks, items, initial_loads)
    )


def plan_checkpoint_shards(
    topology: ShardTopology,
    workload: CheckpointWorkload,
    policy: ShardingPolicy,
    pec_plan: Optional[PECPlan] = None,
) -> ShardPlan:
    """Build the per-rank checkpoint work assignment for one checkpoint.

    ``pec_plan`` restricts the saved experts; ``None`` means full saving.
    """
    plan = ShardPlan(topology=topology)
    _assign_optimizer_shards(plan, workload, pec_plan)

    if policy is ShardingPolicy.BASELINE:
        for name, size in workload.non_expert_param_items:
            plan.add(0, ShardItem(f"ne_w/{name}", size, "ne_param"))
        _assign_expert_weights(plan, workload, pec_plan, equal_sharding=False)
        if workload.other_bytes:
            plan.add(0, ShardItem("other", workload.other_bytes, "other"))
        return plan

    _assign_expert_weights(plan, workload, pec_plan, equal_sharding=True)
    # Metadata (RNG states, counters) goes to rank 0 up front so the
    # adaptive allocator sees the true starting loads.
    if workload.other_bytes:
        plan.add(0, ShardItem("other", workload.other_bytes, "other"))

    if policy is ShardingPolicy.EE:
        # EE alone keeps the baseline's rank-0 non-expert placement.
        for name, size in workload.non_expert_param_items:
            plan.add(0, ShardItem(f"ne_w/{name}", size, "ne_param"))
    elif policy is ShardingPolicy.EE_EN:
        # Equal sharding: balance non-expert layers in isolation — the
        # pattern is fixed at startup, ignoring the rotating PEC load.
        _greedy_assign(plan, workload.non_expert_param_items)
    elif policy is ShardingPolicy.EE_AN:
        # Adaptive sharding: evaluate two candidate static patterns — the
        # greedy allocator seeded with each rank's expert workload, and
        # the load-blind equal pattern — and keep whichever yields the
        # smaller bottleneck.  Both are fixed at startup (Section 4.3);
        # taking the min makes "adaptive never worse than equal" hold by
        # construction rather than by LPT luck.
        current = {rank: plan.rank_bytes(rank) for rank in range(topology.num_ranks)}
        candidates = (
            _greedy_placement(topology.num_ranks, workload.non_expert_param_items, current),
            _greedy_placement(topology.num_ranks, workload.non_expert_param_items),
        )

        def bottleneck_with(placement: Dict[int, List[Tuple[str, int]]]) -> int:
            return max(
                current[rank] + sum(size for _, size in placement[rank])
                for rank in range(topology.num_ranks)
            )

        _apply_placement(plan, min(candidates, key=bottleneck_with))
    else:
        raise ValueError(f"unhandled sharding policy {policy!r}")

    return plan


def pec_imbalance_condition(
    k_pec: int, num_moe_layers: int, d_ep: int, d_dp: int
) -> bool:
    """Eq. 9: whether PEC yields an imbalanced expert checkpoint workload."""
    total_selected = k_pec * num_moe_layers
    if total_selected % d_ep != 0:
        return True
    groups = d_dp // d_ep
    return (total_selected // d_ep) % groups != 0
