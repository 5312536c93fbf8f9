"""Structured state dicts: classifying parameters for PEC.

PEC treats the model as two populations — the *non-expert* part (saved in
full every checkpoint) and the per-``(moe_layer, expert)`` *expert* part
(saved selectively).  This module maps the dotted parameter names produced
by ``Module.named_parameters`` onto those populations, and groups model +
optimizer state into checkpoint *entries*: one entry per non-expert
parameter and one per (layer, expert, parameter).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


# Matches e.g. "blocks.3.moe.experts.5.fc_in.weight" (LM) and
# "moes.1.experts.7.fc_out.bias" (classifier).
_EXPERT_PATTERN = re.compile(r"^(?P<prefix>.*?)experts\.(?P<expert>\d+)\.(?P<rest>.+)$")


@dataclass(frozen=True, order=True)
class ExpertKey:
    """Identity of one expert: which MoE layer, which expert slot."""

    moe_layer: int
    expert: int


@dataclass(frozen=True)
class ParamClassification:
    """Where a named parameter lives in the PEC taxonomy."""

    name: str
    expert_key: Optional[ExpertKey]  # None => non-expert

    @property
    def is_expert(self) -> bool:
        return self.expert_key is not None


def _moe_prefixes(model) -> List[str]:
    """Dotted prefixes of the model's MoE layers, in layer order.

    Works for any model exposing ``moe_layers()`` by matching object
    identity of the gate projection parameter inside named_parameters.
    """
    layers = model.moe_layers()
    gate_params = {id(layer.gate.proj.weight): idx for idx, layer in enumerate(layers)}
    prefixes: List[Optional[str]] = [None] * len(layers)
    for name, param in model.named_parameters():
        idx = gate_params.get(id(param))
        if idx is not None:
            # name ends with "gate.proj.weight"; the MoE prefix precedes it.
            prefix = name[: -len("gate.proj.weight")]
            prefixes[idx] = prefix
    if any(p is None for p in prefixes):
        raise ValueError("could not locate all MoE layer prefixes")
    return [p for p in prefixes if p is not None]


def classify_parameters(model) -> Dict[str, ParamClassification]:
    """Classify every parameter of ``model`` as expert or non-expert.

    Expert FFN parameters map to their ``ExpertKey``.  Gate parameters are
    non-expert (the paper always saves the gating network in full — it is
    replicated across DP ranks like attention).
    """
    prefixes = _moe_prefixes(model)
    result: Dict[str, ParamClassification] = {}
    for name, _ in model.named_parameters():
        match = _EXPERT_PATTERN.match(name)
        expert_key: Optional[ExpertKey] = None
        if match is not None:
            for layer_idx, prefix in enumerate(prefixes):
                if name.startswith(prefix):
                    expert_key = ExpertKey(layer_idx, int(match.group("expert")))
                    break
        result[name] = ParamClassification(name=name, expert_key=expert_key)
    return result


def expert_param_names(model) -> Dict[ExpertKey, List[str]]:
    """Group expert parameter names by their (layer, expert) identity."""
    grouped: Dict[ExpertKey, List[str]] = {}
    for cls in classify_parameters(model).values():
        if cls.expert_key is not None:
            grouped.setdefault(cls.expert_key, []).append(cls.name)
    for names in grouped.values():
        names.sort()
    return grouped


def non_expert_param_names(model) -> List[str]:
    return sorted(
        cls.name for cls in classify_parameters(model).values() if not cls.is_expert
    )


def parameter_counts(model) -> Tuple[int, int]:
    """Return ``(non_expert_params, expert_params)`` element counts."""
    classes = classify_parameters(model)
    non_expert = 0
    expert = 0
    for name, param in model.named_parameters():
        if classes[name].is_expert:
            expert += param.size
        else:
            non_expert += param.size
    return non_expert, expert
