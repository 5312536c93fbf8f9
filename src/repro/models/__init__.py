"""Numpy deep-learning substrate: autograd, layers, MoE models, Adam."""

from .autograd import Parameter, Tensor, gradient_check
from .layers import (
    Embedding,
    FeedForward,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    MultiHeadAttention,
)
from .moe import MoELayer, MoEOutputAux, RoutingStats, TopKGate
from .optim import Adam, AdamParamState
from .serial import (
    ExpertKey,
    classify_parameters,
    expert_param_names,
    non_expert_param_names,
    parameter_counts,
)
from .transformer import (
    MoEClassifier,
    MoEClassifierConfig,
    MoEModelConfig,
    MoETransformerLM,
    TransformerBlock,
)

__all__ = [
    "Adam",
    "AdamParamState",
    "Embedding",
    "ExpertKey",
    "FeedForward",
    "LayerNorm",
    "Linear",
    "MoEClassifier",
    "MoEClassifierConfig",
    "MoELayer",
    "MoEModelConfig",
    "MoEOutputAux",
    "MoETransformerLM",
    "Module",
    "ModuleList",
    "MultiHeadAttention",
    "Parameter",
    "RoutingStats",
    "Tensor",
    "TopKGate",
    "TransformerBlock",
    "classify_parameters",
    "expert_param_names",
    "gradient_check",
    "non_expert_param_names",
    "parameter_counts",
]
