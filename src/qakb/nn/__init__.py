"""Numpy-backed differentiable computation for the QA models."""

from qakb.nn.config import TrainConfig
from qakb.nn.io import load_params, save_params
from qakb.nn.layers import (
    Dense,
    EmbeddingTable,
    GRUCell,
    LSTMCell,
    OOV_TOKEN,
    bidirectional_last_states,
    cosine,
    glorot,
    recurrent,
    self_attention,
)
from qakb.nn.losses import (
    loss_binary_ce,
    loss_categorical_ce,
    loss_hinge_qas,
)
from qakb.nn.optim import Adam, fit
from qakb.nn.tensor import Tensor, as_tensor

__all__ = [
    "TrainConfig",
    "Tensor",
    "as_tensor",
    "Dense",
    "EmbeddingTable",
    "GRUCell",
    "LSTMCell",
    "OOV_TOKEN",
    "bidirectional_last_states",
    "cosine",
    "glorot",
    "recurrent",
    "self_attention",
    "loss_binary_ce",
    "loss_categorical_ce",
    "loss_hinge_qas",
    "Adam",
    "fit",
    "save_params",
    "load_params",
]
