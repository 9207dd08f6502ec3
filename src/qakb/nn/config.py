"""Training hyperparameters shared by every model in the package."""

import math
from dataclasses import dataclass


@dataclass
class TrainConfig:
    """Knobs for the taggers, matchers, and end-to-end scorers.

    ``hidden_size`` defaults to the small setting used throughout the
    test suite; raise it (e.g. to 100) for full-scale runs.  ``max_len``
    caps sequence length before the flatten step of the end-to-end
    encoder.
    """

    seed: int = 42
    epochs: int = 15
    batch_size: int = 16
    hidden_size: int = 16
    embed_dim: int = 24
    char_dim: int = 12
    max_len: int = 20
    learning_rate: float = 0.001
    gamma: float = 0.5
    dropout_p: float = 0.1

    def __post_init__(self) -> None:
        for name in ("learning_rate", "gamma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(
                    f"{name} must be finite and positive, got {value}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        for name in ("epochs", "batch_size", "hidden_size", "embed_dim",
                     "char_dim", "max_len"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
