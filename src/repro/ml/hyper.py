"""The DNN recommender's hyper-parameters, apart from the network code.

:class:`~repro.core.config.RexConfig` carries them for
:class:`~repro.sim.dnn_fleet.DnnFleetSim`.  Defining the dataclass outside
:mod:`repro.ml.dnn` keeps that package out of the import closure of the
attested enclave, which trains MF only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["DnnHyperParams"]


@dataclass(frozen=True)
class DnnHyperParams:
    """Hyper-parameters (paper Section IV-A3b defaults)."""

    k: int = 20
    hidden: Tuple[int, ...] = (128, 94, 46, 22)
    embedding_dropout: float = 0.02
    hidden_dropout: float = 0.15
    learning_rate: float = 1e-4
    weight_decay: float = 1e-5
    batch_size: int = 128
    batches_per_epoch: int = 4
    init_scale: float = 0.05

    def __post_init__(self) -> None:
        if self.k < 1 or len(self.hidden) < 1:
            raise ValueError("need a positive embedding dim and >=1 hidden layer")
