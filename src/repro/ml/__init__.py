"""ML substrate: the two recommenders the paper evaluates.

- :mod:`~repro.ml.mf` -- biased, L2-regularized matrix factorization
  trained with vectorized minibatch SGD (paper Section II-A: k=10,
  eta=0.005, lambda=0.1), with presence masks and the RMW / D-PSGD merge
  rules of Section III-C.
- :mod:`~repro.ml.dnn` -- the from-scratch deep recommender (embedding
  layer k=20, four Linear+ReLU hidden layers with dropout, final ReLU,
  Adam with weight decay) sized to the paper's 215,001 parameters; its
  hyper-parameters live in :mod:`~repro.ml.hyper`, outside the package.
- :mod:`~repro.ml.metrics` -- RMSE, the paper's test-error metric.
"""

from repro.ml.metrics import rmse
from repro.ml.mf import MatrixFactorization, MfHyperParams, MfState
from repro.ml.dnn import DnnHyperParams, DnnRecommender

__all__ = [
    "DnnHyperParams",
    "DnnRecommender",
    "MatrixFactorization",
    "MfHyperParams",
    "MfState",
    "rmse",
]
