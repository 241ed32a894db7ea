"""Federated learning with heterogeneous pruned client models.

Masked local SGD on pruned per-client models, region-wise global
aggregation, quartile-segment pruning policies, coverage/noise
instrumentation, and the parameter/FLOP accounting behind them.

The package re-exports nothing: import from the submodules
(`fedprune.federation`, `fedprune.nn`, `fedprune.pruning`, ...).
"""

__version__ = "0.1.0"
