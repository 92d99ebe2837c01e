"""Online joint state/weight estimation for trajectory prediction.

The augmented state-space model stacks lagged positions with the weights of a
small surrogate network; linear, extended and unscented Kalman estimators and
a bootstrap particle estimator run on it (and on classical baselines), with a
reproducible benchmark harness and CLI on top.
"""

__version__ = "0.1.0"
