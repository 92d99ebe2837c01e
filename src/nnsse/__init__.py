"""Online joint state/weight estimation for trajectory prediction.

The augmented state-space model stacks lagged positions with the weights of a
small surrogate network; linear, extended and unscented Kalman estimators and
a bootstrap particle estimator run on it (and on classical baselines), with a
reproducible benchmark harness and CLI on top.
"""

from .baselines import (
    SineModel,
    StackKind,
    StackModel,
    UamModel,
    e4ptrw_refit,
    multi_step_predict,
    stack_transition,
)
from .bench import (
    EstimatorSpec,
    ExperimentConfig,
    Metric,
    RunReport,
    accumulated_error,
    run_experiment,
)
from .estimators import (
    CovarianceDegeneracyError,
    DegenerateLikelihoodError,
    EstimatorError,
    GaussianBelief,
    ParticleSet,
    SigmaSet,
    SteadyStateLke,
    UkeParams,
    eke_step,
    lke_step,
    pe_step,
    psd_sqrt,
    systematic_resample,
    uke_sigma_points,
    uke_step,
)
from .model import (
    Activation,
    NoiseSpec,
    Topology,
    transition_jacobian,
)
from .runners import ConfigError, build_runner
from .signals import Trajectory, TrajectoryFormatError, gen_sine, load_trajectory, save_trajectory

__version__ = "0.1.0"
