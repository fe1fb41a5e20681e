"""Grid-world multi-agent path finding workbench.

An evolutionary counter learner with tabular baselines (space-time A*,
Q-learning, first-visit Monte Carlo control), shared rollout metrics, and a
deterministic benchmark harness.
"""

from .gridworld import (
    Action,
    CapacityError,
    Cell,
    DisconnectedMapError,
    GridMap,
    InvalidJointStateError,
    InvalidStateError,
    MapError,
    MissingEndpointError,
    NonRectangularMapError,
    RewardConfig,
    StepEvent,
    StepOutcome,
    UnknownCharacterError,
    WorldConfig,
    action_delta,
    action_from_name,
    action_name,
    manhattan,
    parse_map,
    permissible_actions,
    reward,
    sample_initial,
    step,
)
from .egt import (
    CounterTable,
    EGTParams,
    ESSReport,
    Policy,
    TrainingStats,
    Trajectory,
    WORST_FITNESS,
    apply_update,
    construct_policy,
    ess_test,
    fitness,
    greedy_action_map,
    success_update_probability,
    train,
)
from .baselines import (
    LearnParams,
    PlanResult,
    QTable,
    astar_plan,
    epsilon_greedy_policy,
    mc_train,
    q_train,
)
from .metrics import (
    EpisodeRecord,
    MetricsReport,
    aggregate,
    min_obstacle_distance,
    rollout,
)
from .bench import (
    ConfigError,
    ExperimentConfig,
    GenerationError,
    SweepSpec,
    default_episode_budget,
    default_horizon,
    experiment_from_config,
    gen_map,
    parse_config,
    parse_config_text,
    run_experiment,
    run_sweep,
    sweep_from_config,
)

__version__ = "0.1.0"

__all__ = [
    "Action", "CapacityError", "Cell", "DisconnectedMapError", "GridMap",
    "InvalidJointStateError", "InvalidStateError", "MapError",
    "MissingEndpointError", "NonRectangularMapError", "RewardConfig",
    "StepEvent", "StepOutcome", "UnknownCharacterError", "WorldConfig",
    "action_delta", "action_from_name", "action_name", "manhattan",
    "parse_map", "permissible_actions", "reward", "sample_initial", "step",
    "CounterTable", "EGTParams", "ESSReport", "Policy", "TrainingStats",
    "Trajectory", "WORST_FITNESS", "apply_update", "construct_policy",
    "ess_test", "fitness", "greedy_action_map", "success_update_probability",
    "train",
    "LearnParams", "PlanResult", "QTable", "astar_plan",
    "epsilon_greedy_policy", "mc_train", "q_train",
    "EpisodeRecord", "MetricsReport", "aggregate", "min_obstacle_distance",
    "rollout",
    "ConfigError", "ExperimentConfig", "GenerationError", "SweepSpec",
    "default_episode_budget", "default_horizon", "experiment_from_config",
    "gen_map", "parse_config", "parse_config_text", "run_experiment",
    "run_sweep", "sweep_from_config",
    "__version__",
]
