"""Nash equilibrium seeking with bounded control inputs.

A numpy library (plus the ``nes-sim`` command line tool) for simulating
gradient-play and consensus-based equilibrium-seeking strategies for
first- and second-order integrator agents whose control inputs saturate,
together with the sufficient-condition gain bounds that guarantee their
convergence.
"""

from .config import ExperimentConfig, parse_config
from .dynamics import (
    GainSet,
    SaturationSpec,
    StateLayout,
    StrategyTag,
    lyapunov_value,
    make_rhs,
    sat,
    sat_integral,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    DisconnectedGraphError,
    DivergenceError,
    IllConditionedError,
    LayoutMismatchError,
    NotStronglyMonotoneError,
)
from .games import (
    GameDefinition,
    QuadraticGame,
    random_strongly_monotone_game,
)
from .graphs import (
    CommGraph,
    LyapunovPair,
    estimation_matrix,
    random_connected_graph,
    solve_lyapunov,
)
from .presets import (
    GAME_REGISTRY,
    PRESET_NAMES,
    complete_graph_adjacency,
    figure_preset,
    path_graph_adjacency,
    sensor_network_game,
)
from .runner import SummaryReport, run_experiment
from .simulate import (
    SimConfig,
    Trajectory,
    attach_distance,
    attach_estimation_error,
    check_control_bounds,
    detect_convergence,
    integrate,
    monitor_lyapunov,
    run_sweep,
    stability_guard,
)
from .tuning import (
    TunerReport,
    alpha_beta_star,
    lipschitz_constants,
    theta_bounds_second_order,
    theta_star_first_order,
)

__version__ = "0.1.0"
