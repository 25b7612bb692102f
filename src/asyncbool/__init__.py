"""Exact analysis of regular autonomous asynchronous Boolean systems."""

from .basins import (
    AttractivityClass,
    BasinResult,
    NotAchievableError,
    attractivity_class,
    basin_n,
    basin_p,
    covering_walk,
    omega_basin_n,
    omega_basin_p,
    orbit_basin_n,
    orbit_basin_p,
    witness_schedule,
)
from .core import (
    GRAPH_CAP,
    STEP_CAP,
    SUBSET_CAP,
    DimensionError,
    Network,
    all_states,
    apply_fire_set,
    fixed_points,
    format_bits,
    full_mask,
    parse_bits,
    stable_set,
    unstable_set,
)
from .formats import (
    ParseError,
    export_dot,
    parse_network_exprs,
    parse_network_table,
    parse_schedule,
    parse_state_set,
    render_network_table,
    render_schedule,
    render_state_set,
)
from .graph import (
    CapExceededError,
    achievable_omegas_from,
    fair_sccs,
    fair_subsets,
    is_fair_set,
    is_n_invariant,
    is_p_invariant,
    proper_successors,
    reachable_set,
    successors,
)
from .oracle import (
    OracleBounds,
    VerificationReport,
    default_bounds,
    oracle_achievable_omegas,
    oracle_achievable_omegas_all,
    oracle_basin,
    simulate_word_schedule,
    verify_theorems,
)
from .schedule import (
    NotProgressiveError,
    OrbitTrace,
    Schedule,
    ScheduleError,
    flow_at,
    flows_eventually_equal,
    is_progressive,
    omega_limit,
    orbit_trace,
    restrict_after,
    synchronous,
    translate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
