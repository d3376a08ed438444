"""Staggered-quantum-walk workbench.

Build tessellations of triangle-free graphs, evolve single-photon
states under the staggered evolution operator, solve the
superconducting-resonator parameter problem, and compile walk programs
into per-SQUID flux pulse schedules.
"""

from .circuit import (
    DEFAULT_PARAMS,
    ChiPair,
    CircuitParams,
    CouplingResult,
    ModeSolution,
    OperatingPoint,
    chi_from_params,
    couplings,
    josephson_coefficient,
    max_chi_l,
    normalization_amplitude,
    pulse_duration,
    solve_flux_off,
    solve_mode,
    solve_operating_point,
)
from .errors import NumericError, UnreachableFluxError, ValidationError
from .graph import (
    Graph,
    Tessellation,
    TessellationSet,
    build_graph,
    generate_lattice_tessellations,
    generate_path_tessellations,
    graph_from_json,
    graph_to_json,
    greedy_tessellate,
    is_triangle_free,
    validate_tessellation,
    validate_tessellation_set,
)
from .schedule import (
    CompiledRun,
    PulseInterval,
    PulseSchedule,
    compile_schedule,
    emit_schedule,
    feasibility_notes,
    parse_schedule,
    simulate_compiled,
    validate_schedule,
)
from .walk import (
    CONVENTION_ABSTRACT,
    CONVENTION_PHYSICAL,
    WalkConfig,
    evolve,
    hamiltonian_from_tessellation,
    initial_basis_state,
    local_unitary,
    probability_distribution,
    spread_statistics,
)

__version__ = "0.1.0"
