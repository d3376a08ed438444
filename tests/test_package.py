import inspect
import types

import pytest

import sqwbench
from sqwbench import circuit, errors, graph, schedule, walk

# the package's public names before it re-exported each module's __all__
PUBLIC_NAMES = [
    "CONVENTION_ABSTRACT", "CONVENTION_PHYSICAL", "ChiPair", "CircuitParams", "CompiledRun", "CouplingResult",
    "DEFAULT_PARAMS", "Graph", "ModeSolution", "NumericError", "OperatingPoint", "PulseInterval", "PulseSchedule",
    "Tessellation", "TessellationSet", "UnreachableFluxError", "ValidationError", "WalkConfig", "build_graph",
    "chi_from_params", "compile_schedule", "couplings", "emit_schedule", "evolve", "feasibility_notes",
    "generate_lattice_tessellations", "generate_path_tessellations", "graph_from_json", "graph_to_json",
    "greedy_tessellate", "hamiltonian_from_tessellation", "initial_basis_state", "is_triangle_free",
    "josephson_coefficient", "local_unitary", "max_chi_l", "normalization_amplitude", "parse_schedule",
    "probability_distribution", "pulse_duration", "simulate_compiled", "solve_flux_off", "solve_mode",
    "solve_operating_point", "spread_statistics", "validate_schedule", "validate_tessellation",
    "validate_tessellation_set",
]


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_name_still_exported(name):
    assert hasattr(sqwbench, name)


def test_exports_are_exactly_the_module_alls():
    modules = (circuit, errors, graph, schedule, walk)
    exported = {n for n, v in vars(sqwbench).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported == {n for m in modules for n in m.__all__}
    for m in modules:
        assert all(getattr(sqwbench, n) is getattr(m, n) for n in m.__all__)


# every optional parameter of an exported callable, as "name.parameter"; adding one is a reviewed edit of this list
OPTIONAL_PARAMETERS = [
    "CircuitParams.flux_quantum",
    "Graph.edges",
    "UnreachableFluxError.required_energy_scale",
    "WalkConfig.convention",
    "WalkConfig.steps",
    "evolve.on_step",
    "graph_to_json.ts",
    "simulate_compiled.convention",
]


def test_optional_parameters_are_the_listed_ones():
    found = []
    for name in sorted(set(dir(sqwbench)) - {"TessellationSet"}):  # TessellationSet is the builtin tuple
        value = getattr(sqwbench, name)
        if name.startswith("_") or isinstance(value, types.ModuleType) or not callable(value):
            continue
        try:
            parameters = inspect.signature(value).parameters.values()
        except ValueError:  # an exception type that keeps the builtin constructor
            continue
        found += [f"{name}.{p.name}" for p in parameters if p.default is not inspect.Parameter.empty]
    assert sorted(found) == OPTIONAL_PARAMETERS
