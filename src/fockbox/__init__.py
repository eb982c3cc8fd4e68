"""fockbox: a truncated-Fock-space laboratory for lattice field models,
maximum-entropy statistical operators, exact unitary dynamics, and the
emergence of one-particle quantum mechanics inside field states.

The names below are resolved on first access (PEP 562), so ``import
fockbox`` loads no numpy or scipy; a name imports the module that defines it.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the names the package re-exports from it
_EXPORTS = {
    "config": ("BOSE", "FERMI", "fock_dimension"),
    "fock": (
        "DimensionCapError",
        "FieldOperator",
        "FockBasis",
        "annihilation",
        "anticommutator",
        "build_basis",
        "commutator",
        "creation",
        "field_operator",
        "identity",
        "number_operator",
        "zero_operator",
    ),
    "lattice": (
        "ENERGY",
        "MASS",
        "MOMENTUM",
        "CurrentSet",
        "LatticeModel",
        "NormalModeSet",
        "UnsupportedFamilyError",
        "build_hamiltonian",
        "current_ops",
        "density_ops",
        "divergence_ops",
        "energy_density_ops",
        "momentum_density_ops",
        "momentum_op",
        "normal_modes",
        "pair_preset",
        "potential_preset",
    ),
    "maxent": (
        "MatchFailure",
        "RelevantSet",
        "ZetaField",
        "cumulant_expect",
        "entropy",
        "gibbs_state",
        "kubo",
        "match_expectations",
        "relevant_set",
    ),
    "propagate": ("Dresser", "evolve_state", "heisenberg", "propagator"),
    "subdynamics": (
        "OneQuantonState",
        "ReducedObservable",
        "Region",
        "VacuumConditionError",
        "embed",
        "embed_two_quanton",
        "embedding_residual",
        "gaussian_packet",
        "induced_observable",
        "observable_drift",
        "one_quanton",
        "reduced_schrodinger_step",
        "region",
        "surface_term",
        "vacuum_residual",
    ),
    "neqso": (
        "DecayReport",
        "GramConditionError",
        "HistorySpec",
        "HistoryTerm",
        "build_rho_t0",
        "cosine_test_function",
        "decay_time",
        "entropy_monitor",
        "evolve_and_rewrite",
        "hydro_parametrize",
        "macrostate_of",
        "zeta_dynamics",
    ),
    "events": (
        "EventMixture",
        "EventSpec",
        "InactiveSourceError",
        "SupportViolationError",
        "build_event_mixture",
        "memory_witness",
        "shielded_expectation",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("cli", "config", "events", "fock", "lattice", "maxent", "neqso",
               "propagate", "scenarios", "subdynamics")

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
