"""The import surface: ``import fockbox``, ``fockbox list`` and ``fockbox
validate`` load no numpy or scipy, the operator modules load scipy.sparse
only when an operator is built, and every name the package exported while
it imported all of its modules eagerly still resolves."""

import importlib
import json

import pytest
from fresh import CLI, modules_loaded

import fockbox
from fockbox.config import scenario_defaults

SUBMODULES = ("cli", "config", "events", "fock", "lattice", "maxent", "neqso",
              "propagate", "scenarios", "subdynamics")

# every name fockbox exported when its __init__ imported each module, by the
# module it was imported from
EAGER_EXPORTS = {
    "fock": "BOSE FERMI DimensionCapError FieldOperator FockBasis annihilation "
            "anticommutator build_basis commutator creation field_operator "
            "fock_dimension identity number_operator zero_operator",
    "lattice": "ENERGY MASS MOMENTUM CurrentSet LatticeModel NormalModeSet "
               "UnsupportedFamilyError build_hamiltonian current_ops density_ops "
               "divergence_ops energy_density_ops momentum_density_ops momentum_op "
               "normal_modes pair_preset potential_preset",
    "maxent": "MatchFailure RelevantSet ZetaField cumulant_expect entropy gibbs_state "
              "kubo match_expectations relevant_set",
    "propagate": "Dresser evolve_state heisenberg propagator",
    "subdynamics": "OneQuantonState ReducedObservable Region VacuumConditionError embed "
                   "embed_two_quanton embedding_residual gaussian_packet "
                   "induced_observable observable_drift one_quanton "
                   "reduced_schrodinger_step region surface_term vacuum_residual",
    "neqso": "DecayReport GramConditionError HistorySpec HistoryTerm build_rho_t0 "
             "cosine_test_function decay_time entropy_monitor evolve_and_rewrite "
             "hydro_parametrize macrostate_of zeta_dynamics",
    "events": "EventMixture EventSpec InactiveSourceError SupportViolationError "
              "build_event_mixture memory_witness shielded_expectation",
}
EXPORTED = {name: module for module, names in EAGER_EXPORTS.items()
            for name in names.split()}


@pytest.fixture
def relaxation_config(tmp_path):
    path = tmp_path / "relaxation.json"
    path.write_text(json.dumps(scenario_defaults("relaxation")), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("args", [["list"], ["list", "--emit", "relaxation"],
                                  ["validate", "--config", None]],
                         ids=["list", "emit", "validate"])
def test_list_and_validate_load_no_linear_algebra(args, relaxation_config):
    args = [relaxation_config if a is None else a for a in args]
    assert modules_loaded(CLI, *args) == set()


def test_import_fockbox_loads_no_linear_algebra():
    assert modules_loaded("import fockbox") == set()


def test_scipy_sparse_loads_with_the_first_operator_built():
    imports = "; ".join(f"import fockbox.{m}" for m in SUBMODULES)
    assert modules_loaded(imports) == {"numpy"}
    build = "from fockbox.fock import build_basis, number_operator; " \
            "number_operator(build_basis('bose', 2, n_max=1))"
    assert "scipy.sparse" in modules_loaded(f"{imports}; {build}")


def test_every_eagerly_exported_name_resolves_to_its_defining_object():
    assert len(EXPORTED) == 79
    for name, module in EXPORTED.items():
        defined = getattr(importlib.import_module(f"fockbox.{module}"), name)
        assert getattr(fockbox, name) is defined, name
    assert sorted(fockbox.__all__) == sorted(EXPORTED)
    assert set(EXPORTED) | set(SUBMODULES) <= set(dir(fockbox))
    star = {}
    exec("from fockbox import *", star)
    assert all(star[name] is getattr(fockbox, name) for name in EXPORTED)
    assert fockbox.Dresser is fockbox.propagate.Spectrum
    from fockbox import fock
    assert fock.fock_dimension is fockbox.config.fock_dimension
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        fockbox.nonexistent
