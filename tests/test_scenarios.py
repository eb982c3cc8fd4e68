import json

import numpy as np
import pytest
from fresh import modules_loaded
from scipy.stats import spearmanr

from fockbox import scenarios
from fockbox.scenarios import run_scenario, spearman


@pytest.mark.parametrize("seed", range(6))
def test_spearman_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=25)
    b = a + rng.normal(size=25)
    assert abs(spearman(a, b) - spearmanr(a, b)[0]) < 1e-12
    # rounding makes ties in both samples
    tied_a, tied_b = np.round(a), np.round(2.0 * b) / 2.0
    assert abs(spearman(tied_a, tied_b) - spearmanr(tied_a, tied_b)[0]) < 1e-12


def test_spearman_monotone_and_reversed():
    x = np.array([0.1, 0.5, 0.7, 2.0, 3.5])
    assert spearman(x, np.exp(x)) == pytest.approx(1.0, abs=1e-15)
    assert spearman(x, -x**3) == pytest.approx(-1.0, abs=1e-15)


def test_import_leaves_scipy_stats_unloaded():
    assert modules_loaded("import fockbox.scenarios", watched=("scipy.stats",)) == set()


def test_provenance_records_no_thread_count(tmp_path):
    run_scenario({"scenario": "free_packet"}, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "threads" not in summary["provenance"]


def test_free_packet_evolves_with_the_model_hbar(tmp_path):
    """In the empty box H is kinetic, so H / hbar scales with hbar: a run at
    hbar 2 to t 1 is the run at hbar 1 to t 2."""
    def densities(hbar, t_final):
        out = tmp_path / f"hbar{hbar}_t{t_final}"
        run_scenario({"scenario": "free_packet", "model": {"hbar": hbar},
                      "params": {"t_final": t_final}}, out)
        return np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)[:, 2]

    assert np.max(np.abs(densities(2.0, 1.0) - densities(1.0, 2.0))) <= 1e-12


def test_relaxation_oracle_reads_the_trajectory_at_its_own_times(tmp_path, monkeypatch):
    """Every state the exact oracle matches was evolved to a time of the
    trajectory it is compared with, also when the decay time is no multiple
    of the spacing between oracle samples."""
    evolved, oracle_times, trajectories = {}, [], []
    evolve, match, dynamics = (scenarios.evolve_state, scenarios.macrostate_of,
                               scenarios.zeta_dynamics)

    def evolve_state(rho, h, t0, t1, **kwargs):
        out = evolve(rho, h, t0, t1, **kwargs)
        evolved[id(out)] = (out, t1)  # out is held so that no later state reuses its id
        return out

    def macrostate_of(rho, *args, **kwargs):
        oracle_times.append(evolved[id(rho)][1])
        return match(rho, *args, **kwargs)

    def zeta_dynamics(*args, **kwargs):
        trajectories.append(dynamics(*args, **kwargs))
        return trajectories[-1]

    monkeypatch.setattr(scenarios, "evolve_state", evolve_state)
    monkeypatch.setattr(scenarios, "macrostate_of", macrostate_of)
    monkeypatch.setattr(scenarios, "zeta_dynamics", zeta_dynamics)
    run_scenario({"scenario": "relaxation", "params": {"decay_horizon": 2.4}}, tmp_path)
    times = trajectories[0].times
    assert len(oracle_times) == 5
    assert all(np.min(np.abs(times - t)) <= 1e-12 for t in oracle_times)


@pytest.mark.parametrize("name", ["event_channel", "decoherence_sweep"])
def test_witness_models_share_the_run_basis(name, tmp_path, monkeypatch):
    """The witness models differ from each other and from the run's own model
    in their potentials only, so a run enumerates one basis: the parent built
    one per witness model besides the run's own, 2 and 5."""
    from fockbox import fock

    built = []
    for module in (fock, scenarios):
        build = module.build_basis
        monkeypatch.setattr(module, "build_basis",
                            lambda *args, _build=build, **kwargs:
                            built.append(args) or _build(*args, **kwargs))
    assert run_scenario({"scenario": name}, tmp_path).passed
    assert len(built) == 1


def test_event_channel_checks_each_detector_once(tmp_path, monkeypatch):
    """One check for the shielded series and one for the witness series: the
    parent checked once per shielded time, 4 + 1."""
    from fockbox import events

    checked, check = [], events.check_channel_support
    monkeypatch.setattr(events, "check_channel_support",
                        lambda *args: checked.append(args) or check(*args))
    assert run_scenario({"scenario": "event_channel"}, tmp_path).passed
    assert len(checked) == 2


def test_embedding_check_builds_one_hamiltonian_per_basis(tmp_path, monkeypatch):
    """The default run has two bases, its own and one with a particle more of
    headroom; each Hamiltonian is built once and handed to every residual."""
    from fockbox import lattice

    built = []
    for module in (lattice, scenarios):
        build = module.build_hamiltonian
        monkeypatch.setattr(module, "build_hamiltonian",
                            lambda *args, _build=build, **kwargs:
                            built.append(args) or _build(*args, **kwargs))
    assert run_scenario({"scenario": "embedding_check"}, tmp_path).passed
    assert len(built) == 2
