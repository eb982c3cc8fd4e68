"""The one path from a config to its artifacts: ``run_scenario`` validates,
runs a runner that writes nothing, and only then creates ``--out`` and writes,
so a run that raises leaves no output directory; configuration problems exit
2 with their key path, whether ``validate`` or the run finds them."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import SETTINGS

from fockbox import scenarios
from fockbox.cli import main
from fockbox.config import ConfigError
from fockbox.maxent import MatchFailure
from fockbox.scenarios import run_scenario, scenario_defaults, validate_config


def run_cli(*args):
    """(exit code, stderr) of an in-process ``fockbox`` call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(args))
    return code, err.getvalue()


def write(path, config):
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


# ---- run_scenario validates, and a failed run writes nothing ---------------------


@pytest.mark.parametrize("config", [
    {"scenario": "free_packet", "model": {"LL": 3}, "params": {"samples": "ten"}},
    {"scenario": "event_channel", "params": {"source_site": 9, "lam": 1.5}},
    {"scenario": "relaxation", "params": {"zeta0": [1.0, 2.0], "exact_samples": 1}},
    {"scenario": "warp_drive"},
    {"scenario": ["free_packet"]},
    ["not", "an", "object"],
], ids=["kinds", "bounds", "lengths", "scenario", "scenario-list", "object"])
def test_run_scenario_raises_the_findings_of_validate(tmp_path, config):
    out = tmp_path / "out"
    with pytest.raises(ConfigError) as raised:
        run_scenario(config, out)
    assert raised.value.findings == validate_config(config) != []
    assert not out.exists()


def test_a_decay_horizon_below_half_a_step_is_a_config_error(tmp_path):
    """validate cannot see the measured horizon; the run reports it at
    params.step, before anything is written: the parent wrote
    correlation.csv, then exited 3."""
    path = write(tmp_path / "cfg.json", {"scenario": "relaxation",
                                         "params": {"decay_horizon": 0.01}})
    out = tmp_path / "out"
    assert run_cli("validate", "--config", path)[0] == 0
    code, err = run_cli("run", "--config", path, "--out", str(out))
    assert code == 2, err
    assert "invalid: params.step: must be at most twice the measured decay horizon " \
        "tau = 0.01" in err
    assert not out.exists()


def test_a_stage_failing_after_tables_were_built_writes_nothing(tmp_path, monkeypatch):
    """The exact oracle runs after the correlation and parameter tables exist."""
    def failing(*args, **kwargs):
        raise MatchFailure("no match")

    monkeypatch.setattr(scenarios, "macrostate_of", failing)
    out = tmp_path / "out"
    code, err = run_cli("run", "--config", write(tmp_path / "cfg.json", {"scenario": "relaxation"}),
                        "--out", str(out))
    assert code == 3, err
    assert "numerical failure: no match" in err
    assert not out.exists()


def test_an_unmet_invariant_still_writes_its_artifacts(tmp_path):
    # a witness kernel with no phase carries no memory
    path = write(tmp_path / "cfg.json", {"scenario": "event_channel",
                                         "params": {"witness_momentum": 0.0}})
    out = tmp_path / "out"
    code, err = run_cli("run", "--config", path, "--out", str(out))
    assert code == 3, err
    assert "invariants not met: memory_witness_transit" in err
    assert sorted(f.name for f in out.iterdir()) == [
        "shielded.csv", "summary.json", "witness.csv"]
    assert json.loads((out / "summary.json").read_text())["passed"] is False


def nan_states(evolve):
    return lambda rho, *args, **kwargs: np.full_like(evolve(rho, *args, **kwargs), np.nan)


def nan_in_the_middle(witness):
    def patched(*args, **kwargs):
        w = np.array(witness(*args, **kwargs), dtype=float)
        w[1] = np.nan
        return w
    return patched


@pytest.mark.parametrize("name, stage, patch", [
    ("free_packet", "evolve_state", nan_states),
    ("event_channel", "memory_witness", nan_in_the_middle),
    ("decoherence_sweep", "memory_witness", nan_in_the_middle),
])
def test_a_nan_invariant_exits_3_and_writes_nothing(tmp_path, monkeypatch, name, stage, patch):
    """max(acc, nan) is acc, so the parent dropped a NaN before its check and
    passed; the maximum now carries it and its check raises."""
    monkeypatch.setattr(scenarios, stage, patch(getattr(scenarios, stage)))
    out = tmp_path / "out"
    code, err = run_cli("run", "--config", write(tmp_path / "cfg.json", {"scenario": name}),
                        "--out", str(out))
    assert code == 3, err
    assert "is not a number" in err
    assert not out.exists()


# ---- the bounds of the scenario values ------------------------------------------


NEW_BOUNDS = [
    ("free_packet", {"params": {"width": 0.0}}, "params.width"),
    ("embedding_check", {"params": {"width": -0.5}}, "params.width"),
    ("embedding_check", {"params": {"sweep_width": 0.0}}, "params.sweep_width"),
    ("embedding_check", {"params": {"dt": 0.0}}, "params.dt"),
    ("free_packet", {"params": {"samples": 0}}, "params.samples"),
    ("free_packet", {"params": {"samples": 1}}, "params.samples"),
    ("embedding_check", {"params": {"sweep_points": 1}}, "params.sweep_points"),
    ("relaxation", {"params": {"exact_samples": 0}}, "params.exact_samples"),
    ("relaxation", {"params": {"exact_samples": 1}}, "params.exact_samples"),
    ("event_channel", {"params": {"lam": 1.5}}, "params.lam"),
    ("event_channel", {"params": {"lam": 1.0}}, "params.lam"),
    ("decoherence_sweep", {"params": {"lam": 0.0}}, "params.lam"),
    ("event_channel", {"params": {"times": []}}, "params.times"),
    ("event_channel", {"params": {"witness_times": []}}, "params.witness_times"),
    ("decoherence_sweep", {"params": {"strengths": []}}, "params.strengths"),
    ("event_channel", {"model": {"n_max": 0}}, "model.n_max"),
    ("event_channel", {"model": {"potential": {"preset": "barrier", "height": [50.0]}}},
     "model.potential.height"),
    ("free_packet", {"model": {"potential": {"preset": ["box"]}}}, "model.potential.preset"),
]


@pytest.mark.parametrize("name, override, where", NEW_BOUNDS,
                         ids=[f"{n}-{w}-{json.dumps(o)[-12:-2]}" for n, o, w in NEW_BOUNDS])
def test_a_scenario_value_out_of_bounds_is_a_config_error(tmp_path, name, override, where):
    """The parent let each through to a NaN artifact, an empty table, a
    vacuous invariant, an exit 3 or a traceback."""
    config = {"scenario": name, **override}
    assert [f.path for f in validate_config(config)] == [where]
    path, out = write(tmp_path / "cfg.json", config), tmp_path / "out"
    for args in (("validate", "--config", path), ("run", "--config", path, "--out", str(out))):
        code, err = run_cli(*args)
        assert code == 2, err
        assert f"invalid: {where}: " in err
    assert not out.exists()


def test_scenario_values_on_their_bounds_are_valid():
    for name, params in (("free_packet", {"samples": 2, "width": 1e-3}),
                         ("embedding_check", {"sweep_points": 2, "dt": 1e-9}),
                         ("relaxation", {"exact_samples": 2}),
                         ("event_channel", {"lam": 0.999, "times": [0.5], "witness_times": [1]}),
                         ("decoherence_sweep", {"lam": 1e-3, "strengths": [0.0]})):
        assert validate_config({"scenario": name, "params": params}) == []


# ---- the gate: a mutated default exits 0, 2 at its path, or 3 -----------------------


def key_paths(node, prefix=""):
    for key, value in node.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from key_paths(value, f"{path}.")
        else:
            yield path, value


def wrong_values(value):
    """A wrong type, out-of-range values, wrong lengths and an empty list."""
    kinds = st.sampled_from(["x", True, None, {}, [value]])
    if isinstance(value, str):
        return kinds
    if isinstance(value, list):
        return kinds | st.sampled_from([[], value[:-1], value + value[-1:], [-1] * len(value),
                                        [99] * len(value), [0.5] * len(value)])
    return kinds | st.sampled_from([-1, 0, -0.5, 0.5, 1, 1.5, 7])


@st.composite
def mutated_defaults(draw):
    config = scenario_defaults(draw(st.sampled_from(["free_packet", "event_channel"])))
    path, value = draw(st.sampled_from(sorted(key_paths(config))))
    *parents, key = path.split(".")
    node = config
    for parent in parents:
        node = node[parent]
    node[key] = draw(wrong_values(value))
    return config, path


@SETTINGS
@given(mutated_defaults())
def test_a_mutated_default_exits_by_its_cause(case):
    config, where = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = write(Path(tmp) / "cfg.json", config), Path(tmp) / "out"
        validated, err = run_cli("validate", "--config", path)
        code, err = run_cli("run", "--config", path, "--out", str(out))
        assert code in (0, 2, 3), err
        if validated == 2 or code == 2:
            assert validated == code == 2, err
            # the lattice's size also bounds its sites and its Fock dimension
            assert f"invalid: {where}:" in err or where in ("model.L", "model.g"), err
        if code == 0 or "invariants not met" in err:
            summary = json.loads((out / "summary.json").read_text())
            assert summary["passed"] is (code == 0)
        else:
            assert not out.exists(), err
