"""The one path from a config to its artifacts: ``run_scenario`` validates,
runs a runner that writes nothing, and only then creates ``--out`` and writes,
so a run that raises leaves no output directory; configuration problems exit
2 with their key path, whether ``validate`` or the run finds them."""

import contextlib
import io
import json
import subprocess
import sys
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


def test_a_packet_off_the_lattice_is_a_config_error(tmp_path):
    """validate cannot see whether the packet has amplitude on a site; the run
    reports it at params.center, before anything is written, not as a zero
    state that cannot be normalized, exit 3."""
    path = write(tmp_path / "cfg.json", {"scenario": "free_packet", "params": {"center": 100}})
    out = tmp_path / "out"
    assert run_cli("validate", "--config", path)[0] == 0
    code, err = run_cli("run", "--config", path, "--out", str(out))
    assert code == 2, err
    assert "invalid: params.center: must leave the packet some amplitude on the sites " \
        "[0, 5)" in err
    assert not out.exists()
    # on the lattice, or near enough to reach it, the packet runs
    config = {"scenario": "free_packet", "params": {"center": -3.0, "samples": 2}}
    assert run_scenario(config, tmp_path / "near").passed


@pytest.mark.parametrize("key", ["interior_center", "boundary_center", "sweep_start",
                                 "sweep_stop"])
def test_an_embedding_packet_off_the_lattice_is_a_config_error(tmp_path, key):
    """As params.center of free_packet: each packet centre of embedding_check
    that leaves no amplitude on the region is reported at its key, exit 2 with
    nothing written, not as a zero state that cannot be normalized, exit 3."""
    path = write(tmp_path / "cfg.json", {"scenario": "embedding_check", "params": {key: 100.0}})
    out = tmp_path / "out"
    assert run_cli("validate", "--config", path)[0] == 0
    code, err = run_cli("run", "--config", path, "--out", str(out))
    assert code == 2, err
    assert f"invalid: params.{key}: must leave the packet some amplitude on the sites " \
        "[1, 10)" in err
    assert "zero state" not in err
    assert not out.exists()


def test_a_sweep_centre_between_sites_is_a_config_error(tmp_path):
    """Both ends of the sweep reach the region, but at a width far below the
    site spacing the centre 5.5 leaves no amplitude on any site: reported at
    params.sweep_width, exit 2 with nothing written.  As for the other packet
    centres, only a run measures it; validate loads no numpy."""
    path = write(tmp_path / "cfg.json", {"scenario": "embedding_check", "params": {
        "sweep_width": 0.005, "sweep_start": 5.0, "sweep_stop": 6.0, "sweep_points": 3}})
    out = tmp_path / "out"
    assert run_cli("validate", "--config", path)[0] == 0
    code, err = run_cli("run", "--config", path, "--out", str(out))
    assert code == 2, err
    assert "invalid: params.sweep_width: must leave the packet some amplitude on the " \
        "sites [1, 10)" in err
    assert "invalid: params.sweep_start" not in err and "params.sweep_stop" not in err
    assert "zero state" not in err
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


def test_a_vacuum_violation_exits_3_and_writes_nothing(tmp_path):
    """A particle seeded on a channel site leaves the background no vacuum
    there: a numerical failure by its own name, not by a catch-all."""
    path = write(tmp_path / "cfg.json", {"scenario": "event_channel",
                                         "params": {"source_site": 3}})
    out = tmp_path / "out"
    assert run_cli("validate", "--config", path)[0] == 0
    code, err = run_cli("run", "--config", path, "--out", str(out))
    assert code == 3, err
    assert "numerical failure: normal component violates the vacuum condition" in err
    assert not out.exists()


def test_a_plain_value_error_is_a_fault_of_the_program(tmp_path):
    """Only named numerical causes exit 3: a ValueError raised inside a run
    exits 1 with its traceback, and writes nothing."""
    script = ("import sys\n"
              "from fockbox import cli, scenarios\n"
              "def broken(*args, **kwargs):\n"
              "    raise ValueError('a fault of the program')\n"
              "scenarios.build_event_mixture = broken\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    path = write(tmp_path / "cfg.json", {"scenario": "event_channel"})
    out = tmp_path / "out"
    run = subprocess.run([sys.executable, "-c", script, "run", "--config", path,
                          "--out", str(out)], capture_output=True, text=True)
    assert run.returncode == 1, run.stderr
    assert "Traceback" in run.stderr and "ValueError: a fault of the program" in run.stderr
    assert "numerical failure" not in run.stderr
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
    config = scenario_defaults(draw(st.sampled_from(["free_packet", "event_channel",
                                                     "embedding_check", "decoherence_sweep"])))
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
