import json
import os
import subprocess
import sys

import pytest

from fockbox import scenarios
from fockbox.cli import main
from fockbox.config import (
    DIM_CAP_ENV,
    PRESETS,
    RULES,
    Finding,
    deep_merge,
    default_model,
)
from fockbox.fock import BOSE, DimensionCapError, build_basis
from fockbox.scenarios import (
    list_scenarios,
    merged_config,
    run_scenario,
    scenario_defaults,
    validate_config,
)


def cli(*args):
    return subprocess.run([sys.executable, "-m", "fockbox", *args],
                          capture_output=True, text=True)


def write_config(tmp_path, name, **overrides):
    cfg = deep_merge(scenario_defaults(name), overrides) if overrides \
        else scenario_defaults(name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


# ---- catalog and validation ----------------------------------------------------


def test_catalog_has_required_scenarios():
    names = set(list_scenarios())
    assert {"embedding_check", "relaxation", "zubarev_limit",
            "event_channel", "decoherence_sweep"} <= names
    assert len(names) >= 5


def test_validate_bundled_configs_clean():
    for name in list_scenarios():
        assert validate_config(scenario_defaults(name)) == []


def test_validate_unknown_key_names_path():
    cfg = {"scenario": "free_packet", "model": {"LL": 3}}
    findings = validate_config(cfg)
    assert any(f.path == "model.LL" for f in findings)


def test_validate_unknown_param_named():
    cfg = {"scenario": "free_packet", "params": {"breadth": 1.0}}
    findings = validate_config(cfg)
    assert any(f.path == "params.breadth" for f in findings)


def test_validate_unknown_scenario():
    findings = validate_config({"scenario": "warp_drive"})
    assert findings and findings[0].path == "scenario"


def test_validate_flags_dimension_over_cap():
    cfg = {"scenario": "free_packet", "model": {"L": 12, "n_max": 12}}
    findings = validate_config(cfg)
    assert any("exceeds the cap" in f.message for f in findings)


def test_validate_model_types():
    def findings(model):
        return validate_config({"scenario": "free_packet", "model": model})

    assert any(f.path == "model.L" for f in findings({"L": "four"}))
    assert any(f.path == "model.statistics" for f in findings({"statistics": "anyon"}))
    assert any("unknown preset" in f.message
               for f in findings({"potential": {"preset": "vortex"}}))


def test_every_rule_path_names_a_key():
    """A misspelt RULES path never fires, so each names a key of a bundled
    default, of default_model() or of a preset table."""
    def key_paths(node, prefix=""):
        for key, value in node.items():
            yield f"{prefix}{key}"
            if isinstance(value, dict):
                yield from key_paths(value, f"{prefix}{key}.")

    keys = {p for name in list_scenarios() for p in key_paths(scenario_defaults(name))}
    keys |= set(key_paths({"model": default_model()}))
    keys |= {f"{path}.{key}" for path, presets in PRESETS.items()
             for entry in presets.values() for key in entry}
    assert sorted(set(RULES) - keys) == []


def test_merged_config_overrides_defaults():
    cfg = merged_config({"scenario": "free_packet", "seed": 7,
                         "params": {"width": 0.6}})
    assert cfg["seed"] == 7
    assert cfg["params"]["width"] == 0.6
    assert cfg["params"]["t_final"] == 2.0  # default preserved


# ---- CLI subprocess behavior -----------------------------------------------------


def test_cli_list_shows_catalog():
    r = cli("list")
    assert r.returncode == 0
    for name in list_scenarios():
        assert name in r.stdout


def test_cli_emit_and_validate(tmp_path):
    r = cli("list", "--emit", "free_packet")
    assert r.returncode == 0
    path = tmp_path / "cfg.json"
    path.write_text(r.stdout, encoding="utf-8")
    v = cli("validate", "--config", str(path))
    assert v.returncode == 0


def test_cli_validate_unknown_key_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": "free_packet",
                                "model": {"LL": 3}}), encoding="utf-8")
    r = cli("validate", "--config", str(path))
    assert r.returncode == 2
    assert "model.LL" in r.stderr


def test_cli_run_unknown_key_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": "free_packet",
                                "params": {"nope": 1}}), encoding="utf-8")
    r = cli("run", "--config", str(path), "--out", str(tmp_path / "out"))
    assert r.returncode == 2
    assert "params.nope" in r.stderr


def test_cli_run_malformed_json_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    r = cli("run", "--config", str(path), "--out", str(tmp_path / "out"))
    assert r.returncode == 2


def test_cli_run_numerical_failure_exit_3(tmp_path):
    # structurally valid config whose parameters cannot be run: the state is so
    # sharp that its correlation Gram matrix is singular at t = 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "relaxation",
                                "params": {"zeta0": [30.0, -30.0, 30.0, -30.0, 0.5]}}),
                    encoding="utf-8")
    r = cli("run", "--config", str(path), "--out", str(tmp_path / "out"))
    assert r.returncode == 3
    assert "numerical failure" in r.stderr


def test_cli_run_free_packet_emits_density_csv(tmp_path):
    path = write_config(tmp_path, "free_packet")
    out = tmp_path / "out"
    r = cli("run", "--config", str(path), "--out", str(out))
    assert r.returncode == 0
    header = (out / "density.csv").read_text().splitlines()[0]
    assert header == "t,site,density"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["provenance"]["seed"] == 0
    assert "config_sha256" in summary["provenance"]


def test_cli_rerun_byte_identical(tmp_path):
    path = write_config(tmp_path, "free_packet")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        r = cli("run", "--config", str(path), "--out", str(out))
        assert r.returncode == 0
        outs.append(out)
    for f in sorted(outs[0].iterdir()):
        assert f.read_bytes() == (outs[1] / f.name).read_bytes()


def test_cli_seed_override_recorded(tmp_path):
    path = write_config(tmp_path, "free_packet")
    out = tmp_path / "out"
    r = cli("run", "--config", str(path), "--out", str(out), "--seed", "9")
    assert r.returncode == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["provenance"]["seed"] == 9


def test_cli_negative_seed_is_a_config_error(tmp_path):
    for name in ("free_packet", "decoherence_sweep"):
        path = write_config(tmp_path, name)
        out = tmp_path / name
        r = cli("run", "--config", str(path), "--out", str(out), "--seed", "-3")
        assert r.returncode == 2
        assert "invalid: seed:" in r.stderr
        assert not out.exists()


# ---- direct API runs --------------------------------------------------------------


def test_run_scenario_reports_invariants(tmp_path):
    result = run_scenario({"scenario": "free_packet"}, tmp_path / "out")
    assert result.passed
    names = {c.name for c in result.invariants}
    assert {"trace_drift", "energy_drift"} <= names
    assert "summary.json" in result.artifacts


def test_decoherence_sweep_seed_changes_disorder(tmp_path):
    r1 = run_scenario({"scenario": "decoherence_sweep", "seed": 0},
                      tmp_path / "s0")
    r2 = run_scenario({"scenario": "decoherence_sweep", "seed": 1},
                      tmp_path / "s1")
    csv0 = (tmp_path / "s0" / "witness_sweep.csv").read_text()
    csv1 = (tmp_path / "s1" / "witness_sweep.csv").read_text()
    assert csv0 != csv1  # disorder realization follows the seed
    assert r1.passed and r2.passed


# ---- malformed environment, non-finite numbers, out of memory ------------------------


def cli_env(env, *args):
    return subprocess.run([sys.executable, "-m", "fockbox", *args],
                          capture_output=True, text=True,
                          env={**os.environ, **env})


@pytest.mark.parametrize("cap", ["lots", "0", "-5"])
def test_malformed_dim_cap_is_a_config_error(tmp_path, cap):
    path = write_config(tmp_path, "free_packet")
    out = tmp_path / "out"
    for args in (("validate", "--config", str(path)),
                 ("run", "--config", str(path), "--out", str(out))):
        r = cli_env({DIM_CAP_ENV: cap}, *args)
        assert r.returncode == 2, r.stderr
        assert f"invalid: {DIM_CAP_ENV}: must be a positive integer, got {cap!r}" \
            in r.stderr
        assert "Traceback" not in r.stderr and "exceeds" not in r.stderr
    assert not out.exists()


def test_malformed_dim_cap_names_the_variable_to_library_callers(monkeypatch):
    for cap in ("lots", "0", "-5"):
        monkeypatch.setenv(DIM_CAP_ENV, cap)
        with pytest.raises(ValueError, match=f"{DIM_CAP_ENV}: must be a positive"):
            build_basis(BOSE, 2, n_max=1)
    monkeypatch.setenv(DIM_CAP_ENV, "6")
    assert build_basis(BOSE, 2, n_max=2).dim == 6
    monkeypatch.setenv(DIM_CAP_ENV, "5")
    with pytest.raises(DimensionCapError):
        build_basis(BOSE, 2, n_max=2)


NON_FINITE = [
    ("free_packet", '"model": {"mass": Infinity}', "model.mass"),
    ("relaxation", '"model": {"pair_potential": {"preset": "contact", "v0": NaN}}',
     "model.pair_potential.v0"),
    ("relaxation", '"params": {"zeta0": [0.3, 0.1, -Infinity, -0.3, 0.5]}',
     "params.zeta0[2]"),
]


@pytest.mark.parametrize("name, entry, where", NON_FINITE,
                         ids=[w for _, _, w in NON_FINITE])
def test_non_finite_number_is_a_config_error(tmp_path, name, entry, where):
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"scenario": "{name}", {entry}}}', encoding="utf-8")
    assert validate_config(json.loads(path.read_text())) == \
        [Finding(where, "must be a finite number")]
    out = tmp_path / "out"
    for args in (("validate", "--config", str(path)),
                 ("run", "--config", str(path), "--out", str(out))):
        r = cli(*args)
        assert r.returncode == 2, r.stderr
        assert f"invalid: {where}: must be a finite number" in r.stderr
    assert not out.exists()


OVERFLOW = [
    ("free_packet", {"potential": {"preset": "harmonic", "k": 1e308}},
     "external potential evaluated to a non-finite value"),
    ("relaxation", {"potential": {"preset": "harmonic", "k": 1e308}},
     "one-body operator has a non-finite entry"),
    # a finite kinetic prefactor hbar^2 / (2 mass dx^2) of 1.7e308, doubled on the diagonal
    ("free_packet", {"mass": 3e-309}, "one-body operator has a non-finite entry"),
]


@pytest.mark.parametrize("name, model, message", OVERFLOW, ids=["potential", "sum", "hopping"])
def test_finite_values_that_overflow_are_a_numerical_failure(tmp_path, name, model, message):
    """Each value is finite and valid, but the potential, a sum of two
    particles' potentials or the hopping term overflows in the run: exit 3 by
    its own cause, with no traceback and nothing written."""
    path, out = write_config(tmp_path, name, model=model), tmp_path / "out"
    assert cli("validate", "--config", str(path)).returncode == 0
    r = cli("run", "--config", str(path), "--out", str(out))
    assert r.returncode == 3, r.stderr
    assert "numerical failure: " in r.stderr and message in r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists()


def test_an_overflowing_one_body_operator_reports_one_line_and_no_warning(tmp_path, capsys):
    """Run in process, where the suite makes a RuntimeWarning an error: the
    finite check alone reports the overflow."""
    path = write_config(tmp_path, "relaxation",
                        model={"potential": {"preset": "harmonic", "k": 1e308}})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == \
        "numerical failure: one-body operator has a non-finite entry\n"


KINETIC = {"dx-huge": {"dx": 1e300}, "hbar-huge": {"hbar": 1e200},
           "dx-tiny": {"dx": 1e-200}, "mass-tiny": {"mass": 1e-320}}


@pytest.mark.parametrize("model", KINETIC.values(), ids=KINETIC.keys())
def test_a_kinetic_prefactor_out_of_float_range_is_a_config_error(tmp_path, model):
    """Positive dx, mass and hbar whose hbar^2 / (2 mass dx^2) overflows, or
    divides by an underflowed zero, are found before a run: exit 2 naming
    model.dx from validate and run, with nothing written."""
    path, out = write_config(tmp_path, "free_packet", model=model), tmp_path / "out"
    assert [f.path for f in validate_config(json.loads(path.read_text()))] == ["model.dx"]
    for args in (("validate", "--config", str(path)),
                 ("run", "--config", str(path), "--out", str(out))):
        r = cli(*args)
        assert r.returncode == 2, r.stderr
        assert "invalid: model.dx: gives a kinetic prefactor" in r.stderr
    assert not out.exists()


def test_a_scale_that_is_not_positive_is_found_once_at_its_key():
    for model, where in (({"dx": 0.0}, "model.dx"), ({"mass": -1.0}, "model.mass"),
                         ({"hbar": 0.0, "dx": 1e-200}, "model.hbar")):
        assert validate_config({"scenario": "free_packet", "model": model}) == [
            Finding(where, "must be positive")]


def test_non_finite_number_is_reported_once_among_other_findings():
    cfg = json.loads('{"scenario": "free_packet", "seed": NaN, "comment": [Infinity],'
                     ' "model": {"mass": NaN, "L": "four"}}')
    assert [str(f) for f in validate_config(cfg)] == [
        "seed: must be a finite number",
        "comment[0]: must be a finite number",
        "model.mass: must be a finite number",
        "model.L: must have the kind of 4",
    ]


WRONG_KIND = [
    ("free_packet", {"params": {"samples": "ten"}}, "params.samples"),
    ("free_packet", {"params": {"samples": 21.0}}, "params.samples"),
    ("relaxation", {"model": {"pair_potential": {"preset": "contact", "v0": "big"}}},
     "model.pair_potential.v0"),
    ("event_channel", {"params": {"times": "soon"}}, "params.times"),
]


@pytest.mark.parametrize("name, override, where", WRONG_KIND,
                         ids=[f"{n}-{w}" for n, _, w in WRONG_KIND])
def test_value_of_the_wrong_kind_is_a_config_error(tmp_path, name, override, where):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": name, **override}), encoding="utf-8")
    assert [f.path for f in validate_config(json.loads(path.read_text()))] == [where]
    out = tmp_path / "out"
    for args in (("validate", "--config", str(path)),
                 ("run", "--config", str(path), "--out", str(out))):
        r = cli(*args)
        assert r.returncode == 2, r.stderr
        assert f"invalid: {where}: must" in r.stderr
    assert not out.exists()


OFF_LATTICE = [
    ("event_channel", {"source_site": 9}, "params.source_site"),
    ("decoherence_sweep", {"witness_channel": [2, 3, 9]}, "params.witness_channel"),
    ("event_channel", {"target_index": 5}, "params.target_index"),
    ("event_channel", {"channel": [3, 9]}, "params.channel"),
    ("embedding_check", {"region": [1, 2, 30]}, "params.region"),
    ("event_channel", {"model": {"potential": {"preset": "barrier", "height": 50.0,
                                               "sites": [99]}}}, "model.potential.sites"),
    # a source shares no site with a channel it emits into
    ("event_channel", {"source": [1, 2], "channel": [2, 3]}, "params.source"),
    ("decoherence_sweep", {"source": [0, 1, 2]}, "params.source"),
]


@pytest.mark.parametrize("name, params, where", OFF_LATTICE,
                         ids=[f"{n}-{w}" for n, _, w in OFF_LATTICE])
def test_site_or_index_off_the_lattice_is_a_config_error(tmp_path, name, params, where):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": name, **(
        params if "model" in params else {"params": params})}), encoding="utf-8")
    assert [f.path for f in validate_config(json.loads(path.read_text()))] == [where]
    out = tmp_path / "out"
    for args in (("validate", "--config", str(path)),
                 ("run", "--config", str(path), "--out", str(out))):
        r = cli(*args)
        assert r.returncode == 2, r.stderr
        assert f"invalid: {where}: must" in r.stderr
    assert not out.exists()


def test_a_replaced_preset_leaves_its_parameters_unchecked():
    """A potential naming another preset replaces event_channel's barrier whole:
    its default sites [2] are gone from the merge, so off a 2-site lattice they
    are no finding, and no run or summary reads a parameter of the barrier."""
    config = {
        "scenario": "event_channel",
        "model": {"L": 2, "potential": {"preset": "table", "values": [0.0, 0.0]}},
        "params": {"source": [0], "channel": [1], "witness_channel": [1]},
    }
    assert validate_config(config) == []
    assert merged_config(config)["model"]["potential"] == {"preset": "table",
                                                           "values": [0.0, 0.0]}
    harmonic = {"scenario": "event_channel",
                "model": {"potential": {"preset": "harmonic", "k": 1.0}}}
    assert merged_config(harmonic)["model"]["potential"] == {"preset": "harmonic", "k": 1.0}
    # the same preset merges into the default's parameters
    barrier = {"scenario": "event_channel",
               "model": {"potential": {"preset": "barrier", "height": 5.0}}}
    assert merged_config(barrier)["model"]["potential"] == {
        **scenario_defaults("event_channel")["model"]["potential"], "height": 5.0}


@pytest.mark.parametrize("name, params, where", [
    ("relaxation", {"zeta0": [1.0, 2.0]}, "params.zeta0"),
    ("zubarev_limit", {"zeta0": [0.1] * 6}, "params.zeta0"),
    ("zubarev_limit", {"gamma_T": [0.1] * 4}, "params.gamma_T"),
    ("zubarev_limit", {"prep_weights": [0.1] * 5}, "params.prep_weights"),
    ("zubarev_limit", {"model": {"L": 3}}, "params.zeta0"),
    ("free_packet", {"model": {"potential": {"preset": "table", "values": [1.0]}}},
     "model.potential.values"),
])
def test_a_list_of_the_wrong_length_is_a_config_error(tmp_path, name, params, where):
    """zeta0 and gamma_T have L + 1 entries and prep_weights L, L from the
    merged model; the parent let each through to the run."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": name, **(
        params if "model" in params else {"params": params})}), encoding="utf-8")
    findings = validate_config(json.loads(path.read_text()))
    assert where in [f.path for f in findings]
    out = tmp_path / "out"
    for args in (("validate", "--config", str(path)),
                 ("run", "--config", str(path), "--out", str(out))):
        r = cli(*args)
        assert r.returncode == 2, r.stderr
        assert f"invalid: {where}: must have" in r.stderr
    assert not out.exists()


OUT_OF_BOUNDS = [
    ("relaxation", {"step": 0.0}, "params.step"),
    ("zubarev_limit", {"step": 0.0}, "params.step"),
    ("zubarev_limit", {"step": -0.1, "t_end": 0.0}, "params.step"),
    ("relaxation", {"decay_horizon": 0.0}, "params.decay_horizon"),
    ("relaxation", {"decay_samples": 0}, "params.decay_samples"),
    ("zubarev_limit", {"decay_samples": 1}, "params.decay_samples"),
    ("zubarev_limit", {"prep_quad": 1}, "params.prep_quad"),
    ("zubarev_limit", {"t_end": 0.0}, "params.t_end"),
    ("zubarev_limit", {"t_end": 0.0125}, "params.t_end"),
]


@pytest.mark.parametrize("name, params, where", OUT_OF_BOUNDS,
                         ids=[f"{n}-{w}-{list(p.values())[-1]}" for n, p, w in OUT_OF_BOUNDS])
def test_a_time_grid_out_of_bounds_is_a_config_error(tmp_path, name, params, where):
    """step and decay_horizon > 0, decay_samples and prep_quad >= 2, and at least
    one step to t_end; the parent let each through to a traceback or exit 3."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": name, "params": params}), encoding="utf-8")
    assert [f.path for f in validate_config(json.loads(path.read_text()))] == [where]
    out = tmp_path / "out"
    for args in (("validate", "--config", str(path)),
                 ("run", "--config", str(path), "--out", str(out))):
        r = cli(*args)
        assert r.returncode == 2, r.stderr
        assert f"invalid: {where}: must" in r.stderr
    assert not out.exists()


def test_a_time_grid_on_its_bounds_is_valid():
    for name, params in (("relaxation", {"decay_samples": 2, "step": 1e-3}),
                         ("zubarev_limit", {"prep_quad": 2, "t_end": 0.0126})):
        assert validate_config({"scenario": name, "params": params}) == []


def test_a_site_on_the_lattice_still_runs_into_an_inactive_source(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "event_channel", "params": {"source_site": 2}}),
                    encoding="utf-8")
    r = cli("run", "--config", str(path), "--out", str(tmp_path / "out"))
    assert r.returncode == 3, r.stderr
    assert "inactive source" in r.stderr


def test_values_take_the_kind_of_their_default():
    def paths(**params):
        return [f.path for f in validate_config({"scenario": "event_channel", "params": params})]

    # a float default takes an integer, an integer default takes no bool
    assert paths(witness_times=[1, 2], times=[1, 0.5], witness_momentum=-2) == []
    assert validate_config({"scenario": "free_packet", "params": {"t_final": 1}}) == []
    assert paths(source_site=True, source=[0, 1.0], times=[0.5, False]) == [
        "params.source_site", "params.source", "params.times"]
    # preset parameters are numbers or lists of numbers
    assert validate_config({"scenario": "event_channel", "model": {"potential": {
        "preset": "barrier", "height": 50, "sites": [2, 3]}}}) == []
    assert [f.path for f in validate_config({"scenario": "event_channel", "model": {
        "potential": {"preset": "barrier", "height": True, "sites": ["2"]}}})] == [
        "model.potential.height", "model.potential.sites"]


def test_out_of_memory_exits_3(tmp_path, monkeypatch, capsys):
    def exhausted(config, out_dir):
        raise MemoryError

    monkeypatch.setattr(scenarios, "run_scenario", exhausted)
    path = write_config(tmp_path, "free_packet")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "numerical failure: out of memory" in capsys.readouterr().err
