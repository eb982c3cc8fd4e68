"""Scenario configuration: the catalog, schema validation and model construction.

A configuration is a single JSON document (key-value tree, explicit units:
lengths in lattice spacings, energies in units of hbar^2/(m dx^2) family,
times in hbar/energy).  Unknown keys anywhere in the tree are reported with
their full path, and so is every number that is not finite, every site or
index param that leaves the lattice or its channel and every list param whose
length the lattice fixes; feasibility findings flag
truncations whose Fock dimension exceeds the cap before anything is built.

The catalog (names, descriptions, defaults) and the checks are plain data
and code: importing this module loads no numpy, so ``fockbox list`` and
``fockbox validate`` start without the linear algebra.  ``build_model``
imports the operator modules when it is called.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

BOSE = "bose"
FERMI = "fermi"

DEFAULT_DIM_CAP = 20_000
DIM_CAP_ENV = "FOCKBOX_DIM_CAP"


@dataclass(frozen=True)
class Finding:
    path: str
    message: str

    def __str__(self):
        return f"{self.path}: {self.message}"


class DimCapEnvError(ValueError):
    """FOCKBOX_DIM_CAP holds something other than a positive integer."""

    def __init__(self, raw):
        self.finding = Finding(DIM_CAP_ENV, f"must be a positive integer, got {raw!r}")
        super().__init__(str(self.finding))


def dim_cap_from_env(default=DEFAULT_DIM_CAP):
    """The Fock dimension cap: FOCKBOX_DIM_CAP when set, else default."""
    raw = os.environ.get(DIM_CAP_ENV)
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise DimCapEnvError(raw)
    return cap


def fock_dimension(statistics, modes, n_max):
    """Exact combinatorial dimension of the truncated space."""
    if statistics == FERMI:
        top = min(n_max, modes)
        return sum(math.comb(modes, n) for n in range(top + 1))
    if statistics == BOSE:
        return sum(math.comb(n + modes - 1, modes - 1) for n in range(n_max + 1))
    raise ValueError(f"unknown statistics {statistics!r}")


# ---- schema ----------------------------------------------------------------------


MODEL_KEYS = {
    "L": (int, lambda v: v >= 1, "must be an integer >= 1"),
    "dx": ((int, float), lambda v: v > 0, "must be positive"),
    "g": (int, lambda v: v >= 1, "must be an integer >= 1"),
    "statistics": (str, lambda v: v in (BOSE, FERMI), "must be 'bose' or 'fermi'"),
    "mass": ((int, float), lambda v: v > 0, "must be positive"),
    "hbar": ((int, float), lambda v: v > 0, "must be positive"),
    "n_max": (int, lambda v: v >= 0, "must be an integer >= 0"),
    "potential": (dict, lambda v: True, ""),
    "pair_potential": (dict, lambda v: True, ""),
}

POTENTIAL_PRESETS = {
    "box": set(),
    "barrier": {"height", "sites"},
    "harmonic": {"k", "center"},
    "table": {"values"},
}

PAIR_PRESETS = {
    "none": set(),
    "contact": {"v0"},
    "table": {"values"},
}


def default_model():
    return {
        "L": 4,
        "dx": 1.0,
        "g": 1,
        "statistics": BOSE,
        "mass": 1.0,
        "hbar": 1.0,
        "n_max": 2,
        "potential": {"preset": "box"},
        "pair_potential": {"preset": "none"},
    }


def deep_merge(base, override):
    """New dict with override's entries replacing base's, recursing on dicts."""
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], val)
        else:
            out[key] = val
    return out


def _check_preset(block, presets, path, findings):
    preset = block.get("preset")
    if preset is None:
        findings.append(Finding(path, "missing required key 'preset'"))
        return
    if preset not in presets:
        findings.append(Finding(f"{path}.preset",
                                f"unknown preset {preset!r}; "
                                f"choose from {sorted(presets)}"))
        return
    allowed = presets[preset] | {"preset"}
    for key, val in block.items():
        if key not in allowed:
            findings.append(Finding(f"{path}.{key}",
                                    f"unknown key for preset {preset!r}"))
        elif key != "preset" and not (_same_kind(val, 0.0) or _same_kind(val, [0.0])):
            findings.append(Finding(f"{path}.{key}", "must be a number or a list of numbers"))


def _same_kind(value, default):
    """An integer for an integer default, any number for a float, a list whose
    entries follow its first entry for a list; a bool is never a number."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_same_kind(v, default[0]) for v in value)
    kind = {int: int, float: (int, float)}.get(type(default), type(default))
    return isinstance(value, kind) and not isinstance(value, bool)


def _site_run(sites, config):
    """None for a non-empty run of distinct, contiguous lattice sites, in any
    order, as a Region takes them; else what the value must be."""
    L = config["model"]["L"]
    s = sorted(sites)
    if not s or s[0] < 0 or s[-1] >= L or s != list(range(s[0], s[0] + len(s))):
        return f"must be a non-empty run of distinct, contiguous sites in [0, {L})"


def _entries(extra):
    """The rule that a list has L + extra entries, one per site and extra more."""
    def rule(v, c):
        n = c["model"]["L"] + extra
        return None if len(v) == n else (
            f"must have {n} entries (L{' + 1' if extra else ''}), got {len(v)}")
    return rule


# params the defaults cannot check, a site, an index, a length tied to the model
# or a bound: key -> rule on (value, merged config), a message or None
PARAM_RULES = {
    "source_site": lambda v, c: (None if 0 <= v < c["model"]["L"]
                                 else f"must be a site in [0, {c['model']['L']})"),
    "region": _site_run,
    "source": _site_run,
    "channel": _site_run,
    "witness_channel": _site_run,
    "target_index": lambda v, c: (
        None if 0 <= v < len(c["params"]["channel"])
        else f"must index params.channel, in [0, {len(c['params']['channel'])})"),
    # one parameter per mass cell plus the energy, one preparation weight per cell
    "zeta0": _entries(1),
    "gamma_T": _entries(1),
    "prep_weights": _entries(0),
    # the time grids of the parameter dynamics and the decay table; round(t_end /
    # step) >= 1 is t_end > step / 2, and a step <= 0 is reported at step alone
    "step": lambda v, c: None if v > 0 else "must be > 0",
    "decay_horizon": lambda v, c: None if v > 0 else "must be > 0",
    "decay_samples": lambda v, c: None if v >= 2 else "must be >= 2",
    "prep_quad": lambda v, c: None if v >= 2 else "must be >= 2",
    "t_end": lambda v, c: (None if c["params"]["step"] <= 0 or v > 0.5 * c["params"]["step"]
                           else "must span at least one step: round(t_end / step) >= 1"),
}


def validate_model(model, path="model"):
    findings = []
    for key, val in model.items():
        if key not in MODEL_KEYS:
            findings.append(Finding(f"{path}.{key}", "unknown key"))
            continue
        typ, ok, msg = MODEL_KEYS[key]
        if not isinstance(val, typ) or isinstance(val, bool):
            findings.append(Finding(f"{path}.{key}",
                                    f"expected {typ}, got {type(val).__name__}"))
        elif not ok(val):
            findings.append(Finding(f"{path}.{key}", msg))
    if "potential" in model and isinstance(model["potential"], dict):
        _check_preset(model["potential"], POTENTIAL_PRESETS,
                      f"{path}.potential", findings)
    if "pair_potential" in model and isinstance(model["pair_potential"], dict):
        _check_preset(model["pair_potential"], PAIR_PRESETS,
                      f"{path}.pair_potential", findings)
    return findings


def _non_finite_paths(value, path="$"):
    """Key paths of the numbers in a JSON value that are not finite: json
    accepts Infinity and NaN, which no run can use and no JSON file holds."""
    if isinstance(value, float):
        return [] if math.isfinite(value) else [path]
    if isinstance(value, dict):
        return [p for key, val in value.items()
                for p in _non_finite_paths(val, key if path == "$" else f"{path}.{key}")]
    if isinstance(value, list):
        return [p for i, val in enumerate(value) for p in _non_finite_paths(val, f"{path}[{i}]")]
    return []


def feasibility_findings(model, path="model"):
    """Dimension-cap precheck, run on a fully merged model block."""
    try:
        cap = dim_cap_from_env()
    except DimCapEnvError as exc:
        return [exc.finding]
    try:
        dim = fock_dimension(model["statistics"], model["L"] * model["g"],
                             model["n_max"])
    except (KeyError, ValueError):
        return []
    if dim > cap:
        return [Finding(f"{path}.n_max",
                        f"Fock dimension {dim} exceeds the cap {cap} "
                        f"(override via FOCKBOX_DIM_CAP if intended)")]
    return []


# ---- catalog ---------------------------------------------------------------------


FREE_PACKET_DEFAULTS = {
    "scenario": "free_packet",
    "seed": 0,
    "model": deep_merge(default_model(), {"L": 5, "n_max": 1}),
    "params": {"center": 2.0, "width": 0.8, "momentum": 0.9,
               "t_final": 2.0, "samples": 21},
}

EMBEDDING_CHECK_DEFAULTS = {
    "scenario": "embedding_check",
    "seed": 0,
    "model": deep_merge(default_model(), {"L": 11, "n_max": 1}),
    "params": {
        "region": [1, 2, 3, 4, 5, 6, 7, 8, 9],
        "interior_center": 5.0,
        "boundary_center": 1.0,
        "width": 0.5,
        "sweep_start": 5.0,
        "sweep_stop": 6.8,
        "sweep_points": 9,
        "sweep_width": 0.45,
        "dt": 1e-4,
    },
}

RELAXATION_DEFAULTS = {
    "scenario": "relaxation",
    "seed": 0,
    "model": deep_merge(default_model(), {
        "L": 4, "n_max": 2,
        "pair_potential": {"preset": "contact", "v0": 0.6},
    }),
    "params": {
        "zeta0": [0.3, 0.1, -0.1, -0.3, 0.5],
        "decay_horizon": 2.5,
        "decay_samples": 26,
        "step": 0.025,
        "exact_samples": 6,
    },
}

ZUBAREV_DEFAULTS = {
    "scenario": "zubarev_limit",
    "seed": 0,
    "model": RELAXATION_DEFAULTS["model"],
    "params": {
        "zeta0": [0.3, 0.1, -0.1, -0.3, 0.5],
        "gamma_T": [0.3, -0.1, 0.2, 0.0, 0.1],
        "prep_weights": [0.2, -0.1, 0.1, -0.2],
        "prep_omega": 1.3,
        "decay_horizon": 1.0,
        "decay_samples": 11,
        "t_end": 1.0,
        "step": 0.025,
        "prep_quad": 64,
    },
}

EVENT_CHANNEL_DEFAULTS = {
    "scenario": "event_channel",
    "seed": 0,
    "model": deep_merge(default_model(), {
        "L": 5, "n_max": 1,
        "potential": {"preset": "barrier", "height": 50.0, "sites": [2]},
    }),
    "params": {
        "lam": 0.4,
        "source": [0, 1],
        "channel": [3, 4],
        "source_site": 0,
        "target_index": 0,
        "times": [0.25, 0.5, 0.75, 1.0],
        "witness_channel": [2, 3, 4],
        "witness_momentum": 1.0471975511965976,
        "witness_times": [0.6, 1.0, 1.4],
    },
}

DECOHERENCE_DEFAULTS = {
    "scenario": "decoherence_sweep",
    "seed": 0,
    "model": deep_merge(default_model(), {"L": 5, "n_max": 1}),
    "params": {
        "lam": 0.5,
        "source": [0, 1],
        "witness_channel": [2, 3, 4],
        "source_site": 0,
        "witness_momentum": 1.0471975511965976,
        "witness_times": [0.6, 1.0, 1.4],
        "strengths": [0.0, 5.0, 15.0, 40.0, 60.0],
    },
}

# name -> (one-line description, default configuration)
CATALOG = {
    "free_packet": (
        "single packet in the empty box: density time series, exact-unitarity checks",
        FREE_PACKET_DEFAULTS),
    "embedding_check": (
        "one-quanton embedding: interior vs boundary residuals, surface-term sweep",
        EMBEDDING_CHECK_DEFAULTS),
    "relaxation": (
        "interacting relaxation: parameter dynamics vs exact inversion, entropy monitor",
        RELAXATION_DEFAULTS),
    "zubarev_limit": (
        "memory-cutoff universality: insensitivity to the terminal preparation term",
        ZUBAREV_DEFAULTS),
    "event_channel": (
        "seeded event: shielded-detector identity and memory witness",
        EVENT_CHANNEL_DEFAULTS),
    "decoherence_sweep": (
        "memory witness under static channel disorder",
        DECOHERENCE_DEFAULTS),
}


def list_scenarios():
    """Catalog of bundled scenarios: name -> one-line description."""
    return {name: desc for name, (desc, _) in CATALOG.items()}


def scenario_defaults(name):
    if name not in CATALOG:
        raise KeyError(f"unknown scenario {name!r}; pick from {sorted(CATALOG)}")
    return json.loads(json.dumps(CATALOG[name][1]))  # deep copy


def merged_config(config):
    name = config.get("scenario")
    if name not in CATALOG:
        raise KeyError(f"unknown scenario {name!r}; pick from {sorted(CATALOG)}")
    return deep_merge(scenario_defaults(name), config)


def validate_config(config):
    """Schema findings for a user config (before merging) plus feasibility."""
    findings = []
    if not isinstance(config, dict):
        return [Finding("$", "configuration must be a JSON object")]
    name = config.get("scenario")
    if name is None:
        findings.append(Finding("scenario", "missing required key"))
        return findings
    if name not in CATALOG:
        findings.append(Finding("scenario",
                                f"unknown scenario {name!r}; "
                                f"pick from {sorted(CATALOG)}"))
        return findings
    defaults = scenario_defaults(name)
    for key in config:
        if key not in ("scenario", "seed", "model", "params", "comment"):
            findings.append(Finding(key, "unknown key"))
    seed = config.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        findings.append(Finding("seed", "must be a non-negative integer"))
    if "model" in config:
        if not isinstance(config["model"], dict):
            findings.append(Finding("model", "must be an object"))
        else:
            findings.extend(validate_model(config["model"]))
    if "params" in config:
        if not isinstance(config["params"], dict):
            findings.append(Finding("params", "must be an object"))
        else:
            for key, val in config["params"].items():
                if key not in defaults["params"]:
                    findings.append(Finding(f"params.{key}", "unknown key"))
                elif not _same_kind(val, defaults["params"][key]):
                    findings.append(Finding(f"params.{key}", "must have the kind of its "
                                            f"default {defaults['params'][key]!r}"))
    # a non-finite number is reported once, as such
    bad = _non_finite_paths(config)
    findings = [Finding(p, "must be a finite number") for p in bad] \
        + [f for f in findings if f.path not in bad]
    if not findings:
        merged = deep_merge(defaults, config)
        for key, rule in PARAM_RULES.items():
            message = key in merged["params"] and rule(merged["params"][key], merged)
            if message:
                findings.append(Finding(f"params.{key}", message))
        findings.extend(feasibility_findings(merged["model"]))
    return findings


# ---- model construction ------------------------------------------------------------


def build_model(model_cfg):
    """(LatticeModel, FockBasis) from a merged, validated model block."""
    from .fock import build_basis

    basis = build_basis(model_cfg["statistics"], model_cfg["L"],
                        g=model_cfg["g"], n_max=model_cfg["n_max"])
    return lattice_model(model_cfg), basis


def lattice_model(model_cfg):
    """The LatticeModel of a merged, validated model block, without its basis:
    models that differ in their potentials only share one basis."""
    from .lattice import LatticeModel, pair_preset, potential_preset

    pot_cfg = dict(model_cfg.get("potential", {"preset": "box"}))
    preset = pot_cfg.pop("preset")
    u = potential_preset(preset, model_cfg["L"], dx=model_cfg["dx"], **pot_cfg)
    pair_cfg = dict(model_cfg.get("pair_potential", {"preset": "none"}))
    pair_name = pair_cfg.pop("preset")
    v, range_v = pair_preset(pair_name, dx=model_cfg["dx"], **pair_cfg)
    return LatticeModel(
        L=model_cfg["L"],
        dx=float(model_cfg["dx"]),
        g=model_cfg["g"],
        statistics=model_cfg["statistics"],
        mass=float(model_cfg["mass"]),
        hbar=float(model_cfg["hbar"]),
        U=u,
        V=v,
        range_V=range_v,
    )
