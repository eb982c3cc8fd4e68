"""Scenario configuration: the catalog, schema validation and model construction.

A configuration is a single JSON document (key-value tree, explicit units:
lengths in lattice spacings, energies in units of hbar^2/(m dx^2) family,
times in hbar/energy).  A walker checks each object against an example (the
scenario's defaults, ``default_model()`` or the chosen preset's entry) for
unknown keys and values of the wrong kind, and every number for finiteness;
then ``RULES``, one table keyed by full path, checks the merged config for
bounds, sites, indices and lengths, and feasibility findings flag a Fock
dimension over the cap.  ``ConfigError`` carries findings out of a run.

The catalog (names, descriptions, defaults) and the checks are plain data
and code: importing this module loads no numpy, so ``fockbox list`` and
``fockbox validate`` start without the linear algebra.  ``build_model``
imports the operator modules when it is called.
"""

from __future__ import annotations

import functools
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


class ConfigError(ValueError):
    """A configuration that cannot run, with one finding per problem: those
    ``validate_config`` reports and those a run measures."""

    def __init__(self, findings):
        self.findings = list(findings)
        super().__init__("; ".join(map(str, self.findings)))


def dim_cap_from_env():
    """The Fock dimension cap: FOCKBOX_DIM_CAP when set, else DEFAULT_DIM_CAP."""
    raw = os.environ.get(DIM_CAP_ENV)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError([Finding(DIM_CAP_ENV, f"must be a positive integer, got {raw!r}")])
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


# preset -> its parameters, each with a value of its kind; a block at a path
# of PRESETS takes the chosen preset's entry as its example object
POTENTIAL_PRESETS = {
    "box": {},
    "barrier": {"height": 0.0, "sites": [0]},
    "harmonic": {"k": 0.0, "center": 0.0},
    "table": {"values": [0.0]},
}

PAIR_PRESETS = {
    "none": {},
    "contact": {"v0": 0.0},
    "table": {"values": [0.0]},
}

PRESETS = {"model.potential": POTENTIAL_PRESETS, "model.pair_potential": PAIR_PRESETS}


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
    """New dict with override's entries replacing base's, recursing on dicts; a
    dict that names another preset replaces base's whole, so no parameter of the
    replaced preset stays."""
    out = dict(base)
    for key, val in override.items():
        old = out.get(key)
        if isinstance(val, dict) and isinstance(old, dict) and \
                val.get("preset", old.get("preset")) == old.get("preset"):
            out[key] = deep_merge(old, val)
        else:
            out[key] = val
    return out


def _same_kind(value, default):
    """An integer for an integer default, any number for a float, a list whose
    entries follow its first entry for a list; a bool is never a number."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_same_kind(v, default[0]) for v in value)
    kind = {int: int, float: (int, float)}.get(type(default), type(default))
    return isinstance(value, kind) and not isinstance(value, bool)


def _kind_findings(obj, example, path=""):
    """Unknown keys and values of the wrong kind in a config object, against
    an example object of the same keys; an example value None takes any value."""
    findings = []
    for key, val in obj.items():
        where = f"{path}.{key}" if path else key
        if key not in example:
            findings.append(Finding(where, "unknown key"))
        elif where in PRESETS and isinstance(val, dict):
            findings.extend(_preset_findings(val, PRESETS[where], where))
        elif isinstance(example[key], dict):
            findings.extend(_kind_findings(val, example[key], where) if isinstance(val, dict)
                            else [Finding(where, "must be an object")])
        elif example[key] is not None and not _same_kind(val, example[key]):
            findings.append(Finding(where, f"must have the kind of {example[key]!r}"))
    return findings


def _preset_findings(block, presets, path):
    """A preset block's findings, against the chosen preset's entry."""
    if "preset" not in block:
        return [Finding(path, "missing required key 'preset'")]
    preset = block["preset"]
    if not isinstance(preset, str) or preset not in presets:
        return [Finding(f"{path}.preset",
                        f"unknown preset {preset!r}; choose from {sorted(presets)}")]
    return _kind_findings(block, {**presets[preset], "preset": preset}, path)


def _site_run(sites, config):
    """None for a non-empty run of distinct, contiguous lattice sites, in any
    order, as a Region takes them; else what the value must be."""
    L = config["model"]["L"]
    s = sorted(sites)
    if not s or s[0] < 0 or s[-1] >= L or s != list(range(s[0], s[0] + len(s))):
        return f"must be a non-empty run of distinct, contiguous sites in [0, {L})"


def _source(sites, config):
    """A site run that shares no site with a channel the source emits into."""
    p = config["params"]
    return _site_run(sites, config) or (
        "must share no site with params.channel or params.witness_channel"
        if set(sites) & {*p.get("channel", []), *p.get("witness_channel", [])} else None)


def _bound(ok, message):
    """The rule that ok(value) holds, else the message."""
    return lambda v, c: None if ok(v) else message


def _entries(extra):
    """The rule that a list has L + extra entries, one per site and extra more."""
    def rule(v, c):
        n = c["model"]["L"] + extra
        return None if len(v) == n else (
            f"must have {n} entries (L{' + 1' if extra else ''}), got {len(v)}")
    return rule


# what the example objects cannot say, a bound, a site, an index or a length
# tied to the model: full key path -> rule on (value, merged config), a message or None
RULES = {
    "seed": _bound(lambda v: v >= 0, "must be a non-negative integer"),
    **dict.fromkeys(("model.L", "model.g", "model.n_max"),
                    _bound(lambda v: v >= 1, "must be an integer >= 1")),
    **dict.fromkeys(("model.dx", "model.mass", "model.hbar"),
                    _bound(lambda v: v > 0, "must be positive")),
    "model.statistics": _bound(lambda v: v in (BOSE, FERMI), "must be 'bose' or 'fermi'"),
    "model.potential.sites": lambda v, c: (None if all(0 <= s < c["model"]["L"] for s in v)
                                           else f"must be sites in [0, {c['model']['L']})"),
    "model.potential.values": _entries(0),
    "params.source_site": lambda v, c: (None if 0 <= v < c["model"]["L"]
                                        else f"must be a site in [0, {c['model']['L']})"),
    "params.region": _site_run,
    "params.source": _source,
    "params.channel": _site_run,
    "params.witness_channel": _site_run,
    "params.target_index": lambda v, c: (
        None if 0 <= v < len(c["params"]["channel"])
        else f"must index params.channel, in [0, {len(c['params']['channel'])})"),
    # one parameter per mass cell plus the energy, one preparation weight per cell
    "params.zeta0": _entries(1),
    "params.gamma_T": _entries(1),
    "params.prep_weights": _entries(0),
    # steps, horizons and widths divide; grids have two points, series one entry
    **dict.fromkeys(("params.step", "params.decay_horizon", "params.dt", "params.width",
                     "params.sweep_width"), _bound(lambda v: v > 0, "must be > 0")),
    **dict.fromkeys(("params.decay_samples", "params.prep_quad", "params.samples",
                     "params.sweep_points", "params.exact_samples"),
                    _bound(lambda v: v >= 2, "must be >= 2")),
    **dict.fromkeys(("params.times", "params.witness_times", "params.strengths"),
                    _bound(len, "must not be empty")),
    "params.lam": _bound(lambda v: 0 < v < 1, "must lie strictly inside (0, 1)"),
    # round(t_end / step) >= 1 is t_end > step / 2; a step <= 0 is step's finding
    "params.t_end": lambda v, c: (
        None if c["params"]["step"] <= 0 or v > 0.5 * c["params"]["step"]
        else "must span at least one step: round(t_end / step) >= 1"),
}


def _rule_findings(config):
    """The RULES findings of a merged config whose kinds are clean; a path the
    config does not hold is skipped."""
    findings = []
    for path, rule in RULES.items():
        *parents, key = path.split(".")
        node = functools.reduce(lambda n, k: n.get(k, {}), parents, config)
        message = key in node and rule(node[key], config)
        if message:
            findings.append(Finding(path, message))
    return findings


def validate_model(model):
    """Findings for a model block, merged over ``default_model()``."""
    return _kind_findings(model, default_model(), "model") or \
        _rule_findings({"model": deep_merge(default_model(), model)})


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


def feasibility_findings(model):
    """Dimension-cap precheck, run on a fully merged model block."""
    try:
        cap = dim_cap_from_env()
    except ConfigError as exc:
        return exc.findings
    try:
        dim = fock_dimension(model["statistics"], model["L"] * model["g"],
                             model["n_max"])
    except (KeyError, ValueError):
        return []
    if dim > cap:
        return [Finding("model.n_max",
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
    return deep_merge(scenario_defaults(config.get("scenario")), config)


def validate_config(config):
    """Schema findings for a user config (before merging) plus feasibility."""
    if not isinstance(config, dict):
        return [Finding("$", "configuration must be a JSON object")]
    name = config.get("scenario")
    if name is None:
        return [Finding("scenario", "missing required key")]
    if not isinstance(name, str) or name not in CATALOG:
        return [Finding("scenario", f"unknown scenario {name!r}; pick from {sorted(CATALOG)}")]
    defaults = scenario_defaults(name)
    findings = _kind_findings(config, {**defaults, "model": default_model(), "comment": None})
    # a non-finite number is reported once, as such
    bad = _non_finite_paths(config)
    findings = [Finding(p, "must be a finite number") for p in bad] \
        + [f for f in findings if f.path not in bad]
    if not findings:
        merged = deep_merge(defaults, config)
        findings = _rule_findings(merged) + feasibility_findings(merged["model"])
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
