"""Bundled scenarios: declarative experiments with invariant reports.

Each runner maps a merged configuration to its CSV tables and invariant
checks; ``run_scenario`` validates, runs, and only then writes the tables
plus a JSON summary listing each invariant with its tolerance, measured value
and outcome, so a failed run writes nothing.  All numbers are written in
scientific notation with 17 significant digits and all randomness flows from
the single config seed, so reruns of the same configuration are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import (  # the catalog functions, re-exported
    ConfigError,
    Finding,
    build_model,
    lattice_model,
    list_scenarios,
    merged_config,
    scenario_defaults,
    validate_config,
)
from .events import EventSpec, build_event_mixture, memory_witness, shielded_expectation
from .fock import build_basis, number_operator, zero_operator
from .lattice import (
    MASS,
    build_hamiltonian,
    current_ops,
    density_ops,
    divergence_ops,
)
from .maxent import entropy, gibbs_state, relevant_set
from .neqso import (
    GRAM_COND_MAX,
    HistorySpec,
    HistoryTerm,
    cosine_test_function,
    decay_time,
    entropy_monitor,
    macrostate_of,
    zeta_dynamics,
)
from .propagate import evolve_state
from .subdynamics import (
    _traces,
    embed,
    embedding_residual,
    gaussian_packet,
    reduced_path,
    region,
    surface_term,
)


@dataclass(frozen=True)
class InvariantCheck:
    name: str
    tolerance: float
    value: float
    passed: bool
    comparison: str = "<="  # value vs tolerance

    def __post_init__(self):
        # a NaN compares false both ways, so it would neither pass nor fail
        if np.isnan(self.value) or np.isnan(self.tolerance):
            raise FloatingPointError(f"invariant {self.name} is not a number")


@dataclass
class ScenarioResult:
    """A run's invariant checks and CSV tables, file name -> (header, rows);
    ``artifacts`` names the files ``run_scenario`` writes from them."""

    name: str
    invariants: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)

    @property
    def artifacts(self):
        return sorted(self.tables) + ["summary.json"]

    @property
    def passed(self):
        return all(c.passed for c in self.invariants)


def check_le(name, value, tolerance):
    return InvariantCheck(name, float(tolerance), float(value), bool(value <= tolerance), "<=")


def check_ge(name, value, threshold):
    return InvariantCheck(name, float(threshold), float(value), bool(value >= threshold), ">=")


def spearman(a, b):
    """Spearman rank correlation; tied values share their average rank."""

    def ranks(x):
        _, inverse, counts = np.unique(np.asarray(x, float), return_inverse=True,
                                       return_counts=True)
        return (np.cumsum(counts) - 0.5 * (counts + 1))[inverse]

    return float(np.corrcoef(ranks(a), ranks(b))[0, 1])


# ---- deterministic writers ---------------------------------------------------


def fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    # 17 significant digits: enough to round-trip any float64 exactly
    return "%.16e" % float(x)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config):
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def write_summary(path, config, result):
    import scipy

    doc = {
        "scenario": result.name,
        "passed": result.passed,
        "invariants": [asdict(c) for c in result.invariants],
        "artifacts": sorted(result.tables),
        "provenance": {
            "config_sha256": config_hash(config),
            "seed": config.get("seed", 0),
            "versions": {
                "fockbox": __version__,
                "numpy": np.__version__,
                "python": "%d.%d.%d" % sys.version_info[:3],
                "scipy": scipy.__version__,
            },
        },
        "config": config,
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n",
                          encoding="utf-8")


# ---- shared builders -----------------------------------------------------------


def vacuum_state(basis):
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    rho[basis.vacuum_ordinal(), basis.vacuum_ordinal()] = 1.0
    return rho


def one_particle_state(basis, site, L, g=1):
    occ = [0] * (L * g)
    occ[site * g] = 1
    v = basis.basis_vector(occ)
    return np.outer(v, v.conj())


def mass_energy_relevant(basis, model):
    """Per-cell mass densities plus total energy, with mass currents."""
    h = build_hamiltonian(basis, model)
    cells = density_ops(basis, model)
    div_mass = divergence_ops(current_ops(basis, model, MASS), model)
    return relevant_set(
        [f"rho[{x}]" for x in range(model.L)] + ["H"],
        list(cells) + [h],
        [model.dx] * model.L + [1.0],
        div_currents=list(div_mass) + [zero_operator(basis)],
    ), h


# ---- scenarios -------------------------------------------------------------------


def run_free_packet(config):
    model, basis = build_model(config["model"])
    p = config["params"]
    h = build_hamiltonian(basis, model)
    reg = region(range(model.L))
    _check_packets(reg, {"center": ([p["center"]], p["width"])})
    psi = gaussian_packet(reg, center=p["center"], width=p["width"],
                          k=p["momentum"], dx=model.dx, g=model.g)
    rho0 = embed(psi, vacuum_state(basis), basis, model, reg)
    obs = np.stack([op.to_dense() for op in [h, *density_ops(basis, model)]])
    ts = np.linspace(0.0, p["t_final"], p["samples"])
    rows = []
    trace_drift = 0.0
    energy_drift = 0.0
    e0 = _traces(obs[:1], rho0[None])[0, 0].real
    for t in ts:
        rho_t = evolve_state(rho0, h, 0.0, float(t), hbar=model.hbar)
        # np.maximum, not max: a NaN drift must reach its check
        trace_drift = np.maximum(trace_drift, abs(np.trace(rho_t).real - 1.0))
        energy, *density = _traces(obs, rho_t[None])[:, 0].real
        energy_drift = np.maximum(energy_drift, abs(energy - e0))
        rows += [(float(t), x, float(n)) for x, n in enumerate(density)]
    return ScenarioResult(
        name="free_packet",
        invariants=[check_le("trace_drift", trace_drift, 1e-10),
                    check_le("energy_drift", energy_drift, 1e-10)],
        tables={"density.csv": (["t", "site", "density"], rows)})


def _check_packets(reg, packets):
    """A ConfigError naming each params key whose Gaussian packets, at the centres
    and of the width under packets[key], underflow on every site of reg at one of
    the centres: a zero state, which no run can normalize."""
    findings = []
    for key, (centers, width) in packets.items():
        try:
            for center in centers:
                gaussian_packet(reg, center=center, width=width)
        except ValueError:
            findings.append(Finding(f"params.{key}", "must leave the packet some amplitude "
                                    f"on the sites [{min(reg.sites)}, {max(reg.sites) + 1})"))
    if findings:
        raise ConfigError(findings)


def _residual_and_surface(center, width, dt, h, model, reg):
    vac = vacuum_state(h.basis)
    psi0 = gaussian_packet(reg, center=center, width=width, dx=model.dx,
                           g=model.g)
    psis = reduced_path(psi0, model, 0.0, dt, 4)
    rep = embedding_residual(psis, [vac] * 5, h, model, reg, dt=dt)
    _, norm = surface_term(psis[2], vac, h.basis, model, reg)
    return rep.value, norm


def run_embedding_check(config):
    model, basis = build_model(config["model"])
    p = config["params"]
    h = build_hamiltonian(basis, model)
    reg = region(p["region"])
    dt = float(p["dt"])
    sweep = np.linspace(p["sweep_start"], p["sweep_stop"], p["sweep_points"])
    _check_packets(reg, {"interior_center": ([p["interior_center"]], p["width"]),
                         "boundary_center": ([p["boundary_center"]], p["width"]),
                         "sweep_start": (sweep[:1], p["sweep_width"]),
                         "sweep_stop": (sweep[-1:], p["sweep_width"])})
    # a centre between two ends that reach the region can still miss every site
    # when the width is far below the site spacing
    _check_packets(reg, {"sweep_width": (sweep[1:-1], p["sweep_width"])})

    r_int, _ = _residual_and_surface(p["interior_center"], p["width"], dt,
                                     h, model, reg)
    r_bdy, _ = _residual_and_surface(p["boundary_center"], p["width"], dt,
                                     h, model, reg)

    # truncation stability: one more particle of headroom must not move the
    # one-quanton diagnostics
    bigger = build_basis(model.statistics, model.L, g=model.g,
                         n_max=config["model"]["n_max"] + 1)
    r_int2, _ = _residual_and_surface(p["interior_center"], p["width"], dt,
                                      build_hamiltonian(bigger, model), model, reg)

    rows = []
    residuals, norms = [], []
    for c in sweep:
        r, s = _residual_and_surface(float(c), p["sweep_width"], dt,
                                     h, model, reg)
        residuals.append(r)
        norms.append(s)
        rows.append((float(c), r, s))
    rank_corr = spearman(residuals, norms)
    return ScenarioResult(
        name="embedding_check",
        invariants=[check_le("interior_residual", r_int, 1e-6),
                    check_ge("boundary_ratio", r_bdy / r_int, 1e3),
                    check_ge("surface_rank_correlation", float(rank_corr), 0.9),
                    check_le("truncation_stability", abs(r_int2 - r_int), 1e-9)],
        tables={"sweep.csv": (["center", "residual", "surface_norm"], rows)})


def run_relaxation(config):
    model, basis = build_model(config["model"])
    p = config["params"]
    rel, h = mass_energy_relevant(basis, model)
    zeta0 = np.asarray(p["zeta0"], float)

    decay = decay_time(rel, zeta0, h, horizon=p["decay_horizon"],
                       n_samples=p["decay_samples"], hbar=model.hbar)
    tau = decay.tau
    step = float(p["step"])
    if round(tau / step) < 1:  # zeta_dynamics' test for at least one step
        raise ConfigError([Finding("params.step", "must be at most twice the "
                                   f"measured decay horizon tau = {tau:g}")])
    correlation_rows = [(float(s), f"C[{rel.labels[j]},{rel.labels[l]}]",
                         float(decay.table[k, j, l]))
                        for k, s in enumerate(decay.times)
                        for j in range(len(rel)) for l in range(len(rel))]

    hist = HistorySpec.empty(0.0)
    traj = zeta_dynamics(rel, zeta0, hist, h, 0.0, tau, step=step,
                         hbar=model.hbar)
    fine = zeta_dynamics(rel, zeta0, hist, h, 0.0, tau, step=step / 2.0,
                         hbar=model.hbar)
    halving = float(np.max(np.abs(fine.zetas[::2] - traj.zetas)))

    # exact-evolution oracle at evenly spread trajectory times
    rho0, _ = gibbs_state(rel, zeta0)
    scale = float(np.max(np.abs(zeta0)))
    worst = 0.0
    guess = zeta0
    n_steps = len(traj.times) - 1
    for i in np.round(np.linspace(0, n_steps, int(p["exact_samples"]))[1:]).astype(int):
        rho_t = evolve_state(rho0, h, 0.0, float(i * step), hbar=model.hbar)
        zx = macrostate_of(rho_t, rel, zeta_guess=guess).values
        guess = zx
        worst = np.maximum(worst, float(np.max(np.abs(traj.zetas[i] - zx))))

    conserved = relevant_set(["H", "N"], [h, number_operator(basis)],
                             [1.0, 1.0])
    series = entropy_monitor(traj, rel, conserved=conserved)
    micro_drift = 0.0
    s_micro = entropy(rho0)
    for t in (0.5 * tau, tau):
        s_t = entropy(evolve_state(rho0, h, 0.0, float(t), hbar=model.hbar))
        micro_drift = np.maximum(micro_drift, abs(s_t - s_micro))
    entropy_rows = []
    for t, s, d in zip(series.times, series.entropy, series.dist_equilibrium):
        entropy_rows.append((float(t), "entropy_macro", float(s)))
        entropy_rows.append((float(t), "distance_equilibrium", float(d)))

    return ScenarioResult(
        name="relaxation",
        invariants=[check_le("trajectory_vs_exact", worst, 0.05 * scale),
                    check_le("step_halving", halving, 1e-3),
                    check_le("entropy_min_step", -series.min_step, 1e-6),
                    check_le("micro_entropy_drift", micro_drift, 1e-10),
                    check_le("gram_condition", traj.gram_cond_max, GRAM_COND_MAX)],
        tables={"correlation.csv": (["t", "label", "value"], correlation_rows),
                "zeta.csv": (["t", "label", "value"], traj.as_rows()),
                "entropy.csv": (["t", "label", "value"], entropy_rows)})


def run_zubarev_limit(config):
    model, basis = build_model(config["model"])
    p = config["params"]
    rel, h = mass_energy_relevant(basis, model)
    zeta0 = np.asarray(p["zeta0"], float)
    gamma_T = np.asarray(p["gamma_T"], float)

    decay = decay_time(rel, zeta0, h, horizon=p["decay_horizon"],
                       n_samples=p["decay_samples"], hbar=model.hbar)
    tau_cut = 3.0 * decay.tau
    t0 = 0.0
    T = t0 - 3.0 * tau_cut

    prep = HistoryTerm(
        label="prep",
        operators=rel.operators[:model.L],
        coeffs=np.asarray(p["prep_weights"], float) * rel.weights[:model.L],
        h=cosine_test_function(p["prep_omega"]),
    )

    def run(gam, cut):
        hist = HistorySpec(T=T, t0=t0, terms=(prep,), gamma_T=gam,
                           n_quad=int(p["prep_quad"]))
        return zeta_dynamics(rel, zeta0, hist, h, t0, p["t_end"],
                             step=float(p["step"]), tau_cut=cut,
                             hbar=model.hbar)

    base = run(gamma_T, tau_cut)
    doubled = run(2.0 * gamma_T, tau_cut)
    truncated_change = float(np.max(np.abs(base.zetas - doubled.zetas)))

    base_full = run(gamma_T, None)
    doubled_full = run(2.0 * gamma_T, None)
    full_change = float(np.max(np.abs(base_full.zetas - doubled_full.zetas)))

    rows = []
    for i, t in enumerate(base.times):
        for l, lab in enumerate(rel.labels):
            rows.append((float(t), str(lab), float(base.zetas[i, l]),
                         float(doubled.zetas[i, l]),
                         float(doubled.zetas[i, l] - base.zetas[i, l])))
    return ScenarioResult(
        name="zubarev_limit",
        invariants=[check_le("truncated_insensitivity", truncated_change, 1e-3),
                    check_ge("terminal_term_active_without_cutoff", full_change, 1e-6)],
        tables={"zubarev.csv": (["t", "label", "zeta", "zeta_doubled_gamma",
                                 "difference"], rows)})


def _phase_specs(p, lam):
    ys = np.arange(len(p["witness_channel"]))
    k = float(p["witness_momentum"])
    k_plus = np.zeros((len(ys), len(p["source"])), dtype=complex)
    k_plus[:, 0] = np.exp(1j * k * ys)
    k_minus = k_plus.conj()
    spec_p = EventSpec(lam=lam, source=region(p["source"]),
                       channel=region(p["witness_channel"]), kernel=k_plus)
    spec_m = EventSpec(lam=lam, source=region(p["source"]),
                       channel=region(p["witness_channel"]), kernel=k_minus)
    return spec_p, spec_m


def _witnesses(config, basis, potentials, lam):
    """For each potential, the memory witness between the two phase kernels at
    each witness time, in the config's model with that potential and no pair
    potential: the models share basis, so only H changes between them."""
    p, g = config["params"], config["model"]["g"]
    rho_n = one_particle_state(basis, int(p["source_site"]), config["model"]["L"], g)
    spec_p, spec_m = _phase_specs(p, lam)
    b = number_operator(basis, int(p["witness_channel"][-1]) * g)
    out = []
    for potential in potentials:
        model = lattice_model({**config["model"], "potential": potential,
                               "pair_potential": {"preset": "none"}})
        out.append(memory_witness(spec_p, spec_m, rho_n, b, build_hamiltonian(basis, model),
                                  0.0, [float(t) for t in p["witness_times"]], basis,
                                  model, hbar=model.hbar))
    return out


def run_event_channel(config):
    model, basis = build_model(config["model"])
    p = config["params"]
    lam = float(p["lam"])
    h = build_hamiltonian(basis, model)
    rho_n = one_particle_state(basis, int(p["source_site"]), model.L, model.g)

    kernel = np.zeros((len(p["channel"]), len(p["source"])), dtype=complex)
    kernel[int(p["target_index"]), 0] = 1.0
    spec = EventSpec(lam=lam, source=region(p["source"]),
                     channel=region(p["channel"]), kernel=kernel)
    mix = build_event_mixture(rho_n, spec, basis, model)
    b = None
    for site in p["channel"]:
        n_site = number_operator(basis, site * model.g)
        b = n_site if b is None else b + n_site

    rows = []
    worst_resid = 0.0
    worst_identity = 0.0
    reports = shielded_expectation(b, mix, h, 0.0, [float(t) for t in p["times"]], basis,
                                   model, spec, hbar=model.hbar)
    for t, rep in zip(p["times"], reports):
        worst_resid = np.maximum(worst_resid, abs(rep.shielding_residual))
        worst_identity = np.maximum(worst_identity,
                                    abs(rep.lhs - rep.rhs
                                        - lam * rep.shielding_residual))
        rows.append((float(t), rep.lhs, rep.rhs, rep.shielding_residual))

    # witness part: barrier-free channel carrying left- vs right-movers
    (wit,) = _witnesses(config, basis, [{"preset": "box"}], lam)
    wit_rows = [(float(t), w) for t, w in zip(p["witness_times"], wit)]
    return ScenarioResult(
        name="event_channel",
        invariants=[check_le("shielding_residual", worst_resid, 1e-3),
                    check_le("mixture_identity", worst_identity,
                             1e-12 + lam * worst_resid),
                    check_ge("memory_witness_transit", np.max(wit), 0.1)],
        tables={"shielded.csv": (["t", "lhs", "rhs", "shielding_residual"], rows),
                "witness.csv": (["t", "witness"], wit_rows)})


def run_decoherence_sweep(config):
    p = config["params"]
    lam = float(p["lam"])
    rng = np.random.default_rng(config.get("seed", 0))
    channel = [int(s) for s in p["witness_channel"]]
    noise = rng.uniform(-1.0, 1.0, size=len(channel))

    potentials = []
    for strength in p["strengths"]:
        u = np.zeros(config["model"]["L"])
        for i, site in enumerate(channel):
            u[site] += float(strength) * noise[i]
        potentials.append({"preset": "table", "values": list(u)})
    _, basis = build_model(config["model"])
    witnesses = [np.max(wit) for wit in _witnesses(config, basis, potentials, lam)]
    rows = [(float(s), w) for s, w in zip(p["strengths"], witnesses)]
    return ScenarioResult(
        name="decoherence_sweep",
        invariants=[check_ge("clean_witness", witnesses[0], 0.1),
                    check_le("disordered_witness", witnesses[-1], 0.2 * witnesses[0])],
        tables={"witness_sweep.csv": (["strength", "witness"], rows)})


# ---- runners --------------------------------------------------------------------


RUNNERS = {
    "free_packet": run_free_packet,
    "embedding_check": run_embedding_check,
    "relaxation": run_relaxation,
    "zubarev_limit": run_zubarev_limit,
    "event_channel": run_event_channel,
    "decoherence_sweep": run_decoherence_sweep,
}


def run_scenario(config, out_dir):
    """Validate a configuration (``ConfigError`` with every finding), run it,
    and only then create ``out_dir`` and write its artifacts: a run that raises
    writes nothing, and one whose invariants fail writes all of them."""
    findings = validate_config(config)
    if findings:
        raise ConfigError(findings)
    merged = merged_config(config)
    result = RUNNERS[merged["scenario"]](merged)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in result.tables.items():
        write_csv(out / name, header, rows)
    write_summary(out / "summary.json", merged, result)
    return result
