"""Bundled scenarios: declarative experiments with invariant reports.

Every scenario maps a merged configuration to a set of CSV artifacts plus a
JSON summary listing each invariant with its tolerance, measured value and
outcome.  All numbers are written in scientific notation with 17 significant
digits and all randomness flows from the single config seed, so reruns of
the same configuration are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import (  # the catalog functions, re-exported
    build_model,
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


@dataclass
class ScenarioResult:
    name: str
    invariants: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.invariants)


def check_le(name, value, tolerance):
    return InvariantCheck(name=name, tolerance=float(tolerance),
                          value=float(value), passed=bool(value <= tolerance),
                          comparison="<=")


def check_ge(name, value, threshold):
    return InvariantCheck(name=name, tolerance=float(threshold),
                          value=float(value), passed=bool(value >= threshold),
                          comparison=">=")


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
        "invariants": [
            {
                "name": c.name,
                "comparison": c.comparison,
                "tolerance": c.tolerance,
                "value": c.value,
                "passed": c.passed,
            }
            for c in result.invariants
        ],
        "artifacts": sorted(result.artifacts),
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


def run_free_packet(config, out_dir):
    model, basis = build_model(config["model"])
    p = config["params"]
    h = build_hamiltonian(basis, model)
    reg = region(range(model.L))
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
        trace_drift = max(trace_drift, abs(np.trace(rho_t).real - 1.0))
        energy, *density = _traces(obs, rho_t[None])[:, 0].real
        energy_drift = max(energy_drift, abs(energy - e0))
        rows += [(float(t), x, float(n)) for x, n in enumerate(density)]
    write_csv(Path(out_dir) / "density.csv", ["t", "site", "density"], rows)
    result = ScenarioResult(name="free_packet", artifacts=["density.csv"])
    result.invariants.append(check_le("trace_drift", trace_drift, 1e-10))
    result.invariants.append(check_le("energy_drift", energy_drift, 1e-10))
    return result


def _residual_and_surface(center, width, dt, h, model, reg):
    vac = vacuum_state(h.basis)
    psi0 = gaussian_packet(reg, center=center, width=width, dx=model.dx,
                           g=model.g)
    psis = reduced_path(psi0, model, 0.0, dt, 4)
    rep = embedding_residual(psis, [vac] * 5, h, model, reg, dt=dt)
    _, norm = surface_term(psis[2], vac, h.basis, model, reg)
    return rep.value, norm


def run_embedding_check(config, out_dir):
    model, basis = build_model(config["model"])
    p = config["params"]
    h = build_hamiltonian(basis, model)
    reg = region(p["region"])
    dt = float(p["dt"])

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

    centers = np.linspace(p["sweep_start"], p["sweep_stop"], p["sweep_points"])
    rows = []
    residuals, norms = [], []
    for c in centers:
        r, s = _residual_and_surface(float(c), p["sweep_width"], dt,
                                     h, model, reg)
        residuals.append(r)
        norms.append(s)
        rows.append((float(c), r, s))
    rank_corr = spearman(residuals, norms)
    write_csv(Path(out_dir) / "sweep.csv",
              ["center", "residual", "surface_norm"], rows)

    result = ScenarioResult(name="embedding_check", artifacts=["sweep.csv"])
    result.invariants.append(check_le("interior_residual", r_int, 1e-6))
    result.invariants.append(check_ge("boundary_ratio", r_bdy / r_int, 1e3))
    result.invariants.append(check_ge("surface_rank_correlation",
                                      float(rank_corr), 0.9))
    result.invariants.append(check_le("truncation_stability",
                                      abs(r_int2 - r_int), 1e-9))
    return result


def run_relaxation(config, out_dir):
    model, basis = build_model(config["model"])
    p = config["params"]
    rel, h = mass_energy_relevant(basis, model)
    zeta0 = np.asarray(p["zeta0"], float)
    if len(zeta0) != len(rel):
        raise ValueError(f"zeta0 needs {len(rel)} entries, got {len(zeta0)}")

    decay = decay_time(rel, zeta0, h, horizon=p["decay_horizon"],
                       n_samples=p["decay_samples"], hbar=model.hbar)
    tau = decay.tau
    write_csv(Path(out_dir) / "correlation.csv", ["t", "label", "value"],
              [(float(s), f"C[{rel.labels[j]},{rel.labels[l]}]",
                float(decay.table[k, j, l]))
               for k, s in enumerate(decay.times)
               for j in range(len(rel)) for l in range(len(rel))])

    hist = HistorySpec.empty(0.0)
    step = float(p["step"])
    traj = zeta_dynamics(rel, zeta0, hist, h, 0.0, tau, step=step,
                         hbar=model.hbar)
    fine = zeta_dynamics(rel, zeta0, hist, h, 0.0, tau, step=step / 2.0,
                         hbar=model.hbar)
    halving = float(np.max(np.abs(fine.zetas[::2] - traj.zetas)))
    write_csv(Path(out_dir) / "zeta.csv", ["t", "label", "value"],
              traj.as_rows())

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
        worst = max(worst, float(np.max(np.abs(traj.zetas[i] - zx))))

    conserved = relevant_set(["H", "N"], [h, number_operator(basis)],
                             [1.0, 1.0])
    series = entropy_monitor(traj, rel, conserved=conserved)
    micro_drift = 0.0
    s_micro = entropy(rho0)
    for t in (0.5 * tau, tau):
        s_t = entropy(evolve_state(rho0, h, 0.0, float(t), hbar=model.hbar))
        micro_drift = max(micro_drift, abs(s_t - s_micro))
    entropy_rows = []
    for t, s, d in zip(series.times, series.entropy, series.dist_equilibrium):
        entropy_rows.append((float(t), "entropy_macro", float(s)))
        entropy_rows.append((float(t), "distance_equilibrium", float(d)))
    write_csv(Path(out_dir) / "entropy.csv", ["t", "label", "value"],
              entropy_rows)

    result = ScenarioResult(
        name="relaxation",
        artifacts=["correlation.csv", "entropy.csv", "zeta.csv"],
    )
    result.invariants.append(check_le("trajectory_vs_exact", worst,
                                      0.05 * scale))
    result.invariants.append(check_le("step_halving", halving, 1e-3))
    result.invariants.append(check_le("entropy_min_step", -series.min_step,
                                      1e-6))
    result.invariants.append(check_le("micro_entropy_drift", micro_drift,
                                      1e-10))
    result.invariants.append(check_le("gram_condition", traj.gram_cond_max,
                                      1e12))
    return result


def run_zubarev_limit(config, out_dir):
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
    write_csv(Path(out_dir) / "zubarev.csv",
              ["t", "label", "zeta", "zeta_doubled_gamma", "difference"], rows)

    result = ScenarioResult(name="zubarev_limit", artifacts=["zubarev.csv"])
    result.invariants.append(check_le("truncated_insensitivity",
                                      truncated_change, 1e-3))
    result.invariants.append(check_ge("terminal_term_active_without_cutoff",
                                      full_change, 1e-6))
    return result


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


def _witnesses(config, potential, lam):
    """The memory witness between the two phase kernels at each witness time,
    in the config's model with the given potential and no pair potential."""
    p = config["params"]
    model, basis = build_model({**config["model"], "potential": potential,
                                "pair_potential": {"preset": "none"}})
    h = build_hamiltonian(basis, model)
    rho_n = one_particle_state(basis, int(p["source_site"]), model.L, model.g)
    spec_p, spec_m = _phase_specs(p, lam)
    b = number_operator(basis, int(p["witness_channel"][-1]) * model.g)
    return memory_witness(spec_p, spec_m, rho_n, b, h, 0.0,
                          [float(t) for t in p["witness_times"]], basis, model,
                          hbar=model.hbar)


def run_event_channel(config, out_dir):
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
    for t in p["times"]:
        rep = shielded_expectation(b, mix, h, 0.0, float(t), basis, model,
                                   spec, hbar=model.hbar)
        worst_resid = max(worst_resid, abs(rep.shielding_residual))
        worst_identity = max(worst_identity,
                             abs(rep.lhs - rep.rhs
                                 - lam * rep.shielding_residual))
        rows.append((float(t), rep.lhs, rep.rhs, rep.shielding_residual))
    write_csv(Path(out_dir) / "shielded.csv",
              ["t", "lhs", "rhs", "shielding_residual"], rows)

    # witness part: barrier-free channel carrying left- vs right-movers
    wit = _witnesses(config, {"preset": "box"}, lam)
    witness_peak = max(wit, default=0.0)
    wit_rows = [(float(t), w) for t, w in zip(p["witness_times"], wit)]
    write_csv(Path(out_dir) / "witness.csv", ["t", "witness"], wit_rows)

    result = ScenarioResult(name="event_channel",
                            artifacts=["shielded.csv", "witness.csv"])
    result.invariants.append(check_le("shielding_residual", worst_resid, 1e-3))
    result.invariants.append(check_le("mixture_identity", worst_identity,
                                      1e-12 + lam * worst_resid))
    result.invariants.append(check_ge("memory_witness_transit", witness_peak,
                                      0.1))
    return result


def run_decoherence_sweep(config, out_dir):
    p = config["params"]
    lam = float(p["lam"])
    rng = np.random.default_rng(config.get("seed", 0))
    channel = [int(s) for s in p["witness_channel"]]
    noise = rng.uniform(-1.0, 1.0, size=len(channel))

    witnesses = []
    for strength in p["strengths"]:
        u = np.zeros(config["model"]["L"])
        for i, site in enumerate(channel):
            u[site] += float(strength) * noise[i]
        potential = {"preset": "table", "values": list(u)}
        witnesses.append(max(_witnesses(config, potential, lam)))
    rows = [(float(s), w) for s, w in zip(p["strengths"], witnesses)]
    write_csv(Path(out_dir) / "witness_sweep.csv", ["strength", "witness"],
              rows)

    result = ScenarioResult(name="decoherence_sweep",
                            artifacts=["witness_sweep.csv"])
    result.invariants.append(check_ge("clean_witness", witnesses[0], 0.1))
    result.invariants.append(check_le("disordered_witness", witnesses[-1],
                                      0.2 * witnesses[0]))
    return result


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
    """Execute a merged configuration, write artifacts, return the result."""
    merged = merged_config(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = RUNNERS[merged["scenario"]](merged, out)
    write_summary(out / "summary.json", merged, result)
    result.artifacts.append("summary.json")
    return result
