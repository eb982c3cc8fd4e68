"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on success (run pytest with -s or -rA to see
them); a failure carries the measured value in the assertion message.
Scenario-backed criteria share a single execution per scenario through the
module-scoped fixture.
"""

import json
import subprocess
import sys
from functools import lru_cache

import numpy as np
import oracles
import pytest
import scipy.linalg

from fockbox.fock import (
    BOSE,
    FERMI,
    annihilation,
    anticommutator,
    build_basis,
    commutator,
    creation,
    number_operator,
)
from fockbox.lattice import (
    ENERGY,
    MASS,
    MOMENTUM,
    current_ops,
    density_ops,
    divergence_ops,
    energy_density_ops,
    family_density_ops,
)
from fockbox.maxent import (
    cumulant_expect,
    entropy,
    expectations,
    gibbs_state,
    kubo,
    kubo_gram,
    match_expectations,
)
from fockbox.neqso import (
    HistorySpec,
    build_rho_t0,
    evolve_and_rewrite,
    macrostate_of,
    zeta_dynamics,
)
from fockbox.propagate import evolve_state
from fockbox.scenarios import list_scenarios, run_scenario, scenario_defaults
from fockbox.subdynamics import (
    embed,
    induced_observable,
    one_quanton,
    region,
)


def report(num, label):
    print(f"\n[criterion {num:02d}] PASS - {label}")


@pytest.fixture(scope="module")
def scenario_runs(tmp_path_factory):
    """One execution of every bundled scenario, results and artifact bytes."""
    root = tmp_path_factory.mktemp("scenarios")
    runs = {}
    for name in list_scenarios():
        out = root / name
        result = run_scenario({"scenario": name}, out)
        blobs = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        runs[name] = (result, blobs, out)
    return runs


# -- 1. algebra suite ------------------------------------------------------------


def test_criterion_01_algebra():
    tol = 1e-12
    basis = build_basis(FERMI, L=3, g=1, n_max=3)
    eye = np.eye(basis.dim)
    for m in range(basis.modes):
        for mp in range(basis.modes):
            ac = anticommutator(annihilation(basis, m),
                                creation(basis, mp)).to_dense()
            target = eye if m == mp else 0.0
            assert np.max(np.abs(ac - target)) < tol
        assert creation(basis, m).equal_bits(annihilation(basis, m).dag())
    bose = build_basis(BOSE, L=2, g=1, n_max=3)
    sub = bose.totals() < bose.n_max
    for m in range(bose.modes):
        for mp in range(bose.modes):
            cm = commutator(annihilation(bose, m), creation(bose, mp)).to_dense()
            target = (1.0 if m == mp else 0.0) * np.eye(bose.dim)
            assert np.max(np.abs((cm - target)[np.ix_(sub, sub)])) < tol
    again = build_basis(BOSE, L=2, g=1, n_max=3)
    assert again.states == bose.states
    report(1, "ladder algebra exact at 1e-12; enumeration deterministic")


# -- 2. model suite ---------------------------------------------------------------


def test_criterion_02_model():
    basis, model, h, _ = oracles.contact_model(L=4)
    cells = energy_density_ops(basis, model)
    total = sum((model.dx * c.to_dense() for c in cells),
                np.zeros((basis.dim,) * 2, dtype=complex))
    assert np.max(np.abs(total - h.to_dense())) < 1e-12
    assert commutator(h, number_operator(basis)).max_abs() < 1e-12
    hd = h.to_dense()
    for family in (MASS, MOMENTUM, ENERGY):
        dens = family_density_ops(basis, model, family)
        div = divergence_ops(current_ops(basis, model, family), model)
        for x in range(model.L):
            a = dens[x].to_dense()
            resid = (1j / model.hbar) * (hd @ a - a @ hd) + div[x].to_dense()
            assert np.max(np.abs(resid)) < 1e-10, (family, x)
    report(2, "energy cells sum to H; continuity identities hold at 1e-10")


# -- 3. max-ent suite ---------------------------------------------------------------


def test_criterion_03_maxent():
    rel = oracles.contact_model(v0=0.0)[3]  # the free box's cells and H
    rng = np.random.default_rng(12)
    zeta_star = rng.uniform(-0.5, 0.5, size=len(rel))
    rho_star, _ = gibbs_state(rel, zeta_star)
    zf = match_expectations(rel, expectations(rel, rho_star))
    assert np.max(np.abs(zf.gauge_projector @ (zf.values - zeta_star))) < 1e-6

    zeta = rng.uniform(-0.3, 0.3, size=len(rel))
    rho, _ = gibbs_state(rel, zeta)
    gram = kubo_gram(rel, rho)
    step = 1e-5
    for l in range(len(rel)):
        zp, zm = zeta.copy(), zeta.copy()
        zp[l] += step
        zm[l] -= step
        rp, _ = gibbs_state(rel, zp)
        rm, _ = gibbs_state(rel, zm)
        fd = (expectations(rel, rp) - expectations(rel, rm)) / (2 * step)
        analytic = -gram[:, l] * rel.weights[l]
        denom = np.maximum(np.abs(analytic), 1e-8)
        assert np.max(np.abs(fd - analytic) / denom) < 1e-5

    # entropy dominance over 100 randomized states with the same expectations
    dim = rel.basis.dim
    s_max = entropy(rho)
    span = np.array([np.eye(dim).ravel()]
                    + [op.to_dense().conj().ravel() for op in rel.operators])
    q, _ = np.linalg.qr(span.T.conj())
    lam_min = np.linalg.eigvalsh(rho)[0]
    checked = 0
    for seed in range(130):
        r = np.random.default_rng(3000 + seed)
        t = r.normal(size=(dim, dim)) + 1j * r.normal(size=(dim, dim))
        t = 0.5 * (t + t.conj().T)
        tv = t.ravel()
        tv = tv - q @ (q.conj().T @ tv)
        t = 0.5 * (tv.reshape(dim, dim) + tv.reshape(dim, dim).conj().T)
        if np.linalg.norm(t) < 1e-12:
            continue
        sigma = rho + (0.5 * lam_min / np.linalg.norm(t, 2)) * t
        assert np.max(np.abs(expectations(rel, sigma)
                             - expectations(rel, rho))) < 1e-10
        assert entropy(sigma, tol=1e-7) <= s_max + 1e-12
        checked += 1
        if checked == 100:
            break
    assert checked == 100

    # kubo positivity and quadrature-oracle agreement at 1e-8
    for seed in range(5):
        r = np.random.default_rng(500 + seed)
        m = r.normal(size=(6, 6)) + 1j * r.normal(size=(6, 6))
        w = m @ m.conj().T
        w /= np.trace(w).real
        a = r.normal(size=(6, 6)) + 1j * r.normal(size=(6, 6))
        a = 0.5 * (a + a.conj().T)
        val = kubo(a, a, w)
        assert abs(val.imag) < 1e-10 and val.real > -1e-10
    r = np.random.default_rng(99)
    aa = 0.5 * (lambda m: m + m.conj().T)(r.normal(size=(3, 3))
                                          + 1j * r.normal(size=(3, 3)))
    w = oracles.gibbs(aa)
    c = r.normal(size=(3, 3)) + 1j * r.normal(size=(3, 3))
    b = r.normal(size=(3, 3)) + 1j * r.normal(size=(3, 3))
    assert abs(kubo(c, b, w) - oracles.kubo_integral(c, b, w)) < 1e-8
    report(3, "round trip 1e-6, Jacobian rel 1e-5, dominance x100, kubo 1e-8")


# -- 4. cumulant scaling --------------------------------------------------------------


def test_criterion_04_cumulant_scaling():
    rng = np.random.default_rng(77)

    def randh(d):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return 0.5 * (m + m.conj().T)

    a, b0, c = randh(5), randh(5), randh(5)
    eps = np.array([1e-1, 1e-2, 1e-3])
    errs = []
    for e in eps:
        num = scipy.linalg.expm(a + e * b0)
        exact = np.trace(c @ num).real / np.trace(num).real
        errs.append(abs(cumulant_expect(c, a, e * b0) - exact))
    slope = np.polyfit(np.log(eps), np.log(errs), 1)[0]
    assert 1.9 < slope < 2.1, f"fitted exponent {slope}"
    report(4, f"first-order error exponent {slope:.3f} in [1.9, 2.1]")


# -- 5. embedding theorem ---------------------------------------------------------------


def test_criterion_05_embedding(scenario_runs):
    result, _, _ = scenario_runs["embedding_check"]
    checks = {c.name: c for c in result.invariants}
    c = checks["interior_residual"]
    assert c.passed and c.value < 1e-6, c
    c = checks["boundary_ratio"]
    assert c.passed and c.value >= 1e3, c
    c = checks["surface_rank_correlation"]
    assert c.passed and c.value > 0.9, c
    report(5, "interior residual < 1e-6, boundary x1e3, rank corr > 0.9")


# -- 6. reduction duality -----------------------------------------------------------------


def test_criterion_06_reduction_duality():
    basis, model, h, _ = oracles.contact_model(L=5, v0=0.0)
    occ = [0] * 5
    occ[4] = 1
    v = basis.basis_vector(occ)
    rho_bg = np.outer(v, v.conj())
    reg = region([0, 1, 2])
    psi = one_quanton(reg, [0.6, -0.3 + 0.2j, 0.8j], dx=model.dx)
    rho = embed(psi, rho_bg, basis, model, reg)

    w, vh = np.linalg.eigh(h.to_dense())
    edges = np.linspace(w.min() - 1.0, w.max() + 1.0, 5)
    windows = [(float(a), float(b)) for a, b in zip(edges[:-1], edges[1:])]
    projectors = []
    for lo, hi in windows:
        sel = (w >= lo) & (w < hi)
        projectors.append(vh[:, sel] @ vh[:, sel].conj().T)

    tested = [number_operator(basis).to_dense(), h.to_dense()]
    tested += [op.to_dense() for op in density_ops(basis, model)]
    tested += projectors
    for a in tested:
        obs = induced_observable(a, rho_bg, basis, model, reg)
        lhs = np.trace(a @ rho).real
        rhs = obs.expectation(psi).real
        assert abs(lhs - rhs) < 1e-10
        assert obs.split_deviation < 1e-12

    obs = induced_observable(h, rho_bg, basis, model, reg, windows=windows)
    total = sum(obs.pov_matrix(win) for win in windows)
    assert np.max(np.abs(total - np.eye(3 * model.g))) < 1e-10
    report(6, "duality 1e-10 incl. spectral projectors; POV complete; split 1e-12")


# -- 7. NESO consistency -----------------------------------------------------------------


def test_criterion_07_neso_consistency():
    basis, model, h, rel = oracles.contact_model()
    zeta0 = np.array([0.3, 0.0, -0.3, 0.4])

    rho_hist, _ = build_rho_t0(rel, zeta0, HistorySpec.empty(0.0), h)
    rho_gibbs, _ = gibbs_state(rel, zeta0)
    assert np.max(np.abs(rho_hist - rho_gibbs)) == 0.0

    rho0, _ = gibbs_state(rel, zeta0)

    @lru_cache(maxsize=None)
    def zeta_at(t):
        rho_t = evolve_state(rho0, h, 0.0, t)
        return tuple(macrostate_of(rho_t, rel, zeta_guess=zeta0).values)

    rep = evolve_and_rewrite(rel, zeta0, HistorySpec.empty(0.0), h, 0.4,
                             lambda t: np.array(zeta_at(round(float(t), 12))),
                             n_quad=200)
    assert rep.distance < 1e-6, rep.distance
    assert rep.coarse_distance < 1e-6

    # exactly commuting family: single site, two components
    _, _, h_d, rel_d = oracles.diagonal_model()
    traj = zeta_dynamics(rel_d, np.array([0.5, -0.2]), HistorySpec.empty(0.0),
                         h_d, 0.0, 1.0, step=0.1)
    assert np.max(np.abs(traj.zdots)) == 0.0
    report(7, "rewrite distance < 1e-6; zero-history exact; commuting flow exact")


# -- 8, 9, 10. scenario-backed dynamics criteria ----------------------------------------


def test_criterion_08_zeta_dynamics_fidelity(scenario_runs):
    result, _, _ = scenario_runs["relaxation"]
    checks = {c.name: c for c in result.invariants}
    c = checks["trajectory_vs_exact"]
    assert c.passed, f"5% fidelity violated: {c.value} > {c.tolerance}"
    c = checks["step_halving"]
    assert c.passed and c.value < 1e-3, c
    report(8, "trajectory within 5% of exact inversion; halving < 1e-3")


def test_criterion_09_zubarev_insensitivity(scenario_runs):
    result, _, _ = scenario_runs["zubarev_limit"]
    checks = {c.name: c for c in result.invariants}
    c = checks["truncated_insensitivity"]
    assert c.passed and c.value < 1e-3, c
    assert checks["terminal_term_active_without_cutoff"].passed
    report(9, "doubling the terminal weights moves the trajectory < 1e-3")


def test_criterion_10_entropy_monitor(scenario_runs):
    result, _, _ = scenario_runs["relaxation"]
    checks = {c.name: c for c in result.invariants}
    c = checks["entropy_min_step"]
    assert c.passed, f"entropy decreased by {c.value} (tolerance 1e-6)"
    c = checks["micro_entropy_drift"]
    assert c.passed and c.value < 1e-10, c
    report(10, "macro entropy non-decreasing; micro entropy constant at 1e-10")


# -- 11. event channel -----------------------------------------------------------------


def test_criterion_11_event_channel(scenario_runs):
    result, _, _ = scenario_runs["event_channel"]
    checks = {c.name: c for c in result.invariants}
    lam = scenario_defaults("event_channel")["params"]["lam"]
    identity = checks["mixture_identity"]
    resid = checks["shielding_residual"]
    assert identity.value <= 1e-12 + lam * resid.value
    assert checks["memory_witness_transit"].value > 0.1
    sweep, _, _ = scenario_runs["decoherence_sweep"]
    sweep_checks = {c.name: c for c in sweep.invariants}
    assert sweep_checks["clean_witness"].passed
    assert sweep_checks["disordered_witness"].passed
    report(11, "mixture identity within lam*residual; witness > 0.1 and "
               "suppressed by disorder")


# -- 12. CLI determinism ----------------------------------------------------------------


def test_criterion_12_cli_determinism(scenario_runs, tmp_path):
    for name, (result, blobs, _) in scenario_runs.items():
        assert result.passed, f"scenario {name} failed its invariant report"
        rerun_dir = tmp_path / name
        rerun = run_scenario({"scenario": name}, rerun_dir)
        assert rerun.passed
        for fname, blob in blobs.items():
            assert (rerun_dir / fname).read_bytes() == blob, \
                f"{name}/{fname} differs between reruns"
    # the CLI wrapper agrees with the API path
    cfg = tmp_path / "fp.json"
    cfg.write_text(json.dumps(scenario_defaults("free_packet")),
                   encoding="utf-8")
    outs = []
    for tag in ("x", "y"):
        out = tmp_path / f"cli_{tag}"
        r = subprocess.run([sys.executable, "-m", "fockbox", "run",
                            "--config", str(cfg), "--out", str(out)],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append(out)
    for f in sorted(outs[0].iterdir()):
        assert f.read_bytes() == (outs[1] / f.name).read_bytes()
    report(12, "byte-identical reruns; all bundled scenarios pass")
