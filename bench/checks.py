"""Checks of fockbox's outputs against computations made apart from it.

Every check returns a list of problems; an empty list means the output is
correct.  The references are built here with numpy and scipy only: a
first-quantised Dirichlet box for the one-particle scenarios, a small Bose
lattice gas for the relaxation trajectory, ``scipy.linalg.expm`` for
propagators and Gibbs states, central differences for the Kubo Gram matrix,
and the binomial formula for the basis.  Where no outside computation
exists, a property the method must have is checked instead (an invariant
report that agrees with its own numbers, a conserved quantity).
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

# measured values at the parent commit in parentheses
CONSERVED_TOL = 1e-4       # <H>, <N> along zeta.csv (7.4e-7)
ENTROPY_TOL = 1e-9         # entropy.csv against w[zeta(t)] from zeta.csv
ZUBAREV_MAX_DIFF = 1e-3    # max |zubarev.csv difference|
FIRST_QUANTISED_TOL = 1e-10  # scenario CSVs against the one-particle box (1.2e-15)
RANK_CORR_MIN = 0.9
WITNESS_CLEAN_MIN = 0.1
WITNESS_DISORDER_SHARE = 0.2
SPECTRUM_TOL = 1e-12       # one-particle block of H against 2c(1 - cos)
OPERATOR_TOL = 1e-12       # exact operator identities on sparse matrices
CONTINUITY_TOL = 1e-10
EXPM_TOL = 1e-10           # propagator and Gibbs state against expm
EXPECT_TOL = 1e-10
KUBO_STEP = 1e-5           # central-difference step in zeta_l w_l
KUBO_TOL = 1e-8            # relative to max |G| (4e-11 at every rung)
MATCH_TOL = 1e-9
DYNAMICS_TOL = 1e-6        # <H>, <N> over one zeta_dynamics step (2e-8)


# ---- scenario artifacts ------------------------------------------------------


def read_csv(path):
    """(header, rows) of an artifact; every field but labels as float."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rows.append([_number(v) for v in line.split(",")])
    return header, rows


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def _expect_header(header, want, name):
    return [] if header == want else [f"{name} header {header} != {want}"]


def summary_problems(out):
    """Every invariant in summary.json passes and agrees with its numbers."""
    doc = json.loads((Path(out) / "summary.json").read_text(encoding="utf-8"))
    problems = []
    invariants = doc.get("invariants", [])
    if not invariants:
        problems.append("summary.json lists no invariants")
    for inv in invariants:
        value, tol, cmp = inv["value"], inv["tolerance"], inv["comparison"]
        if cmp not in ("<=", ">="):
            problems.append(f"invariant {inv['name']}: unknown comparison {cmp!r}")
            continue
        ok = value <= tol if cmp == "<=" else value >= tol
        if not ok:
            problems.append(f"invariant {inv['name']}: {value!r} {cmp} {tol!r} does not hold")
        if bool(inv["passed"]) != ok:
            problems.append(f"invariant {inv['name']} reports passed={inv['passed']} "
                            f"for {value!r} {cmp} {tol!r}")
    if doc.get("passed") is not True:
        problems.append(f"summary.json reports passed={doc.get('passed')!r}")
    return problems


def _invariant(out, name):
    doc = json.loads((Path(out) / "summary.json").read_text(encoding="utf-8"))
    for inv in doc["invariants"]:
        if inv["name"] == name:
            return inv["value"]
    raise KeyError(f"summary.json has no invariant {name!r}")


def _hopping(m):
    return m["hbar"] ** 2 / (2.0 * m["mass"] * m["dx"] ** 2)


def box_h1(L, hopping, potential=None):
    """First-quantised Dirichlet box: 2c on the diagonal, -c between neighbours."""
    u = np.zeros(L) if potential is None else np.asarray(potential, float)
    return (np.diag(2.0 * hopping + u)
            - hopping * (np.eye(L, k=1) + np.eye(L, k=-1)))


def _evolve(h1, psi, t, hbar):
    return sla.expm(-1j * (t / hbar) * h1) @ psi


class BoseBox:
    """Bose lattice gas in the hard-walled box with a contact pair potential.

    H = sum h1[x, y] a_x^dag a_y + (v0 / 2) sum_x n_x (n_x - 1), built on
    every occupation vector with at most n_max particles, in an order of
    its own.
    """

    def __init__(self, L, n_max, hopping, v0):
        states = [s for s in itertools.product(range(n_max + 1), repeat=L)
                  if sum(s) <= n_max]
        index = {s: i for i, s in enumerate(states)}
        self.occ = np.array(states, dtype=float)
        h = np.diag(self.occ.sum(axis=1) * 2.0 * hopping
                    + 0.5 * v0 * (self.occ * (self.occ - 1.0)).sum(axis=1))
        for i, s in enumerate(states):
            for x in range(L - 1):
                for src, dst in ((x + 1, x), (x, x + 1)):
                    if s[src] == 0:
                        continue
                    t = list(s)
                    t[src] -= 1
                    t[dst] += 1
                    h[index[tuple(t)], i] -= (hopping * math.sqrt(s[src])
                                              * math.sqrt(t[dst]))
        self.h = h
        self.number = self.occ.sum(axis=1)


def _state_from(x):
    """exp(x) / Tr exp(x) by scipy's Pade expm."""
    e = sla.expm(x)
    return e / np.trace(e).real


def _entropy(rho):
    p = np.clip(sla.eigvalsh(0.5 * (rho + rho.conj().T)), 0.0, None)
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def relaxation_problems(out, cfg):
    """zeta.csv keeps <H> and <N>, starts at zeta0 and fits entropy.csv."""
    problems = summary_problems(out)
    m, p = cfg["model"], cfg["params"]
    if (m["potential"] != {"preset": "box"} or m["g"] != 1
            or m["pair_potential"].get("preset") != "contact"
            or m["statistics"] != "bose"):
        return problems + ["relaxation check covers the Bose box with a contact pair"]
    box = BoseBox(m["L"], m["n_max"], _hopping(m), m["pair_potential"]["v0"])
    ops = [np.diag(m["mass"] / m["dx"] * box.occ[:, x]) for x in range(m["L"])]
    ops.append(box.h)
    weights = [m["dx"]] * m["L"] + [1.0]
    labels = [f"rho[{x}]" for x in range(m["L"])] + ["H"]

    header, rows = read_csv(Path(out) / "zeta.csv")
    problems += _expect_header(header, ["t", "label", "value"], "zeta.csv")
    times = sorted({r[0] for r in rows})
    if [r[1] for r in rows] != labels * len(times):
        return problems + ["zeta.csv labels are not one block per sample time"]
    zetas = np.array([r[2] for r in rows]).reshape(len(times), len(labels))
    if not np.array_equal(zetas[0], np.asarray(p["zeta0"], float)):
        problems.append(f"zeta.csv first row {zetas[0].tolist()} != zeta0 {p['zeta0']}")

    entropy_rows = {r[0]: r[2] for r in read_csv(Path(out) / "entropy.csv")[1]
                    if r[1] == "entropy_macro"}
    e0 = n0 = None
    worst_e = worst_n = worst_s = 0.0
    for t, zeta in zip(times, zetas):
        rho = _state_from(-sum(z * w * a for z, w, a in zip(zeta, weights, ops)))
        energy = float(np.trace(box.h @ rho).real)
        number = float(box.number @ np.diag(rho).real)
        if e0 is None:
            e0, n0 = energy, number
        worst_e = max(worst_e, abs(energy - e0))
        worst_n = max(worst_n, abs(number - n0))
        if t in entropy_rows:
            worst_s = max(worst_s, abs(entropy_rows[t] - _entropy(rho)))
    if len(entropy_rows) != len(times):
        problems.append(f"entropy.csv has {len(entropy_rows)} samples, zeta.csv {len(times)}")
    if not worst_e <= CONSERVED_TOL:
        problems.append(f"<H> along zeta.csv drifts by {worst_e:.3e} > {CONSERVED_TOL:g}")
    if not worst_n <= CONSERVED_TOL:
        problems.append(f"<N> along zeta.csv drifts by {worst_n:.3e} > {CONSERVED_TOL:g}")
    if not worst_s <= ENTROPY_TOL:
        problems.append(f"entropy.csv differs from S(w[zeta]) by {worst_s:.3e}")
    return problems


def zubarev_problems(out, cfg):
    """difference = doubled - base, and the cutoff makes it small."""
    problems = summary_problems(out)
    header, rows = read_csv(Path(out) / "zubarev.csv")
    problems += _expect_header(
        header, ["t", "label", "zeta", "zeta_doubled_gamma", "difference"],
        "zubarev.csv")
    if not rows:
        return problems + ["zubarev.csv is empty"]
    worst_identity = max(abs(r[4] - (r[3] - r[2])) for r in rows)
    if not worst_identity <= 1e-15:
        problems.append(f"difference != doubled - base by {worst_identity:.3e}")
    biggest = max(abs(r[4]) for r in rows)
    if not biggest <= ZUBAREV_MAX_DIFF:
        problems.append(f"max |difference| {biggest:.3e} > {ZUBAREV_MAX_DIFF:g}")
    return problems


def free_packet_problems(out, cfg):
    """density.csv against the Gaussian packet evolved by expm in the box."""
    problems = summary_problems(out)
    m, p = cfg["model"], cfg["params"]
    L, dx = m["L"], m["dx"]
    xs = np.arange(L, dtype=float)
    psi0 = np.exp(-((xs - p["center"]) ** 2) / (4.0 * p["width"] ** 2)
                  + 1j * p["momentum"] * xs)
    psi0 /= math.sqrt(dx * float(np.sum(np.abs(psi0) ** 2)))
    h1 = box_h1(L, _hopping(m))
    header, rows = read_csv(Path(out) / "density.csv")
    problems += _expect_header(header, ["t", "site", "density"], "density.csv")
    ts = np.linspace(0.0, p["t_final"], p["samples"])
    if len(rows) != len(ts) * L:
        return problems + [f"density.csv has {len(rows)} rows, want {len(ts) * L}"]
    table = np.array([r[2] for r in rows]).reshape(len(ts), L)
    worst = worst_mass = 0.0
    for k, t in enumerate(ts):
        want = m["mass"] * np.abs(_evolve(h1, psi0, t, m["hbar"])) ** 2
        worst = max(worst, float(np.max(np.abs(table[k] - want))))
        worst_mass = max(worst_mass, abs(dx * table[k].sum() - m["mass"]))
    if not worst <= FIRST_QUANTISED_TOL:
        problems.append(f"density.csv differs from the box evolution by {worst:.3e}")
    if not worst_mass <= FIRST_QUANTISED_TOL:
        problems.append(f"sum dx density differs from m by {worst_mass:.3e}")
    return problems


def spearman(a, b):
    """Rank correlation with tied values given their average rank."""
    def ranks(v):
        v = np.asarray(v, float)
        order = np.argsort(v, kind="mergesort")
        r = np.empty(len(v))
        r[order] = np.arange(len(v), dtype=float)
        for value in np.unique(v):
            tied = v == value
            r[tied] = r[tied].mean()
        return r
    return float(np.corrcoef(ranks(a), ranks(b))[0, 1])


def embedding_check_problems(out, cfg):
    """The surface-term rank correlation, recomputed from sweep.csv."""
    problems = summary_problems(out)
    header, rows = read_csv(Path(out) / "sweep.csv")
    problems += _expect_header(header, ["center", "residual", "surface_norm"],
                               "sweep.csv")
    if len(rows) != cfg["params"]["sweep_points"]:
        return problems + [f"sweep.csv has {len(rows)} rows"]
    corr = spearman([r[1] for r in rows], [r[2] for r in rows])
    if not corr >= RANK_CORR_MIN:
        problems.append(f"rank correlation {corr:.6f} < {RANK_CORR_MIN}")
    reported = _invariant(out, "surface_rank_correlation")
    if not abs(corr - reported) <= 1e-12:
        problems.append(f"summary reports rank correlation {reported!r}, "
                        f"sweep.csv gives {corr!r}")
    return problems


def _witness(h1, p, lam, hbar, t):
    """(1 - lam) |<n_det> of the two phase-kernel emissions| at t.

    Each source kernel moves the quanton from the source site into the
    channel with amplitudes exp(+-i k y); the shared background part of the
    two mixtures cancels in the difference.
    """
    channel = [int(s) for s in p["witness_channel"]]
    ys = np.arange(len(channel))
    det = channel[-1]
    occupations = []
    for sign in (1.0, -1.0):
        phi = np.zeros(h1.shape[0], dtype=complex)
        phi[channel] = np.exp(sign * 1j * p["witness_momentum"] * ys)
        phi /= np.linalg.norm(phi)
        occupations.append(abs(_evolve(h1, phi, t, hbar)[det]) ** 2)
    return (1.0 - lam) * abs(occupations[0] - occupations[1])


def event_channel_problems(out, cfg):
    """shielded.csv and witness.csv against the one-particle box."""
    problems = summary_problems(out)
    m, p = cfg["model"], cfg["params"]
    lam, hbar, L = p["lam"], m["hbar"], m["L"]
    pot = m["potential"]
    if pot.get("preset") != "barrier" or m["n_max"] != 1 or m["g"] != 1:
        return problems + ["event check covers one quanton behind a barrier"]
    u = np.zeros(L)
    u[[int(s) for s in pot["sites"]]] = pot["height"]
    h1 = box_h1(L, _hopping(m), u)
    channel = [int(s) for s in p["channel"]]
    source = np.zeros(L)
    source[int(p["source_site"])] = 1.0
    target = np.zeros(L)
    target[channel[int(p["target_index"])]] = 1.0

    header, rows = read_csv(Path(out) / "shielded.csv")
    problems += _expect_header(header, ["t", "lhs", "rhs", "shielding_residual"],
                               "shielded.csv")
    if [r[0] for r in rows] != [float(t) for t in p["times"]]:
        return problems + ["shielded.csv times differ from the configured ones"]
    worst_identity = worst_box = 0.0
    for t, lhs, rhs, resid in rows:
        worst_identity = max(worst_identity, abs(lhs - rhs - lam * resid))
        leak = float(np.sum(np.abs(_evolve(h1, source, t, hbar)[channel]) ** 2))
        kept = float(np.sum(np.abs(_evolve(h1, target, t, hbar)[channel]) ** 2))
        want = (lam * leak + (1.0 - lam) * kept, (1.0 - lam) * kept, leak)
        worst_box = max(worst_box, *(abs(a - b) for a, b in zip((lhs, rhs, resid), want)))
    if not worst_identity <= 1e-12:
        problems.append(f"lhs - rhs != lam * residual by {worst_identity:.3e}")
    if not worst_box <= FIRST_QUANTISED_TOL:
        problems.append(f"shielded.csv differs from the box evolution by {worst_box:.3e}")

    header, rows = read_csv(Path(out) / "witness.csv")
    problems += _expect_header(header, ["t", "witness"], "witness.csv")
    h_free = box_h1(L, _hopping(m))
    worst = max((abs(w - _witness(h_free, p, lam, hbar, t)) for t, w in rows),
                default=math.inf)
    if not worst <= FIRST_QUANTISED_TOL:
        problems.append(f"witness.csv differs from the box evolution by {worst:.3e}")
    peak = max((w for _, w in rows), default=0.0)
    if not peak >= WITNESS_CLEAN_MIN:
        problems.append(f"witness peak {peak:.3e} < {WITNESS_CLEAN_MIN}")
    return problems


def decoherence_problems(out, cfg):
    """witness_sweep.csv against the box with the seeded channel disorder."""
    problems = summary_problems(out)
    m, p = cfg["model"], cfg["params"]
    L, hbar, lam = m["L"], m["hbar"], p["lam"]
    channel = [int(s) for s in p["witness_channel"]]
    noise = np.random.default_rng(cfg.get("seed", 0)).uniform(-1.0, 1.0,
                                                              size=len(channel))
    header, rows = read_csv(Path(out) / "witness_sweep.csv")
    problems += _expect_header(header, ["strength", "witness"], "witness_sweep.csv")
    if [r[0] for r in rows] != [float(s) for s in p["strengths"]]:
        return problems + ["witness_sweep.csv strengths differ from the configured ones"]
    worst = 0.0
    for strength, w in rows:
        u = np.zeros(L)
        u[channel] = strength * noise
        h1 = box_h1(L, _hopping(m), u)
        want = max(_witness(h1, p, lam, hbar, t) for t in p["witness_times"])
        worst = max(worst, abs(w - want))
    if not worst <= FIRST_QUANTISED_TOL:
        problems.append(f"witness_sweep.csv differs from the box evolution by {worst:.3e}")
    clean, disordered = rows[0][1], rows[-1][1]
    if not clean >= WITNESS_CLEAN_MIN:
        problems.append(f"clean witness {clean:.3e} < {WITNESS_CLEAN_MIN}")
    if not disordered <= WITNESS_DISORDER_SHARE * clean:
        problems.append(f"disordered witness {disordered:.3e} > "
                        f"{WITNESS_DISORDER_SHARE} x clean {clean:.3e}")
    return problems


SCENARIO_CHECKS = {
    "relaxation": relaxation_problems,
    "zubarev_limit": zubarev_problems,
    "free_packet": free_packet_problems,
    "embedding_check": embedding_check_problems,
    "event_channel": event_channel_problems,
    "decoherence_sweep": decoherence_problems,
}


# ---- ladder stages -----------------------------------------------------------


def _occupations(basis):
    return np.array(basis.states, dtype=float)


def _max_abs(m):
    if sp.issparse(m):
        return float(abs(m).max()) if m.nnz else 0.0
    return float(np.max(np.abs(m))) if m.size else 0.0


def basis_problems(basis, L, n_max):
    """Dimension and sector sizes from the binomial formula."""
    problems = []
    dim = math.comb(L + n_max, n_max)
    if basis.dim != dim:
        problems.append(f"dim {basis.dim} != C({L + n_max}, {n_max}) = {dim}")
    sizes = [b - a for _, a, b in basis.sectors]
    want = [math.comb(n + L - 1, L - 1) for n in range(n_max + 1)]
    if sizes != want:
        problems.append(f"sector sizes {sizes} != {want}")
    totals = [sum(s) for s in basis.states]
    for n, a, b in basis.sectors:
        if any(tot != n for tot in totals[a:b]):
            problems.append(f"sector {n} holds states of another particle number")
    if len(set(basis.states)) != len(basis.states):
        problems.append("basis repeats an occupation vector")
    return problems


def hamiltonian_problems(h, model):
    """Hermitian, number conserving, and the one-particle block is the box."""
    problems = []
    m = h.matrix
    dev = _max_abs(m - m.conj().T)
    if not dev <= OPERATOR_TOL:
        problems.append(f"H is not Hermitian: {dev:.3e}")
    totals = _occupations(h.basis).sum(axis=1)
    coo = m.tocoo()
    if np.any(totals[coo.row] != totals[coo.col]):
        problems.append("H couples different particle numbers")
    one = np.flatnonzero(totals == 1)
    got = np.sort(sla.eigvalsh(m[one][:, one].toarray()))
    c = model.hbar ** 2 / (2.0 * model.mass * model.dx ** 2)
    k = np.arange(1, model.L + 1)
    want = np.sort(2.0 * c * (1.0 - np.cos(k * np.pi / (model.L + 1))))
    worst = float(np.max(np.abs(got - want))) if len(got) == len(want) else math.inf
    if not worst <= SPECTRUM_TOL:
        problems.append(f"one-particle spectrum differs from 2c(1 - cos) by {worst:.3e}")
    return problems


def _densities(basis, model):
    occ = _occupations(basis)
    return [sp.diags(model.mass / model.dx * occ[:, x]).tocsr()
            for x in range(model.L)]


def current_problems(currents, h, model):
    """Closed walls and the lattice continuity identity, site by site."""
    problems = []
    bonds = [b.matrix for b in currents.bonds]
    if len(bonds) != model.L + 1:
        return [f"{len(bonds)} bonds for {model.L} sites"]
    wall = max(_max_abs(bonds[0]), _max_abs(bonds[-1]))
    if not wall <= CONTINUITY_TOL:
        problems.append(f"mass flux through the walls {wall:.3e}")
    hm = h.matrix
    worst = 0.0
    for x, rho in enumerate(_densities(h.basis, model)):
        rate = (1j / model.hbar) * (hm @ rho - rho @ hm)
        worst = max(worst, _max_abs(rate + (bonds[x + 1] - bonds[x]) / model.dx))
    if not worst <= CONTINUITY_TOL:
        problems.append(f"continuity identity off by {worst:.3e}")
    return problems


def relevant_problems(rel, model):
    """Cells are the mass densities (sum dx rho(x) = m N) and H is last."""
    problems = []
    basis = rel.operators[0].basis
    want = _densities(basis, model)
    worst = max(_max_abs(op.matrix - w) for op, w in zip(rel.operators, want))
    if not worst <= OPERATOR_TOL:
        problems.append(f"relevant cells differ from m n_x / dx by {worst:.3e}")
    total = sum(model.dx * op.matrix for op in rel.operators[:model.L])
    number = sp.diags(_occupations(basis).sum(axis=1))
    dev = _max_abs(total - model.mass * number)
    if not dev <= OPERATOR_TOL:
        problems.append(f"sum dx rho(x) differs from m N by {dev:.3e}")
    if len(rel) != model.L + 1:
        problems.append(f"relevant set has {len(rel)} members")
    return problems


def eig_problems(h, w, v):
    """H v = v w with orthonormal v."""
    problems = []
    scale = max(1.0, float(np.max(np.abs(w))))
    resid = float(np.max(np.abs(h.matrix @ v - v * w)))
    if not resid <= EXPM_TOL * scale:
        problems.append(f"eigen-residual {resid:.3e}")
    orth = float(np.max(np.abs(v.conj().T @ v - np.eye(len(w)))))
    if not orth <= EXPM_TOL:
        problems.append(f"eigenvectors not orthonormal: {orth:.3e}")
    return problems


def expm_by_sector(x, totals):
    """scipy's expm of a sparse matrix, one particle-number block at a time.

    A matrix that couples two particle numbers is exponentiated whole.
    """
    coo = x.tocoo()
    if np.any(totals[coo.row] != totals[coo.col]):
        return sla.expm(x.toarray())
    out = np.zeros(x.shape, dtype=complex)
    x = x.tocsr()
    for n in np.unique(totals):
        idx = np.flatnonzero(totals == n)
        out[np.ix_(idx, idx)] = sla.expm(x[idx][:, idx].toarray())
    return out


def propagator_problems(u, h, t, hbar=1.0):
    """U = expm(-i H t / hbar)."""
    totals = _occupations(h.basis).sum(axis=1)
    want = expm_by_sector(-1j * (t / hbar) * h.matrix, totals)
    dev = float(np.max(np.abs(u.matrix.toarray() - want)))
    return [] if dev <= EXPM_TOL else [f"propagator differs from expm by {dev:.3e}"]


def _exponential(rel, coeffs):
    """expm(-sum c_j A_j) from the sparse A_j."""
    x = sum(-c * op.matrix for c, op in zip(coeffs, rel.operators))
    return expm_by_sector(x, _occupations(rel.basis).sum(axis=1))


def _gibbs(rel, zeta):
    e = _exponential(rel, np.asarray(zeta) * rel.weights)
    return e / np.trace(e).real


def _means(rel, rho):
    """Tr(A_j rho) as elementwise sums over the sparse A_j."""
    return np.array([op.matrix.multiply(rho.T).sum().real for op in rel.operators])


def gibbs_problems(rho, log_z, rel, zeta):
    """rho = expm(X) / Tr expm(X) and zeta0 = log Tr expm(X)."""
    problems = []
    e = _exponential(rel, np.asarray(zeta) * rel.weights)
    z = float(np.trace(e).real)
    dev = float(np.max(np.abs(rho - e / z)))
    if not dev <= EXPM_TOL:
        problems.append(f"Gibbs state differs from expm(X)/Tr by {dev:.3e}")
    if not abs(log_z - math.log(z)) <= EXPM_TOL:
        problems.append(f"zeta0 {log_z!r} != log Tr expm(X) {math.log(z)!r}")
    return problems


def expectation_problems(ex, rel, rho, model):
    """Tr(A_j rho), and sum dx <rho_x> = m <N>."""
    problems = []
    dev = float(np.max(np.abs(np.asarray(ex) - _means(rel, rho))))
    if not dev <= EXPECT_TOL:
        problems.append(f"expectations differ from Tr(A rho) by {dev:.3e}")
    number = float(_occupations(rel.basis).sum(axis=1) @ np.diag(rho).real)
    dev = abs(model.dx * float(np.sum(ex[:model.L])) - model.mass * number)
    if not dev <= EXPECT_TOL:
        problems.append(f"sum dx <rho_x> differs from m <N> by {dev:.3e}")
    return problems


def kubo_gram_problems(g, rel, zeta, full, direction):
    """G = -d<A_j>/d(zeta_l w_l), by central differences.

    ``full`` differentiates along every parameter; otherwise only along
    ``direction``, which checks G @ direction.
    """
    problems = []
    g = np.asarray(g)
    if not np.array_equal(g, g.T):
        problems.append("Kubo Gram matrix is not symmetric")
    if np.min(np.linalg.eigvalsh(g)) < -KUBO_TOL * max(1.0, np.max(np.abs(g))):
        problems.append("Kubo Gram matrix is not positive semidefinite")
    zw = np.asarray(zeta) * rel.weights

    def slope(u):
        def means(y):
            e = _exponential(rel, y)
            return _means(rel, e / np.trace(e).real)
        return -(means(zw + KUBO_STEP * u) - means(zw - KUBO_STEP * u)) / (2 * KUBO_STEP)

    if full:
        eye = np.eye(len(zw))
        want = np.column_stack([slope(eye[l]) for l in range(len(zw))])
        got = g
    else:
        want, got = slope(direction), g @ direction
    dev = float(np.max(np.abs(got - want)))
    if not dev <= KUBO_TOL * max(1.0, float(np.max(np.abs(g)))):
        problems.append(f"Kubo Gram differs from central differences by {dev:.3e}")
    return problems


def match_problems(values, rel, targets):
    """The matched parameters reproduce the targets."""
    got = _means(rel, _gibbs(rel, values))
    dev = float(np.max(np.abs(got - targets)))
    return [] if dev <= MATCH_TOL else [f"matched state misses its targets by {dev:.3e}"]


def dynamics_problems(traj, rel, zeta, model):
    """One step keeps <H> and <N> (H is the last relevant member)."""
    zs = np.asarray(traj.zetas)
    if zs.shape != (2, len(rel)) or not np.array_equal(zs[0], zeta):
        return [f"trajectory shape {zs.shape} or start differs from zeta"]
    number = _occupations(rel.basis).sum(axis=1)
    h = rel.operators[-1].matrix
    values = []
    for z in zs:
        rho = _gibbs(rel, z)
        values.append((h.multiply(rho.T).sum().real, number @ np.diag(rho).real))
    (e0, n0), (e1, n1) = values
    problems = []
    if not abs(e1 - e0) <= DYNAMICS_TOL:
        problems.append(f"<H> moved by {abs(e1 - e0):.3e} in one step")
    if not abs(n1 - n0) <= DYNAMICS_TOL:
        problems.append(f"<N> moved by {abs(n1 - n0):.3e} in one step")
    return problems
