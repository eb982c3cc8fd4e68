"""The benchmark's workloads: their inputs and the operations of one round.

An operation is one program call (a bundled scenario through
``run_scenario``, or one ladder stage at one rung) together with the checks
on its output.  Only the call is timed; the checks run after it.  A round
is every operation of a workload once, in a fixed order, so every run
attempts whole rounds of the same operations.

Importing this module imports fockbox; ``probe.setup`` times that import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fockbox import scenarios
from fockbox.config import build_model, default_model, deep_merge
from fockbox.fock import zero_operator
from fockbox.lattice import MASS, build_hamiltonian, current_ops, density_ops, divergence_ops
from fockbox.maxent import (
    expectations,
    gibbs_state,
    kubo_gram,
    match_expectations,
    relevant_set,
)
from fockbox.neqso import HistorySpec, zeta_dynamics
from fockbox.propagate import hermitian_eig, propagator

WORKLOADS = ("neqso_relax", "quanton_small", "ladder")

SCENARIOS = {
    "neqso_relax": ("relaxation", "zubarev_limit"),
    "quanton_small": ("free_packet", "embedding_check", "event_channel",
                      "decoherence_sweep"),
}

# (L, n_max) of the Bose dimension ladder: dims 28, 165 and 1001
RUNGS = ((6, 2), (8, 3), (10, 4))
CONTACT_V0 = 0.6
ZETA_MAX = 0.3
# match_expectations (31.6 s) and a zeta_dynamics step cost tens of seconds
# at dim 1001, so the top rung runs only the single-call d^3 stages
TOP_RUNG_SKIPS = ("maxent.match_expectations", "neqso.zeta_dynamics")
DYNAMICS_STEP = 0.05


@dataclass
class Op:
    """One program call (timed) and the checks of its output (untimed).

    ``check`` returns a list of problems; an empty list means the output
    is correct.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], list]


@dataclass(frozen=True)
class Rung:
    L: int
    n_max: int
    zeta: np.ndarray
    t: float
    direction: np.ndarray

    @property
    def dim(self):
        return math.comb(self.L + self.n_max, self.n_max)

    @property
    def top(self):
        return (self.L, self.n_max) == RUNGS[-1]

    @property
    def model_cfg(self):
        return deep_merge(default_model(), {
            "L": self.L, "n_max": self.n_max,
            "pair_potential": {"preset": "contact", "v0": CONTACT_V0},
        })


def prepare(workload, seed):
    """The workload's inputs; the ladder's come from the seed.

    The scenario workloads run the bundled default configurations, whose
    own seed stays 0: decoherence_sweep's disorder invariant fails for
    some disorder seeds (seed 6 of 0-11), so the workload seed is not fed
    to it.
    """
    if workload in SCENARIOS:
        return [scenarios.scenario_defaults(name) for name in SCENARIOS[workload]]
    if workload != "ladder":
        raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")
    rungs = []
    for L, n_max in RUNGS:
        rng = np.random.default_rng([seed, L])
        n = L + 1  # per-cell mass densities plus total energy
        direction = rng.normal(size=n)
        rungs.append(Rung(L=L, n_max=n_max,
                          zeta=rng.uniform(-ZETA_MAX, ZETA_MAX, size=n),
                          t=float(rng.uniform(0.5, 1.5)),
                          direction=direction / np.linalg.norm(direction)))
    return rungs


def round_ops(workload, inputs, out_dir, checks):
    """Fresh operations of one round of the workload."""
    if workload in SCENARIOS:
        return [_scenario_op(cfg, Path(out_dir) / cfg["scenario"], checks)
                for cfg in inputs]
    ops = []
    for rung in inputs:
        ops.extend(_ladder_ops(rung, checks))
    return ops


def _scenario_op(cfg, out, checks):
    check = checks.SCENARIO_CHECKS[cfg["scenario"]]
    return Op(name=f"scenarios.run_scenario.{cfg['scenario']}",
              call=lambda: scenarios.run_scenario(cfg, out),
              check=lambda result: check(out, cfg))


def _ladder_ops(rung, checks):
    """The ladder stages at one rung; later stages read earlier outputs."""
    s = {}
    tag = f"d{rung.dim}"

    def stage(name, call, check):
        return Op(name=f"{name}.{tag}", call=call, check=check)

    def model():
        s["model"], s["basis"] = build_model(rung.model_cfg)
        return s["basis"]

    def hamiltonian():
        s["h"] = build_hamiltonian(s["basis"], s["model"])
        return s["h"]

    def currents():
        s["currents"] = current_ops(s["basis"], s["model"], MASS)
        return s["currents"]

    def relevant():
        model, basis = s["model"], s["basis"]
        cells = density_ops(basis, model)
        s["rel"] = relevant_set(
            [f"rho[{x}]" for x in range(model.L)] + ["H"],
            list(cells) + [s["h"]],
            [model.dx] * model.L + [1.0],
            div_currents=list(divergence_ops(s["currents"], model))
            + [zero_operator(basis)],
        )
        return s["rel"]

    def gibbs():
        s["rho"], zf = gibbs_state(s["rel"], rung.zeta)
        return s["rho"], zf

    def expect():
        s["targets"] = expectations(s["rel"], s["rho"])
        return s["targets"]

    ops = [
        stage("config.build_model", model,
              lambda basis: checks.basis_problems(basis, rung.L, rung.n_max)),
        stage("lattice.build_hamiltonian", hamiltonian,
              lambda h: checks.hamiltonian_problems(h, s["model"])),
        stage("lattice.current_ops", currents,
              lambda cs: checks.current_problems(cs, s["h"], s["model"])),
        stage("maxent.relevant_set", relevant,
              lambda rel: checks.relevant_problems(rel, s["model"])),
        stage("propagate.hermitian_eig", lambda: hermitian_eig(s["h"]),
              lambda wv: checks.eig_problems(s["h"], *wv)),
        stage("propagate.propagator", lambda: propagator(s["h"], rung.t),
              lambda u: checks.propagator_problems(u, s["h"], rung.t)),
        stage("maxent.gibbs_state", gibbs,
              lambda out: checks.gibbs_problems(out[0], out[1].zeta0, s["rel"],
                                                rung.zeta)),
        stage("maxent.expectations", expect,
              lambda ex: checks.expectation_problems(ex, s["rel"], s["rho"],
                                                     s["model"])),
        stage("maxent.kubo_gram", lambda: kubo_gram(s["rel"], s["rho"]),
              lambda g: checks.kubo_gram_problems(
                  g, s["rel"], rung.zeta, not rung.top, rung.direction)),
        stage("maxent.match_expectations",
              lambda: match_expectations(s["rel"], s["targets"]),
              lambda zf: checks.match_problems(zf.values, s["rel"],
                                               s["targets"])),
        stage("neqso.zeta_dynamics",
              lambda: zeta_dynamics(s["rel"], rung.zeta, HistorySpec.empty(0.0),
                                    s["h"], 0.0, DYNAMICS_STEP,
                                    step=DYNAMICS_STEP),
              lambda traj: checks.dynamics_problems(traj, s["rel"], rung.zeta,
                                                    s["model"])),
    ]
    if rung.top:
        ops = [op for op in ops if op.name.rsplit(".", 1)[0] not in TOP_RUNG_SKIPS]
    return ops


def ladder_stage_names():
    """Every ladder op name, as the per-layer stage metrics use them."""
    names = []
    for L, n_max in RUNGS:
        rung = Rung(L=L, n_max=n_max, zeta=np.zeros(L + 1), t=1.0,
                    direction=np.zeros(L + 1))
        names.extend(op.name for op in _ladder_ops(rung, checks=None))
    return names
