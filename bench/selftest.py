"""Self-test of the output checks: each accepts fockbox's real output and
rejects a perturbed copy of it.  Also confirms that BENCHMARK.json lists the
per-layer metrics the traced run reports.

    python3 bench/selftest.py        (about 25 s; exit code 1 on a failure)
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

import probe

OUT = probe.ROOT / ".bench_out" / f"selftest-{os.getpid()}"


class Report:
    def __init__(self):
        self.failures = []

    def expect(self, name, real_problems, perturbed_problems):
        if real_problems:
            self.failures.append(f"{name}: real output rejected: {real_problems}")
        if not perturbed_problems:
            self.failures.append(f"{name}: perturbed output accepted")
        ok = not real_problems and perturbed_problems
        print(f"{'ok  ' if ok else 'FAIL'} {name}: "
              f"{perturbed_problems[0] if perturbed_problems else 'no problem found'}")


def edit_csv(src, dst, name, row, column, change):
    """Copy the scenario directory src to dst with one CSV field changed."""
    shutil.copytree(src, dst)
    path = dst / name
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[row + 1].split(",")
    fields[column] = "%.16e" % change(float(fields[column]))
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return dst


def edit_summary(src, dst, invariant, value):
    shutil.copytree(src, dst)
    path = dst / "summary.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    for inv in doc["invariants"]:
        if inv["name"] == invariant:
            inv["value"] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    return dst


def scenario_cases(report, checks, scenarios):
    """(scenario, file, row, column, change) perturbations of real artifacts."""
    cases = {
        "relaxation": [
            ("zeta.csv", 0, 2, lambda v: v + 1e-9),           # first row != zeta0
            ("zeta.csv", -1, 2, lambda v: v + 1e-3),          # <H> drifts
            ("entropy.csv", 4, 2, lambda v: v + 1e-7),
        ],
        "zubarev_limit": [
            ("zubarev.csv", 3, 4, lambda v: v + 1e-12),       # not doubled - base
            ("zubarev.csv", -1, 3, lambda v: v + 2e-3),       # difference too big
        ],
        "free_packet": [("density.csv", 17, 2, lambda v: v + 1e-8)],
        "embedding_check": [("sweep.csv", 0, 2, lambda v: 10.0 * v + 1.0)],
        "event_channel": [
            ("shielded.csv", 1, 1, lambda v: v + 1e-8),       # identity broken
            ("shielded.csv", 2, 3, lambda v: v + 1e-8),       # not the box value
            ("witness.csv", 1, 1, lambda v: v + 1e-8),
        ],
        "decoherence_sweep": [("witness_sweep.csv", -1, 1, lambda v: v + 0.1)],
    }
    summaries = {"relaxation": ("step_halving", 1.0),
                 "zubarev_limit": ("truncated_insensitivity", 1.0),
                 "free_packet": ("trace_drift", 1e-3),
                 "embedding_check": ("interior_residual", 1.0),
                 "event_channel": ("memory_witness_transit", 0.0),
                 "decoherence_sweep": ("clean_witness", 0.0)}
    for name, edits in cases.items():
        cfg = scenarios.scenario_defaults(name)
        real = OUT / name
        scenarios.run_scenario(cfg, real)
        check = checks.SCENARIO_CHECKS[name]
        real_problems = check(real, cfg)
        for k, (file, row, column, change) in enumerate(edits):
            rows = len((real / file).read_text().splitlines()) - 1
            bad = edit_csv(real, OUT / f"{name}-{k}", file, row % rows, column, change)
            report.expect(f"{name} {file} row {row % rows}", real_problems, check(bad, cfg))
        bad = edit_summary(real, OUT / f"{name}-summary", *summaries[name])
        report.expect(f"{name} summary.json", real_problems, check(bad, cfg))


def ladder_cases(report, checks, workloads):
    """Each ladder stage check at dim 28, on the real output and a perturbed one."""
    from fockbox.maxent import relevant_set

    rung = workloads.prepare("ladder", 0)[0]
    outputs = {}
    for op in workloads.round_ops("ladder", [rung], OUT, checks):
        outputs[op.name.rsplit(".", 1)[0]] = (op, op.call())

    def case(stage, perturb):
        op, out = outputs[stage]
        report.expect(stage, op.check(out), op.check(perturb(out)))

    case("config.build_model", lambda b: SimpleNamespace(
        dim=b.dim - 1, states=b.states[:-1],
        sectors=b.sectors[:-1] + ((b.sectors[-1][0], b.sectors[-1][1], b.dim - 1),)))
    one = [i for i, s in enumerate(outputs["config.build_model"][1].states) if sum(s) == 1]
    bump = sp.csr_matrix(([1e-9], ([one[0]], [one[0]])), shape=(28, 28))
    case("lattice.build_hamiltonian",
         lambda h: SimpleNamespace(matrix=h.matrix + bump, basis=h.basis))
    case("lattice.current_ops", lambda cs: SimpleNamespace(
        bonds=(cs.bonds[0], SimpleNamespace(matrix=cs.bonds[1].matrix + bump))
        + cs.bonds[2:]))
    case("maxent.relevant_set", lambda rel: relevant_set(
        ("a", "b") + rel.labels[2:],
        (rel.operators[1], rel.operators[0]) + rel.operators[2:],
        rel.weights))
    case("propagate.hermitian_eig", lambda wv: (wv[0] + 1e-8, wv[1]))
    case("propagate.propagator",
         lambda u: SimpleNamespace(matrix=u.matrix * np.exp(1e-9j)))
    case("maxent.gibbs_state", lambda out: (out[0] * (1.0 + 1e-8), out[1]))
    case("maxent.gibbs_state", lambda out: (out[0], dataclasses.replace(
        out[1], zeta0=out[1].zeta0 + 1e-9)))
    case("maxent.expectations", lambda ex: ex + 1e-8 * np.eye(len(ex))[0])
    case("maxent.kubo_gram", lambda g: g + 1e-6 * np.max(np.abs(g)) * (
        np.eye(len(g), k=1) + np.eye(len(g), k=-1)))
    case("maxent.match_expectations", lambda zf: dataclasses.replace(
        zf, values=zf.values + 1e-6))
    case("neqso.zeta_dynamics", lambda traj: SimpleNamespace(
        zetas=traj.zetas + np.outer([0.0, 1e-4], np.eye(len(traj.zetas[0]))[-1])))

    # the top rung checks the Gram matrix along one direction only
    g = outputs["maxent.kubo_gram"][1]
    rel = outputs["maxent.relevant_set"][1]
    directional = [checks.kubo_gram_problems(x, rel, rung.zeta, False, rung.direction)
                   for x in (g, g + 1e-6 * np.max(np.abs(g)) * np.eye(len(g)))]
    report.expect("maxent.kubo_gram along one direction", *directional)


def benchmark_json_problems(workloads, tracing):
    doc = json.loads((probe.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in doc["per_layer"]}
    reported = dict(tracing.layer_metrics())
    reported.update({f"{n}_s": "s" for n in workloads.ladder_stage_names()})
    reported.update({"trace.run_s": "s", "trace.overhead_s": "s"})
    if listed != reported:
        return [f"BENCHMARK.json per_layer differs from the traced run: "
                f"only listed {sorted(set(listed) - set(reported))}, "
                f"only reported {sorted(set(reported) - set(listed))}"]
    return []


def main():
    probe.setup("ladder", 0)
    import checks
    import tracing
    import workloads
    from fockbox import scenarios

    report = Report()
    try:
        ladder_cases(report, checks, workloads)
        scenario_cases(report, checks, scenarios)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    report.failures += benchmark_json_problems(workloads, tracing)
    for failure in report.failures:
        print(f"FAILED {failure}")
    print("self-test", "failed" if report.failures else "passed")
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
