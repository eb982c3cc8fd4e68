"""fockbox benchmark: one workload in a fresh process, with its outputs checked.

    python3 bench/run.py --workload {neqso_relax,quanton_small,ladder}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; fockbox is imported from its ``src``.
After set-up and an untimed warm-up, the run repeats whole rounds of the
workload's operations while another round fits in S seconds (at least two
rounds).  Only the program calls are timed; each output is checked after
its call.  Times are the median over the rounds.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

# One BLAS thread, set before numpy loads (set-up children inherit it): on
# the two-core reference machine, shared with other work, the ladder's
# run_s spread (quartile distance over median) was 17 % in nine runs with
# the default two threads, and 4.6 % and 11.6 % in two sets of ten with one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import probe  # noqa: E402  (after the thread settings)

SETUP_SAMPLES = 5
MIN_ROUNDS = 2  # a traced run needs twice as many: it alternates untraced and traced
MAX_REPORTED_PROBLEMS = 5
OUT = probe.ROOT / ".bench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("neqso_relax", "quanton_small", "ladder"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Tally:
    """Operations attempted and failed, and the problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []

    def fail(self, name, problems, wrong):
        self.failed += 1
        self.wrong += wrong
        for p in problems:
            if len(self.problems) < MAX_REPORTED_PROBLEMS:
                self.problems.append(f"{name}: {p}")


def _cpu():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run_round(ops, tally, tracer=None):
    """{op name: (wall s, CPU s)} of the program calls; checks each output."""
    times = {}
    for op in ops:
        tally.attempted += 1
        cpu0, t0 = _cpu(), time.perf_counter()
        try:
            out = tracer.op(op.name, op.call) if tracer else op.call()
        except Exception as exc:  # a failing operation is counted, not fatal
            tally.fail(op.name, [f"raised {exc!r}"], wrong=False)
            continue
        finally:
            times[op.name] = (time.perf_counter() - t0, _cpu() - cpu0)
        try:
            problems = op.check(out)
        except Exception as exc:
            problems = [f"check raised {exc!r}"]
        if problems:
            tally.fail(op.name, problems, wrong=True)
    return times


def median_round(rounds, field=0):
    """Median over the rounds of a round's summed program-call times."""
    return statistics.median(sum(t[field] for t in r.values()) for r in rounds)


def median_ops(rounds):
    """Each operation's median wall time over the rounds."""
    return {name: statistics.median(r[name][0] for r in rounds) for name in rounds[0]}


def main(argv=None):
    args = parse_args(argv)
    try:
        first_setup, inputs = probe.setup(args.workload, args.seed)
    except probe.MissingProgram as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    setups = [first_setup] + [probe.setup_in_child(args.workload, args.seed)
                              for _ in range(SETUP_SAMPLES - 1)]

    import checks
    import tracing
    import workloads

    out_dir = OUT / f"run-{os.getpid()}"
    try:
        # the two lower ladder rungs touch every layer the workloads share
        # at small size, so first-call costs fall outside the timed rounds
        for op in workloads.round_ops("ladder", workloads.prepare("ladder", args.seed)[:2],
                                      out_dir, checks):
            try:
                op.call()
            except Exception:  # counted when a timed round meets it
                break

        tally = Tally()
        tracer = tracing.Tracer() if args.trace else None
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            trace_this = bool(args.trace) and len(plain) > len(traced)
            round_start = time.perf_counter()
            ops = workloads.round_ops(args.workload, inputs, out_dir, checks)
            if trace_this:
                tracer.install(extra_modules=[workloads])
                try:
                    traced.append(run_round(ops, tally, tracer=tracer))
                finally:
                    tracer.uninstall()
            else:
                plain.append(run_round(ops, tally))
            last = time.perf_counter() - round_start
            done = len(plain) + len(traced) >= MIN_ROUNDS * (1 + args.trace)
            if done and time.perf_counter() - start + last > args.seconds:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if args.trace:
        metrics = tracer.layer_values(len(traced))
        stages = median_ops(plain)
        for name in workloads.ladder_stage_names():
            metrics[f"{name}_s"] = (stages.get(name, 0.0), "s")
        run_plain = median_round(plain)
        run_traced = median_round(traced)
        metrics["trace.run_s"] = (run_traced, "s")
        metrics["trace.overhead_s"] = (run_traced - run_plain, "s")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "traced_rounds": len(traced), "plain_rounds": len(plain)})
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (median_round(plain), "s"),
            "cpu_s": (median_round(plain, field=1), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }

    walls = [f"{sum(w for w, _ in r.values()):.3f}" for r in plain + traced]
    print(f"workload {args.workload}, seed {args.seed}: round wall times "
          f"{' '.join(walls)} s ({len(traced)} of them traced)")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
