"""Set-up probe: seconds from just before ``import fockbox`` to a workload's inputs.

Run as a script it times one set-up in its own fresh process and prints the
seconds:  python3 bench/probe.py WORKLOAD SEED
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no fockbox sources to benchmark."""


def setup(workload, seed):
    """(seconds, inputs): import fockbox from the checkout and build the inputs."""
    if not (SRC / "fockbox" / "__init__.py").is_file():
        raise MissingProgram(f"no fockbox sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import fockbox
    import workloads

    inputs = workloads.prepare(workload, seed)
    elapsed = time.perf_counter() - start
    if not Path(fockbox.__file__).resolve().is_relative_to(SRC):
        raise MissingProgram(f"fockbox was imported from {fockbox.__file__}, not {SRC}")
    return elapsed, inputs


def setup_in_child(workload, seed, timeout=120):
    """Seconds of one set-up in a fresh interpreter."""
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           workload, str(seed)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, check=True)
    return float(done.stdout.split()[-1])


if __name__ == "__main__":
    print(setup(sys.argv[1], int(sys.argv[2]))[0])
