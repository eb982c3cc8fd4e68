"""Run code in a fresh interpreter and report which heavy modules it loaded.

The report is printed by an exit handler, so it also covers code that ends
in ``sys.exit``, such as the command line entry point.
"""

import json
import subprocess
import sys

WATCHED = ("numpy", "scipy", "scipy.sparse")

# python -m fockbox, with the arguments after the code in sys.argv[1:]
CLI = "import runpy; runpy.run_module('fockbox', run_name='__main__', alter_sys=True)"


def modules_loaded(code, *args, watched=WATCHED):
    """The subset of watched modules loaded once code has run in a fresh
    interpreter with args as its command line arguments; code must exit 0."""
    report = ("import atexit, json, sys\n"
              "atexit.register(lambda: print(json.dumps("
              f"[m for m in {list(watched)!r} if m in sys.modules])))\n")
    r = subprocess.run([sys.executable, "-c", report + code, *args],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return set(json.loads(r.stdout.splitlines()[-1]))
