"""The test suite's shared code stays in one place: no module-level function
is defined in two files under tests/, and every function of oracles.py has a
caller, there or in a test file."""

import re
from collections import Counter
from pathlib import Path


def test_each_helper_is_defined_once_and_every_oracle_is_called():
    texts = {p.name: p.read_text(encoding="utf-8")
             for p in sorted(Path(__file__).parent.glob("*.py"))}
    files = {}
    for name, text in texts.items():
        for f in re.findall(r"^(?:async )?def (\w+)", text, re.M):
            files.setdefault(f, []).append(name)
    assert {f: where for f, where in files.items() if len(where) > 1} == {}
    called = {f for text in texts.values() for f in re.findall(r"\boracles\.(\w+)", text)}
    # a name in oracles.py is called there when it appears beyond its def line
    calls = Counter(re.findall(r"\b(\w+)\(", texts["oracles.py"]))
    called |= {f for f, n in calls.items() if n > 1}
    assert {f for f, where in files.items() if where == ["oracles.py"]} - called == set()
