import json

import numpy as np
import pytest
from fresh import modules_loaded
from scipy.stats import spearmanr

from fockbox.scenarios import run_scenario, spearman


@pytest.mark.parametrize("seed", range(6))
def test_spearman_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=25)
    b = a + rng.normal(size=25)
    assert abs(spearman(a, b) - spearmanr(a, b)[0]) < 1e-12
    # rounding makes ties in both samples
    tied_a, tied_b = np.round(a), np.round(2.0 * b) / 2.0
    assert abs(spearman(tied_a, tied_b) - spearmanr(tied_a, tied_b)[0]) < 1e-12


def test_spearman_monotone_and_reversed():
    x = np.array([0.1, 0.5, 0.7, 2.0, 3.5])
    assert spearman(x, np.exp(x)) == pytest.approx(1.0, abs=1e-15)
    assert spearman(x, -x**3) == pytest.approx(-1.0, abs=1e-15)


def test_import_leaves_scipy_stats_unloaded():
    assert modules_loaded("import fockbox.scenarios", watched=("scipy.stats",)) == set()


def test_provenance_records_no_thread_count(tmp_path):
    run_scenario({"scenario": "free_packet"}, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "threads" not in summary["provenance"]
