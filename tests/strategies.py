"""Hypothesis settings and random box models shared by the property tests.

models() draws Bose and Fermi boxes, free (with the degenerate many-body
levels of a symmetric box), interacting, or a multiple of the total number
operator (fully degenerate in each sector), with real Hamiltonians;
hermitian_models() makes half of them complex Hermitian.
"""

import numpy as np
from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st

from fockbox.fock import BOSE, FERMI, build_basis, number_operator
from fockbox.lattice import (
    MASS,
    LatticeModel,
    build_hamiltonian,
    current_ops,
    momentum_density_ops,
    pair_preset,
    potential_preset,
)

# a fixed seed keeps the suite reproducible; model construction is the slow part
SETTINGS = settings(max_examples=30, deadline=None, database=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


# ---- random models -------------------------------------------------------------


@st.composite
def models(draw):
    statistics = draw(st.sampled_from([BOSE, FERMI]))
    L = draw(st.integers(1, 3))
    g = draw(st.integers(1, 2)) if statistics == FERMI else 1
    n_max = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["free", "interacting", "number"]))
    basis = build_basis(statistics, L, g=g, n_max=n_max)
    if kind == "interacting":
        values = draw(st.lists(st.floats(-1.0, 1.0), min_size=L, max_size=L))
        v, rv = pair_preset("contact", v0=draw(st.floats(0.0, 1.0)))
        model = LatticeModel(L=L, g=g, statistics=statistics,
                             U=potential_preset("table", L, values=values),
                             V=v, range_V=rv)
    else:
        model = LatticeModel(L=L, g=g, statistics=statistics)
    h = build_hamiltonian(basis, model)
    if kind == "number":
        h = draw(st.sampled_from([0.5, 1.0, 2.0])) * number_operator(basis)
    return basis, model, h


@st.composite
def hermitian_models(draw):
    """models(), half of them made complex Hermitian by a momentum-density or
    bond-current term, which keeps the particle number."""
    basis, model, h = draw(models())
    if draw(st.booleans()):
        assume(model.L > 1)
        site = draw(st.integers(0, model.L - 2))
        term = draw(st.sampled_from([momentum_density_ops(basis, model)[site],
                                     current_ops(basis, model, MASS).bonds[site + 1]]))
        h = h + draw(st.sampled_from([0.4, -0.9])) * term
        assert np.any(h.to_dense().imag)
    return basis, model, h
