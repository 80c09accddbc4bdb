"""The PVM check does not depend on the basis: _check_pvm accepts a set of
projectors if and only if it accepts their conjugates U P U^dagger by a
random unitary U. Drawn over block-sparse measures, whose exact zeros take
the check's shortcut past pairs that share no index while their dense
conjugates do not, intact or broken in one of four ways, each by far more
than PROJECTOR_TOL."""

import numpy as np
import pytest

from holesim import InvalidMeasure
from holesim.background_recover import _check_pvm
from oracles import haar_unitary

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY = settings(max_examples=80, derandomize=True, database=None, deadline=None)

DEFECTS = ("none", "not_hermitian", "not_idempotent", "not_orthogonal", "incomplete")
EPS = 1e-3  # size of a defect: far above PROJECTOR_TOL, far below order one


def block_sparse_measure(n, blocks, rng):
    """Projectors onto one or two random subspaces of each of ``blocks``
    random index blocks, which together resolve the identity: two or more
    projectors, as n >= 2."""
    order = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=blocks - 1, replace=False))
    projectors = []
    for block in np.split(order, cuts):
        basis = haar_unitary(len(block), rng)
        for columns in np.array_split(np.arange(len(block)), min(2, len(block))):
            p = np.zeros((n, n), dtype=complex)
            p[np.ix_(block, block)] = basis[:, columns] @ basis[:, columns].conj().T
            projectors.append(p)
    return projectors


def broken(projectors, defect):
    """The measure with one defect. The first two keep the sum, so that
    only the check of that defect can refuse them."""
    out = list(projectors)
    first, second = out[:2]
    if defect == "not_hermitian":
        skew = EPS * np.eye(len(first), k=1)
        out[:2] = first + skew, second - skew
    elif defect == "not_idempotent":
        out[:2] = (1 - EPS) * first + EPS * second, EPS * first + (1 - EPS) * second
    elif defect == "not_orthogonal":  # a further projector onto a direction of the first
        v = np.linalg.eigh(first)[1][:, -1]
        out.append(np.outer(v, v.conj()))
    elif defect == "incomplete":
        out[0] = np.zeros_like(first)
    return out


def accepts(projectors) -> bool:
    try:
        _check_pvm(tuple(projectors))
    except InvalidMeasure:
        return False
    return True


@PROPERTY
@given(n=st.integers(2, 8), data=st.data(), seed=st.integers(0, 2**32 - 1),
       defect=st.sampled_from(DEFECTS))
def test_pvm_check_is_invariant_under_unitary_conjugation(n, data, seed, defect):
    rng = np.random.default_rng(seed)
    blocks = data.draw(st.integers(1, min(4, n)))
    projectors = broken(block_sparse_measure(n, blocks, rng), defect)
    u = haar_unitary(n, rng)
    conjugated = [u @ p @ u.conj().T for p in projectors]
    assert accepts(projectors) == accepts(conjugated) == (defect == "none")
