"""MetricField's signature rule (det < 0 plus a Cholesky factorization of
the spatial block, with an eigenvalue count where that fails) against the
rule that counts numpy's eigenvalues at every point, on random symmetric
perturbations of Minkowski space."""

import numpy as np
import pytest

from holesim import MetricField
from oracles import metric_error_by_eigenvalues

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def outcome(spacings, components):
    try:
        MetricField(spacings, components)
    except Exception as exc:  # the type and message are the outcome compared
        return type(exc).__name__, str(exc)
    return None


@st.composite
def perturbed_minkowski(draw, d):
    """Minkowski on a 3^(d) grid plus a symmetric perturbation at one point,
    scaled to anything from roundoff to order ten, plus small symmetric
    noise everywhere."""
    upper = draw(st.lists(st.floats(-1.0, 1.0), min_size=d * (d + 1) // 2,
                          max_size=d * (d + 1) // 2))
    scale = draw(st.sampled_from([1e-12, 0.1, 1.0, 3.0, 10.0]))
    delta = np.zeros((d, d))
    delta[np.triu_indices(d)] = np.array(upper) * scale
    delta = delta + np.triu(delta, 1).T
    point = tuple(draw(st.lists(st.integers(0, 2), min_size=d, max_size=d)))
    noise_scale = draw(st.sampled_from([0.0, 1e-3, 0.05]))
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
        -noise_scale, noise_scale, (3,) * d + (d, d))
    g = np.diag([-1.0] + [1.0] * (d - 1)) + noise + np.swapaxes(noise, -1, -2)
    g[point] += delta
    return g


def check_same_outcome(g):
    spacings = (0.1,) * (g.ndim - 2)
    assert outcome(spacings, g) == metric_error_by_eigenvalues(spacings, g)


def diagonal_at_one_point(entries):
    d = len(entries)
    g = np.broadcast_to(np.diag([-1.0] + [1.0] * (d - 1)), (3,) * d + (d, d)).copy()
    g[(1,) * d] = np.diag(entries)
    return g


@PROPERTY
@given(perturbed_minkowski(2))
@example(diagonal_at_one_point([1.0, -1.0]))  # time and space swapped: one negative
@example(diagonal_at_one_point([-1.0, -1.0]))  # two negative: det > 0
@example(diagonal_at_one_point([1.0, 1.0]))  # none negative
def test_signature_rule_matches_eigenvalue_count_1plus1(g):
    check_same_outcome(g)


@PROPERTY
@given(perturbed_minkowski(4))
@example(diagonal_at_one_point([1.0, -1.0, 1.0, 1.0]))  # indefinite spatial block, accepted
@example(diagonal_at_one_point([-1.0, -1.0, 1.0, 1.0]))  # two negative: det > 0
@example(diagonal_at_one_point([-1.0, -1.0, -1.0, 1.0]))  # three negative, det < 0
@example(diagonal_at_one_point([1.0, -1.0, -1.0, -1.0]))  # three negative spatial
@example(diagonal_at_one_point([-1.0, 1.0, 1.0, 1e-300]))  # positive but tiny
def test_signature_rule_matches_eigenvalue_count_3plus1(g):
    check_same_outcome(g)
