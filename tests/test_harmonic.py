"""Harmonic-condition residuals: exact zeros, symbolic-oracle agreement,
and second-order convergence on manufactured metrics."""

import re
import tracemalloc

import numpy as np
import pytest

from holesim import harmonic
from holesim import (
    DomainError,
    MetricField,
    SignatureError,
    convergence_order,
    densitized_inverse,
    field_divergence,
    harmonic_residual,
    minkowski_metric,
)
from oracles import metric_from_densitized, sinusoidal_metric_family


def test_minkowski_zero_exact_1plus1():
    metric = minkowski_metric((9, 9), (0.1, 0.1))
    residual = harmonic_residual(metric)
    assert residual.shape == (7, 7, 2)
    assert np.all(residual == 0.0)


def test_minkowski_zero_exact_3plus1():
    metric = minkowski_metric((4, 4, 4, 4), (0.2, 0.2, 0.2, 0.2))
    assert np.all(harmonic_residual(metric) == 0.0)


def test_constant_diagonal_zero_exact():
    g = np.zeros((5, 5, 5, 5, 4, 4))
    for mu, value in enumerate((-0.7, 1.3, 1.3, 1.3)):
        g[..., mu, mu] = value
    metric = MetricField((0.1, 0.1, 0.1, 0.1), g)
    assert np.all(harmonic_residual(metric) == 0.0)


def test_planted_sinusoidal_matches_symbolic_oracle():
    family = sinusoidal_metric_family()
    h = 0.05
    metric, exact = family(h)
    numeric = harmonic_residual(metric)
    assert numeric.shape == exact.shape
    # central differences: truncation O(h^2) with an O(1) derivative scale
    err = np.max(np.abs(numeric - exact))
    assert 0.0 < err < 10.0 * h**2
    # and the residual itself is far from zero (the metric is not harmonic)
    assert np.max(np.abs(exact)) > 100.0 * err


def test_convergence_order_sinusoidal():
    report = convergence_order(sinusoidal_metric_family(), 0.05)
    assert report.order is not None
    assert 1.8 <= report.order <= 2.2
    assert report.error_fine < report.error_coarse


def test_convergence_order_per_index():
    family = sinusoidal_metric_family()
    errors = {}
    for h in (0.05, 0.025):
        metric, exact = family(h)
        numeric = harmonic_residual(metric)
        errors[h] = [np.max(np.abs(numeric[..., nu] - exact[..., nu])) for nu in range(2)]
    for nu in range(2):
        order = np.log2(errors[0.05][nu] / errors[0.025][nu])
        assert 1.8 <= order <= 2.2


def linear_harmonic_family(h):
    """Divergence-free densitized field, linear in one coordinate: the
    discrete residual sits at the roundoff floor."""
    n = int(round(0.8 / h)) + 1
    x2 = h * np.arange(n)
    field = np.zeros((3, 3, n, 3, 4, 4))
    for mu, value in enumerate((-1.0, 1.0, 1.0, 1.0)):
        field[..., mu, mu] = value
    field[..., 0, 1] = field[..., 1, 0] = 0.02 * x2[None, None, :, None]
    metric = MetricField((h,) * 4, metric_from_densitized(field))
    exact = np.zeros((1, 1, n - 2, 1, 4))
    return metric, exact


def quadratic_family(h):
    """Quadratic densitized field: central first differences are exact, so
    the numeric residual equals the analytic linear divergence exactly."""
    n = int(round(0.8 / h)) + 1
    x1 = h * np.arange(n)
    a = 0.05
    field = np.zeros((3, n, 3, 3, 4, 4))
    for mu, value in enumerate((-1.0, 1.0, 1.0, 1.0)):
        field[..., mu, mu] = value
    field[..., 1, 1] = 1.0 + a * x1[None, :, None, None] ** 2
    metric = MetricField((h,) * 4, metric_from_densitized(field))
    exact = np.zeros((1, n - 2, 1, 1, 4))
    exact[..., 1] = 2.0 * a * x1[None, 1:-1, None, None]
    return metric, exact


def test_exactly_harmonic_field_at_floor():
    metric, exact = linear_harmonic_family(0.1)
    residual = harmonic_residual(metric)
    assert np.max(np.abs(residual - exact)) < 1e-12
    report = convergence_order(linear_harmonic_family, 0.1)
    assert report.order is None
    assert "floor" in report.note


def test_quadratic_field_exact_residual_order_skipped():
    metric, exact = quadratic_family(0.1)
    residual = harmonic_residual(metric)
    assert np.max(np.abs(exact)) > 0.0
    assert np.max(np.abs(residual - exact)) < 1e-12
    report = convergence_order(quadratic_family, 0.1)
    assert report.order is None
    assert "floor" in report.note


def test_densitize_inverts_construction():
    metric, _ = quadratic_family(0.1)
    x1 = 0.1 * np.arange(9)
    recovered = densitized_inverse(metric)
    assert np.max(np.abs(recovered[..., 1, 1]
                         - (1.0 + 0.05 * x1[None, :, None, None] ** 2))) < 1e-12


def test_divergence_linearity(rng):
    shape = (6, 6, 2, 2)
    a = rng.standard_normal(shape)
    b = rng.standard_normal(shape)
    spacings = (0.1, 0.2)
    combined = field_divergence(a + b, spacings)
    separate = field_divergence(a, spacings) + field_divergence(b, spacings)
    assert np.max(np.abs(combined - separate)) <= 1e-12


def test_signature_errors():
    euclidean = np.broadcast_to(np.eye(2), (5, 5, 2, 2)).copy()
    with pytest.raises(SignatureError):
        MetricField((0.1, 0.1), euclidean)
    three_negative = np.broadcast_to(np.diag([-1.0, -1.0, -1.0, 1.0]),
                                     (3, 3, 3, 3, 4, 4)).copy()
    with pytest.raises(SignatureError):
        MetricField((0.1,) * 4, three_negative)


def test_symmetry_required_exactly():
    g = np.broadcast_to(np.diag([-1.0, 1.0]), (5, 5, 2, 2)).copy()
    g[2, 2, 0, 1] = 1e-15  # asymmetric by one ulp-scale entry
    with pytest.raises(DomainError):
        MetricField((0.1, 0.1), g)


def test_dimension_restriction():
    g = np.broadcast_to(np.diag([-1.0, 1.0, 1.0]), (5, 5, 5, 3, 3)).copy()
    with pytest.raises(DomainError):
        MetricField((0.1, 0.1, 0.1), g)


@pytest.mark.parametrize("block", [1, 10, 4096])
def test_inverse_check_in_blocks_matches_the_whole_product(monkeypatch, block):
    """The inverse check reads max |g g^-1 - I| bit-equal to one product of
    the whole stack, whatever the block size against the 63 points, so an
    ill-conditioned point in the last, partial block fails the gate with
    the message the whole product gives."""
    monkeypatch.setattr(harmonic, "INVERSE_CHECK_POINTS", block)

    def residual(g):
        whole = np.max(np.abs(g @ np.linalg.inv(g) - np.eye(2)))
        flat = g.reshape(-1, 2, 2)
        assert harmonic._inverse_residual(flat, np.linalg.inv(flat)) == whole
        return whole

    rng = np.random.default_rng(7)
    noise = 0.02 * rng.uniform(-1.0, 1.0, (9, 7, 2, 2))
    g = np.diag([-1.0, 1.0]) + noise + np.swapaxes(noise, -1, -2)
    assert residual(g) <= harmonic.INVERSE_RESIDUAL_TOL
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    bad = q @ np.diag([-1e-4, 1e4]) @ q.T
    g[8, 6] = bad + bad.T  # exactly symmetric, Lorentzian, condition number 1e8
    whole = residual(g)
    assert whole > harmonic.INVERSE_RESIDUAL_TOL
    with pytest.raises(DomainError, match=re.escape(f"metric inverse residual {whole:.3e} exceeds")):
        MetricField((0.1, 0.1), g)


def test_metric_field_holds_no_full_size_check_temporary():
    """MetricField keeps a checked copy of the components and its inverse;
    the inverse check adds no full-size temporary, so a 16^4 metric peaks
    under 2.2 tensors of traced memory."""
    rng = np.random.default_rng(16)
    noise = 0.02 * rng.uniform(-1.0, 1.0, (16,) * 4 + (4, 4))
    components = np.diag([-1.0, 1.0, 1.0, 1.0]) + noise + np.swapaxes(noise, -1, -2)
    tracemalloc.start()
    try:
        MetricField((0.25,) * 4, components)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * components.nbytes


def random_metric(d, points, seed):
    """Minkowski plus symmetric noise on a points^d grid, uneven spacings."""
    rng = np.random.default_rng(seed)
    noise = 0.02 * rng.uniform(-1.0, 1.0, (points,) * d + (d, d))
    components = np.diag([-1.0] + [1.0] * (d - 1)) + noise + np.swapaxes(noise, -1, -2)
    return MetricField(tuple(rng.uniform(0.1, 0.5, d)), components)


@pytest.mark.parametrize("d, points", [(2, 33), (4, 9)], ids=["1+1", "3+1"])
def test_residual_is_the_divergence_of_the_densitized_inverse(d, points):
    """harmonic_residual, which forms one densitized component at a time,
    is bit-equal to field_divergence of the whole densitized inverse."""
    metric = random_metric(d, points, seed=d)
    expected = field_divergence(densitized_inverse(metric), metric.spacings)
    assert np.array_equal(harmonic_residual(metric), expected)


def test_residual_holds_no_densitized_tensor():
    """The residual of a 16^4 metric traces under half a tensor: the
    residual, the weights, one densitized component and its differences."""
    metric = random_metric(4, 16, seed=16)
    tracemalloc.start()
    try:
        harmonic_residual(metric)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * metric.components.nbytes


def test_metric_field_keeps_only_read_only_owned_components():
    """A writeable array, or a view, is copied, so its caller's later writes
    do not reach the field; a read-only array that owns its data is kept."""
    g = np.broadcast_to(np.diag([-1.0, 1.0]), (5, 5, 2, 2)).copy()
    metric = MetricField((0.1, 0.1), g)
    assert metric.components is not g and g.flags.writeable
    g[2, 2] = np.diag([-2.0, 2.0])
    assert np.all(metric.components[2, 2] == np.diag([-1.0, 1.0]))
    view = g[:]
    view.flags.writeable = False
    assert MetricField((0.1, 0.1), view).components is not view
    g.flags.writeable = False
    assert MetricField((0.1, 0.1), g).components is g


@pytest.mark.parametrize("block", [1, 10, 4096])
def test_signature_check_in_blocks(monkeypatch, block):
    """The one-negative-eigenvalue test runs in blocks of
    INVERSE_CHECK_POINTS points, whatever the block size against the 81
    points: a point whose spatial block does not factor but has one
    negative eigenvalue passes, and one with three fails, each at the last
    point, in the last, partial block."""
    monkeypatch.setattr(harmonic, "INVERSE_CHECK_POINTS", block)
    g = np.broadcast_to(np.diag([-1.0, 1.0, 1.0, 1.0]), (3,) * 4 + (4, 4)).copy()
    g[2, 2, 2, 2] = np.diag([1.0, -1.0, 1.0, 1.0])
    MetricField((0.1,) * 4, g)
    g[2, 2, 2, 2] = np.diag([-1.0, -1.0, -1.0, 1.0])
    with pytest.raises(SignatureError, match="exactly one negative eigenvalue"):
        MetricField((0.1,) * 4, g)
