"""Independent truth sources for the test suite.

Everything here is deliberately decoupled from the production code paths
it checks: closed forms evaluated by hand, dense linear algebra instead of
split stepping, direct pointwise evaluation instead of interpolation, and
symbolic differentiation for the manufactured metrics.
"""

import importlib.util
import sys

import numpy as np


def gaussian_overlap(separation, width):
    """Overlap of two equal-width, zero-momentum, normalized 1D Gaussians
    centered ``separation`` apart: exp(-d^2 / (8 w^2)).

    From completing the square in Int g_a(x) g_b(x) dx with
    g_c(x) = (2 pi w^2)^(-1/4) exp(-(x-c)^2 / (4 w^2)).
    """
    return float(np.exp(-(separation**2) / (8.0 * width**2)))


def free_gaussian_width(width0, mass, t):
    """Dispersion law of a free Gaussian packet: w(t) = w0 sqrt(1 + (t / (2 m w0^2))^2)."""
    return float(width0 * np.sqrt(1.0 + (t / (2.0 * mass * width0**2)) ** 2))


def measured_width(psi):
    """Second-moment width of a 1D wavefunction about its mean position."""
    x = psi.grid.axes()[0]
    rho = psi.probability_density()
    dv = psi.grid.cell_volume
    mean = np.sum(x * rho) * dv
    return float(np.sqrt(np.sum((x - mean) ** 2 * rho) * dv))


def dense_hamiltonian(grid, potential_values, mass):
    """Dense matrix of the discretized Hamiltonian (spectral kinetic plus
    diagonal potential), built by applying the operator to unit vectors."""
    n = grid.size
    ks = grid.wavenumbers()
    k2 = np.zeros(grid.shape)
    for axis in range(grid.dim):
        shape = [1] * grid.dim
        shape[axis] = grid.shape[axis]
        k2 = k2 + (ks[axis] ** 2).reshape(shape)
    h = np.zeros((n, n), dtype=complex)
    flat_v = np.asarray(potential_values).ravel()
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0
        kinetic = np.fft.ifftn(0.5 * k2 / mass * np.fft.fftn(e.reshape(grid.shape)))
        h[:, j] = kinetic.ravel() + flat_v * e
    return 0.5 * (h + h.conj().T)


def dense_propagator(grid, potential_values, mass, t):
    """exp(-i H t) through exact eigendecomposition of the dense Hamiltonian."""
    h = dense_hamiltonian(grid, potential_values, mass)
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def analytic_gaussian(points, center, width):
    """Normalized zero-momentum 1D Gaussian amplitudes at arbitrary points."""
    points = np.asarray(points, dtype=float).reshape(-1)
    normalization = (2.0 * np.pi * width**2) ** -0.25
    return normalization * np.exp(-((points - center) ** 2) / (4.0 * width**2))


def pushforward_gaussian_direct(points, diffeo, t, center, width):
    """Pushforward of an analytic Gaussian evaluated directly (no grids,
    no interpolation): psi(phi^-1(y)) |det J(phi^-1(y))|^(-1/2)."""
    points = np.asarray(points, dtype=float).reshape(-1, 1)
    preimages = diffeo.inverse(points, t)
    weights = np.abs(diffeo.jacobian_det(preimages, t)) ** -0.5
    return analytic_gaussian(preimages[:, 0], center, width) * weights


def trigonometric_interpolant_direct(grid, values, points):
    """The band-limited interpolant of a gridded field at each point, one
    point at a time: the full sum over every FFT mode, with no per-axis
    tables and no contraction order."""
    coeffs = np.fft.fftn(np.asarray(values)) / np.size(values)
    ks = np.meshgrid(*grid.wavenumbers(), indexing="ij")
    origin = [-0.5 * L for L in grid.extent]
    out = np.empty(len(points), dtype=complex)
    for i, point in enumerate(np.asarray(points, dtype=float)):
        phase = sum(k * (x - o) for k, x, o in zip(ks, point, origin))
        out[i] = np.sum(coeffs * np.exp(1j * phase))
    return out


def random_wavefunction(grid, rng, label=""):
    """Normalized wavefunction with smooth random amplitudes (band-limited
    noise so interpolation-based code paths stay meaningful)."""
    from holesim import WaveFunction, normalize

    coeffs = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    ks = grid.wavenumbers()
    damp = np.ones(grid.shape)
    for axis in range(grid.dim):
        shape = [1] * grid.dim
        shape[axis] = grid.shape[axis]
        kmax = np.max(np.abs(ks[axis]))
        damp = damp * np.exp(-((4.0 * np.abs(ks[axis]) / kmax) ** 2)).reshape(shape)
    amps = np.fft.ifftn(coeffs * damp)
    return normalize(WaveFunction(grid, amps, label))


def haar_unitary(n, rng):
    """Haar-ish unitary from the QR decomposition of a complex Ginibre matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def metric_from_densitized(field):
    """Invert F = g^{-1} sqrt(-det g) for 3+1 metrics: g = sqrt(-det F) F^{-1}.

    (In 3+1, det F = det g, so the conformal factor is recoverable; this
    does not hold in 1+1.)
    """
    field = np.asarray(field, dtype=float)
    det = np.linalg.det(field)
    assert np.all(det < 0), "densitized field must have negative determinant"
    g = np.sqrt(-det)[..., None, None] * np.linalg.inv(field)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def sinusoidal_metric_family(alpha=0.1, omega=2.0, kappa=3.0,
                             beta=0.08, nu=2.5, mu=2.0, span=0.8):
    """Manufactured diagonal 1+1 metric family with a symbolic residual oracle.

    g_00 = -(1 + alpha sin(omega t) cos(kappa x)),
    g_11 = +(1 + beta cos(nu t) sin(mu x)).

    Returns family(h) -> (MetricField, exact interior residual) where the
    exact residual comes from symbolic differentiation of the densitized
    inverse metric, evaluated on the same interior points.
    """
    import sympy as sp

    from holesim import MetricField

    t_s, x_s = sp.symbols("t x", real=True)
    a = alpha * sp.sin(omega * t_s) * sp.cos(kappa * x_s)
    b = beta * sp.cos(nu * t_s) * sp.sin(mu * x_s)
    # Densitized inverse of diag(-(1+a), 1+b):
    f00 = -sp.sqrt((1 + b) / (1 + a))
    f11 = sp.sqrt((1 + a) / (1 + b))
    r0 = sp.lambdify((t_s, x_s), sp.diff(f00, t_s), "numpy")
    r1 = sp.lambdify((t_s, x_s), sp.diff(f11, x_s), "numpy")
    a_num = sp.lambdify((t_s, x_s), a, "numpy")
    b_num = sp.lambdify((t_s, x_s), b, "numpy")

    def family(h):
        n = int(round(span / h)) + 1
        ts = h * np.arange(n)
        xs = h * np.arange(n)
        tt, xx = np.meshgrid(ts, xs, indexing="ij")
        g = np.zeros((n, n, 2, 2))
        g[..., 0, 0] = -(1.0 + a_num(tt, xx))
        g[..., 1, 1] = 1.0 + b_num(tt, xx)
        metric = MetricField((h, h), g)
        ti, xi = tt[1:-1, 1:-1], xx[1:-1, 1:-1]
        exact = np.stack([r0(ti, xi), r1(ti, xi)], axis=-1)
        return metric, exact

    return family


def grid_field_rows(values, axes):
    """The data rows of a grid field, one row per grid point: each
    component's repr, joined by spaces, one Python string per row."""
    values = np.asarray(values, dtype=float)
    rows = values.reshape(int(np.prod(values.shape[:axes])), -1)
    return "".join(" ".join(map(repr, row.tolist())) + "\n" for row in rows)


def metric_error_by_eigenvalues(spacings, components):
    """The (type name, message) MetricField raises for a finite, exactly
    symmetric metric of valid shape, or None if it accepts it, with the
    signature read off numpy's eigenvalues at every point: det < 0, then
    exactly one negative eigenvalue, then the inverse residual."""
    g = np.asarray(components, dtype=float)
    if np.any(np.linalg.det(g) >= 0):
        return "SignatureError", "metric determinant must be negative everywhere"
    if np.any(np.sum(np.linalg.eigvalsh(g) < 0, axis=-1) != 1):
        return "SignatureError", "metric must have exactly one negative eigenvalue"
    residual = np.max(np.abs(g @ np.linalg.inv(g) - np.eye(len(spacings))))
    if residual > 1e-12:
        return "DomainError", f"metric inverse residual {residual:.3e} exceeds 1e-12"
    return None


def pvm_error_all_pairs(projectors, tol=1e-10):
    """The message of the first failing check of a PVM, or None: per
    projector its finiteness, shape, Hermiticity and idempotency (spectral
    norm), then the Frobenius norm of every product P_i P_j with i < j in
    order, then completeness."""
    ps = [np.asarray(p, dtype=complex) for p in projectors]
    n = ps[0].shape[0]
    for i, p in enumerate(ps):
        if not np.isfinite(p).all():
            return f"projector {i} is not finite"
        if p.shape != (n, n):
            return f"projector {i} has shape {p.shape}, expected ({n}, {n})"
        if np.max(np.abs(p - p.conj().T)) > tol:
            return f"projector {i} is not Hermitian"
        if np.linalg.norm(p @ p - p, 2) > tol:
            return f"projector {i} is not idempotent"
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            if np.linalg.norm(ps[i] @ ps[j]) > tol:
                return f"projectors {i} and {j} are not orthogonal"
    if np.max(np.abs(sum(ps) - np.eye(n))) > tol:
        return "projectors do not sum to the identity"
    return None


def load_module(name, path, monkeypatch=None):
    """Execute the file at ``path`` as a module called ``name``. With a
    MonkeyPatch the module is in sys.modules until the patch is undone, as
    a module whose dataclasses look it up there needs."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module
