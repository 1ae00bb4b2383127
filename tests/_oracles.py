"""Independent oracles used by the test suite.

These deliberately avoid the package's assembly/eigensolver code paths:
the Robin spectrum comes from the scalar boundary-value problem's
characteristic equation, contraction/positivity cross-checks use dense
matrix exponentials, Monte Carlo reference statistics use plain numpy, and
the colored-noise factor is materialized from per-element antiderivatives.
The backward-Euler march and the exponential-Euler step keep the loop and
the three-term form the package used before every scheme shared one step
map.  Noise increments come from a Philox generator constructed afresh for
every draw, with the factor applied through ``@``.
"""

import numpy as np
from scipy.optimize import brentq
from scipy.sparse.linalg import splu


def robin_eigenvalues(count, kappa=1.0):
    """Eigenvalues of u'' = lambda*u on (0,1) with u'(0) = kappa*u(0) and
    -u'(1) = kappa*u(1), found by bisection on the characteristic equation.

    With lambda = -omega^2 the eigenfunction is cos(omega x) +
    (kappa/omega) sin(omega x) and omega must satisfy
    (omega^2 - kappa^2) sin(omega) = 2 kappa omega cos(omega).
    """
    def characteristic(omega):
        return (omega ** 2 - kappa ** 2) * np.sin(omega) - 2.0 * kappa * omega * np.cos(omega)

    roots = []
    grid = np.linspace(1e-6, (count + 3) * np.pi, 20000)
    values = characteristic(grid)
    for a, b, fa, fb in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if fa == 0.0:
            roots.append(a)
        elif fa * fb < 0.0:
            roots.append(brentq(characteristic, a, b, xtol=1e-14, rtol=1e-15))
        if len(roots) >= count:
            break
    omegas = np.asarray(roots[:count])
    return -omegas ** 2, omegas


def robin_eigenfunction(omega, kappa=1.0):
    """Unnormalized eigenfunction for the Robin problem above."""
    return lambda x: np.cos(omega * x) + (kappa / omega) * np.sin(omega * x)


def dense_expm_propagator(system, t, lumped=False):
    """Reference nodal propagator via scipy's Pade expm, not spectral data."""
    from scipy.linalg import expm
    A = system.form_matrix.toarray()
    if lumped:
        B = A / system.lumped_mass[:, None]
    else:
        B = np.linalg.solve(system.mass.toarray(), A)
    return expm(t * B)


def ols_slope(x, y):
    """Least-squares slope/intercept/R^2 for small regression cross-checks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fitted = A @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return coef[0], coef[1], r2


def colored_mode_loads(mesh, n_modes, dtype=float):
    """Unweighted loads int phi_a(x) sin(k pi x) dx, (nodes, modes) on one edge.

    Each element [x0, x1] adds the exact integral of its descending hat to
    its left node and of its ascending hat to its right node.  The
    antiderivative differences cancel to about eps * N^2 / k relative, so
    ``dtype=np.longdouble`` gives the accurate table (rounded to float64).
    """
    one = dtype(1)
    h = one / (mesh.n_interior + 1)
    x0 = (h * np.arange(mesh.n_interior + 1, dtype=dtype))[:, None]
    x1 = x0 + h
    if dtype is float:
        omega = np.array([k * np.pi for k in range(1, n_modes + 1)])
        # Python's float ** 2 (C pow) and numpy's square differ in the last
        # bit for some k (the first is 2207); stored factors used the former
        omega_sq = np.array([w ** 2 for w in omega.tolist()])
    else:
        omega = np.arange(1, n_modes + 1, dtype=dtype) * np.arccos(-one)
        omega_sq = omega ** 2

    def antideriv(a, b, x):
        # of (a + b*x) * sin(omega*x), per element and mode
        return -(a + b * x) * np.cos(omega * x) / omega + b * np.sin(omega * x) / omega_sq

    loads = np.zeros((mesh.n_interior + 2, n_modes), dtype=dtype)
    loads[:-1] += antideriv(x1 / h, -one / h, x1) - antideriv(x1 / h, -one / h, x0)
    loads[1:] += antideriv(-x0 / h, one / h, x1) - antideriv(-x0 / h, one / h, x0)
    return loads.astype(float)


def colored_factor(system, decay, amplitudes=None, n_modes=None, dtype=float):
    """The dense ndof x (m*K) colored-noise factor, one block per edge.

    With ``dtype=float`` this is the factor that stream versions 1 and 2
    stored and multiplied on every draw.
    """
    mesh = system.mesh
    m = mesh.n_edges
    n_modes = mesh.n_interior + 1 if n_modes is None else n_modes
    amp = np.broadcast_to(np.asarray(1.0 if amplitudes is None else amplitudes, dtype=float), m)
    loads = colored_mode_loads(mesh, n_modes, dtype)
    mode_weights = np.array([k ** (-decay) for k in range(1, n_modes + 1)])
    factor = np.zeros((mesh.ndof, m * n_modes))
    for j in range(m):
        # L2(0,1; mu dx)-orthonormal mode is sqrt(2/mu) sin(k pi x); the
        # weighted load against phi_a gains a factor mu
        block = np.sqrt(2.0 * system.fields.weights[j]) * loads
        block *= amp[j] * mode_weights
        factor[mesh.edge_dofs[j], j * n_modes:(j + 1) * n_modes] = block
    return factor


def backward_euler_heat(system, initial, horizon, dt, snapshot_stride=1):
    """March ``(G - dt*A_form) u+ = G u`` with a loop of its own.

    Returns ``(times, states, sup_norm)`` with snapshots every
    ``snapshot_stride`` steps and at the horizon; the sup norm covers every
    step taken.
    """
    n_steps = int(round(horizon / dt))
    solve = splu((system.mass - dt * system.form_matrix).tocsc())
    u = np.asarray(initial, dtype=float).copy()
    times = [0.0]
    states = [u.copy()]
    sup = float(np.abs(u).max())
    for step in range(1, n_steps + 1):
        u = solve.solve(system.mass @ u)
        sup = max(sup, float(np.abs(u).max()))
        if step % snapshot_stride == 0 or step == n_steps:
            times.append(step * dt)
            states.append(u.copy())
    return np.asarray(times), np.asarray(states), sup


def three_term_exponential_step(spectral, mass, dt, state, forcing, noise_term):
    """One exponential-Euler step ``V e^{Lambda dt} V^T G w`` with
    ``w = u + dt*F + G^{-1} Gamma dW``: the projector ``V^T G`` formed dense
    and the noise term moved to nodal values by a mass solve."""
    V = spectral.eigenvectors
    w = state + dt * forcing + splu(mass.tocsc()).solve(noise_term)
    return V @ (np.exp(spectral.eigenvalues * dt) * ((V.T @ mass.toarray()) @ w))


def philox_increment(noise, trajectory_id, step_id, dt):
    """One noise increment from a Philox generator built for this draw alone:
    key ``(seed << 64) | trajectory`` and counter ``step << 64``, each id
    reduced mod 2^64, then ``sqrt(dt) * (noise.factor @ z)``."""
    mask = (1 << 64) - 1
    bitgen = np.random.Philox(counter=(int(step_id) & mask) << 64,
                              key=((int(noise.seed) & mask) << 64) | (int(trajectory_id) & mask))
    z = np.random.Generator(bitgen).standard_normal(noise.dim)
    return np.sqrt(dt) * (noise.factor @ z)
