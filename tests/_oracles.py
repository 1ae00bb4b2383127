"""Independent oracles used by the test suite.

These deliberately avoid the package's assembly/eigensolver code paths:
the Robin spectrum comes from the scalar boundary-value problem's
characteristic equation, contraction/positivity cross-checks use dense
matrix exponentials, Monte Carlo reference statistics use plain numpy, and
the colored-noise factor is materialized from per-element antiderivatives.
The backward-Euler march keeps the loop the package used before every
scheme shared one step map, with the package's step solve
(``assembly.arrowhead_solver``, checked against dense solves in
``test_assembly``), and the stochastic march keeps the snapshot
loop that preceded ``SolverConfig.snapshot_steps``.  The moments of the
drift-free linear-implicit march with unit noise coefficient and any
increment covariance come in closed form from the pencil's eigenpairs;
with a noise coefficient affine in the state they follow a recursion on the
first and second moments.
Noise increments come from a Philox generator constructed afresh for every
draw, with the factor applied through ``@``.  Run configs are checked
against the section-by-section normalizer that preceded the schema table.
The per-dof owner map and the node-by-node interpolation are the ones the
mesh kept before ``Mesh.edge_dofs`` became its only dof map, and the nodal
drift and diffusion references evaluate every coefficient edge by edge on
the dofs that map gives each edge (the drift adds its zero terms unless
every edge holds the same constants).  The
edge-by-edge assembly is the one that preceded the one-pass assembly.  The
weighted incidence matrices are filled entry by entry, one edge at a time,
and the drift's vertex mismatch gathers each vertex's edges as a set of
1-based indices, the loop ``validate_drift`` ran before it read them off
``MetricGraph.edge_array()``.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.optimize import brentq

from netsde.assembly import arrowhead_solver
from netsde.config import config_hash
from netsde.errors import SchemaViolation, VertexMismatch
from netsde.expressions import parse_expression
from netsde.fields import edge_functions, float_samples
from netsde.graph import build_graph
from netsde.mesh import build_mesh
from netsde.noise import IncrementSampler
from netsde.sde import SCHEMES, Stepper


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
    solve = arrowhead_solver(system.mass - dt * system.form_matrix, system.mesh)
    u = np.asarray(initial, dtype=float).copy()
    times = [0.0]
    states = [u.copy()]
    sup = float(np.abs(u).max())
    for step in range(1, n_steps + 1):
        u = solve(system.mass @ u)
        sup = max(sup, float(np.abs(u).max()))
        if step % snapshot_stride == 0 or step == n_steps:
            times.append(step * dt)
            states.append(u.copy())
    return np.asarray(times), np.asarray(states), sup


def reference_simulate_path(problem, trajectory_id=0):
    """``(times, states, sup_norm)`` of one trajectory from a loop of its
    own: a state copy appended to a list every ``snapshot_stride`` steps and
    at the last step, the list stacked at the end."""
    cfg = problem.config
    n_steps = int(round(cfg.t_end / cfg.dt))
    stepper = Stepper(problem)
    sampler = (None if problem.noise is None
               else IncrementSampler(problem.noise, trajectory_id, cfg.dt, n_steps))
    u = np.asarray(problem.initial, dtype=float).copy()
    times = [0.0]
    states = [u.copy()]
    sup = float(np.abs(u).max())
    for step in range(n_steps):
        dW = sampler(step) if sampler is not None else None
        u = stepper.step(u, step * cfg.dt, dW)
        sup = max(sup, float(np.abs(u).max()))
        if (step + 1) % cfg.snapshot_stride == 0 or step + 1 == n_steps:
            times.append((step + 1) * cfg.dt)
            states.append(u.copy())
    return np.asarray(times), np.asarray(states), sup


def philox_increment(noise, trajectory_id, step_id, dt):
    """One noise increment from a Philox generator built for this draw alone:
    key ``(seed << 64) | trajectory`` and counter ``step << 64``, each id
    reduced mod 2^64, then ``sqrt(dt) * (noise.factor @ z)``."""
    mask = (1 << 64) - 1
    bitgen = np.random.Philox(counter=(int(step_id) & mask) << 64,
                              key=((int(noise.seed) & mask) << 64) | (int(trajectory_id) & mask))
    z = np.random.Generator(bitgen).standard_normal(noise.dim)
    return np.sqrt(dt) * (noise.factor @ z)


def reference_dof_map(mesh):
    """``(dof_edge, dof_x)``: the 0-based edge each dof is evaluated on and
    its local coordinate there.  Interior dofs belong to their edge; a
    vertex dof to its lowest-index incident edge, found by a reverse loop."""
    n_int, h = mesh.n_interior, mesh.h
    dof_edge = np.zeros(mesh.ndof, dtype=int)
    dof_x = np.zeros(mesh.ndof)
    for j in range(mesh.n_edges):
        sl = slice(j * n_int, (j + 1) * n_int)
        dof_edge[sl] = j
        dof_x[sl] = h * np.arange(1, n_int + 1)
    edges0 = mesh.graph.edge_array()
    for j in range(mesh.n_edges - 1, -1, -1):
        a, b = edges0[j]
        dof_edge[mesh.vertex_dofs[a]] = j
        dof_x[mesh.vertex_dofs[a]] = 0.0
        dof_edge[mesh.vertex_dofs[b]] = j
        dof_x[mesh.vertex_dofs[b]] = 1.0
    return dof_edge, dof_x


def power(v, l):
    """v ** l as ((v * v) * v) * ..., the order eval_drift multiplies in."""
    out = v
    for _ in range(l - 1):
        out = out * v
    return out


def reference_nodal_drift(spec, mesh):
    """The nodal reaction evaluator as it stood before it dispatched to
    ``eval_drift``, with powers by repeated multiplication as stream version
    3 computes them (version 2 used ``u ** l``)."""
    d = spec.top_power
    consts = [[fn.constant for fn in row] for row in spec.coefficients]
    if (all(v is not None for row in consts for v in row)
            and all(consts[j] == consts[0] for j in range(1, spec.n_edges))):
        coeff = np.asarray(consts[0], dtype=float)

        def evaluate_const(t, u):
            acc = -coeff[d] * power(u, d)
            for l in range(1, d):
                if coeff[l] != 0.0:
                    acc = acc + coeff[l] * power(u, l)
            if coeff[0] != 0.0:
                acc = acc + coeff[0]
            return acc

        return evaluate_const

    dof_edge, dof_x = reference_dof_map(mesh)
    by_edge = [np.flatnonzero(dof_edge == j) for j in range(mesh.n_edges)]
    xs = [dof_x[idx] for idx in by_edge]

    def evaluate(t, u):
        out = np.empty_like(u)
        for j, idx in enumerate(by_edge):
            coeffs = spec.coefficients[j]
            x = xs[j]
            v = u[idx]
            acc = -np.broadcast_to(coeffs[d](t, x), x.shape) * power(v, d)
            for l in range(1, d):
                acc = acc + np.broadcast_to(coeffs[l](t, x), x.shape) * power(v, l)
            out[idx] = acc + np.broadcast_to(coeffs[0](t, x), x.shape)
        return out

    return evaluate


def reference_nodal_diffusion(spec, mesh):
    """The nodal diffusion evaluator as it stood before it shared the drift's
    dispatcher: one array filled edge by edge, also for a constant g."""
    dof_edge, dof_x = reference_dof_map(mesh)
    by_edge = [np.flatnonzero(dof_edge == j) for j in range(mesh.n_edges)]
    xs = [dof_x[idx] for idx in by_edge]

    def evaluate(t, u):
        out = np.empty_like(u)
        for j, idx in enumerate(by_edge):
            out[idx] = np.broadcast_to(spec.functions[j](t, xs[j], u[idx]), idx.shape)
        return out

    return evaluate


def random_multigraph_mesh(rng):
    """A mesh on a random connected multigraph: 2-5 vertices, a spanning
    tree plus up to 4 extra edges, parallel edges in both orientations, the
    edges shuffled, and 1-8 interior nodes per edge."""
    n = int(rng.integers(2, 6))
    edges = []
    for v in range(2, n + 1):
        u = int(rng.integers(1, v))
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    for _ in range(int(rng.integers(0, 5))):
        if rng.random() < 0.5:
            a, b = edges[int(rng.integers(len(edges)))]
        else:
            a, b = (int(i) + 1 for i in rng.choice(n, size=2, replace=False))
        edges.append((a, b) if rng.random() < 0.5 else (b, a))
    order = rng.permutation(len(edges))
    return build_mesh(build_graph(n, [edges[i] for i in order]), int(rng.integers(1, 9)))


def reference_weighted_incidence(graph, mu, c_at_endpoints):
    """The weighted incidence matrices (Phi+_w, Phi-_w) built entry by entry:
    column j holds ``mu[j] * c_at_endpoints[j, 0]`` in the row of edge j's
    start and ``mu[j] * c_at_endpoints[j, 1]`` in the row of its end."""
    n, m = graph.n_vertices, graph.n_edges
    mu = np.asarray(mu, dtype=float)
    ends = np.asarray(c_at_endpoints, dtype=float)
    w_plus = np.zeros((n, m))
    w_minus = np.zeros((n, m))
    for j, (a, b) in enumerate(graph.edge_array()):
        w_plus[a, j] = mu[j] * ends[j, 0]
        w_minus[b, j] = mu[j] * ends[j, 1]
    return w_plus, w_minus


def reference_vertex_mismatch(spec, graph, horizon=1.0, n_time=64):
    """The worst spread, over the time grid, of any drift coefficient's
    traces at a vertex across its edges: ``validate_drift``'s measured
    ``vertex_compatibility``, from its per-vertex loop over sets of 1-based
    edge indices."""
    ts = np.linspace(0.0, horizon, n_time)
    worst = 0.0
    for i in range(1, graph.n_vertices + 1):
        incident = sorted({j + 1 for j, (a, b) in enumerate(graph.edges) if i in (a, b)})
        if len(incident) < 2:
            continue
        # local coordinate of vertex i on each incident edge
        coords = [0.0 if graph.edges[j - 1][0] == i else 1.0 for j in incident]
        for l in range(spec.top_power + 1):
            traces = np.array([
                float_samples(spec.coefficients[j - 1][l], ts, np.full_like(ts, cx))
                for j, cx in zip(incident, coords)
            ])
            worst = np.maximum(worst, np.ptp(traces, axis=0).max())
    return float(worst)


def linear_implicit_moments(system, initial, dt, n_steps, covariance=None):
    """Exact mean and variance at every dof after ``n_steps`` steps of
    ``(G - dt*A_form) u+ = G u + dW`` with ``dW ~ N(0, dt*Q)``: the
    linear-implicit march without reaction and with unit noise coefficient.
    ``covariance`` is Q, dense; it defaults to G, the white-noise covariance.

    In the G-orthonormal modes of the pencil (``A_form V = G V Lambda``,
    ``V^T G V = I``) a step is ``x+ = R (x + xi)`` with ``R = diag(r)``,
    ``r = 1/(1 - dt*lambda)`` and ``xi ~ N(0, dt*C)``, ``C = V^T Q V``.  After
    n steps the modes have mean ``r^n x0`` and covariance
    ``dt C_ij r_i r_j (1 - (r_i r_j)^n) / (1 - r_i r_j)``; the dof variances
    are the diagonal of ``V Sigma V^T``.  The eigenvalues must be negative."""
    G = system.mass.toarray()
    Q = G if covariance is None else np.asarray(covariance, dtype=float)
    lam, V = scipy.linalg.eigh(system.form_matrix.toarray(), G)
    assert np.all(lam < 0.0), "the closed form needs a negative definite pencil"
    r = 1.0 / (1.0 - dt * lam)
    mode_mean = r ** n_steps * (V.T @ (G @ np.asarray(initial, dtype=float)))
    rr = np.outer(r, r)
    sigma = dt * (V.T @ Q @ V) * rr * (1.0 - rr ** n_steps) / (1.0 - rr)
    return V @ mode_mean, np.einsum("ij,jk,ik->i", V, sigma, V)


def linear_multiplicative_moments(system, initial, dt, n_steps, a, b, covariance=None):
    """Exact mean and variance at every dof after ``n_steps`` steps of
    ``(G - dt*A_form) u+ = G u + g(u) * dW`` with the nodal noise coefficient
    ``g = a + b*u`` evaluated at the left endpoint and ``dW ~ N(0, dt*Q)``.
    ``a`` and ``b`` are nodal vectors; ``covariance`` is Q, dense, and
    defaults to G.

    The increment is independent of the state it multiplies, so with
    ``R = (G - dt*A_form)^-1`` the mean m and the second moment
    ``M = E[u u^T]`` follow ``m+ = R G m`` and
    ``M+ = R [G M G + dt*Q o (a a^T + a (b m)^T + (b m) a^T + (b b^T) o M)] R^T``."""
    G = system.mass.toarray()
    Q = G if covariance is None else np.asarray(covariance, dtype=float)
    R = np.linalg.inv(G - dt * system.form_matrix.toarray())
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    m = np.asarray(initial, dtype=float)
    M = np.outer(m, m)
    for _ in range(n_steps):
        bm = b * m
        g2 = np.outer(a, a) + np.outer(a, bm) + np.outer(bm, a) + np.outer(b, b) * M
        m, M = R @ G @ m, R @ (G @ M @ G + dt * Q * g2) @ R.T
    return m, np.diag(M) - m * m


def reference_assemble_form(mesh, fields, matrix):
    """(G, S, K, A_form, lumped mass) assembled edge by edge: each edge's
    coefficients sampled and checked at its Gauss points, then its element
    terms appended to the COO lists as (ll, rr, lr, rl) blocks.  Only valid
    coefficients are compared, so the check names no error type."""
    gauss_xi = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    h = mesh.h
    n_elem = mesh.n_interior + 1
    elem_left = h * np.arange(n_elem)
    gauss_x = elem_left[:, None] + h * gauss_xi[None, :]
    phi_left = 1.0 - gauss_xi
    phi_right = gauss_xi

    rows_g, cols_g, vals_g = [], [], []
    rows_s, cols_s, vals_s = [], [], []
    for j in range(mesh.n_edges):
        mu = fields.weights[j]
        c_vals = np.broadcast_to(np.asarray(fields.conductance[j](gauss_x), dtype=float),
                                 gauss_x.shape)
        p_vals = np.broadcast_to(np.asarray(fields.potential[j](gauss_x), dtype=float),
                                 gauss_x.shape)
        if not (c_vals.min() > 0.0 and p_vals.min() >= 0.0
                and np.isfinite(c_vals).all() and np.isfinite(p_vals).all()):
            raise ValueError(f"edge {j + 1} has an invalid coefficient sample")

        stiff = mu * 0.5 * c_vals.sum(axis=1) / h
        pot_ll = mu * 0.5 * h * (p_vals * phi_left ** 2).sum(axis=1)
        pot_lr = mu * 0.5 * h * (p_vals * phi_left * phi_right).sum(axis=1)
        pot_rr = mu * 0.5 * h * (p_vals * phi_right ** 2).sum(axis=1)
        mass_ll = mu * 0.5 * h * np.full(n_elem, (phi_left ** 2).sum())
        mass_lr = mu * 0.5 * h * np.full(n_elem, (phi_left * phi_right).sum())
        mass_rr = mu * 0.5 * h * np.full(n_elem, (phi_right ** 2).sum())

        left = mesh.edge_dofs[j, :-1]
        right = mesh.edge_dofs[j, 1:]
        for r, c, v in (
            (left, left, stiff + pot_ll),
            (right, right, stiff + pot_rr),
            (left, right, -stiff + pot_lr),
            (right, left, -stiff + pot_lr),
        ):
            rows_s.append(r)
            cols_s.append(c)
            vals_s.append(v)
        for r, c, v in (
            (left, left, mass_ll),
            (right, right, mass_rr),
            (left, right, mass_lr),
            (right, left, mass_lr),
        ):
            rows_g.append(r)
            cols_g.append(c)
            vals_g.append(v)

    ndof = mesh.ndof
    G = sp.coo_matrix(
        (np.concatenate(vals_g), (np.concatenate(rows_g), np.concatenate(cols_g))),
        shape=(ndof, ndof)).tocsr()
    S = sp.coo_matrix(
        (np.concatenate(vals_s), (np.concatenate(rows_s), np.concatenate(cols_s))),
        shape=(ndof, ndof)).tocsr()
    vi, vk = np.meshgrid(mesh.vertex_dofs, mesh.vertex_dofs, indexing="ij")
    K = sp.coo_matrix(
        (-matrix.entries.ravel(), (vi.ravel(), vk.ravel())), shape=(ndof, ndof)).tocsr()
    K.eliminate_zeros()
    A_form = (-(S + K)).tocsr()
    lumped = np.asarray(G.sum(axis=1)).ravel()
    return G, S, K, A_form, lumped


def reference_interpolate(mesh, functions, vertex_tol=1e-12):
    """Nodal interpolation node by node: the first edge to reach a dof sets
    it, and every later edge at that dof must agree within ``vertex_tol``."""
    m = mesh.n_edges
    fns = edge_functions(functions, m)
    xs = np.linspace(0.0, 1.0, mesh.n_interior + 2)
    state = np.zeros(mesh.ndof)
    assigned = np.zeros(mesh.ndof, dtype=bool)
    for j in range(m):
        values = np.broadcast_to(np.asarray(fns[j](xs), dtype=float), xs.shape)
        for local, dof in enumerate(mesh.edge_dofs[j]):
            if assigned[dof]:
                if abs(state[dof] - values[local]) > vertex_tol:
                    raise VertexMismatch(
                        f"edge {j + 1} supplies {values[local]!r} at a shared vertex "
                        f"already set to {state[dof]!r}")
            else:
                state[dof] = values[local]
                assigned[dof] = True
    return state


# ---------------------------------------------------------------------------
# run-config normalizer, one section at a time
# ---------------------------------------------------------------------------

_EXPERIMENTS = ("validate", "spectrum", "simulate", "holder", "convergence")

_DEFAULTS = {
    "fields": {"conductance": 1.0, "potential": 0.0, "weights": 1.0},
    "drift": {"type": "none"},
    "diffusion": {"expression": 1.0},
    "noise": {"kind": "white"},
    "mesh": {"interior_nodes": 16},
    "solver": {"scheme": "semi_implicit_tamed", "dt": 1e-3, "t_end": 1.0,
               "snapshot_stride": 1, "blowup_guard": 1e6},
    "initial": 0.0,
    "experiment": {"name": "simulate"},
    "seed": 0,
}

_EXPERIMENT_DEFAULTS = {
    "validate": {"lattice_time": 64, "lattice_space": 64},
    "spectrum": {"count": 10},
    "simulate": {"trajectories": 1},
    "holder": {"lags": [1e-3, 2e-3, 4e-3, 8e-3], "trajectories": 100,
               "norm": "E2", "burn_fraction": 0.25},
    "convergence": {"dt_ladder": [1e-4, 1e-3, 2e-3, 4e-3], "trajectories": 50,
                    "norm": "E2"},
}


class _Collector:
    def __init__(self):
        self.errors = []

    def add(self, path, message):
        self.errors.append((path, message))

    def raise_if_any(self):
        if self.errors:
            raise SchemaViolation(self.errors)


def _expect_mapping(value, path, errors):
    if not isinstance(value, dict):
        errors.add(path, f"expected an object, got {type(value).__name__}")
        return None
    return value


def _check_keys(mapping, allowed, path, errors):
    for key in mapping:
        if key not in allowed:
            errors.add(f"{path}.{key}" if path else key, "unknown key")


def _expect_number(value, path, errors, minimum=None, strict=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.add(path, f"expected a number, got {type(value).__name__}")
        return None
    value = float(value)
    if minimum is not None and (value <= minimum if strict else value < minimum):
        bound = "greater than" if strict else "at least"
        errors.add(path, f"must be {bound} {minimum}, got {value}")
        return None
    return value


def _expect_int(value, path, errors, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        errors.add(path, f"expected an integer, got {type(value).__name__}")
        return None
    if minimum is not None and value < minimum:
        errors.add(path, f"must be at least {minimum}, got {value}")
        return None
    return value


def _check_coefficient(value, path, variables, errors, allow_list=True):
    """A coefficient is a number, an expression string, nodal samples, or a
    per-edge list of those (one nesting level)."""
    if isinstance(value, str):
        try:
            parse_expression(value, variables)
        except Exception as err:
            errors.add(path, str(err))
        return
    if isinstance(value, bool):
        errors.add(path, "expected a number, expression, or list")
        return
    if isinstance(value, (int, float)):
        return
    if isinstance(value, list) and allow_list:
        for i, entry in enumerate(value):
            _check_coefficient(entry, f"{path}[{i}]", variables, errors, allow_list=False)
        return
    if isinstance(value, list):
        for i, entry in enumerate(value):
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                errors.add(f"{path}[{i}]", "nodal samples must be numbers")
        return
    errors.add(path, f"expected a number, expression, or list, got {type(value).__name__}")


_TOP_LEVEL_KEYS = frozenset({
    "graph", "vertex_matrix", "vertex_matrix_zero_ok", "fields", "drift",
    "diffusion", "noise", "mesh", "solver", "initial", "experiment", "seed",
    "output_dir",
})


def reference_normalize_config(raw):
    """The run-config normalizer as it was before the schema became one
    table: ``(data, hash)``, or SchemaViolation with the same error list."""
    errors = _Collector()
    if not isinstance(raw, dict):
        errors.add("", "top level must be an object")
        errors.raise_if_any()
    _check_keys(raw, _TOP_LEVEL_KEYS, "", errors)

    data = {}

    graph = _expect_mapping(raw.get("graph"), "graph", errors)
    n_edges = None
    if graph is not None:
        _check_keys(graph, {"n_vertices", "edges"}, "graph", errors)
        n_vertices = _expect_int(graph.get("n_vertices"), "graph.n_vertices", errors, minimum=1)
        edges = graph.get("edges")
        if not isinstance(edges, list) or not edges:
            errors.add("graph.edges", "expected a nonempty list of vertex pairs")
        else:
            for i, pair in enumerate(edges):
                if (not isinstance(pair, list) or len(pair) != 2
                        or any(isinstance(v, bool) or not isinstance(v, int) for v in pair)):
                    errors.add(f"graph.edges[{i}]", "expected a pair of integer vertex ids")
            n_edges = len(edges)
        if n_vertices is not None and n_edges is not None:
            data["graph"] = {"n_vertices": n_vertices, "edges": [list(p) for p in edges]}

    matrix = raw.get("vertex_matrix")
    if not isinstance(matrix, list) or not matrix:
        errors.add("vertex_matrix", "expected a nonempty list of rows")
    else:
        n = len(matrix)
        for i, row in enumerate(matrix):
            if (not isinstance(row, list) or len(row) != n
                    or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in row)):
                errors.add(f"vertex_matrix[{i}]", f"expected a numeric row of length {n}")
        data["vertex_matrix"] = [[float(v) for v in row] for row in matrix
                                 if isinstance(row, list)]
    zero_ok = raw.get("vertex_matrix_zero_ok", False)
    if not isinstance(zero_ok, bool):
        errors.add("vertex_matrix_zero_ok", "expected a boolean")
        zero_ok = False
    data["vertex_matrix_zero_ok"] = zero_ok

    fields = dict(_DEFAULTS["fields"])
    supplied = _expect_mapping(raw.get("fields", {}), "fields", errors)
    if supplied is not None:
        _check_keys(supplied, set(fields), "fields", errors)
        fields.update(supplied)
    _check_coefficient(fields["conductance"], "fields.conductance", ("x",), errors)
    _check_coefficient(fields["potential"], "fields.potential", ("x",), errors)
    weights = fields["weights"]
    if isinstance(weights, list):
        for i, w in enumerate(weights):
            _expect_number(w, f"fields.weights[{i}]", errors, minimum=0.0, strict=True)
    else:
        _expect_number(weights, "fields.weights", errors, minimum=0.0, strict=True)
    data["fields"] = fields

    drift = dict(_DEFAULTS["drift"])
    if "drift" in raw:
        supplied = _expect_mapping(raw["drift"], "drift", errors)
        if supplied is not None:
            drift = dict(supplied)
    kind = drift.get("type")
    if kind == "none":
        _check_keys(drift, {"type"}, "drift", errors)
    elif kind == "allen_cahn":
        _check_keys(drift, {"type", "betas"}, "drift", errors)
        betas = drift.get("betas")
        if isinstance(betas, list):
            for i, b in enumerate(betas):
                _expect_number(b, f"drift.betas[{i}]", errors, minimum=0.0, strict=True)
        elif betas is None:
            errors.add("drift.betas", "required for allen_cahn drift")
        else:
            _expect_number(betas, "drift.betas", errors, minimum=0.0, strict=True)
    elif kind == "polynomial":
        _check_keys(drift, {"type", "degree", "coefficients", "lower_bound", "upper_bound"},
                    "drift", errors)
        degree = _expect_int(drift.get("degree"), "drift.degree", errors, minimum=0)
        coeffs = drift.get("coefficients")
        if not isinstance(coeffs, list) or not coeffs:
            errors.add("drift.coefficients", "expected a list of coefficients")
        elif degree is not None:
            expected = 2 * degree + 2
            rows = coeffs if isinstance(coeffs[0], list) else [coeffs]
            for r, row in enumerate(rows):
                prefix = f"drift.coefficients[{r}]" if isinstance(coeffs[0], list) \
                    else "drift.coefficients"
                if not isinstance(row, list) or len(row) != expected:
                    errors.add(prefix, f"expected {expected} entries (powers 0..{2*degree+1})")
                    continue
                for l, entry in enumerate(row):
                    _check_coefficient(entry, f"{prefix}[{l}]", ("t", "x"), errors,
                                       allow_list=False)
        drift.setdefault("lower_bound", 1e-6)
        drift.setdefault("upper_bound", 1e6)
        _expect_number(drift["lower_bound"], "drift.lower_bound", errors, minimum=0.0, strict=True)
        _expect_number(drift["upper_bound"], "drift.upper_bound", errors, minimum=0.0, strict=True)
    else:
        errors.add("drift.type", f"expected one of none/allen_cahn/polynomial, got {kind!r}")
    data["drift"] = drift

    diffusion = dict(_DEFAULTS["diffusion"])
    supplied = _expect_mapping(raw.get("diffusion", {}), "diffusion", errors)
    if supplied is not None:
        _check_keys(supplied, {"expression", "lipschitz", "linear_growth"}, "diffusion", errors)
        diffusion.update(supplied)
    _check_coefficient(diffusion["expression"], "diffusion.expression", ("t", "x", "u"), errors)
    lip = diffusion.get("lipschitz")
    if lip is not None:
        if not isinstance(lip, dict):
            errors.add("diffusion.lipschitz", "expected an object of radius: constant pairs")
        else:
            for radius, constant in lip.items():
                try:
                    float(radius)
                except ValueError:
                    errors.add(f"diffusion.lipschitz.{radius}", "radius must be numeric")
                _expect_number(constant, f"diffusion.lipschitz.{radius}", errors,
                               minimum=0.0)
    if diffusion.get("linear_growth") is not None:
        _expect_number(diffusion["linear_growth"], "diffusion.linear_growth", errors,
                       minimum=0.0)
    data["diffusion"] = diffusion

    noise = dict(_DEFAULTS["noise"])
    if "noise" in raw:
        supplied = _expect_mapping(raw["noise"], "noise", errors)
        if supplied is not None:
            noise = dict(supplied)
    if noise.get("kind") == "white":
        _check_keys(noise, {"kind", "lumped"}, "noise", errors)
        if not isinstance(noise.get("lumped", False), bool):
            errors.add("noise.lumped", "expected a boolean")
        noise.setdefault("lumped", False)
    elif noise.get("kind") == "colored":
        _check_keys(noise, {"kind", "decay", "modes", "amplitudes"}, "noise", errors)
        decay = _expect_number(noise.get("decay"), "noise.decay", errors)
        if decay is not None and decay <= 0.5:
            errors.add("noise.decay", f"spectral decay must exceed 0.5, got {decay}")
        if "modes" in noise:
            _expect_int(noise["modes"], "noise.modes", errors, minimum=1)
        if "amplitudes" in noise:
            amps = noise["amplitudes"]
            if isinstance(amps, list):
                for i, a in enumerate(amps):
                    _expect_number(a, f"noise.amplitudes[{i}]", errors, minimum=0.0)
            else:
                _expect_number(amps, "noise.amplitudes", errors, minimum=0.0)
    else:
        errors.add("noise.kind", f"expected white or colored, got {noise.get('kind')!r}")
    data["noise"] = noise

    mesh = dict(_DEFAULTS["mesh"])
    supplied = _expect_mapping(raw.get("mesh", {}), "mesh", errors)
    if supplied is not None:
        _check_keys(supplied, {"interior_nodes"}, "mesh", errors)
        mesh.update(supplied)
    _expect_int(mesh["interior_nodes"], "mesh.interior_nodes", errors, minimum=1)
    data["mesh"] = mesh

    solver = dict(_DEFAULTS["solver"])
    supplied = _expect_mapping(raw.get("solver", {}), "solver", errors)
    if supplied is not None:
        _check_keys(supplied, set(solver), "solver", errors)
        solver.update(supplied)
    if solver["scheme"] not in SCHEMES:
        errors.add("solver.scheme", f"expected one of {SCHEMES}, got {solver['scheme']!r}")
    dt = _expect_number(solver["dt"], "solver.dt", errors, minimum=0.0, strict=True)
    t_end = _expect_number(solver["t_end"], "solver.t_end", errors, minimum=0.0, strict=True)
    if dt is not None and t_end is not None and dt > t_end:
        errors.add("solver.dt", f"dt={dt} exceeds t_end={t_end}")
    _expect_int(solver["snapshot_stride"], "solver.snapshot_stride", errors, minimum=1)
    _expect_number(solver["blowup_guard"], "solver.blowup_guard", errors, minimum=0.0,
                   strict=True)
    data["solver"] = solver

    _check_coefficient(raw.get("initial", _DEFAULTS["initial"]), "initial", ("x",), errors)
    data["initial"] = raw.get("initial", _DEFAULTS["initial"])

    experiment = dict(_DEFAULTS["experiment"])
    if "experiment" in raw:
        supplied = _expect_mapping(raw["experiment"], "experiment", errors)
        if supplied is not None:
            experiment = dict(supplied)
    name = experiment.get("name", "simulate")
    if name not in _EXPERIMENTS:
        errors.add("experiment.name", f"expected one of {_EXPERIMENTS}, got {name!r}")
    else:
        merged = dict(_EXPERIMENT_DEFAULTS[name])
        merged["name"] = name
        extra = set(experiment) - set(merged)
        for key in sorted(extra):
            errors.add(f"experiment.{key}", f"unknown key for experiment {name!r}")
        merged.update({k: v for k, v in experiment.items() if k in merged})
        experiment = merged
        if name in ("simulate", "holder", "convergence"):
            _expect_int(experiment.get("trajectories"), "experiment.trajectories",
                        errors, minimum=1)
        if name == "spectrum":
            _expect_int(experiment.get("count"), "experiment.count", errors, minimum=1)
        if name == "holder":
            lags = experiment.get("lags")
            if not isinstance(lags, list) or len(lags) < 4:
                errors.add("experiment.lags", "expected a list of at least 4 lags")
            else:
                for i, lag in enumerate(lags):
                    _expect_number(lag, f"experiment.lags[{i}]", errors, minimum=0.0,
                                   strict=True)
            if experiment.get("norm") not in ("E2", "Einf"):
                errors.add("experiment.norm", "expected E2 or Einf")
            _expect_number(experiment.get("burn_fraction"), "experiment.burn_fraction",
                           errors, minimum=0.0)
        if name == "convergence":
            ladder = experiment.get("dt_ladder")
            if not isinstance(ladder, list) or len(ladder) < 4:
                errors.add("experiment.dt_ladder", "expected a list of at least 4 steps")
            else:
                for i, step in enumerate(ladder):
                    _expect_number(step, f"experiment.dt_ladder[{i}]", errors,
                                   minimum=0.0, strict=True)
            if experiment.get("norm") not in ("E2", "Einf"):
                errors.add("experiment.norm", "expected E2 or Einf")
        if name == "validate":
            _expect_int(experiment.get("lattice_time"), "experiment.lattice_time",
                        errors, minimum=2)
            _expect_int(experiment.get("lattice_space"), "experiment.lattice_space",
                        errors, minimum=2)
    data["experiment"] = experiment

    seed = raw.get("seed", _DEFAULTS["seed"])
    if isinstance(seed, bool) or not isinstance(seed, int):
        errors.add("seed", "expected an integer")
    elif seed < 0 or seed >= 2 ** 64:
        errors.add("seed", f"must be in [0, 2**64), got {seed}")
    else:
        data["seed"] = seed

    if "output_dir" in raw:
        if not isinstance(raw["output_dir"], str):
            errors.add("output_dir", "expected a string")
        else:
            data["output_dir"] = raw["output_dir"]

    errors.raise_if_any()
    return data, config_hash(data)
