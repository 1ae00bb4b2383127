"""Property test: the drift and diffusion evaluators a ``Stepper`` holds are
byte-equal to the edge-by-edge references in ``_oracles``.

Hypothesis draws multigraph meshes (parallel edges in both orientations,
shuffled edge order) and coefficient rows from the expression grammar:
shared by every edge or per edge, with constants (0 and -0 among them) and
t-, x- and u-dependent terms, where per-edge rows may repeat one row object,
repeat its text, or differ.  The leading drift coefficient stays positive, as
a stabilizing reaction term needs: with a zero leading term the reference's
added zero terms could flip the sign of a zero result.  The run is
derandomized, so every run checks the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netsde.assembly import assemble_form
from netsde.fields import as_edge_function, build_diffusion, build_edge_fields, polynomial_drift
from netsde.graph import VertexMatrix, build_graph
from netsde.mesh import build_mesh
from netsde.noise import white_noise_model
from netsde.sde import Problem, SolverConfig, Stepper

from _oracles import reference_nodal_diffusion, reference_nodal_drift

NUMBERS = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
CONSTANTS = st.sampled_from(["0", "-0", "1", "0.5", "-0.25", "2"])


@st.composite
def multigraph_meshes(draw):
    """A connected multigraph on 2-5 vertices: a spanning tree plus up to 4
    extra edges, each edge oriented either way, in shuffled order, meshed
    with 1-6 interior nodes per edge."""
    n = draw(st.integers(2, 5))
    edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    extra = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    edges += draw(st.lists(st.one_of(st.sampled_from(edges), extra), max_size=4))
    edges = [(b, a) if draw(st.booleans()) else (a, b) for a, b in edges]
    edges = draw(st.permutations(edges))
    return build_mesh(build_graph(n, edges), draw(st.integers(1, 6)))


def terms(templates):
    """Expression text: a constant, or a template filled with one number."""
    return st.one_of(CONSTANTS, st.builds(lambda text, a: text.format(a=f"({a!r})"),
                                          st.sampled_from(templates), NUMBERS))


DRIFT_TERMS = terms(["{a}*x", "1 + {a}*x*(1 - x)", "{a}*sin(t)", "exp({a}*x) - t"])
LEADING_TERMS = st.one_of(st.sampled_from(["1", "0.5", "2"]),
                          st.builds("1 + 0.5*sin({}*t + x)".format, NUMBERS))
NOISE_TERMS = terms(["1 + {a}*u", "{a}*x*sin(u)", "0.5 + cos(u + {a}*t)", "1 + {a}*t*x"])


def drift_rows(degree):
    lower = st.lists(DRIFT_TERMS, min_size=2 * degree + 1, max_size=2 * degree + 1)
    return st.builds(lambda low, lead: tuple(as_edge_function(v, ("t", "x"))
                                             for v in (*low, lead)), lower, LEADING_TERMS)


def noise_rows():
    return NOISE_TERMS.map(lambda text: (as_edge_function(text, ("t", "x", "u")),))


def per_edge(draw, rows, m):
    """Either one row shared by every edge, or a pool of 1-3 rows (object
    repeats) and fresh rows (text repeats) spread over the edges."""
    if draw(st.booleans()):
        return draw(rows)
    pool = draw(st.lists(rows, min_size=1, max_size=3))
    return [pool[draw(st.integers(0, len(pool) - 1))] if draw(st.booleans()) else draw(rows)
            for _ in range(m)]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(data=st.data(), mesh=multigraph_meshes(), degree=st.integers(0, 2),
       t=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_stepper_evaluators_match_edge_by_edge_references(data, mesh, degree, t, seed):
    m, n = mesh.n_edges, mesh.graph.n_vertices
    drift = polynomial_drift(degree, per_edge(data.draw, drift_rows(degree), m), n_edges=m)
    diffusion_rows = per_edge(data.draw, noise_rows(), m)
    diffusion = build_diffusion(m, diffusion_rows[0] if isinstance(diffusion_rows, tuple)
                                else [row[0] for row in diffusion_rows])
    system = assemble_form(mesh, build_edge_fields(m), VertexMatrix(-np.eye(n)))
    problem = Problem(system, SolverConfig(1e-3, 1e-3), np.zeros(mesh.ndof), drift, diffusion,
                      white_noise_model(system, seed=0))
    stepper = Stepper(problem)

    rng = np.random.default_rng(seed)
    u = rng.standard_normal(mesh.ndof)
    increment = rng.standard_normal(mesh.ndof)
    t = np.float64(t)
    assert stepper.drift(t, u).tobytes() == reference_nodal_drift(drift, mesh)(t, u).tobytes()
    gamma = stepper.diffusion(t, u)
    expected = reference_nodal_diffusion(diffusion, mesh)(t, u)
    assert np.broadcast_to(gamma, u.shape).tobytes() == expected.tobytes()
    assert (gamma * increment).tobytes() == (expected * increment).tobytes()
