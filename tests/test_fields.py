import numpy as np
import pytest

from netsde.errors import (
    ConfigurationError,
    DimensionMismatch,
    NegativePotential,
    NonpositiveBeta,
    NonpositiveConductance,
    NonpositiveWeight,
)
from netsde.expressions import parse_expression
from netsde.fields import (
    allen_cahn_system,
    build_diffusion,
    build_edge_fields,
    eval_drift,
    polynomial_drift,
    validate_diffusion,
    validate_drift,
)
from netsde.graph import build_graph


class TestEdgeFields:
    def test_constant_fields_valid(self):
        fields = build_edge_fields(2, conductance=1.0, potential=0.0, weights=1.0)
        assert fields.n_edges == 2
        assert np.array_equal(fields.weights, [1.0, 1.0])

    def test_variable_conductance(self):
        fields = build_edge_fields(1, conductance=parse_expression("1 + x/2", ("x",)))
        assert fields.conductance[0](0.0) == 1.0
        assert fields.conductance[0](1.0) == 1.5
        np.testing.assert_array_equal(fields.conductance_endpoints(), [[1.0, 1.5]])

    def test_negative_potential_rejected(self):
        with pytest.raises(NegativePotential):
            build_edge_fields(1, potential=-0.1)

    def test_vanishing_conductance_rejected(self):
        with pytest.raises(NonpositiveConductance):
            build_edge_fields(1, conductance=parse_expression("x", ("x",)))

    def test_zero_weight_rejected(self):
        with pytest.raises(NonpositiveWeight):
            build_edge_fields(2, weights=[1.0, 0.0])

    @pytest.mark.parametrize("field, error", [
        ("conductance", NonpositiveConductance),
        ("potential", NegativePotential),
        ("weights", NonpositiveWeight),
    ])
    def test_nan_coefficient_rejected(self, field, error):
        with pytest.raises(error):
            build_edge_fields(1, **{field: np.nan})

    @pytest.mark.parametrize("field", ["conductance", "potential"])
    @pytest.mark.parametrize("text", ["1e400", "exp(1000)", "1 + exp(1000*x)"])
    def test_non_finite_coefficient_rejected_with_edge(self, field, text):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConfigurationError, match=f"{field} on edge 2 is not finite"):
                build_edge_fields(2, **{field: [1.0, parse_expression(text, ("x",))]})

    def test_infinite_weight_rejected(self):
        with pytest.raises(ConfigurationError, match="finite, got \\[inf\\]"):
            build_edge_fields(1, weights=np.inf)

    @pytest.mark.parametrize("weights", [[2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]]])
    def test_weights_need_one_number_or_one_per_edge(self, weights):
        with pytest.raises(DimensionMismatch, match=r"one weight per edge \(3\)"):
            build_edge_fields(3, weights=weights)

    def test_per_edge_lists(self):
        fields = build_edge_fields(2, conductance=[1.0, 2.0], weights=[2.0, 3.0])
        assert fields.conductance[1](0.5) == 2.0

    def test_nodal_samples(self):
        fields = build_edge_fields(1, conductance=np.array([1.0, 2.0, 1.0]))
        assert fields.conductance[0](0.25) == 1.5


class TestDrift:
    def test_eval_matches_polynomial(self):
        # k=1, leading coefficient 1, constant term 5: f(1) = -1 + 5 = 4
        d = polynomial_drift(1, [5.0, 0.0, 0.0, 1.0], n_edges=1)
        assert eval_drift(d, 0.0, 0.0, 1, 1.0) == 4.0

    def test_allen_cahn_roots(self):
        fields = build_edge_fields(2)
        drift = allen_cahn_system([2.0, 2.0], fields).drift
        for eta in (-2.0, 0.0, 2.0):
            assert eval_drift(drift, 0.0, 0.0, 1, eta) == 0.0
        assert eval_drift(drift, 0.0, 0.0, 1, 1.0) == 3.0  # -1 + 4

    def test_allen_cahn_potential_shift(self):
        fields = build_edge_fields(2)
        spec = allen_cahn_system([1.0, 2.0], fields)
        assert spec.beta == 2.0
        np.testing.assert_array_equal(spec.rho, [3.0, 0.0])
        assert spec.fields.potential[0](0.5) == 3.0
        assert spec.fields.potential[1](0.5) == 0.0

    def test_shifted_constant_potential_stays_constant(self):
        spec = allen_cahn_system([1.0, 1.5, 2.0], build_edge_fields(3))
        assert [p.constant for p in spec.fields.potential] == spec.rho.tolist()

    def test_shifted_variable_potential_stays_variable(self):
        fields = build_edge_fields(2, potential=[0.5, parse_expression("x", ("x",))])
        shifted = allen_cahn_system([1.0, 2.0], fields).fields
        assert [p.constant for p in shifted.potential] == [3.5, None]
        assert shifted.potential[1](0.25) == 0.25

    def test_equal_betas_leave_potential_alone(self):
        fields = build_edge_fields(2, potential=0.25)
        shifted = allen_cahn_system([2.0, 2.0], fields).fields
        assert shifted.potential[0](0.3) == 0.25

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(NonpositiveBeta):
            allen_cahn_system([1.0, 0.0], build_edge_fields(2))

    def test_nan_beta_rejected(self):
        with pytest.raises(NonpositiveBeta):
            allen_cahn_system([1.0, np.nan], build_edge_fields(2))

    def test_infinite_beta_rejected(self):
        with pytest.raises(ConfigurationError, match="finite, got \\[inf\\]"):
            allen_cahn_system([np.inf], build_edge_fields(1))

    def test_one_beta_in_a_list_is_not_shared(self):
        with pytest.raises(DimensionMismatch, match=r"one beta per edge \(3\).*got length 1"):
            allen_cahn_system([1.5], build_edge_fields(3))

    def test_odd_symmetry(self):
        drift = allen_cahn_system([1.5], build_edge_fields(1)).drift
        etas = np.linspace(-4.0, 4.0, 41)
        np.testing.assert_allclose(
            eval_drift(drift, 0.0, 0.0, 1, -etas),
            -eval_drift(drift, 0.0, 0.0, 1, etas), atol=1e-14)

    def test_validate_constant_coefficients_pass(self):
        g = build_graph(3, [(1, 2), (2, 3)])
        drift = allen_cahn_system([1.0, 1.0], build_edge_fields(2)).drift
        report = validate_drift(drift, g)
        assert report.passed
        assert report.check("vertex_compatibility").measured == 0.0

    def test_validate_flags_vertex_mismatch(self):
        g = build_graph(3, [(1, 2), (2, 3)])
        # linear coefficient differs across the shared vertex v2: 1 vs 2
        d = polynomial_drift(1, [[0.0, 1.0, 0.0, 1.0], [0.0, 2.0, 0.0, 1.0]], n_edges=2)
        report = validate_drift(d, g)
        assert "vertex_compatibility" in report.failed_names()
        assert report.check("vertex_compatibility").measured == pytest.approx(1.0)

    def test_validate_flags_vanishing_leading_coefficient(self):
        g = build_graph(2, [(1, 2)])
        d = polynomial_drift(1, [0.0, 1.0, 0.0, 0.0], n_edges=1, lower_bound=0.5)
        report = validate_drift(d, g)
        assert "leading_lower_bound" in report.failed_names()

    def test_allen_cahn_passes_validation_with_own_bounds(self):
        g = build_graph(4, [(1, 2), (1, 3), (1, 4)])
        drift = allen_cahn_system([1.0, 2.0, 0.5], build_edge_fields(3)).drift
        assert drift.lower_bound == 1.0
        assert validate_drift(drift, g).passed

    def test_time_dependent_coefficients(self):
        expr = parse_expression("1 + 0.5*sin(t)", ("t", "x"))
        d = polynomial_drift(0, [0.0, expr], n_edges=1, lower_bound=0.4, upper_bound=2.0)
        g = build_graph(2, [(1, 2)])
        assert validate_drift(d, g).passed
        assert eval_drift(d, 0.0, 0.0, 1, 2.0) == -2.0


class TestPolynomialDriftInput:
    def test_row_that_is_no_list_is_named(self):
        with pytest.raises(DimensionMismatch, match="row 2 is 1.0"):
            polynomial_drift(0, [[0.0, 1.0], 1.0], 2)

    def test_short_shared_row_is_named(self):
        with pytest.raises(DimensionMismatch, match=r"row 1 is \[0.0\]"):
            polynomial_drift(0, [0.0], 2)

    def test_negative_degree_rejected(self):
        with pytest.raises(ConfigurationError, match="nonnegative, got -1"):
            polynomial_drift(-1, [0.0, 1.0], 1)


class TestDiffusion:
    def test_additive_unit(self):
        g = build_diffusion(2, 1.0)
        assert g.functions[0](0.3, 0.5, 7.0) == 1.0

    def test_linear_multiplicative_vanishes_at_zero(self):
        g = build_diffusion(1, parse_expression("u", ("t", "x", "u")))
        assert g.functions[0](0.0, 0.0, 0.0) == 0.0

    def test_sine_lipschitz_scan(self):
        g = build_diffusion(1, parse_expression("sin(u)", ("t", "x", "u")),
                            lipschitz=[(2.0, 1.0)], linear_growth=1.0)
        report = validate_diffusion(g)
        assert report.passed
        assert report.check("lipschitz_radius_2").measured <= 1.0

    def test_violated_lipschitz_detected(self):
        g = build_diffusion(1, parse_expression("u^2", ("t", "x", "u")),
                            lipschitz=[(3.0, 1.0)])
        report = validate_diffusion(g)
        assert "lipschitz_radius_3" in report.failed_names()

    def test_growth_bound(self):
        g = build_diffusion(1, parse_expression("2*u", ("t", "x", "u")),
                            lipschitz=[(5.0, 2.0)], linear_growth=2.0)
        assert validate_diffusion(g).passed

    @pytest.mark.parametrize("radius, constant", [
        (0.0, 1.0), (-1.0, 1.0), (np.nan, 1.0), (np.inf, 1.0),
        (1.0, -0.5), (1.0, np.nan), (1.0, np.inf),
    ])
    def test_lipschitz_pair_must_be_finite_with_positive_radius(self, radius, constant):
        with pytest.raises(ConfigurationError, match=f"radius {radius}, constant {constant}"):
            build_diffusion(1, "sin(u)", lipschitz=[(2.0, 1.0), (radius, constant)])

    @pytest.mark.parametrize("growth", [-1.0, np.nan, np.inf])
    def test_linear_growth_must_be_finite_and_nonnegative(self, growth):
        with pytest.raises(ConfigurationError, match=f"linear growth constant {growth}"):
            build_diffusion(1, "sin(u)", linear_growth=growth)

    def test_no_metadata_is_vacuous(self):
        report = validate_diffusion(build_diffusion(1, 1.0))
        assert report.passed
