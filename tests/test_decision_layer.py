"""Unit tests for LinExpr, ParametricPolynomial and Gram utilities."""

import numpy as np
import pytest

from repro.polynomial import (
    DecisionVariable,
    LinExpr,
    Monomial,
    ParametricPolynomial,
    Polynomial,
    VariableVector,
    extract_sos_decomposition,
    gram_to_polynomial,
    make_variables,
    monomial_basis,
    project_to_psd,
    check_sos_numerically,
)


class TestLinExpr:
    def test_arithmetic(self):
        a = DecisionVariable("a")
        b = DecisionVariable("b")
        expr = 2 * a + b - 3
        assert expr.coefficient(a) == 2.0
        assert expr.constant == -3.0
        assert expr.evaluate({a: 1.0, b: 4.0}) == pytest.approx(3.0)

    def test_unique_ids(self):
        assert DecisionVariable("d") != DecisionVariable("d")

    def test_product_of_nonconstant_rejected(self):
        a = DecisionVariable("a")
        b = DecisionVariable("b")
        with pytest.raises(ValueError):
            _ = (a + 1) * (b + 1)

    def test_scalar_product_and_division(self):
        a = DecisionVariable("a")
        expr = (a + 1) * 2 / 4
        assert expr.coefficient(a) == pytest.approx(0.5)
        assert expr.constant == pytest.approx(0.5)

    def test_missing_assignment_raises(self):
        a = DecisionVariable("a")
        with pytest.raises(KeyError):
            LinExpr.coerce(a).evaluate({})


class TestParametricPolynomial:
    def setup_method(self):
        x, y = make_variables("x", "y")
        self.xv = VariableVector([x, y])
        self.px = Polynomial.from_variable(x, self.xv)
        self.py = Polynomial.from_variable(y, self.xv)

    def test_from_basis_and_instantiate(self):
        basis = monomial_basis(2, 1)
        dvars = [DecisionVariable(f"c{k}") for k in range(len(basis))]
        template = ParametricPolynomial.from_basis(self.xv, basis, dvars)
        values = {d: float(k + 1) for k, d in enumerate(dvars)}
        poly = template.instantiate(values)
        assert poly.degree == 1
        assert poly.constant_term() == pytest.approx(1.0)

    def test_multiplication_by_numeric_polynomial(self):
        d = DecisionVariable("d")
        template = ParametricPolynomial.coerce(d, self.xv) * self.px
        poly = template.instantiate({d: 2.0})
        assert poly.almost_equal(2 * self.px)

    def test_bilinear_product_rejected(self):
        d1 = DecisionVariable("d1")
        d2 = DecisionVariable("d2")
        p1 = ParametricPolynomial.coerce(d1, self.xv) * self.px
        p2 = ParametricPolynomial.coerce(d2, self.xv) * self.py
        with pytest.raises(ValueError):
            _ = p1 * p2

    def test_lie_derivative_is_affine_in_decisions(self):
        d = DecisionVariable("d")
        template = ParametricPolynomial.coerce(d, self.xv) * (self.px * self.px)
        lie = template.lie_derivative([-self.px, -self.py])
        poly = lie.instantiate({d: 1.0})
        assert poly.almost_equal(-2 * self.px * self.px)

    def test_decision_variables_listing(self):
        d1, d2 = DecisionVariable("d1"), DecisionVariable("d2")
        template = (ParametricPolynomial.coerce(d1, self.xv) * self.px
                    + ParametricPolynomial.coerce(d2, self.xv) * self.py)
        assert set(template.decision_variables()) == {d1, d2}

    def test_numeric_conversion(self):
        template = ParametricPolynomial.from_polynomial(self.px + 1)
        assert template.is_numeric()
        assert template.to_polynomial().almost_equal(self.px + 1)


# ----------------------------------------------------------------------
# Dict-of-LinExpr reference arithmetic.  ParametricPolynomial keeps its
# terms in arrays; these few lines are the term-by-term semantics it must
# reproduce bit for bit (numeric term outer, symbolic term inner, every
# coefficient summed from 0.0), since the SOS programs it builds are
# fingerprinted by their exact conic data.
# ----------------------------------------------------------------------
def _ref_terms(poly):
    if isinstance(poly, Polynomial):
        return {m: LinExpr.from_constant(c) for m, c in poly.coefficients.items()}
    return dict(poly.coefficients)


def _ref_add(left, right):
    out = dict(left)
    for mono, expr in right.items():
        out[mono] = out.get(mono, LinExpr.from_constant(0.0)) + expr
    return {m: e for m, e in out.items() if e}


def _ref_neg(terms):
    return {m: -e for m, e in terms.items()}


def _ref_mul(numeric, symbolic):
    out = {}
    for m1, e1 in numeric.items():
        for m2, e2 in symbolic.items():
            out[m1 * m2] = out.get(m1 * m2, LinExpr.from_constant(0.0)) + e2 * e1.constant
    return {m: e for m, e in out.items() if e}


def _bits(terms):
    """Terms as exact bit patterns (``float.hex`` tells ``-0.0`` from ``0.0``)."""
    if isinstance(terms, ParametricPolynomial):
        terms = terms.coefficients
    return {m: (sorted((d.uid, a.hex()) for d, a in e.coeffs.items()), e.constant.hex())
            for m, e in terms.items()}


def _random_numeric(rng, variables, terms=6, degree=3):
    coeffs = {}
    for _ in range(terms):
        exps = rng.multinomial(int(rng.integers(0, degree + 1)), [1 / len(variables)] * len(variables))
        coeffs[Monomial(tuple(int(e) for e in exps))] = float(rng.normal())
    return Polynomial(variables, coeffs)


def _random_parametric(rng, variables, dvars, terms=8, degree=3):
    """Affine coefficients with several decision variables and a constant each."""
    coeffs = {}
    for mono in _random_numeric(rng, variables, terms, degree).coefficients:
        chosen = rng.choice(len(dvars), size=int(rng.integers(1, 4)), replace=False)
        coeffs[mono] = LinExpr({dvars[k]: float(rng.normal()) for k in chosen},
                               float(rng.normal()))
    return ParametricPolynomial(variables, coeffs)


class TestArrayParity:
    def setup_method(self):
        self.rng = np.random.default_rng(2024)
        x, y, z = make_variables("x", "y", "z")
        self.xyz = VariableVector([x, y, z])
        self.xy = VariableVector([x, y])
        self.yz = VariableVector([y, z])
        self.dvars = [DecisionVariable(f"d{k}") for k in range(6)]

    def _pair(self, variables=None):
        variables = variables or self.xyz
        return (_random_numeric(self.rng, variables),
                _random_parametric(self.rng, variables, self.dvars))

    def test_products_in_both_operand_orders(self):
        for _ in range(20):
            numeric, param = self._pair()
            expected = _bits(_ref_mul(_ref_terms(numeric), _ref_terms(param)))
            assert _bits(param * numeric) == expected
            assert _bits(numeric * param) == expected
            numeric_pp = ParametricPolynomial.from_polynomial(numeric)
            assert _bits(numeric_pp * param) == expected
            assert _bits(param * numeric_pp) == expected
            # Two numeric factors: the left one is the outer loop.
            other = _random_numeric(self.rng, self.xyz)
            both = numeric_pp * other
            assert _bits(both) == _bits(_ref_mul(_ref_terms(numeric), _ref_terms(other)))
            assert both.coefficient_matrix.dtype == np.float64

    def test_scalar_and_affine_scaling(self):
        numeric, param = self._pair()
        for scale in (2.5, -1.5, 0.0):
            assert _bits(param * scale) == _bits(
                {m: e * scale for m, e in param.coefficients.items() if e * scale})
        assert _bits(param / 4.0) == _bits(
            {m: e * 0.25 for m, e in param.coefficients.items()})
        d0, d3 = self.dvars[0], self.dvars[3]
        affine = 2.0 * d3 - 0.5 * d0 + 1.25
        expected = _bits({m: affine * c for m, c in numeric.coefficients.items()})
        assert _bits(ParametricPolynomial.from_polynomial(numeric) * affine) == expected
        assert _bits(affine * numeric) == expected
        assert _bits(d0 * numeric) == _bits(
            {m: LinExpr.from_variable(d0) * c for m, c in numeric.coefficients.items()})

    def test_sums_and_exact_cancellation(self):
        for _ in range(20):
            (_, left), (numeric, right) = self._pair(), self._pair()
            assert _bits(left + right) == _bits(_ref_add(_ref_terms(left), _ref_terms(right)))
            assert _bits(left - right) == _bits(
                _ref_add(_ref_terms(left), _ref_neg(_ref_terms(right))))
            assert _bits(numeric - left) == _bits(
                _ref_add(_ref_neg(_ref_terms(left)), _ref_terms(numeric)))
        # A negated template carries -0.0 constants; a term only on the left
        # keeps its sign bit, a term only on the right becomes 0.0 + c.
        basis = monomial_basis(3, 2)
        template = ParametricPolynomial.from_basis(
            self.xyz, basis, [DecisionVariable(f"t{k}") for k in range(len(basis))])
        assert _bits(-template + numeric) == _bits(
            _ref_add(_ref_neg(_ref_terms(template)), _ref_terms(numeric)))
        assert _bits(numeric - template) == _bits(
            _ref_add(_ref_neg(_ref_terms(template)), _ref_terms(numeric)))
        _, param = self._pair()
        gone = param.monomials()[0]
        total = param + ParametricPolynomial(self.xyz, {gone: -param.coefficient(gone)})
        assert gone not in total.monomials()
        assert _bits(total) == _bits(
            {m: e for m, e in param.coefficients.items() if m != gone})
        assert not (param - param).monomials()
        assert (param - param).decision_variables() == ()

    def test_mismatched_variable_vectors(self):
        numeric = _random_numeric(self.rng, self.yz)
        param = _random_parametric(self.rng, self.xy, self.dvars)
        negated = -ParametricPolynomial.from_basis(self.xy, monomial_basis(2, 1),
                                                   self.dvars[:3])
        for poly in (param, negated):
            assert _bits(poly.with_variables(self.xyz)) == _bits({
                Monomial(m.exponents + (0,)): LinExpr.from_constant(0.0) + e
                for m, e in poly.coefficients.items()})
        widened = param.with_variables(self.xyz)
        numeric_xyz = _ref_terms(numeric.with_variables(self.xyz))
        assert _bits(param * numeric) == _bits(_ref_mul(numeric_xyz, _ref_terms(widened)))
        assert _bits(param + numeric) == _bits(_ref_add(_ref_terms(widened), numeric_xyz))
        assert (param + numeric).variables == self.xyz

    def test_differentiate_and_lie_derivative(self):
        def ref_differentiate(terms, index):
            out = {}
            for mono, expr in terms.items():
                factor, dmono = mono.differentiate(index)
                if factor:
                    out[dmono] = LinExpr.from_constant(0.0) + expr * factor
            return {m: e for m, e in out.items() if e}

        _, param = self._pair()
        basis = monomial_basis(3, 2)
        negated = -ParametricPolynomial.from_basis(
            self.xyz, basis, [DecisionVariable(f"t{k}") for k in range(len(basis))])
        field = [_random_numeric(self.rng, self.xyz) for _ in range(3)]
        for poly in (param, negated):
            expected = {}
            for i, component in enumerate(field):
                partial = ref_differentiate(_ref_terms(poly), i)
                assert _bits(poly.differentiate(i)) == _bits(partial)
                expected = _ref_add(expected, _ref_mul(_ref_terms(component), partial))
            assert _bits(poly.lie_derivative(field)) == _bits(expected)

    def test_instantiate(self):
        numeric = _random_numeric(self.rng, self.xyz, terms=10)
        basis = monomial_basis(3, 2)
        dvars = [DecisionVariable(f"c{k}") for k in range(len(basis))]
        template = ParametricPolynomial.from_basis(self.xyz, basis, dvars) - numeric
        values = {d: float(v) for d, v in zip(dvars, self.rng.normal(size=len(dvars)))}
        expected = {m: e.evaluate(values) for m, e in template.coefficients.items()}
        got = template.instantiate(values)
        assert got.coefficients == {m: v for m, v in expected.items() if abs(v) > 1e-14}
        with pytest.raises(KeyError):
            template.instantiate({})

    def test_bilinear_product_rejected(self):
        (_, left), (_, right) = self._pair(), self._pair()
        with pytest.raises(ValueError):
            _ = left * right
        with pytest.raises(ValueError):
            _ = left * (self.dvars[0] + 1.0)


@pytest.fixture(scope="module")
def pll3_mode2():
    """pll3's synthesised mode-2 certificate with its mode domain and outer set."""
    from repro.core import MultipleLyapunovSynthesizer
    from repro.scenarios import build_problem

    problem = build_problem("pll3").fill_option_defaults()
    result = MultipleLyapunovSynthesizer(
        problem.system, options=problem.options.lyapunov).synthesize()
    assert result.feasible, result.message
    return (result.certificates["mode2"].certificate, problem.mode_domain("mode2"),
            problem.outer_set_polynomial())


def test_pll3_inclusion_expression_matches_reference_bitwise(pll3_mode2):
    """``λ·(V2 − c) − g − Σσ·g_dom`` on pll3's mode 2, term for term."""
    from repro.sos import SOSProgram

    certificate, domain, outer = pll3_mode2
    variables = domain.variables
    inner = (certificate - 0.1224).with_variables(variables)
    outer = outer.with_variables(variables)
    program = SOSProgram()
    lam = program.new_sos_polynomial(variables, 2, name="lambda")
    expr = lam * inner - outer
    expected = _ref_add(_ref_mul(_ref_terms(inner), _ref_terms(lam)),
                        _ref_neg(_ref_terms(outer)))
    for k, constraint in enumerate(domain.inequalities):
        g = constraint.with_variables(variables)
        sigma = program.new_sos_polynomial(variables, 2, name=f"dom{k}")
        expr = expr - sigma * g
        expected = _ref_add(expected, _ref_neg(_ref_mul(_ref_terms(g), _ref_terms(sigma))))
    assert len(domain.inequalities) > 0
    assert _bits(expr) == _bits(expected)


class TestGram:
    def test_gram_roundtrip(self):
        x, y = make_variables("x", "y")
        xv = VariableVector([x, y])
        basis = monomial_basis(2, 1)
        gram = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]])
        poly = gram_to_polynomial(xv, basis, gram)
        # p = 2 + x^2 + x*y + y^2
        assert poly.constant_term() == pytest.approx(2.0)
        assert poly.coefficient((1, 1)) == pytest.approx(1.0)

    def test_extract_sos_decomposition(self):
        x, y = make_variables("x", "y")
        xv = VariableVector([x, y])
        px = Polynomial.from_variable(x, xv)
        py = Polynomial.from_variable(y, xv)
        poly = px * px + 2 * px * py + py * py + 1  # (x+y)^2 + 1
        basis = monomial_basis(2, 1)
        gram = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        decomposition = extract_sos_decomposition(poly, gram, basis)
        assert decomposition.is_valid()
        reconstructed = sum((sq * sq for sq in decomposition.squares),
                            Polynomial.zero(xv))
        assert reconstructed.almost_equal(poly, tolerance=1e-8)

    def test_project_to_psd(self):
        matrix = np.array([[1.0, 2.0], [2.0, 1.0]])
        projected = project_to_psd(matrix)
        eigenvalues = np.linalg.eigvalsh(projected)
        assert eigenvalues.min() >= -1e-12

    def test_check_sos_numerically_detects_negativity(self):
        x, = make_variables("x")
        xv = VariableVector([x])
        px = Polynomial.from_variable(x, xv)
        assert check_sos_numerically(px * px) >= 0.0
        assert check_sos_numerically(-px * px - 1) < 0.0
