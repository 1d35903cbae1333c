"""Tests for scene parsing, printing, and the round-trip fixpoint."""

import time
from fractions import Fraction

import pytest

from curveavoid.curves import exp_sum, exp_term
from curveavoid.exact_linalg import gq
from curveavoid.projective import ComplexHyperplane
from curveavoid.scene import (
    MAX_DEGREE,
    MAX_DEPTH,
    MAX_DIGITS,
    MAX_TERMS,
    ParseError,
    format_scene,
    parse_constant,
    parse_scene,
)

F = Fraction

# One scene per entry; together they cover every production of the grammar.
CORPUS = [
    "hyperplane H: z1 = 0",
    "hyperplane H: z1 + z2 + z3 = 0",
    "hyperplane H: z1 - z2 = 0",
    "hyperplane B: (1/2 - 3i)*z2 = 0",
    "hyperplane H: i*z1 + z3 = 0",
    "hyperplane H: 2i*z1 - 3/4*z2 = 0",
    "hyperplane H: z1/2 + z2/3 = 0",
    "hyperplane H: (1 + i)*z1 - (2 - i)*z3 = 0",
    "hyperplane H: 7*z2 = 0",
    "real S: x1 = 0",
    "real S: x1 - x2 = 0; x1 - x3 = 0",
    "real S: x1 + x2 + x3 = 0",
    "real S: 2*x1 - 3*y2 = 0",
    "real S: x1/2 + y3 = 0",
    "real S: y1 = 0; y2 = 0; y3 = 0",
    "curve f: (exp(z), -exp(z), exp(2*z))",
    "curve f: (1, exp(z), -exp(z))",
    "curve f: (exp(z), exp(z), exp(z))",
    "curve f: (1, -1, exp(z))",
    "curve f: (exp(z^2), exp(z^2 + z), 1/2)",
    "curve f: (exp(i*z), (1 + i)*exp(z), -2)",
    "curve f: (exp(z) + exp(2*z), 1 + exp(z), exp(z) - 1)",
    "curve f: (exp(z/2), exp(3*z) + 1/3, i)",
    (
        "hyperplane H1: z1 = 0\n"
        "hyperplane H2: z2 = 0\n"
        "hyperplane H3: z3 = 0\n"
        "hyperplane H4: z1 + z2 + z3 = 0\n"
        "real H: x1 - x2 = 0; x1 - x3 = 0\n"
        "curve f: (exp(z), -exp(z), exp(2*z))"
    ),
    (
        "# a comment line\n"
        "\n"
        "hyperplane A: z1 + 2*z2 + 3*z3 = 0   # trailing comment\n"
        "curve g: (exp(z), 1, exp(-z))"
    ),
]


class TestParsing:
    def test_simple_hyperplane(self):
        scene = parse_scene("hyperplane H4: z1 + z2 + z3 = 0")
        assert scene.hyperplanes["H4"] == ComplexHyperplane((1, 1, 1))

    def test_coefficient_styles(self):
        scene = parse_scene("hyperplane B: (1/2 - 3i)*z2 = 0")
        assert scene.hyperplanes["B"].coefficients == (
            gq(0),
            gq(F(1, 2), -3),
            gq(0),
        )

    def test_real_subspace(self):
        scene = parse_scene("real H: x1 - x2 = 0; x1 - x3 = 0")
        assert scene.reals["H"].dimension == 4

    def test_curve(self):
        scene = parse_scene("curve f: (exp(z), -exp(z), exp(2*z))")
        f = scene.curves["f"]
        assert f.components[0] == exp_term(1, (0, 1))
        assert f.components[1] == exp_term(-1, (0, 1))
        assert f.components[2] == exp_term(1, (0, 2))

    def test_curve_with_sums_and_products(self):
        scene = parse_scene("curve f: (exp(z) + exp(2*z), 2*exp(z)*exp(z), 1)")
        assert scene.curves["f"].components[0] == exp_sum([(1, (0, 1)), (1, (0, 2))])
        # exponents add under multiplication
        assert scene.curves["f"].components[1] == exp_term(2, (0, 2))

    def test_implicit_imaginary_number(self):
        scene = parse_scene("hyperplane H: 2i*z1 + z2 = 0")
        assert scene.hyperplanes["H"].coefficients[0] == gq(0, 2)

    def test_declaration_order_preserved(self):
        scene = parse_scene("curve f: (1, 1, 1)\nhyperplane H: z1 = 0")
        assert scene.order == (("curve", "f"), ("hyperplane", "H"))


class TestParseErrors:
    def error(self, text):
        with pytest.raises(ParseError) as info:
            parse_scene(text)
        return info.value

    def test_position_reported(self):
        err = self.error("hyperplane H z1 = 0")
        assert (err.line, err.column) == (1, 14)

    def test_line_number(self):
        err = self.error("hyperplane H: z1 = 0\nreal S: x1 + = 0")
        assert err.line == 2

    def test_zero_form(self):
        err = self.error("hyperplane H: z1 - z1 = 0")
        assert "zero form" in str(err)

    def test_constant_part(self):
        assert "constant" in str(self.error("hyperplane H: z1 + 1 = 0"))

    def test_duplicate_name(self):
        err = self.error("hyperplane H: z1 = 0\nhyperplane H: z2 = 0")
        assert "duplicate" in str(err)

    def test_unknown_variable(self):
        err = self.error("hyperplane H: z4 = 0")
        assert "unknown variable" in str(err)

    def test_complex_variable_in_real_form(self):
        assert self.error("real S: z1 = 0").line == 1

    def test_imaginary_real_coefficient(self):
        err = self.error("real S: i*x1 = 0")
        assert "rational coefficients" in str(err)

    def test_nonlinear_product(self):
        err = self.error("hyperplane H: z1*z2 = 0")
        assert "not linear" in str(err)

    def test_division_by_variable(self):
        assert "constants" in str(self.error("hyperplane H: z1/z2 = 0"))

    def test_trailing_tokens(self):
        err = self.error("hyperplane H: z1 = 0 extra")
        assert "trailing" in str(err)

    def test_missing_zero(self):
        assert "= 0" in str(self.error("hyperplane H: z1 = 1"))

    def test_unterminated_curve(self):
        err = self.error("curve f: (exp(z), 1")
        assert err.line == 1

    def test_power_outside_exp(self):
        assert self.error("hyperplane H: z1^2 = 0") is not None

    def test_bad_character(self):
        err = self.error("hyperplane H: z1 & z2 = 0")
        assert "unexpected character" in str(err)

    def test_division_by_zero_constant(self):
        assert self.error("curve f: (1/0, 1, 1)") is not None


def sum_of_exponentials(count, step=1):
    return " + ".join(f"exp({step * k}*z)" for k in range(count))


class TestInputBounds:
    error = TestParseErrors.error

    def test_degree_bound_is_inclusive(self):
        scene = parse_scene(
            f"curve f: (exp(z^{MAX_DEGREE}), exp((z^8)^8), exp(z^32*z^32 + z))"
        )
        assert all(len(c.terms[0].exponent) == MAX_DEGREE + 1 for c in scene.curves["f"].components)

    @pytest.mark.parametrize(
        "text, column",
        [
            ("curve f: (exp((z+1)^3000), 1, 1)", 21),
            ("curve f: (exp(z^100000000), 1, 1)", 17),
            ("curve f: (exp((z^8)^9), 1, 1)", 21),
            ("curve f: (exp(z^33*z^32), 1, 1)", 19),
        ],
    )
    def test_degree_above_bound_rejected_at_its_token(self, text, column):
        err = self.error(text)
        assert (err.line, err.column) == (1, column)
        assert f"degree at most {MAX_DEGREE}" in str(err)

    # exponents k + 16 m for k, m < 16: a product with exactly MAX_TERMS distinct terms
    FULL = f"({sum_of_exponentials(16)}) * ({sum_of_exponentials(16, step=16)})"

    def test_term_bound_is_inclusive(self):
        scene = parse_scene(f"curve f: ({self.FULL}, 1, 1)")
        assert len(scene.curves["f"].components[0].terms) == MAX_TERMS

    def test_product_over_term_bound_rejected_at_the_operator(self):
        terms = sum_of_exponentials(17)
        text = f"curve f: (({terms}) * ({terms}), 1, 1)"
        err = self.error(text)
        assert err.column == text.index(") * (") + 3
        assert f"at most {MAX_TERMS} terms" in str(err)

    def test_sum_over_term_bound_rejected_at_the_operator(self):
        text = f"curve f: ({self.FULL} + exp(-z), 1, 1)"
        err = self.error(text)
        assert err.column == text.rindex(" + ") + 2
        assert f"at most {MAX_TERMS} terms" in str(err)

    def test_sum_parses_in_linear_time(self):
        # merging each term into one dict; re-sorting the sum on every '+'
        # took about a second for this line
        text = f"curve f: ({sum_of_exponentials(MAX_TERMS)}, 1, 1)"
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            scene = parse_scene(text)
            elapsed.append(time.perf_counter() - start)
        assert len(scene.curves["f"].components[0].terms) == MAX_TERMS
        assert min(elapsed) < 0.2

    def test_cancelling_sum_stays_within_the_term_bound(self):
        text = f"curve f: ({self.FULL} - ({self.FULL}) + exp(-z), 1, 1)"
        assert parse_scene(text) == parse_scene("curve f: (exp(-z), 1, 1)")

    def test_depth_bound_is_inclusive(self):
        deep = MAX_DEPTH * "(" + "1" + MAX_DEPTH * ")"
        signs = MAX_DEPTH * "-" + "1"
        inner = (MAX_DEPTH - 1) * "(" + "z" + (MAX_DEPTH - 1) * ")"
        scene = parse_scene(f"curve f: ({deep}, {signs}, exp({inner}))")
        assert scene == parse_scene("curve f: (1, 1, exp(z))")

    @pytest.mark.parametrize(
        "prefix, nest, body",
        [
            ("curve f: (", "(", "exp(z)" + 400 * ")" + ", 1, 1)"),
            ("curve f: (", "-", "exp(z), 1, 1)"),
            ("curve f: (", "-(", "1" + 200 * ")" + ", 1, 1)"),
            ("hyperplane H: ", "(", "z1" + 400 * ")" + " = 0"),
            ("real S: ", "-", "x1 = 0"),
        ],
        ids=["parentheses", "signs", "mixed", "linear-form", "real-form"],
    )
    def test_depth_above_bound_rejected_at_its_token(self, prefix, nest, body):
        text = prefix + (400 // len(nest)) * nest + body
        err = self.error(text)
        # the token that opens level MAX_DEPTH + 1
        assert (err.line, err.column) == (1, len(prefix) + MAX_DEPTH + 1)
        assert f"nest at most {MAX_DEPTH} levels" in str(err)

    def test_exp_counts_as_a_level(self):
        text = "curve f: (" + MAX_DEPTH * "(" + "exp(z)" + MAX_DEPTH * ")" + ", 1, 1)"
        err = self.error(text)
        assert err.column == text.index("exp(") + 4

    def test_digit_bound_is_inclusive(self):
        top = "9" * MAX_DIGITS
        den = "1" + "0" * (MAX_DIGITS - 1)
        half = "9" * (MAX_DIGITS // 2)
        # (10^32 - 1) * 10^32 has exactly 64 digits
        built = f"{half}*1{'0' * (MAX_DIGITS // 2)}"
        scene = parse_scene(
            f"hyperplane H: {top}/{den}*z1 + {top}i*z2 + 000{top}*z3 + {built}i*z1 = 0"
        )
        c = scene.hyperplanes["H"].coefficients
        assert c[0] == gq(F(int(top), int(den)), 10**MAX_DIGITS - 10 ** (MAX_DIGITS // 2))
        assert c[1:] == (gq(0, int(top)), gq(int(top)))
        assert parse_constant(f"{top}/{den} - {top}i") == gq(F(int(top), int(den)), -int(top))

    LONG = "9" * (MAX_DIGITS // 2 + 8)
    # 10^40 + 1 and 10^40 + 3 are odd and differ by 2, so coprime
    COPRIME = (f"1/1{'0' * 39}1", f"1/1{'0' * 39}3")

    # the marker is the first text of the literal or operator that breaks the bound
    @pytest.mark.parametrize(
        "text, marker",
        [
            ("hyperplane H: " + "9" * (MAX_DIGITS + 1) + "*z1 = 0", "9"),
            ("hyperplane H: 1/" + "9" * (MAX_DIGITS + 1) + "*z1 = 0", "1/"),
            ("hyperplane H: z1 + " + "9" * (MAX_DIGITS + 1) + "i*z2 = 0", "9"),
            # past Python's own limit on converting a digit string
            ("curve f: (" + "9" * 5000 + "*exp(z), 1, 1)", "9"),
            # both factors fit Python's limit; the first already breaks the bound
            ("curve f: (" + "9" * 4000 + "*" + "7" * 4000 + ", 1, 1)", "9"),
            (f"hyperplane H: {LONG}*{LONG}*z1 = 0", "*"),
            (f"real S: {COPRIME[0]}*x1 + {COPRIME[1]}*x1 = 0", "+ "),
            (f"curve f: (exp({LONG}*{LONG}*z), 1, 1)", "*"),
            (f"curve f: (exp(z) - ({LONG}*exp(2*z))*({LONG}*exp(z)), 1, 1)", "*("),
            (f"curve f: ({COPRIME[0]}*exp(z) + {COPRIME[1]}*exp(z), 1, 1)", "+ "),
        ],
        ids=[
            "numerator", "denominator", "imaginary", "python-limit", "long-product",
            "linear-product", "linear-sum", "poly-product", "curve-product", "curve-sum",
        ],
    )
    def test_digits_above_bound_rejected_at_its_token(self, text, marker):
        err = self.error(text)
        assert (err.line, err.column) == (1, text.index(marker) + 1)
        assert f"at most {MAX_DIGITS} digits" in str(err)

    def test_constant_above_digit_bound(self):
        with pytest.raises(ParseError, match=f"at most {MAX_DIGITS} digits"):
            parse_constant(f"{self.LONG}*{self.LONG}")


class TestRoundTrip:
    @pytest.mark.parametrize("text", CORPUS)
    def test_print_parse_fixpoint(self, text):
        scene = parse_scene(text)
        printed = format_scene(scene)
        reparsed = parse_scene(printed)
        assert reparsed == scene
        assert format_scene(reparsed) == printed

    def test_corpus_is_large_enough(self):
        assert len(CORPUS) >= 20


class TestParseConstant:
    def test_values(self):
        assert parse_constant("1/2 - 3i") == gq(F(1, 2), -3)
        assert parse_constant("i") == gq(0, 1)
        assert parse_constant("-2") == gq(-2)
        assert parse_constant("(1 + i)/2") == gq(F(1, 2), F(1, 2))

    def test_rejects_nonconstants(self):
        with pytest.raises(ParseError):
            parse_constant("exp(z)")
        with pytest.raises(ParseError):
            parse_constant("1 +")
