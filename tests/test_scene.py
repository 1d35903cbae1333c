"""Tests for scene parsing, printing, and the round-trip fixpoint."""

import math
import random
import re
import time
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings, strategies as st

from curveavoid.curves import exp_sum, exp_term
from curveavoid.exact_linalg import gq
from curveavoid.projective import ComplexHyperplane
from curveavoid.scene import (
    MAX_DEGREE,
    MAX_DEPTH,
    MAX_DIGITS,
    MAX_TERMS,
    ParseError,
    Scene,
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

# the characters other than \n and \r at which str.splitlines ends a line
OTHER_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


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

    @pytest.mark.parametrize(
        "text, canonical",
        [
            ("hyperplane H: 0*z1*z2 + z3 = 0", "hyperplane H: z3 = 0\n"),
            ("hyperplane H: (z1 - z1)*z2 + z3 = 0", "hyperplane H: z3 = 0\n"),
            ("real S: x1/(y1 - y1 + 2) = 0", "real S: x1 = 0\n"),
        ],
    )
    def test_linear_form_is_judged_by_its_value(self, text, canonical):
        """A factor whose variables cancel is a constant, as in exponents and curve components."""
        assert format_scene(parse_scene(text)) == canonical

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

    def test_lines_end_at_newlines_only(self):
        """\\n, \\r\\n and \\r each end one line, as in a file read with universal newlines."""
        err = self.error("hyperplane A: z1 = 0\r\nhyperplane B: z2 = 0\rhyperplane C: z3 = 0\n\nreal S: x1 + = 0")
        assert err.line == 5

    @pytest.mark.parametrize("brk", OTHER_LINE_BREAKS)
    def test_other_line_breaks_are_whitespace(self, brk):
        """A break that `str.splitlines` knows but an editor does not leaves the line count alone."""
        err = self.error(f"hyperplane H1: z1 = 0\nhyperplane H2: z2 = 0{brk}\nhyperplane H3:{brk}z3 = 0 = 1\n")
        assert (err.line, err.column) == (3, 23)

    @pytest.mark.parametrize("brk", OTHER_LINE_BREAKS)
    def test_comment_runs_to_the_newline(self, brk):
        scene = parse_scene(f"# a note{brk}more of it\nhyperplane H: z1 = 0  # H{brk}again\n")
        assert scene.order == (("hyperplane", "H"),)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("hyperplane H", "unexpected end of line"),
            ("hyperplane H: z1 =  ", "unexpected end of line"),
            ("curve f: (exp(z), 1  # unclosed", "unexpected end of line"),
            ("real S: x1 = 0;\x0c", "unexpected end of line"),
            ("hyperplane H: z1 + 1 = 0 ", "constant part"),
            ("hyperplane H: z1 - z1 = 0", "zero form"),
        ],
    )
    def test_end_of_line_is_the_column_after_it(self, text, message):
        """Comments and trailing whitespace count: the column is one past the line's last character."""
        err = self.error(text)
        assert (err.line, err.column) == (1, len(text) + 1)
        assert message in str(err)

    def test_zero_form(self):
        err = self.error("hyperplane H: z1 - z1 = 0")
        assert "zero form" in str(err)

    def test_constant_part(self):
        assert "constant" in str(self.error("hyperplane H: z1 + 1 = 0"))

    def test_duplicate_name(self):
        err = self.error("hyperplane H: z1 = 0\nhyperplane H: z2 = 0")
        assert "duplicate" in str(err)

    @pytest.mark.parametrize(
        "first, second",
        [
            ("hyperplane H: z1 = 0", "real H: x1 = 0"),
            ("real H: x1 = 0", "curve H: (1, 1, exp(z))"),
            ("curve H: (1, 1, exp(z))", "hyperplane H: z1 = 0"),
        ],
    )
    def test_duplicate_name_across_kinds(self, first, second):
        err = self.error(f"{first}\n# a comment\n{second}")
        head = second.split()[0]
        assert (str(err), err.line, err.column) == (
            f"line 3, column {len(head) + 2}: duplicate name 'H'", 3, len(head) + 2
        )

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

    @pytest.mark.parametrize("digit", ["\u0663", "\u0969", "\uff13"])
    @pytest.mark.parametrize(
        "number, column", [("{}", 15), ("1{}", 16), ("1/{}", 17), ("{}i", 15)]
    )
    def test_digits_are_ascii(self, digit, number, column):
        """Other scripts' decimal digits are not numbers, as other letters are not names."""
        err = self.error(f"hyperplane H: {number.format(digit)}*z1 = 0")
        assert (err.line, err.column) == (1, column)
        assert str(err).endswith(f"unexpected character {digit!r}")
        with pytest.raises(ParseError, match="unexpected character"):
            parse_constant(number.format(digit))


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

    # longer than Python's int() reads from a string (4300 digits by default)
    LONG_EXPONENT = "9" * 5000

    def test_long_exponent_rejected_at_its_token(self):
        err = self.error(f"curve f: (exp(z^{self.LONG_EXPONENT}), 1, 1)")
        assert (err.line, err.column) == (1, 17)
        assert f"degree at most {MAX_DEGREE}" in str(err)

    def test_long_exponent_in_a_constant_rejected_at_its_token(self):
        with pytest.raises(ParseError, match=f"degree at most {MAX_DEGREE}") as info:
            parse_constant(f"exp(z^{self.LONG_EXPONENT})")
        assert (info.value.line, info.value.column) == (1, 7)

    def test_exponent_leading_zeros_are_not_digits(self):
        scene = parse_scene(f"curve f: (exp(z^{'0' * 5000}2), 1, 1)")
        assert len(scene.curves["f"].components[0].terms[0].exponent) == 3

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

    # 10^33 + 1 and 10^33 + 3 are odd and differ by 2, so coprime: each part
    # fits the bound, but their common denominator has 67 digits
    SPLIT = f"1/1{'0' * 32}1 + 1/1{'0' * 32}3i"

    def test_digit_bound_is_per_part(self):
        value = gq(F(1, 10**33 + 1), F(1, 10**33 + 3))
        assert parse_constant(self.SPLIT) == value
        scene = parse_scene(
            f"hyperplane H: ({self.SPLIT})*z1 + z2 = 0\ncurve f: (({self.SPLIT})*exp(z), 1, 1)\n"
        )
        assert scene.hyperplanes["H"].coefficients[0] == value
        assert scene.curves["f"].components[0].terms[0].coeff == value

    def test_constant_above_digit_bound(self):
        with pytest.raises(ParseError, match=f"at most {MAX_DIGITS} digits"):
            parse_constant(f"{self.LONG}*{self.LONG}")

    @pytest.mark.parametrize(
        "body",
        ["1" * 100_000, "1/2 " * 25_000, "exp(z)+" * 14_286],
        ids=["digits", "fractions", "sums"],
    )
    def test_long_bad_line_is_rejected_in_linear_time(self, body):
        # `11` also scans as `1 1`, so a whole-line pattern of repeated tokens
        # would backtrack exponentially over the digits before the '@'
        text = body + "@"
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            err = self.error(text)
            elapsed.append(time.perf_counter() - start)
        assert (err.line, err.column) == (1, len(text))
        assert str(err).endswith("unexpected character '@'")
        assert min(elapsed) < 0.2


# Each line repeats its faulty operator or exponent earlier and in a trailing
# comment; '|' marks the occurrence the error is reported at, and is removed.
TWO_TERMS = sum_of_exponentials(2)
REPEATED = [
    ("real S: 2*x1 + x1|*y1 = 0  # x1*y1", "products of variables are not linear"),
    ("hyperplane H: z1/2 + z2|/z3 = 0  # z2/z3", "division is only by nonzero constants"),
    ("curve f: (exp(z^2)^|2, 1, 1)  # exp(z)^2", "'^' is not allowed here"),
    ("curve f: (exp((z^9)^|9), 1, 1)  # ^9", f"degree at most {MAX_DEGREE}"),
    ("curve f: (exp(2*z^40 + z^40|*z^30), 1, 1)  # z^40*z^30", f"degree at most {MAX_DEGREE}"),
    (f"curve f: ({sum_of_exponentials(MAX_TERMS)} |+ exp(-z), 1, 1)  # + exp(-z)",
     f"at most {MAX_TERMS} terms"),
    (f"curve f: (({TWO_TERMS}) * ({TWO_TERMS}) |* ({sum_of_exponentials(100)}), 1, 1)  # * (",
     f"at most {MAX_TERMS} terms"),
    (f"hyperplane H: 2*z1 + 1{'0' * 40}|*1{'0' * 40}*z2 = 0  # *", f"at most {MAX_DIGITS} digits"),
    (f"hyperplane H: z1 + {'9' * MAX_DIGITS} |+ 1 = 0  # + 1", f"at most {MAX_DIGITS} digits"),
    ("curve f: (exp(1/2*z^2 + z^|1/2), 1, 1)  # z^1/2", "exponent must be a nonnegative integer"),
]


@pytest.mark.parametrize(
    "marked, message",
    REPEATED,
    ids=[
        "nonlinear", "division", "power", "degree-power", "degree-product", "terms-sum",
        "terms-product", "digits-product", "digits-sum", "exponent",
    ],
)
def test_error_at_a_repeated_operator_is_at_its_occurrence(marked, message):
    line = marked.replace("|", "")
    with pytest.raises(ParseError) as info:
        parse_scene("hyperplane A: z1 + 2*z2 - z3/2 = 0  # ^2\n" + line)
    assert (info.value.line, info.value.column) == (2, marked.index("|") + 1)
    assert message in str(info.value)


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

    @pytest.mark.parametrize(
        "text, column",
        [("1+i)", 4), ("1 2", 3), ("(1/2 - 3i) z", 12), ("exp(z)", 1), ("z", 1), ("2*x1", 3)],
    )
    def test_error_column(self, text, column):
        """The first token after a complete constant, a name other than exp, or column 1 for a nonconstant."""
        with pytest.raises(ParseError, match="expected a constant") as info:
            parse_constant(text)
        assert (info.value.line, info.value.column) == (1, column)


# A scanner that matches one token or whitespace run at a time, as the parser
# once did, kept here as the specification of how a line splits into tokens.
REFERENCE_LINE_END = re.compile(r"\r\n|\r|\n")
REFERENCE_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>[0-9]+(?:/[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()=:;,])"
)


def respaced(text):
    """text with each token at its column and a space everywhere else, or (column, character) where the scan stops.

    A scanner reads the respaced text into the same tokens at the same
    columns, since only spaces separate them; the line keeps its length, so
    an error at the end of the line keeps its column too.
    """
    out = [" "] * len(text)
    pos = 0
    while pos < len(text) and text[pos] != "#":
        m = REFERENCE_TOKEN.match(text, pos)
        if m is None:
            return None, (pos + 1, text[pos])
        if m.lastgroup != "ws":
            out[pos : m.end()] = m.group()
        pos = m.end()
    return "".join(out), None


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return str(err), err.line, err.column


def scan_error(line, stop):
    column, char = stop
    return f"line {line}, column {column}: unexpected character {char!r}", line, column


def reference_scene_outcome(text):
    lines = []
    for line_no, raw in enumerate(REFERENCE_LINE_END.split(text), start=1):
        line, stop = respaced(raw)
        if stop is not None:
            # the earlier lines are parsed before this one is scanned
            before = outcome(parse_scene, "\n".join(lines))
            return scan_error(line_no, stop) if isinstance(before, Scene) else before
        lines.append(line)
    return outcome(parse_scene, "\n".join(lines))


def reference_constant_outcome(text):
    line, stop = respaced(text)
    return scan_error(1, stop) if stop is not None else outcome(parse_constant, line)


SCAN_ALPHABET = (
    "0123456789" + "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ" + "-+*/^()=:;,#"
    + " \t" + "".join(OTHER_LINE_BREAKS) + "@\u00e9"
)
# pieces of valid scenes, so that drawn lines get past the declaration head
SCAN_HEADS = ["", "hyperplane H: ", "hyperplane G:", "real S: ", "real T:", "curve f: (", "curve g:("]
SCAN_FRAGMENTS = [
    "exp(", "z1", "z2", "x1", "y3", "z", "i", " = 0", "1/2", "007", "3i", "2*", ", ", "; ", ")",
]
scan_pieces = st.one_of(st.sampled_from(SCAN_ALPHABET), st.sampled_from(SCAN_FRAGMENTS))
scan_bodies = st.lists(scan_pieces, max_size=16).map("".join)
# a line of the corpus with one piece spliced in, or none
spliced = st.tuples(
    st.sampled_from([line for text in CORPUS for line in text.splitlines()]),
    st.integers(0, 60),
    scan_pieces | st.just(""),
).map(lambda t: t[0][: t[1]] + t[2] + t[0][t[1] :])
scan_lines = st.tuples(st.sampled_from(SCAN_HEADS), scan_bodies).map("".join) | spliced
scan_texts = st.lists(
    st.tuples(scan_lines, st.sampled_from(["\n", "\r\n", "\r"])), max_size=4
).map(lambda pairs: "".join(line + end for line, end in pairs))


class TestScannerOracle:
    """Every outcome, a value or a `ParseError` with its line and column, is the reference scanner's."""

    @settings(max_examples=300, deadline=None)
    @given(text=scan_texts)
    @example(text="hyperplane H: z1 = 0\x0b\n")
    @example(text="hyperplane H: z1 @ = 0\ncurve f: (\u00e9")
    @example(text="curve f: (exp(z), 1, 1) \u2028\n")
    def test_scene(self, text):
        assert outcome(parse_scene, text) == reference_scene_outcome(text)

    @settings(max_examples=300, deadline=None)
    @given(text=scan_bodies | scan_texts)
    @example(text="1/2 - 3i\x0c")
    @example(text="(1 + i)/2 # note @")
    def test_constant(self, text):
        assert outcome(parse_constant, text) == reference_constant_outcome(text)


def numerals(significant):
    """Digit strings with up to three leading zeros, whose value has one of the given digit counts."""
    value = significant.flatmap(lambda k: st.integers(10 ** (k - 1) if k > 1 else 0, 10**k - 1))
    return st.tuples(st.integers(0, 3), value).map(lambda t: "0" * t[0] + str(t[1]))


within_bound = numerals(st.integers(1, MAX_DIGITS))
at_bound = numerals(st.just(MAX_DIGITS))
literals = st.one_of(
    within_bound,
    at_bound,
    st.tuples(within_bound | at_bound, within_bound | at_bound).map("/".join),
)


class TestLiteralOracle:
    """A number token reads as `Fraction` reads it, with its digits counted and a zero denominator reported at it."""

    @settings(max_examples=300, deadline=None)
    @given(literal=literals, indent=st.integers(0, 3))
    @example(literal="0/0", indent=0)
    @example(literal="000/0001", indent=1)
    @example(literal="007/000", indent=2)
    @example(literal="000" + "9" * MAX_DIGITS + "/000" + "7" * MAX_DIGITS, indent=0)
    def test_value_or_zero_denominator(self, literal, indent):
        text = " " * indent + literal
        if literal.partition("/")[2].strip("0") == "" and "/" in literal:
            with pytest.raises(ParseError, match="zero denominator") as info:
                parse_constant(text)
            assert (info.value.line, info.value.column) == (1, indent + 1)
        else:
            assert parse_constant(text) == gq(Fraction(literal))

    @settings(max_examples=100, deadline=None)
    @given(
        literal=st.one_of(
            numerals(st.just(MAX_DIGITS + 1)),
            st.tuples(numerals(st.just(MAX_DIGITS + 1)), at_bound).map("/".join),
            st.tuples(at_bound, numerals(st.just(MAX_DIGITS + 1))).map("/".join),
            numerals(st.just(MAX_DIGITS + 1)).map(lambda n: n + "/0"),
        ),
        indent=st.integers(0, 3),
    )
    def test_digits_above_bound(self, literal, indent):
        """Leading zeros are not digits of the value; the bound is checked before the denominator."""
        with pytest.raises(ParseError, match=f"at most {MAX_DIGITS} digits") as info:
            parse_constant(" " * indent + literal)
        assert (info.value.line, info.value.column) == (1, indent + 1)


# Each error that the factor reader raises itself or through a call it makes,
# at the token it names; '|' marks the token and is removed.
FACTOR_ERRORS = [
    ("hyperplane H: z1 + |) = 0", "unexpected token ')'"),
    ("hyperplane H: z1 - |* z2 = 0", "unexpected token '*'"),
    ("hyperplane H: z1 - -|", "unexpected end of line"),
    ("curve f: ((1|, 1, 1)", "expected ')', got ','"),
    ("curve f: (exp(z) + (1|", "unexpected end of line"),
    ("curve f: (exp |z, 1, 1)", "expected '(', got 'z'"),
    ("curve f: (exp(z^|", "unexpected end of line"),
    ("curve f: (exp(z^|x), 1, 1)", "exponent must be a nonnegative integer"),
    ("hyperplane H: 2i^|3*z1 = 0", "'^' is not allowed here"),
    ("hyperplane H: i^|2*z1 = 0", "'^' is not allowed here"),
    ("hyperplane H: (z1)^|2 = 0", "'^' is not allowed here"),
    ("hyperplane H: z1 + |w = 0", "unknown variable 'w'"),
    ("curve f: (exp(|w), 1, 1)", "only z may appear inside exp(), not 'w'"),
    ("curve f: (|z, 1, 1)", "unexpected name 'z' in a curve component"),
    ("curve f: (2*|3/0i, 1, 1)", "zero denominator"),
    (
        f"hyperplane H: z1 + |1{'0' * MAX_DIGITS}i*z2 = 0",
        f"numerators and denominators have at most {MAX_DIGITS} digits",
    ),
]


@pytest.mark.parametrize("marked, message", FACTOR_ERRORS)
def test_factor_error_is_at_its_token(marked, message):
    line = marked.replace("|", "")
    with pytest.raises(ParseError) as info:
        parse_scene("hyperplane A: -(z1) + 2i*z2 - (z3)/3 = 0  # ^\n" + line)
    assert str(info.value) == f"line 2, column {marked.index('|') + 1}: {message}"


@pytest.mark.parametrize(
    "marked, message",
    [("1 + |", "unexpected end of line"), ("(|", "unexpected end of line"), ("-(1 |2)", "expected ')', got '2'"),
     ("|/2", "unexpected token '/'"), ("(1/2i)^|2", "'^' is not allowed here")],
)
def test_constant_factor_error_is_at_its_token(marked, message):
    with pytest.raises(ParseError) as info:
        parse_constant(marked.replace("|", ""))
    assert str(info.value) == f"line 1, column {marked.index('|') + 1}: {message}"


# ---------------------------------------------------------------------------
# A value oracle for the arithmetic.  `Expressions` draws the text of an
# expression by the grammar, one level at a time, and computes its value as
# it goes: a dict from monomials to nonzero coefficients, each a pair of
# Fractions (re, im).  Nothing here comes from the package.  Binary operators
# are spaced, so that no '/' joins two numbers into one token.

ZERO, ONE, MINUS_ONE = (0, 0), (1, 0), (-1, 0)
COMPLEX_NAMES = ("z1", "z2", "z3")
REAL_NAMES = ("x1", "y1", "x2", "y2", "x3", "y3")
# exponent polynomials are drawn far below MAX_DEGREE, so no product or power nears it
DEGREE = 12


def pair_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def pair_inverse(y):
    n = y[0] * y[0] + y[1] * y[1]
    return (Fraction(y[0]) / n, Fraction(-y[1]) / n)


def sum_add(a, b):
    out = dict(a)
    for m, c in b.items():
        x = out.get(m, ZERO)
        out[m] = (x[0] + c[0], x[1] + c[1])
        if out[m] == ZERO:
            del out[m]
    return out


class Expressions:
    """Random expressions of one domain, with their values.

    `one` is the constant monomial and `times(m, n)` the product of two
    monomials; `names` maps each name to a function (expressions, depth) ->
    (text, value) that reads it.  `power` draws '^' exponents, `linear`
    multiplies no two nonconstant factors, and `real` draws no i.
    """

    def __init__(self, rng, one, names, times, power=False, linear=False, real=False):
        self.rng, self.one, self.names, self.times = rng, one, names, times
        self.power, self.linear, self.real = power, linear, real

    def is_constant(self, value):
        return value.keys() <= {self.one}

    def product(self, a, b):
        out = {}
        for m, c in a.items():
            for n, d in b.items():
                out = sum_add(out, {self.times(m, n): pair_mul(c, d)})
        return out

    def within_degree(self, value):
        return not self.power or max(value, default=0) <= DEGREE

    def expression(self, depth, constant=False):
        text, value = self.term(depth, constant)
        for _ in range(self.rng.randrange(3) if depth else 0):
            op = self.rng.choice("+-")
            rhs_text, rhs = self.term(depth - 1, constant)
            text += f" {op} {rhs_text}"
            value = sum_add(value, rhs if op == "+" else self.product(rhs, {self.one: MINUS_ONE}))
        return text, value

    def term(self, depth, constant=False):
        text, value = self.factor(depth, constant)
        for _ in range(self.rng.randrange(3) if depth else 0):
            op = self.rng.choice("*/")
            rhs_text, rhs = self.factor(depth - 1, constant)
            # a divisor is a nonzero constant, and so is one factor of a product that would leave the domain
            while not (
                (op == "*" or (self.is_constant(rhs) and rhs))
                and self.within_degree(self.product(value, rhs))
                and not (self.linear and not self.is_constant(value) and not self.is_constant(rhs))
            ):
                rhs_text, rhs = self.factor(0, constant=True)
            text += f" {op} {rhs_text}"
            value = self.product(value, rhs if op == "*" else {self.one: pair_inverse(rhs[self.one])})
        return text, value

    def factor(self, depth, constant=False):
        rng = self.rng
        kind = rng.choice(["sign", "paren", "number", "number", "i", "name", "name"] if depth else ["number", "name"])
        if kind == "sign":
            sign = rng.choice("+-")
            text, value = self.factor(depth - 1, constant)
            return sign + text, value if sign == "+" else self.product(value, {self.one: MINUS_ONE})
        if kind == "paren":
            text, value = self.expression(depth - 1, constant)
            text = f"({text})"
        elif kind == "name" and not constant:
            text, value = self.names[rng.choice(sorted(self.names))](self, depth)
        elif kind == "i" and not self.real:
            text, value = "i", {self.one: (0, 1)}
        else:
            n, d = rng.randrange(12), rng.choice([1, 1, 2, 3, 7])
            text, c = (f"{n}/{d}" if d > 1 or rng.random() < 0.2 else f"{n}"), Fraction(n, d)
            imaginary = not self.real and rng.random() < 0.3
            text += "i" if imaginary else ""
            value = {self.one: (0, c) if imaginary else (c, 0)} if c else {}
        for _ in range(rng.choice([0, 0, 0, 1, 1, 2]) if self.power else 0):
            k = rng.randrange(4)
            result = {self.one: ONE}
            for _ in range(k):
                result = self.product(result, value)
            if self.within_degree(result):
                text, value = f"{text}^{k}", result
        return text, value


def poly_expressions(rng):
    return Expressions(rng, 0, {"z": lambda g, depth: ("z", {1: ONE})}, lambda m, n: m + n, power=True)


def add_exponents(p, q):
    """The sum of two exponent polynomials, each a tuple of coefficient pairs with no trailing zero."""
    out = [(x[0] + y[0], x[1] + y[1]) for x, y in zip_longest(p, q, fillvalue=ZERO)]
    while out and out[-1] == ZERO:
        out.pop()
    return tuple(out)


def exponential(g, depth):
    text, p = poly_expressions(g.rng).expression(min(depth, 2))
    return f"exp({text})", {tuple(p.get(k, ZERO) for k in range(max(p, default=-1) + 1)): ONE}


def curve_expressions(rng):
    return Expressions(rng, (), {"exp": exponential}, add_exponents)


def linear_expressions(rng, names, real):
    readers = {name: (lambda g, depth, name=name: (name, {name: ONE})) for name in names}
    return Expressions(rng, 1, readers, lambda m, n: n if m == 1 else m, linear=True, real=real)


def fraction_text(x):
    x = Fraction(x)
    return f"({x.numerator}/{x.denominator})"


def primitive_row(row):
    """A rational row scaled to coprime ints, its first nonzero entry positive."""
    scale = math.lcm(*(Fraction(x).denominator for x in row))
    ints = [int(x * scale) for x in row]
    g = math.gcd(*ints) if next(x for x in ints if x) > 0 else -math.gcd(*ints)
    return tuple(x // g for x in ints)


def pair_of(c):
    return (c.re, c.im)


class TestValueOracle:
    """Values of drawn expressions in every domain, against the pairs of Fractions computed beside them."""

    SEEDS = range(40)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_constant(self, seed):
        g = curve_expressions(random.Random(seed))
        for _ in range(10):
            text, value = g.expression(3, constant=g.rng.random() < 0.7)
            if g.is_constant(value):
                assert pair_of(parse_constant(text)) == value.get((), ZERO), text
            else:
                with pytest.raises(ParseError, match="expected a constant"):
                    parse_constant(text)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_linear_forms(self, seed):
        rng = random.Random(seed)
        for kind, names, real in (("hyperplane", COMPLEX_NAMES, False), ("real", REAL_NAMES, True)):
            g = linear_expressions(rng, names, real)
            for _ in range(10):
                text, value = g.expression(3)
                # cancel the constant part, which a declaration may not have
                re, im = value.pop(1, ZERO)
                line = f"{kind} H: {text} - {fraction_text(re)} - {fraction_text(im)}*i = 0"
                if real:
                    line = line.replace(f" - {fraction_text(im)}*i", "")
                if not value:
                    with pytest.raises(ParseError, match="the zero form defines nothing"):
                        parse_scene(line)
                elif real:
                    row = primitive_row([value.get(v, ZERO)[0] for v in names])
                    assert parse_scene(line).reals["H"].forms == (row,), line
                else:
                    coefficients = parse_scene(line).hyperplanes["H"].coefficients
                    assert [pair_of(c) for c in coefficients] == [value.get(v, ZERO) for v in names], line

    @pytest.mark.parametrize("seed", SEEDS)
    def test_curve(self, seed):
        g = curve_expressions(random.Random(seed))
        for _ in range(5):
            drawn = [g.expression(3) for _ in range(3)]
            if not any(value for _, value in drawn):
                continue
            curve = parse_scene(f"curve f: ({', '.join(text for text, _ in drawn)})").curves["f"]
            for component, (text, value) in zip(curve.components, drawn):
                read = {tuple(map(pair_of, t.exponent)): pair_of(t.coeff) for t in component.terms}
                assert read == value, text
