"""The arithmetic expression language used by problem files."""

import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tsvar import ExpressionError
from tsvar.expressions import _FUNCTIONS, compile_expression, lagrangian_variables


def ev(src, **values):
    return float(compile_expression(src, tuple(values) or ("t",))(**values))


@pytest.mark.parametrize(
    "src,want",
    [
        ("2 + 3*4", 14.0),
        ("(2 + 3)*4", 20.0),
        ("2^3^2", 512.0),  # right associative
        ("2**3**2", 512.0),
        ("-2^2", -4.0),  # unary minus binds looser than power
        ("(-2)^2", 4.0),
        ("2^-3", 0.125),
        ("2*3^2", 18.0),
        ("-2*-3", 6.0),
        ("7/2", 3.5),
        ("1 - 2 - 3", -4.0),  # left associative chain
        ("12/4/3", 1.0),
        ("1e-3", 1e-3),
        ("2.5E2", 250.0),
        (".5 + 1.", 1.5),
        ("1 +\n 2", 3.0),  # a newline stands where a space may
        ("1.e5", 1e5),
        ("- 2", -2.0),
        ("2^-3^2", 2.0**-9),
        ("2**3^2", 512.0),  # ^ and ** mix
        ("007.5 + 01", 8.5),  # leading zeros, which Python's grammar refuses
        ("\uff11 + \u0663.5", 4.5),  # decimal digits outside ASCII
    ],
)
def test_arithmetic(src, want):
    assert ev(src) == want


def test_constants():
    assert ev("pi") == np.pi
    assert ev("e") == np.e
    assert abs(ev("2*pi") - 2 * np.pi) <= 1e-15


@pytest.mark.parametrize(
    "src,want",
    [
        ("exp(1)", np.e),
        ("log(e)", 1.0),
        ("sqrt(4)", 2.0),
        ("sin(0)", 0.0),
        ("cos(0)", 1.0),
        ("tan(pi/4)", 1.0),
        ("exp(log(5))", 5.0),
    ],
)
def test_functions(src, want):
    assert abs(ev(src) - want) <= 1e-12


def test_broadcasts_over_arrays():
    e = compile_expression("t^2 + 1")
    t = np.array([0.0, 1.0, 2.0, -3.0])
    assert np.array_equal(e(t=t), t**2 + 1)
    two = compile_expression("u1*v1 - t", ("t", "u1", "v1"))
    got = two(t=np.zeros(3), u1=np.arange(3.0), v1=np.full(3, 2.0))
    assert np.array_equal(got, [0.0, 2.0, 4.0])


def test_expression_metadata():
    e = compile_expression("sqrt(1 + v1^2)", ("t", "u1", "v1"))
    assert e.source == "sqrt(1 + v1^2)"
    assert e.variables == ("t", "u1", "v1")


def test_lagrangian_variable_names():
    assert lagrangian_variables(1) == ("t", "u1", "v1")
    assert lagrangian_variables(2) == ("t", "u1", "u2", "v1", "v2")


@pytest.mark.parametrize(
    "src",
    [
        "q + 1",  # unknown variable
        "foo(3)",  # unknown function
        "2) + 1",  # trailing input
        "2 +",  # dangling operator
        "sin(1",  # missing closing paren
        "2 @ 3",  # an operator of Python's outside the whitelist
        "",
        "   ",
        "()",
        "t.real",  # attribute
        "t[0]",  # subscript
        "t < 1",  # compare
        "(t, t)",  # tuple
        "t,",
        "lambda: 1",
        "sin(x=t)",  # keyword call
        "sin(t, t)",  # two-argument call
        "sin(t,)",  # trailing comma
        "sin(*t)",
        "None",
        "True",
        "'1'",
        "1j",
        "0x10",
        "1_000",
        "...",
        "t if t else 1",
        "t // 2",
        "t % 2",
        "\x00",
        "t\x00",
        "t # a comment",
        "\uff54",  # fullwidth t, which Python would read as t
        "1 + \\\n 2",  # line continuation
        "1;",
    ],
)
def test_rejects_malformed_input(src):
    with pytest.raises(ExpressionError):
        compile_expression(src)


def test_digits_outside_ascii_stay_out_of_names():
    with pytest.raises(ExpressionError):
        compile_expression("u\u0661", ("t", "u1"))
    with pytest.raises(ExpressionError):
        compile_expression("t\uff11", ("t", "t1"))


def test_division_by_zero_follows_ieee():
    assert ev("1/0") == np.inf
    assert ev("-1/0") == -np.inf
    assert np.isnan(ev("0/0"))
    assert ev("pi/0") == np.inf
    assert ev("0^-1") == np.inf


@pytest.mark.parametrize(
    "src",
    ["(" * 300 + "t" + ")" * 300, "-" * 3000 + "t", "+".join(["t"] * 5000)],
    ids=["parentheses", "unary-minus", "sum"],
)
def test_input_nested_too_deeply_is_refused(src):
    with pytest.raises(ExpressionError):
        compile_expression(src)


@pytest.mark.parametrize("src", ["-" * 10000 + "t", "^".join(["t"] * 3000)],
                         ids=["unary-minus", "power"])
def test_nesting_that_overflows_the_parser_stack_is_refused(src):
    """Without parentheses, nesting this deep makes Python's parser raise
    MemoryError, not RecursionError; it is refused all the same."""
    with pytest.raises(ExpressionError, match="nested too deeply"):
        compile_expression(src)


def test_a_tree_too_deep_to_compile_is_refused():
    """A 1200-term sum parses, but building its closures outgrows the
    stack: compile_expression's own handler refuses it."""
    with pytest.raises(ExpressionError, match="nested too deeply"):
        compile_expression("+".join(["t"] * 1200))


def test_a_compiled_chain_called_deep_in_the_stack_is_refused():
    """A 900-term chain compiles at top level and evaluates there, but not
    under 150 more frames: Expression's call handler refuses it."""
    expr = compile_expression("+".join(["t"] * 900))
    assert float(expr(t=1.0)) == 900.0

    def nested(depth):
        return nested(depth - 1) if depth else expr(t=1.0)

    with pytest.raises(ExpressionError, match="nested too deeply"):
        nested(150)


def test_evaluation_too_deep_for_the_stack_is_refused():
    expr = compile_expression("+".join(["t"] * 600))
    assert float(expr(t=1.0)) == 600.0

    def nested(depth):
        return nested(depth - 1) if depth else expr(t=1.0)

    with pytest.raises(ExpressionError, match="nested too deeply"):
        nested(sys.getrecursionlimit() - 500)


# Expressions over the documented grammar, as (text, holds a variable).  The
# oracle is Python's own evaluation of the text, so literals are written
# with a point or an exponent (Python reads 2 as an int, -0 and 2**60 exactly),
# none is 0 (Python raises on a division by a constant zero), and a power has
# a variable on one side (Python's float ** rounds apart from np.power).
_CONSTANTS = st.sampled_from(["pi", "e", "3.", "1.5", ".25", "1e-3", "2.5E2", "7.75", "0.3"])
_SPACES = st.sampled_from(["", " "])


def _unary(sign, x):
    return sign + x[0], x[1]


def _binary(x, space, op, y):
    return f"{x[0]}{space}{op}{space}{y[0]}", x[1] or y[1]


def _power(x, op, y):
    return f"({x[0]}){op}({y[0]})", True


def _call(name, x):
    return f"{name}({x[0]})", x[1]


EXPRESSIONS = st.recursive(
    st.one_of(st.sampled_from(["t", "u1"]).map(lambda s: (s, True)),
              _CONSTANTS.map(lambda s: (s, False))),
    lambda kids: st.one_of(
        st.builds(_unary, st.sampled_from("+-"), kids),
        st.builds(_binary, kids, _SPACES, st.sampled_from("+-*/"), kids),
        st.tuples(kids, st.sampled_from(["^", "**"]), kids)
        .filter(lambda p: p[0][1] or p[2][1]).map(lambda p: _power(*p)),
        st.builds(_call, st.sampled_from(sorted(_FUNCTIONS)), kids),
    ),
    max_leaves=12,
)

T = np.array([-1.5, 0.0, 0.75, 2.0, 10.0])
U1 = np.array([0.3, -2.0, 1.0, 5.5, -0.125])


@given(EXPRESSIONS)
def test_values_are_bit_equal_to_python_evaluation(expr):
    text = expr[0]
    names = {"t": T, "u1": U1, "pi": np.pi, "e": np.e, **_FUNCTIONS}
    with np.errstate(all="ignore"):
        try:
            want = eval(text.replace("^", "**"), {"__builtins__": {}}, names)
        except ZeroDivisionError:  # a constant subexpression that is 0
            assume(False)
    want = np.asarray(want, dtype=float)
    got = compile_expression(text, ("t", "u1"))(t=T, u1=U1)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), text


def test_missing_variable_at_call_time():
    e = compile_expression("t + u1", ("t", "u1"))
    with pytest.raises(ExpressionError, match="u1"):
        e(t=1.0)


def test_unreferenced_variables_are_optional():
    e = compile_expression("t + 1", ("t", "u1"))
    assert float(e(t=2.0)) == 3.0
