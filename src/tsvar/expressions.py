"""Tiny arithmetic expression language for problem files.

The language is the arithmetic subset of Python's expression grammar, read
by ``ast``: numbers, names, unary ``+``/``-``, ``+ - * /``, power (``^`` and
``**`` alike, right-associative, binding tighter than a unary minus on its
left), parentheses, and one-argument calls of exp, log, sqrt, sin, cos,
tan.  A number has the form ``NUMBER``: decimal digits with an optional
point and exponent, so hex, underscores, imaginary literals, strings and
``True`` are refused.

Names resolve to the variables declared at compile time (typically ``t`` and
``u1..un`` / ``v1..vn``), the constants ``pi`` and ``e``, or one of the
functions.  Everything evaluates through numpy, literals and constants as
float64 scalars, so compiled expressions broadcast over arrays and a
division by zero gives inf or nan, not an exception.
"""

from __future__ import annotations

import ast
import re
import reprlib
import warnings
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import ExpressionError

_FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
}

_CONSTANTS = {"pi": np.float64(np.pi), "e": np.float64(np.e)}

#: the number form of both little languages (the time-scale DSL signs it)
NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# zeros leading a number, which float() drops and Python's grammar refuses
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")

# Python operators, not ufunc calls, so numpy reuses the temporaries of big
# blocks; power stays np.power, which rounds apart from a float64's ``**``.
_BINARY = {
    ast.Add: lambda a, b: lambda env: a(env) + b(env),
    ast.Sub: lambda a, b: lambda env: a(env) - b(env),
    ast.Mult: lambda a, b: lambda env: a(env) * b(env),
    ast.Div: lambda a, b: lambda env: a(env) / b(env),
    ast.Pow: lambda a, b: lambda env: np.power(a(env), b(env)),
}


def parse(src, error):
    """(tree, text): the ``ast`` expression tree of ``src`` and the text it
    was read from, for the two little languages.

    The text is ``src`` on one line, with whitespace runs collapsed to one
    space, ``^`` read as ``**``, the zeros leading a number dropped and
    decimal digits outside ASCII, which ``NUMBER``'s ``\\d`` admits, read as
    ASCII digits.  Any other character outside ASCII, a digit outside ASCII
    in a name, and ``#`` are refused: Python would read NFKC-normalised
    names or a comment there.  A syntax error, a warning of the parser and
    input nested too deeply raise ``error``: the parser gives up on deep
    nesting with a RecursionError, or, without parentheses (10000 unary
    minuses, say), with a MemoryError.
    """
    spelt = _LEADING_ZEROS.sub("", re.sub(r"\s+", " ", src).strip().replace("^", "**"))
    text = re.sub(r"\d", lambda m: str(int(m[0])), spelt) if not spelt.isascii() else spelt
    if not text.isascii() or "#" in text:
        raise error(f"unexpected character in {reprlib.repr(src)}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = ast.parse(text, mode="eval").body
    except (SyntaxError, ValueError) as exc:
        raise error(f"cannot parse {reprlib.repr(src)}: {getattr(exc, 'msg', exc)}") from None
    except (RecursionError, MemoryError):  # the parser's stack, outgrown by deep nesting
        raise error(f"{reprlib.repr(src)} is nested too deeply") from None
    if spelt != text and any(isinstance(n, ast.Name)
                             and n.id != spelt[n.col_offset:n.end_col_offset]
                             for n in ast.walk(tree)):
        raise error(f"unexpected character in {reprlib.repr(src)}")
    return tree, text


def number(node, text, error, form=NUMBER):
    """The value of the literal ``node`` of ``text`` (from ``parse``): its
    source must match ``form`` as a whole, else ``error``."""
    literal = text[node.col_offset:node.end_col_offset]
    if not re.fullmatch(form, literal):
        raise error(f"expected a number, got {literal!r}")
    return float(literal)


@dataclass(frozen=True)
class Expression:
    """A compiled expression; call with keyword arrays for its variables."""

    source: str
    variables: Tuple[str, ...]
    _fn: Callable

    def __call__(self, **values):
        # only names actually referenced matter; env lookups raise otherwise
        env = {k: np.asarray(v, dtype=float) for k, v in values.items()}
        try:
            with np.errstate(all="ignore"):
                out = self._fn(env)
        except KeyError as exc:  # referenced variable not supplied
            raise ExpressionError(
                f"missing variable {exc.args[0]!r} for {self.source!r}"
            ) from None
        except RecursionError:
            raise ExpressionError(f"{reprlib.repr(self.source)} is nested too deeply") from None
        return np.asarray(out, dtype=float)


def compile_expression(src, variables=("t",)):
    """Compile ``src`` against the allowed variable names."""
    if not isinstance(src, str) or not src.strip():
        raise ExpressionError(f"expected a nonempty expression string, got {src!r}")
    tree, text = parse(src, ExpressionError)
    if "," in text:  # a trailing comma leaves no mark in the tree
        raise ExpressionError(f"unexpected ',' in {src!r}")

    def build(node):
        if isinstance(node, ast.Constant):
            return lambda env, _v=np.float64(number(node, text, ExpressionError)): _v
        if isinstance(node, ast.Name):
            if node.id in _CONSTANTS:
                return lambda env, _v=_CONSTANTS[node.id]: _v
            if node.id not in variables:
                raise ExpressionError(
                    f"unknown name {node.id!r} in {src!r}; "
                    f"allowed variables: {sorted(variables)}"
                )
            return lambda env, _k=node.id: env[_k]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            inner = build(node.operand)
            return inner if isinstance(node.op, ast.UAdd) else lambda env: -inner(env)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return _BINARY[type(node.op)](build(node.left), build(node.right))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and len(node.args) == 1 and not node.keywords):
            if node.func.id not in _FUNCTIONS:
                raise ExpressionError(f"unknown function {node.func.id!r} in {src!r}")
            f, arg = _FUNCTIONS[node.func.id], build(node.args[0])
            return lambda env: f(arg(env))
        raise ExpressionError(
            f"unexpected {text[node.col_offset:node.end_col_offset]!r} in {src!r}"
        )

    try:
        fn = build(tree)
    except RecursionError:
        raise ExpressionError(f"{reprlib.repr(src)} is nested too deeply") from None
    return Expression(source=src, variables=tuple(variables), _fn=fn)


def lagrangian_variables(n):
    """(t, u1..un, v1..vn) — the naming scheme for integrand expressions."""
    names = ["t"]
    names += [f"u{i + 1}" for i in range(n)]
    names += [f"v{i + 1}" for i in range(n)]
    return tuple(names)
