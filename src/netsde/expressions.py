"""A small closed-form expression language for coefficient functions.

Run configurations describe coefficients as strings like ``"1 + x/2"`` or
``"0.5*sin(2*t) * exp(-u^2)"``: Python arithmetic with ``^`` for ``**``
(binding tightest and associating right), unary ``- +``, parentheses,
decimal literals, the functions ``sin cos exp tanh abs``, the constant
``pi`` and a caller-chosen set of variables.  ``ast`` parses the text and
only those nodes compile, to closures that evaluate elementwise on numpy
arrays; Python never evaluates the text.
"""

from __future__ import annotations

import ast
import math
import operator

import numpy as np

from .errors import ExpressionEvaluationError, ExpressionParseError

FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh, "abs": np.abs}

CONSTANTS = {"pi": math.pi}

_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_DECIMAL = frozenset("0123456789.eE+-")


class Expression:
    """A compiled expression; call with keyword arguments for its variables."""

    def __init__(self, text, variables, fn, used):
        self.text = text
        self.variables = tuple(variables)
        self._fn = fn
        self.used_variables = frozenset(used)

    def __call__(self, **values):
        return self._fn(values)

    @property
    def is_constant(self) -> bool:
        return not self.used_variables

    def constant_value(self) -> float:
        """The value of a constant expression; ExpressionEvaluationError if
        it uses a variable, divides by zero, overflows or is complex."""
        if not self.is_constant:
            raise ExpressionEvaluationError(
                f"expression {self.text!r} is not constant: it uses {sorted(self.used_variables)}")
        try:
            value = self._fn({})
        except ZeroDivisionError:
            raise ExpressionEvaluationError(f"expression {self.text!r} divides by zero") from None
        except OverflowError:
            raise ExpressionEvaluationError(f"expression {self.text!r} overflows") from None
        if isinstance(value, complex):
            raise ExpressionEvaluationError(f"expression {self.text!r} is complex")
        return float(value)

    def __repr__(self):
        return f"Expression({self.text!r})"


def parse_expression(text: str, variables=("t", "x")) -> Expression:
    """Parse ``text`` into an Expression over the given variable names."""
    compiler = _Compiler(text, set(variables))
    try:
        tree = ast.parse(compiler.source, mode="eval")
    except SyntaxError as err:
        column = min((err.offset or 1) - 1, len(compiler.offsets) - 1)
        raise ExpressionParseError(err.msg, compiler.offsets[column]) from None
    return Expression(text, variables, compiler.compile(tree.body), compiler.used)


class _Compiler:
    """Rewrites the text as one line of Python source, keeping each source
    column's offset in the text, and compiles its syntax tree to closures."""

    def __init__(self, text, variables):
        self.text, self.variables, self.used = text, variables, set()
        if "**" in text:  # not in the grammar, and indistinguishable from ^ once rewritten
            raise ExpressionParseError("unexpected token '*'", text.index("**") + 1)
        for i, ch in enumerate(text):
            if not (ch.isspace() or ch in "+-*/^()._" or ch.isascii() and ch.isalnum()):
                raise ExpressionParseError(f"unexpected character {ch!r}", i)
        line = "".join(" " if ch.isspace() else ch for ch in text)
        start = len(line) - len(line.lstrip())  # Python rejects leading indentation
        self.source = line[start:].replace("^", "**")
        self.offsets = [i for i in range(start, len(text)) for _ in range(1 + (text[i] == "^"))]
        self.offsets.append(len(text))

    def error(self, message, node):
        return ExpressionParseError(message, self.offsets[node.col_offset])

    def compile(self, node):
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            op = _BINARY[type(node.op)]
            left, right = self.compile(node.left), self.compile(node.right)
            return lambda env: op(left(env), right(env))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            inner = self.compile(node.operand)
            return inner if isinstance(node.op, ast.UAdd) else lambda env: -inner(env)
        if isinstance(node, ast.Constant):
            literal = self.source[node.col_offset:node.end_col_offset]
            if not isinstance(node.value, (int, float)) or not set(literal) <= _DECIMAL:
                raise self.error(f"bad numeric literal {literal!r}", node)
            return lambda env, v=float(literal): v
        if isinstance(node, ast.Name):
            if node.id in CONSTANTS:
                return lambda env, v=CONSTANTS[node.id]: v
            if node.id not in self.variables:
                raise self.error(f"unknown identifier {node.id!r} "
                                 f"(variables here: {sorted(self.variables)})", node)
            self.used.add(node.id)
            return operator.itemgetter(node.id)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id not in FUNCTIONS:
                raise self.error(f"unknown function {node.func.id!r}", node)
            if len(node.args) != 1 or node.keywords:
                raise self.error(f"{node.func.id} takes one argument", node)
            func, arg = FUNCTIONS[node.func.id], self.compile(node.args[0])
            return lambda env: func(arg(env))
        part = self.text[self.offsets[node.col_offset]:self.offsets[node.end_col_offset]]
        raise self.error(f"unsupported syntax {part!r}", node)
