"""A tiny arithmetic expression language for inline coefficient definitions.

The grammar (loosest binding first):

    sum      :=  product (("+" | "-") product)*
    product  :=  unary (("*" | "/") unary)*
    unary    :=  "-" unary | power
    power    :=  atom (("^" | "**") unary)?          # right-associative
    atom     :=  NUMBER | NAME | NAME "(" sum ")" | "(" sum ")"

Unary minus binds looser than the power operator, so ``-x^2`` is ``-(x^2)``;
an exponent may carry its own sign, so ``x^-2`` parses.  ``NAME`` is either a
declared variable or one of the functions ``ln``, ``exp``, ``sqrt``, ``abs``,
``sign``.  There are no implicit constants: write ``exp(1)`` for e.  Real odd
roots of negative numbers need the signed idiom ``sign(x)*abs(x)^(1/3)``,
since ``^`` follows IEEE semantics (``(-1)^(1/3)`` is nan).

Compiled expressions evaluate on numpy arrays and broadcast, so they slot
directly into the model's coefficient contracts.
"""

import re

import numpy as np

from .errors import ExpressionError

FUNCTIONS = {
    "ln": np.log,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sign": np.sign,
}

_TOKEN = re.compile(r"""
    (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>\*\*|[+\-*/^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


class _Token:
    __slots__ = ("kind", "text", "column")

    def __init__(self, kind, text, column):
        self.kind = kind
        self.text = text
        self.column = column


def _tokenize(source):
    tokens = []
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ExpressionError(
                f"column {m.start() + 1}: unexpected character {m.group()!r}"
            )
        tokens.append(_Token(kind, m.group(), m.start() + 1))
    tokens.append(_Token("end", "", len(source) + 1))
    return tokens


class Expression:
    """A parsed expression; calling it evaluates on numpy-broadcast args."""

    def __init__(self, source, variables, fn):
        self.source = source
        self.variables = tuple(variables)
        self._fn = fn

    def __call__(self, *args):
        if len(args) != len(self.variables):
            raise ExpressionError(
                f"expression over {self.variables} called with "
                f"{len(args)} argument(s)"
            )
        env = {name: np.asarray(value, dtype=float)
               for name, value in zip(self.variables, args)}
        with np.errstate(all="ignore"):
            return self._fn(env)

    def __repr__(self):
        return f"Expression({self.source!r}, variables={self.variables})"


class _Parser:
    def __init__(self, source, variables):
        self.source = source
        self.variables = tuple(variables)
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text):
        tok = self.take()
        if tok.kind != "op" or tok.text != text:
            shown = tok.text or "end of input"
            raise ExpressionError(
                f"column {tok.column}: expected {text!r}, found {shown!r}"
            )

    def parse(self):
        fn = self.sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(
                f"column {tok.column}: unexpected trailing {tok.text!r}"
            )
        return fn

    def sum(self):
        fn = self.product()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            rhs = self.product()
            fn = ((lambda a, b: lambda env: a(env) + b(env)) if op == "+"
                  else (lambda a, b: lambda env: a(env) - b(env)))(fn, rhs)
        return fn

    def product(self):
        fn = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take().text
            rhs = self.unary()
            fn = ((lambda a, b: lambda env: a(env) * b(env)) if op == "*"
                  else (lambda a, b: lambda env: a(env) / b(env)))(fn, rhs)
        return fn

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.take()
            inner = self.unary()
            return lambda env: -inner(env)
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("^", "**"):
            self.take()
            exponent = self.unary()
            return lambda env: base(env) ** exponent(env)
        return base

    def atom(self):
        tok = self.take()
        if tok.kind == "number":
            # numpy scalar, so 1/0 follows IEEE semantics instead of raising
            value = np.float64(tok.text)
            return lambda env: value
        if tok.kind == "name":
            name = tok.text
            if self.peek().kind == "op" and self.peek().text == "(":
                fn = FUNCTIONS.get(name)
                if fn is None:
                    options = ", ".join(sorted(FUNCTIONS))
                    raise ExpressionError(
                        f"column {tok.column}: unknown function {name!r} "
                        f"(available: {options})"
                    )
                self.take()
                arg = self.sum()
                self.expect_op(")")
                return lambda env: fn(arg(env))
            if name in self.variables:
                return lambda env: env[name]
            known = ", ".join(self.variables) if self.variables else "none"
            raise ExpressionError(
                f"column {tok.column}: unknown variable {name!r} "
                f"(in scope: {known})"
            )
        if tok.kind == "op" and tok.text == "(":
            fn = self.sum()
            self.expect_op(")")
            return fn
        shown = tok.text or "end of input"
        raise ExpressionError(
            f"column {tok.column}: expected a value, found {shown!r}"
        )


def parse_expression(source, variables=("x",)):
    """Compile ``source`` to an :class:`Expression` over ``variables``."""
    if not source or not source.strip():
        raise ExpressionError("empty expression")
    return Expression(source, variables, _Parser(source, variables).parse())


def parse_scalar(source):
    """Evaluate a closed (variable-free) expression to one float."""
    value = parse_expression(source, variables=())()
    out = float(np.asarray(value))
    if not np.isfinite(out):
        raise ExpressionError(f"expression {source!r} evaluates to {out}")
    return out
