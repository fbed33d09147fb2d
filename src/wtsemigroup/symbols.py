"""Symbols phi on the half line and the translation weights they generate.

A symbol is a positive continuous function on [0, inf), held as an
expression tree in x over +, -, *, /, power, exp, log and min(a,b). The
built-ins are trees with tags: const:c is c, affine x+1, reciprocal
1/(x+1), cap min(x+1,2) and exp:a a^x. One tree walker evaluates every
symbol, each node one numpy function under numpy's default error state,
so a constant 1/0 is inf, with numpy's warning, and fails the positivity
check like any other unusable value. Evaluation is pure and vectorized,
so a symbol is safe to share between threads.

The weights that phi generates, and the left-invertibility test, live in
operators.py. All positivity checking is by dense sampling on a finite
window; what the symbol does past the window is the caller's responsibility.
Symbol.values is the one place where phi meets points: eval_phi checks its
values; the rows of operators.RatioRows and the spectral fits' zoom levels,
walked by values alone, are certified by their extremes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NonPositiveSymbolError, SymbolSyntaxError

POSITIVITY_SAMPLES = 10_000  # uniform grid of validate_positivity
POSITIVITY_FLOOR = 1e-6  # samples below this are refined on a finer local grid
POSITIVITY_BLOCK = 64  # refinement windows per eval_phi call; bounds the memory of a pass
MAX_DEPTH = 50  # levels of an expression tree; evaluating and printing it recurse once per level

# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^, or min, spelled min(left,right)
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str  # exp or log
    arg: object


# every node applies one numpy function, so a constant 1/0 is inf, as x/0 is
_NUMPY = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power,
    "min": np.minimum, "neg": np.negative, "exp": np.exp, "log": np.log,
}
_FUNCS = ("exp", "log", "min")

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^(),])"
    r")"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            # nothing matched past the whitespace
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            if bad >= len(text):
                break
            raise SymbolSyntaxError(f"unexpected character {text[bad]!r}", bad, text)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op, m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent for: expr := term (+|- term)*, term := unary (*|/ unary)*,
    unary := - unary | power, power := atom (^ unary)?,
    atom := num | x | f(expr) | min(expr, expr) | (expr)."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # calls of unary in progress

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise SymbolSyntaxError(f"expected {op!r}", pos, self.text)

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise SymbolSyntaxError(f"unexpected {val!r}", pos, self.text)
        # a chain of + - * / is built by a loop; count its levels without recursion
        height, level = 0, [node]
        while level:
            height += 1
            level = [getattr(n, a) for n in level for a in ("arg", "left", "right") if hasattr(n, a)]
        if height > MAX_DEPTH:
            raise SymbolSyntaxError(f"expression is deeper than {MAX_DEPTH} levels", None, self.text)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                node = BinOp(val, node, self.unary())
            else:
                return node

    def unary(self):
        # every recursion of the parser passes through here; the printed form
        # of a tree of MAX_DEPTH levels nests at most twice as deep
        kind, val, pos = self.peek()
        self.depth += 1
        if self.depth > 2 * MAX_DEPTH:
            raise SymbolSyntaxError(
                f"expression nests more than {2 * MAX_DEPTH} parentheses, signs and powers", pos, self.text
            )
        if kind == "op" and val == "-":
            self.take()
            node = Neg(self.unary())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            return BinOp("^", base, self.unary())  # right associative
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            return Num(float(val))
        if kind == "name":
            if val == "x":
                return Var()
            if val in _FUNCS:
                self.expect_op("(")
                node = self.expr()
                if val == "min":  # the one function of two arguments
                    self.expect_op(",")
                    node = BinOp(val, node, self.expr())
                else:
                    node = Call(val, node)
                self.expect_op(")")
                return node
            raise SymbolSyntaxError(f"unknown identifier {val!r}", pos, self.text)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise SymbolSyntaxError(f"unexpected {val!r}" if val else "unexpected end of input", pos, self.text)


def _eval_node(node, x):
    # the commonest nodes first: every symbol is evaluated here, the built-ins too
    kind = type(node)
    if kind is BinOp:
        return _NUMPY[node.op](_eval_node(node.left, x), _eval_node(node.right, x))
    if kind is Var:
        return x
    if kind is Num:
        return node.value
    if kind is Neg:
        return _NUMPY["neg"](_eval_node(node.arg, x))
    return _NUMPY[node.func](_eval_node(node.arg, x))


_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}


def _to_string(node, parent_prec: int = 0, right_side: bool = False) -> str:
    if isinstance(node, Num):
        # a literal past the largest float parses to inf, which repr spells as a name
        return repr(node.value) if math.isfinite(node.value) else "1e999"
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Neg):
        inner = _to_string(node.arg, 25)
        s = f"-{inner}"
        return f"({s})" if parent_prec > 10 else s
    if isinstance(node, Call):
        return f"{node.func}({_to_string(node.arg)})"
    if node.op == "min":
        return f"min({_to_string(node.left)},{_to_string(node.right)})"
    prec = _PREC[node.op]
    left = _to_string(node.left, prec, right_side=False)
    right = _to_string(node.right, prec, right_side=True)
    s = f"{left}{node.op}{right}"
    # parenthesize when binding would change: lower precedence, or equal
    # precedence on the side the parser does not group: + - * / group to
    # the left, so x+(x+1) keeps its parentheses, and ^ to the right
    need = prec < parent_prec or (prec == parent_prec and right_side != (node.op == "^"))
    return f"({s})" if need else s


def expression_to_string(node) -> str:
    """Print an expression tree as text that parses back to the same tree."""
    return _to_string(node)


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Symbol:
    """Positive function phi driving every weight of the semigroup: a tree,
    and tags set by the constructors (a parsed expression has none): the
    closed_form of model.kernel_closed_form, the kinks of a piecewise phi,
    where sampling is densified, and the growth base a = lim phi(x+1)/phi(x)."""

    expr: object = field(hash=False)  # hashing a tree walks it, on every cache lookup
    spec: str = ""
    closed_form: Optional[str] = None
    growth: Optional[float] = None
    kinks: tuple[float, ...] = ()

    def values(self, x):
        """Evaluate phi elementwise, under numpy's default error state; no positivity check."""
        x = np.asarray(x, dtype=float)
        out = _eval_node(self.expr, x)
        # a walk through x made a new value; a bare x is copied and a tree without x broadcast
        if out is x or getattr(out, "shape", None) != x.shape:
            out = np.full(x.shape, out)
        return out

    def model_disc_radius(self, t: float) -> Optional[float]:
        """Known model disc radius 1/r(L_t) for the built-in symbols.

        For a**x the norm formula gives ||L_t^n|| = a**(-n t / 2), hence
        r(L_t) = a**(-t/2) and radius a**(t/2); the kernel coefficient
        a**(-n t) then converges exactly for |z lambda| < a**t = radius**2.
        The other built-ins grow with a = 1, so their radius is 1.
        """
        if self.growth is None:
            return None
        try:
            return self.growth ** (t / 2.0)
        except OverflowError:  # the radius is phi(t/2), past the largest float
            raise NonPositiveSymbolError(t / 2.0, math.inf) from None

    def describe(self) -> str:
        return self.spec


def constant(c: float = 1.0) -> Symbol:
    if not (c > 0 and math.isfinite(c)):
        raise NonPositiveSymbolError(0.0, c)
    return Symbol(_Parser(repr(float(c))).parse(), f"const:{c:g}", closed_form="szego", growth=1.0)


def affine() -> Symbol:
    return Symbol(_Parser("x+1").parse(), "affine", closed_form="two_isometry", growth=1.0)


def reciprocal() -> Symbol:
    return Symbol(_Parser("1/(x+1)").parse(), "reciprocal", closed_form="bergman_like", growth=1.0)


def piecewise_cap() -> Symbol:
    return Symbol(_Parser("min(x+1,2)").parse(), "cap", closed_form="piecewise_cap", growth=1.0, kinks=(1.0,))


def exponential(a: float) -> Symbol:
    if not (a > 0 and math.isfinite(a)):
        raise NonPositiveSymbolError(0.0, a)
    return Symbol(_Parser(f"{float(a)!r}^x").parse(), f"exp:a={a:g}", closed_form="scaled_szego", growth=float(a))


def parse_symbol(text: str) -> Symbol:
    """Parse an expression in x into a symbol (no positivity check yet)."""
    return Symbol(_Parser(text).parse(), f"expr:{text}")


def _spec_number(text: str, spec: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SymbolSyntaxError(f"bad number {text!r} in phi spec", None, spec) from None


def parse_phi_spec(spec: str) -> Symbol:
    """Resolve a phi spec string: builtin name[:params] or expr:<expression>.

    Accepted forms: const:<c>, affine, reciprocal, cap, exp:a=<a>, exp:<a>,
    exp2x (alias for exp with a = e**2), expr:<expression>.
    """
    spec = spec.strip()
    head, _, rest = spec.partition(":")
    head = head.strip().lower()
    if head == "expr":
        if not rest:
            raise SymbolSyntaxError("empty expression in phi spec", None, spec)
        return parse_symbol(rest)
    if head == "const":
        return constant(_spec_number(rest, spec) if rest else 1.0)
    if head == "affine":
        return affine()
    if head in ("reciprocal", "recip"):
        return reciprocal()
    if head == "cap":
        return piecewise_cap()
    if head == "exp":
        if not rest:
            raise SymbolSyntaxError("exp needs a base, e.g. exp:a=2", None, spec)
        value = rest.partition("=")[2] if "=" in rest else rest
        return exponential(_spec_number(value, spec))
    if head == "exp2x":
        return exponential(math.exp(2.0))
    raise SymbolSyntaxError(
        f"unknown phi spec {spec!r}; use const:<c>, affine, reciprocal, cap, "
        "exp:a=<a>, exp2x or expr:<expression>",
        None,
        spec,
    )


# ---------------------------------------------------------------------------
# Evaluation with the standing positivity hypothesis enforced
# ---------------------------------------------------------------------------


def eval_phi(symbol: Symbol, x):
    """phi(x) with the positivity hypothesis enforced at every point."""
    arr = np.asarray(x, dtype=float)
    # each check is one reduction (the ufunc's own, without ndarray.min's Python
    # wrapper), and only a failed one looks for the first refused point; a NaN
    # fails both reductions, but an x = NaN is not below 0
    if arr.size and not np.minimum.reduce(arr, None) >= 0:
        below = arr.ravel() < 0
        if below.any():
            raise ValueError(f"phi is defined on the half line; got x={float(arr.flat[np.argmax(below)])}")
    vals = symbol.values(arr)
    if vals.size and not (np.minimum.reduce(vals, None) > 0 and np.maximum.reduce(vals, None) < np.inf):
        good = np.isfinite(vals) & (vals > 0)
        i = int(np.argmin(good.ravel()))
        # + 0.0: a -0.0 of the walk, such as -x at 0, is reported as 0.0
        raise NonPositiveSymbolError(float(arr.ravel()[i]), float(vals.ravel()[i]) + 0.0)
    if arr.ndim == 0:
        return float(vals.flat[0])
    return vals


def validate_positivity(symbol: Symbol, x_max: float) -> float:
    """Sample phi on [0, x_max]; raise on any non-positive or non-finite value.

    Values below POSITIVITY_FLOOR trigger a local refinement pass so that
    narrow dips in user expressions are not missed by the uniform grid: 200
    points between the neighbours of each such sample, POSITIVITY_BLOCK
    windows per eval_phi call, in order, so the first refusal stays first.
    """
    grid = np.linspace(0.0, x_max, POSITIVITY_SAMPLES)
    vals = eval_phi(symbol, grid)  # raises on violation
    lowest = float(np.min(vals))
    suspicious = np.nonzero(vals < POSITIVITY_FLOOR)[0]
    for start in range(0, suspicious.size, POSITIVITY_BLOCK):
        i = suspicious[start : start + POSITIVITY_BLOCK]
        lo = grid[np.maximum(i - 1, 0)]
        hi = grid[np.minimum(i + 1, POSITIVITY_SAMPLES - 1)]
        fine = np.linspace(lo, hi, 200, axis=-1)
        lowest = min(lowest, float(np.min(eval_phi(symbol, fine))))
    return lowest
