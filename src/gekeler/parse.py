"""Parser for the shared polynomial text grammar.

Accepts integer coefficients, the variables T and x (or U and y for the
model at infinity), the extension-field generator a, the operators
+ - * ^ and parentheses, with juxtaposition read as multiplication
(e.g. ``2T^3``) and exponents up to MAX_EXPONENT.  Errors carry the
offending column.
"""

from .errors import InputError
from .fqpoly import FqPoly
from .bipoly import BiPoly

MAX_EXPONENT = 1000   # powers are expanded by repeated multiplication


class ParseError(InputError):
    def __init__(self, msg, pos):
        super().__init__(f"parse error at column {pos + 1}: {msg}")
        self.pos = pos


class _Tok:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text, tvar, xvar):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", int(text[i:j]), i))
            i = j
            continue
        if ch == tvar:
            toks.append(_Tok("T", None, i))
            i += 1
            continue
        if ch == xvar:
            toks.append(_Tok("x", None, i))
            i += 1
            continue
        if ch == "a":
            toks.append(_Tok("a", None, i))
            i += 1
            continue
        if ch in "+-*^()":
            toks.append(_Tok(ch, None, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(_Tok("end", None, len(text)))
    return toks


class _Parser:
    def __init__(self, field, toks, allow_x):
        self.field = field
        self.toks = toks
        self.i = 0
        self.allow_x = allow_x

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expr(self):
        t = self.peek()
        neg = False
        if t.kind in "+-":
            self.next()
            neg = t.kind == "-"
        out = self.term()
        if neg:
            out = -out
        while self.peek().kind in "+-":
            op = self.next()
            rhs = self.term()
            out = out - rhs if op.kind == "-" else out + rhs
        return out

    def term(self):
        out = self.factor()
        while True:
            t = self.peek()
            if t.kind == "*":
                self.next()
                out = out * self.factor()
            elif t.kind in ("int", "T", "x", "a", "("):
                out = out * self.factor()
            else:
                return out

    def factor(self):
        base = self.atom()
        if self.peek().kind == "^":
            self.next()
            t = self.next()
            if t.kind != "int":
                raise ParseError("exponent must be a nonnegative integer", t.pos)
            if t.value > MAX_EXPONENT:
                raise ParseError(f"exponent above {MAX_EXPONENT}", t.pos)
            out = BiPoly.one(self.field)
            for _ in range(t.value):
                out = out * base
            return out
        return base

    def atom(self):
        F = self.field
        t = self.next()
        if t.kind == "int":
            return BiPoly.const(FqPoly.const(F, F.from_int(t.value)))
        if t.kind == "T":
            return BiPoly.const(FqPoly.gen(F))
        if t.kind == "a":
            if F.e == 1:
                raise ParseError("generator a needs an extension field", t.pos)
            return BiPoly.const(FqPoly.const(F, F.p))
        if t.kind == "x":
            if not self.allow_x:
                raise ParseError("variable x is not allowed here", t.pos)
            return BiPoly(F, (FqPoly.zero(F), FqPoly.one(F)))
        if t.kind == "(":
            out = self.expr()
            t2 = self.next()
            if t2.kind != ")":
                raise ParseError("expected ')'", t2.pos)
            return out
        raise ParseError("expected a term", t.pos)


def parse_bipoly(field, text, tvar="T", xvar="x"):
    """Parse text into a BiPoly over the given field."""
    toks = _tokenize(text, tvar, xvar)
    p = _Parser(field, toks, allow_x=True)
    out = p.expr()
    t = p.peek()
    if t.kind != "end":
        raise ParseError("trailing input", t.pos)
    return out


def parse_fqpoly(field, text, tvar="T"):
    """Parse text with no x into an element of A = F_q[T]."""
    toks = _tokenize(text, tvar, "x")
    p = _Parser(field, toks, allow_x=False)
    out = p.expr()
    t = p.peek()
    if t.kind != "end":
        raise ParseError("trailing input", t.pos)
    if out.deg_x > 0:  # pragma: no cover - allow_x already forbids this
        raise InputError("expected a polynomial in T only")
    return out.coeff(0)
