"""Generators, canonical monomials, and elements of the trigraded algebra.

The algebra over F_p is exterior on the h(i,j), polynomial on the b(i,j) and
the a(i).  Commutation: two h's anticommute, everything else commutes.  A
monomial is stored in canonical order (a's, then h's, then b's, each block
sorted by index) together with its tridegree; an element is a finite F_p
combination of canonical monomials.  Generators are interned, one object per
(kind, i, j), and compared by identity, so hashing and comparing monomials
never looks inside a generator.

Sign bookkeeping uses the parity of the number of exterior factors, which for
a homogeneous word equals (s + t) mod 2.  That is the grading under which the
commutation rules above are exactly the Koszul rules, so all signs here are
forced by it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .errors import ParameterError, ParseError
from .grading import PrimeContext, Tridegree, ZERO_DEGREE, check_degree, generator_tridegree

_KIND_RANK = {"a": 0, "h": 1, "b": 2}

#: Largest generator index the parser accepts.  Degrees grow like p**(i+j),
#: so grading a larger index would take unbounded time and memory.
MAX_GENERATOR_INDEX = 10_000


class Generator:
    """One multiplicative generator: kind "a" (j is None), "h", or "b".

    Interned: each (kind, i, j) has exactly one instance, which a, h, b,
    Generator(...), pickle and copy all return, so equality is identity and
    the hash is object.__hash__.  The constructor also sets, once per
    instance, the derived attributes that the hot paths read: text (the
    rendered form), key (the canonical sort key) and is_exterior.  An
    instance is immutable: setting or deleting an attribute raises
    AttributeError.
    """

    __slots__ = ("kind", "i", "j", "text", "key", "is_exterior")

    def __new__(cls, kind: str, i: int, j: int | None) -> "Generator":
        g = _INTERNED.get((kind, i, j))
        if g is None:
            _check_indices(kind, i, j)
            g = _INTERNED[kind, i, j] = object.__new__(cls)
            for name, value in (
                    ("kind", kind), ("i", i), ("j", j),
                    ("text", "a(%d)" % i if j is None else "%s(%d,%d)" % (kind, i, j)),
                    ("key", (_KIND_RANK[kind], i, -1 if j is None else j)),
                    ("is_exterior", kind == "h")):
                object.__setattr__(g, name, value)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("cannot set %r: a Generator is immutable" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete %r: a Generator is immutable" % name)

    def __reduce__(self):
        return Generator, (self.kind, self.i, self.j)

    def tridegree(self, ctx: PrimeContext) -> Tridegree:
        return generator_tridegree(self.kind, self.i, self.j, ctx)

    def render(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return self.render()


_INTERNED: dict[tuple[str, int, int | None], Generator] = {}


def _check_indices(kind: str, i: int, j: int | None) -> None:
    """The one gate of every generator, run once, when it is first built."""
    if kind == "a" and j is None:
        if i < 0:
            raise ParameterError("a requires i >= 0, got %d" % i)
    elif kind in ("h", "b") and j is not None:
        if i < 1 or j < 0:
            raise ParameterError("%s requires i >= 1 and j >= 0, got (%d, %d)" % (kind, i, j))
    else:
        raise ParameterError("no generator %s with indices (%r, %r); the generators are "
                             "a(i), h(i,j) and b(i,j)" % (kind, i, j))


def a(i: int) -> Generator:
    return Generator("a", i, None)


def h(i: int, j: int) -> Generator:
    return Generator("h", i, j)


def b(i: int, j: int) -> Generator:
    return Generator("b", i, j)


class Monomial(namedtuple("Monomial", "factors tridegree")):
    """Product of generators in canonical order; exterior exponents are 1.

    factors is a tuple of (Generator, exponent) pairs, tridegree a Tridegree.
    """

    __slots__ = ()

    def render(self) -> str:
        return " ".join(g.text if e == 1 else "%s^%d" % (g.text, e) for g, e in self.factors)

    def __repr__(self) -> str:
        return self.render() or "1"


def canonicalize(factors: Iterable[tuple[Generator, int]],
                 ctx: PrimeContext) -> tuple[int, Monomial] | None:
    """Sort a word of (generator, exponent) powers, in written order, into a
    canonical monomial.

    Returns (sign, monomial) where sign in {+1, -1} is the parity of the
    permutation restricted to the exterior generators; non-exterior
    generators move freely.  Each power stays one item, so g^e costs the
    same for every e.  An exterior power above 1 or a repeated exterior
    generator (an exterior square, so the product is zero) gives None.  A
    degree above MAX_DEGREE raises a ParameterError.
    """
    ext = []
    counts: dict[Generator, int] = {}
    for g, e in factors:
        if g.is_exterior:
            if e > 1:
                return None
            ext.append(g.key)
        counts[g] = counts.get(g, 0) + e
    inv = 0
    for x in range(len(ext)):
        kx = ext[x]
        for y in range(x + 1, len(ext)):
            if kx > ext[y]:
                inv += 1
            elif kx == ext[y]:
                return None
    canon = tuple(sorted(counts.items(), key=lambda it: it[0].key))
    deg = ZERO_DEGREE
    for g, e in canon:
        deg = deg + g.tridegree(ctx).scaled(e)
    check_degree(deg.t)
    return (-1 if inv % 2 else 1, Monomial(factors=canon, tridegree=deg))


def monomial_from_factors(factors: Iterable[tuple[Generator, int]], ctx: PrimeContext) -> Monomial:
    """Build a canonical monomial from (generator, exponent) pairs, dropping
    the sign of the reordering.

    Raises on nonpositive exponents or a repeated exterior generator; use
    canonicalize for raw words that may square to zero.
    """
    factors = list(factors)
    for g, e in factors:
        if e <= 0:
            raise ParameterError("exponent must be positive, got %d for %s" % (e, g.render()))
    res = canonicalize(factors, ctx)
    if res is None:
        raise ParameterError("exterior generator repeated in %s"
                             % " ".join(g.render() for g, _ in factors))
    return res[1]


class Element:
    """A finite F_p combination of canonical monomials.

    Coefficients are stored as residues in [1, p-1]; the zero element has no
    terms.  Arithmetic lives in module-level functions such as multiply,
    which take the prime context explicitly.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        self._terms = dict(terms) if terms else {}

    @staticmethod
    def zero() -> "Element":
        return Element()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def terms(self) -> dict[Monomial, int]:
        return dict(self._terms)

    def coefficient(self, mon: Monomial) -> int:
        return self._terms.get(mon, 0)

    def support(self) -> set[Monomial]:
        return set(self._terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Element) and self._terms == other._terms

    def __hash__(self):
        raise TypeError("Element is not hashable")

    def __repr__(self) -> str:
        if not self._terms:
            return "Element(0)"
        body = " + ".join("%d*%s" % (c, m.render() or "1") for m, c in sorted(
            self._terms.items(), key=lambda it: it[0].render()))
        return "Element(%s)" % body


def _from_accumulator(accum: dict[Monomial, int], ctx: PrimeContext) -> Element:
    cleaned = {}
    for mon, c in accum.items():
        c %= ctx.p
        if c:
            cleaned[mon] = c
    return Element(cleaned)


def element_from_monomial(mon: Monomial, ctx: PrimeContext, coeff: int = 1) -> Element:
    return _from_accumulator({mon: coeff}, ctx)


def multiply(x: Element, y: Element, ctx: PrimeContext) -> Element:
    accum: dict[Monomial, int] = {}
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            # both are canonical, so the sign is that of moving y's exterior
            # factors past x's
            res = canonicalize(mx.factors + my.factors, ctx)
            if res is None:
                continue
            sign, mon = res
            accum[mon] = accum.get(mon, 0) + sign * cx * cy
    return _from_accumulator(accum, ctx)


def element_tridegree(x: Element) -> Tridegree | None:
    """Shared tridegree of all terms, or None when zero or inhomogeneous."""
    deg = None
    for mon in x.terms:
        if deg is None:
            deg = mon.tridegree
        elif deg != mon.tridegree:
            return None
    return deg


# --- text form -------------------------------------------------------------
#
# element := "0" | ["-"] term { " + " term | " - " term }
# term    := [coeff "*"] factor { " " factor } | coeff
# factor  := gen ["^" exponent]
# gen     := "a(" int ")" | "h(" int "," int ")" | "b(" int "," int ")"
#
# coeff is a residue in [1, p-1]; a bare coeff denotes a multiple of the unit
# monomial.  Rendering emits the balanced representative (|v| <= (p-1)/2),
# putting the sign into the separator and keeping "1*" for negative unit
# coefficients, e.g. "-1*h(1,0) h(1,1)".


def _balanced(c: int, p: int) -> int:
    c %= p
    return c if c <= (p - 1) // 2 else c - p


def render_element(x: Element, ctx: PrimeContext) -> str:
    if x.is_zero:
        return "0"
    items = sorted(x.terms.items(), key=lambda it: it[0].render())
    pieces = []
    for idx, (mon, c) in enumerate(items):
        v = _balanced(c, ctx.p)
        body = mon.render()
        if not body:
            text = str(abs(v))
        elif v < 0 or abs(v) != 1:
            text = "%d*%s" % (abs(v), body)
        else:
            text = body
        if idx == 0:
            pieces.append(("-" if v < 0 else "") + text)
        else:
            pieces.append((" - " if v < 0 else " + ") + text)
    return "".join(pieces)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError as exc:  # more digits than int() converts
            raise ParseError("integer too long", start) from exc

    def take_index(self) -> int:
        start = self.pos
        value = self.take_int()
        if value > MAX_GENERATOR_INDEX:
            raise ParseError("generator index %d exceeds %d" % (value, MAX_GENERATOR_INDEX),
                             start)
        return value

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError("expected %r" % ch, self.pos)
        self.pos += 1


def _parse_generator(tk: _Tokens) -> Generator:
    start = tk.pos
    kind = tk.peek()
    if kind not in ("a", "h", "b"):
        raise ParseError("expected a generator (a, h, or b)", tk.pos)
    tk.pos += 1
    tk.expect("(")
    i = tk.take_index()
    j = None
    if tk.peek() == ",":
        tk.pos += 1
        j = tk.take_index()
    tk.expect(")")
    try:
        return Generator(kind, i, j)
    except ParameterError as exc:
        raise ParseError(str(exc), start) from exc


def _parse_factor(tk: _Tokens) -> tuple[Generator, int]:
    g = _parse_generator(tk)
    e = 1
    if tk.peek() == "^":
        tk.pos += 1
        epos = tk.pos
        e = tk.take_int()
        if e < 1:
            raise ParseError("exponent must be >= 1", epos)
    return g, e


def _parse_term(tk: _Tokens, ctx: PrimeContext) -> tuple[int, list[tuple[Generator, int]]]:
    """One term as (coefficient, raw word of (generator, exponent) powers)."""
    coeff = 1
    tk.skip_ws()
    if tk.peek().isdigit():
        cpos = tk.pos
        coeff = tk.take_int()
        if not 1 <= coeff <= ctx.p - 1:
            raise ParseError("coefficient %d out of range [1, %d]" % (coeff, ctx.p - 1), cpos)
        if tk.peek() == "*":
            tk.pos += 1
        else:
            return coeff, []  # bare coefficient: a multiple of the unit monomial
    word = [_parse_factor(tk)]
    while True:
        save = tk.pos
        tk.skip_ws()
        if tk.peek() in ("a", "h", "b") and tk.pos > save:
            word.append(_parse_factor(tk))
        else:
            tk.pos = save
            return coeff, word


def parse_element(text: str, ctx: PrimeContext) -> Element:
    """Parse the text form back into an element (inverse of render_element)."""
    stripped = text.strip()
    if stripped == "0":
        return Element.zero()
    tk = _Tokens(text)
    tk.skip_ws()
    accum: dict[Monomial, int] = {}
    sign = 1
    if tk.peek() == "-":
        tk.pos += 1
        sign = -1
    while True:
        coeff, word = _parse_term(tk, ctx)
        res = canonicalize(word, ctx)
        if res is not None:
            csign, mon = res
            accum[mon] = accum.get(mon, 0) + sign * csign * coeff
        tk.skip_ws()
        nxt = tk.peek()
        if nxt == "":
            break
        if nxt == "+":
            sign = 1
        elif nxt == "-":
            sign = -1
        else:
            raise ParseError("expected '+', '-', or end of input", tk.pos)
        tk.pos += 1
        tk.skip_ws()
    return _from_accumulator(accum, ctx)
