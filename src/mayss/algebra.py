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

import re
from collections import namedtuple
from collections.abc import Iterable

from .errors import ParameterError, ParseError
from .grading import PrimeContext, Tridegree, check_degree, generator_tridegree

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
    s = t = u = 0
    for g, e in canon:
        gs, gt, gu = g.tridegree(ctx)
        s, t, u = s + e * gs, t + e * gt, u + e * gu
    check_degree(t)
    return (-1 if inv % 2 else 1, Monomial(factors=canon, tridegree=Tridegree(s, t, u)))


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
# element := {blank} "0" {blank} | {blank} ["-"] term { {blank} ("+" | "-") term } {blank}
# term    := {blank} ([coeff "*"] factor { blank {blank} factor } | coeff)
# factor  := gen ["^" int]
# gen     := "a(" int ")" | "h(" int "," int ")" | "b(" int "," int ")"
# int     := ASCII digits "0"-"9", at least one
# blank   := " " | "\t"
#
# Blanks are spaces and tabs: at least one separates two factors, any number
# may lead or end the text or surround "+" and "-", and none may stand inside
# a generator or around "^" and "*"; the lone "0" follows the same rule.
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


# Each scanner takes (text, pos) and returns (value, end).  Digits are ASCII
# only: str.isdigit() also passes other scripts' digits and superscripts,
# which int() reads or rejects by another rule.
_BLANKS = re.compile(r"[ \t]*").match
_DIGITS = re.compile(r"[0-9]*").match


def _int(text: str, pos: int) -> tuple[int, int]:
    end = _DIGITS(text, pos).end()
    if end == pos:
        raise ParseError("expected an integer", pos)
    try:
        return int(text[pos:end]), end
    except ValueError as exc:  # more digits than int() converts
        raise ParseError("integer too long", pos) from exc


def _index(text: str, pos: int) -> tuple[int, int]:
    value, end = _int(text, pos)
    if value > MAX_GENERATOR_INDEX:
        raise ParseError("generator index %d exceeds %d" % (value, MAX_GENERATOR_INDEX), pos)
    return value, end


def _expect(text: str, pos: int, ch: str) -> int:
    if text[pos:pos + 1] != ch:
        raise ParseError("expected %r" % ch, pos)
    return pos + 1


def _power(text: str, pos: int) -> tuple[tuple[Generator, int], int]:
    """One factor g^e, the exponent 1 when no "^" follows."""
    kind = text[pos:pos + 1]
    if kind not in ("a", "h", "b"):
        raise ParseError("expected a generator (a, h, or b)", pos)
    i, end = _index(text, _expect(text, pos + 1, "("))
    j = None
    if text[end:end + 1] == ",":
        j, end = _index(text, end + 1)
    end = _expect(text, end, ")")
    try:
        g = Generator(kind, i, j)
    except ParameterError as exc:
        raise ParseError(str(exc), pos) from exc
    if text[end:end + 1] != "^":
        return (g, 1), end
    e, after = _int(text, end + 1)
    if e < 1:
        raise ParseError("exponent must be >= 1", end + 1)
    return (g, e), after


def _term(text: str, pos: int, ctx: PrimeContext) -> tuple[tuple[int, list], int]:
    """One term, after its leading blanks, as (coefficient, raw word of
    (generator, exponent) powers)."""
    pos = _BLANKS(text, pos).end()
    coeff = 1
    if "0" <= text[pos:pos + 1] <= "9":
        coeff, end = _int(text, pos)
        if not 1 <= coeff <= ctx.p - 1:
            raise ParseError("coefficient %d out of range [1, %d]" % (coeff, ctx.p - 1), pos)
        if text[end:end + 1] != "*":
            return (coeff, []), end  # bare coefficient: a multiple of the unit monomial
        pos = end + 1
    power, end = _power(text, pos)
    word = [power]
    while True:
        nxt = _BLANKS(text, end).end()
        if nxt == end or text[nxt:nxt + 1] not in ("a", "h", "b"):
            return (coeff, word), end
        power, end = _power(text, nxt)
        word.append(power)


def parse_element(text: str, ctx: PrimeContext) -> Element:
    """Parse the text form back into an element (inverse of render_element)."""
    pos = _BLANKS(text, 0).end()
    if text[pos:pos + 1] == "0" and _BLANKS(text, pos + 1).end() == len(text):
        return Element.zero()
    sign = 1
    if text[pos:pos + 1] == "-":
        pos += 1
        sign = -1
    accum: dict[Monomial, int] = {}
    while True:
        # each term is canonicalized, and its degree checked, before the next is read
        (coeff, word), end = _term(text, pos, ctx)
        res = canonicalize(word, ctx)
        if res is not None:
            csign, mon = res
            accum[mon] = accum.get(mon, 0) + sign * csign * coeff
        end = _BLANKS(text, end).end()
        nxt = text[end:end + 1]
        if not nxt:
            return _from_accumulator(accum, ctx)
        if nxt not in ("+", "-"):
            raise ParseError("expected '+', '-', or end of input", end)
        sign = 1 if nxt == "+" else -1
        pos = end + 1
