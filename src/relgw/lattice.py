"""Graded homology lattices with exact integer coefficients.

Classes live in the even homology of a fixed space, presented by a graded
basis.  Grade k stands for complex dimension k.  A `HomologyClass` is a
dense int tuple `vec`, one entry per element of `GradedBasis.elements` in
that order, plus its grade (None for the zero class).  Names and grades
are checked once, where names become a class (`HomologyClass.from_pairs`,
`cls`, `gen`); sums and differences only compare the two grades, and
`encode()` is computed on first use and kept.  Each basis holds one class
per element, which `gen` hands out.  `IntersectionForm`,
`LinearFunctional` and `LatticeMap` hold one precomputed row per basis
position.  All arithmetic is exact; coefficients are Python ints
throughout.  `row_reduce` is the one linear elimination, over `Fraction`
rows, for every solver that needs one; `combination` is the one linear
solve in a lattice, through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub
from typing import Iterable, Mapping


class LatticeError(Exception):
    pass


class BasisMismatchError(LatticeError):
    """Raised when classes from different bases are combined."""


class GradeError(LatticeError):
    """Raised when an operation receives a class of the wrong grade."""


_set = object.__setattr__


@dataclass(frozen=True)
class GradedBasis:
    """An ordered basis of even homology, each element carrying a grade.

    `name` identifies the space the basis belongs to; `elements` is a tuple of
    (element-name, grade) pairs.  A full basis of an n-dimensional space has
    exactly one grade-0 element (the point) and one grade-n element (the
    fundamental class); for n = 0 they coincide.

    Construction also builds the generator table: one `HomologyClass` per
    element, which `gen(basis, name)` returns, so a generator is built and
    encoded once per basis.
    """

    name: str
    n: int
    elements: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [e for e, _ in self.elements]
        if len(set(names)) != len(names):
            raise LatticeError(f"duplicate basis element in {self.name}")
        for e, g in self.elements:
            if not 0 <= g <= self.n:
                raise GradeError(f"{self.name}.{e}: grade {g} outside 0..{self.n}")
        zeros = [e for e, g in self.elements if g == 0]
        tops = [e for e, g in self.elements if g == self.n]
        if len(zeros) != 1 or len(tops) != 1:
            raise LatticeError(f"{self.name}: need exactly one point and one fundamental class")
        # attributes, not fields, so equality and hashing still see only the
        # declared data: name -> (position, grade), the zero vector, the
        # hash, name -> generator class
        zero = (0,) * len(self.elements)
        _set(self, "_index", {e: (i, g) for i, (e, g) in enumerate(self.elements)})
        _set(self, "_zero", zero)
        _set(self, "_hash", hash((self.name, self.n, self.elements)))
        gens = {e: HomologyClass(self, zero[:i] + (1,) + zero[i + 1:], g)
                for i, (e, g) in enumerate(self.elements)}
        for c in gens.values():
            c.encode()   # every Insertion encodes its class
        _set(self, "_gens", gens)

    def __hash__(self):
        return self._hash

    def _entry(self, name: str) -> tuple[int, int]:
        try:
            return self._index[name]
        except KeyError:
            raise LatticeError(
                f"{self.name}: unknown basis element {name!r}") from None

    def grade(self, name: str) -> int:
        return self._entry(name)[1]

    def names(self, grade: int | None = None) -> tuple[str, ...]:
        return tuple(e for e, g in self.elements if grade is None or g == grade)

    @property
    def point(self) -> str:
        return next(e for e, g in self.elements if g == 0)

    @property
    def fundamental(self) -> str:
        return next(e for e, g in self.elements if g == self.n)


def _pairs(basis: GradedBasis, vec) -> tuple[tuple[str, int], ...]:
    return tuple((e, c) for (e, _), c in zip(basis.elements, vec) if c)


class HomologyClass:
    """An integer combination of basis elements of a single grade.

    `vec` holds one int per element of `basis.elements`, in that order, and
    `grade` is the grade of every nonzero entry; the zero class has the
    all-zero vector and grade None.  The constructor trusts both: names
    become a class through `from_pairs`, `cls` or `gen`, which check them,
    and the arithmetic keeps vector and grade consistent.  Classes are
    immutable; classes on equal bases with equal vectors are equal.
    """

    __slots__ = ("basis", "vec", "grade", "_code")

    def __init__(self, basis: GradedBasis, vec: tuple[int, ...],
                 grade: int | None):
        _set(self, "basis", basis)
        _set(self, "vec", vec)
        _set(self, "grade", grade)
        self.__post_init__()

    def __post_init__(self):
        _set(self, "_code", None)  # encode() fills it on first use

    @classmethod
    def from_pairs(cls_, basis: GradedBasis,
                   pairs: Iterable[tuple[str, int]]) -> "HomologyClass":
        """The class sum(c * name) over (name, c) pairs.  Each name must be a
        basis element listed once with a nonzero coefficient (LatticeError),
        and all of them must share one grade (GradeError)."""
        pairs = tuple(pairs)
        vec = list(basis._zero)
        seen = set()
        grades = set()
        for name, c in pairs:
            if name in seen:
                raise LatticeError(f"repeated coefficient for {name}")
            if c == 0:
                raise LatticeError("zero coefficients must be dropped")
            pos, grade = basis._entry(name)
            seen.add(name)
            vec[pos] = c
            grades.add(grade)
        if len(grades) > 1:
            raise GradeError(f"mixed grades in class: {pairs}")
        return cls_(basis, tuple(vec), grades.pop() if grades else None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def coeffs(self) -> tuple[tuple[str, int], ...]:
        """(name, coefficient) pairs of the nonzero entries, in basis order."""
        return _pairs(self.basis, self.vec)

    @property
    def is_zero(self) -> bool:
        return self.grade is None

    def coeff(self, name: str) -> int:
        entry = self.basis._index.get(name)
        return 0 if entry is None else self.vec[entry[0]]

    def __eq__(self, other):
        if other.__class__ is not HomologyClass:
            return NotImplemented
        return self.vec == other.vec and (
            self.basis is other.basis or self.basis == other.basis)

    def __hash__(self):
        return hash((self.basis, self.vec))

    def __repr__(self) -> str:
        return f"HomologyClass(basis={self.basis!r}, coeffs={self.coeffs!r})"

    def __add__(self, other: "HomologyClass") -> "HomologyClass":
        return _combine(self, other, add)

    def __sub__(self, other: "HomologyClass") -> "HomologyClass":
        return _combine(self, other, sub)

    def scale(self, k: int) -> "HomologyClass":
        if k == 0 or self.grade is None:
            return HomologyClass(self.basis, self.basis._zero, None)
        return HomologyClass(self.basis, tuple(k * c for c in self.vec), self.grade)

    def encode(self) -> str:
        """Canonical string: '2*lambda-eps1', '0' for the zero class."""
        code = self._code
        if code is not None:
            return code
        parts = []
        for e, c in self.coeffs:
            if c == 1:
                term = e
            elif c == -1:
                term = f"-{e}"
            else:
                term = f"{c}*{e}"
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        code = "".join(parts) or "0"
        _set(self, "_code", code)
        return code

    def __str__(self) -> str:
        return self.encode()


def _combine(a: HomologyClass, b: HomologyClass, op) -> HomologyClass:
    """a + b or a - b, entry by entry; nonzero summands must share a grade."""
    _same_basis(a, b)
    vec = tuple(map(op, a.vec, b.vec))
    ga, gb = a.grade, b.grade
    if ga is None:
        return HomologyClass(a.basis, vec, gb)
    if gb is None:
        return HomologyClass(a.basis, vec, ga)
    if ga != gb:
        raise GradeError(f"mixed grades in class: {_pairs(a.basis, vec)}")
    return HomologyClass(a.basis, vec, ga if any(vec) else None)


def cls(basis: GradedBasis, coeffs: Mapping[str, int]) -> HomologyClass:
    """Build a class from a name -> coefficient mapping, dropping zeros."""
    return HomologyClass.from_pairs(
        basis, tuple((e, c) for e, c in coeffs.items() if c != 0))


def gen(basis: GradedBasis, name: str, k: int = 1) -> HomologyClass:
    """k times the basis element `name`; LatticeError for an unknown name
    (except with k == 0, the zero class).  With k == 1 the class is the
    basis's own, from its generator table, the same object every call."""
    if k == 1:
        out = basis._gens.get(name)
        if out is not None:
            return out
    if k == 0:
        return HomologyClass(basis, basis._zero, None)
    pos, grade = basis._entry(name)
    vec = list(basis._zero)
    vec[pos] = k
    return HomologyClass(basis, tuple(vec), grade)


def _same_basis(a: HomologyClass, b: HomologyClass) -> None:
    if a.basis is not b.basis and a.basis != b.basis:
        raise BasisMismatchError(f"{a.basis.name} vs {b.basis.name}")


def _symmetric(entries) -> dict:
    """(a, b, v) triples as a lookup table answering both (a, b) and (b, a)."""
    t = {}
    for a, b, v in entries:
        t[(a, b)] = v
        t[(b, a)] = v
    return t


@dataclass(frozen=True)
class IntersectionForm:
    """Symmetric pairing on complementary grades, from declared basis pairs.

    Undeclared complementary pairs pair to 0; non-complementary grades always
    pair to 0.  Row i lists the (position, value) pairs that basis element i
    pairs with nonzero value.
    """

    basis: GradedBasis
    pairs: tuple[tuple[str, str, int], ...]

    def __post_init__(self):
        b = self.basis
        rows = [[] for _ in b.elements]
        for (x, y), v in _symmetric(self.pairs).items():
            if v:
                rows[b._entry(x)[0]].append((b._entry(y)[0], v))
        _set(self, "_rows", tuple(map(tuple, rows)))

    def intersect(self, x: HomologyClass, y: HomologyClass) -> int:
        _same_basis(x, y)
        if x.basis is not self.basis and x.basis != self.basis:
            raise BasisMismatchError(f"form on {self.basis.name}, classes on {x.basis.name}")
        gx, gy = x.grade, y.grade
        if gx is None or gy is None or gx + gy != self.basis.n:
            return 0
        yv = y.vec
        total = 0
        for c, row in zip(x.vec, self._rows):
            if c:
                for j, v in row:
                    total += c * v * yv[j]
        return total


@dataclass(frozen=True)
class LinearFunctional:
    """Integer functional on grade-1 classes, given on the curve basis.

    `_row` holds its value at each basis position (0 where undeclared);
    `_undefined` lists the curve elements it is not declared on."""

    name: str
    basis: GradedBasis
    values: tuple[tuple[str, int], ...]

    def __post_init__(self):
        b = self.basis
        row = list(b._zero)
        for e, v in self.values:
            row[b._entry(e)[0]] = v
        declared = {e for e, _ in self.values}
        _set(self, "_row", tuple(row))
        _set(self, "_undefined", tuple(
            (i, e) for i, (e, g) in enumerate(b.elements)
            if g == 1 and e not in declared))

    def __call__(self, x: HomologyClass) -> int:
        if x.basis is not self.basis and x.basis != self.basis:
            raise BasisMismatchError(f"{self.name} on {self.basis.name}, class on {x.basis.name}")
        if x.grade is None:
            return 0
        if x.grade != 1:
            raise GradeError(f"{self.name} expects a curve class, got grade {x.grade}")
        vec = x.vec
        for i, e in self._undefined:
            if vec[i]:
                raise LatticeError(f"{self.name} undefined on {e}")
        return sum(map(mul, self._row, vec))


@dataclass(frozen=True)
class LatticeMap:
    """Basis-to-class map between lattices; linear extension, grade-preserving.

    Row i lists the (target position, coefficient) pairs of the image of
    source element i, or is None where no image is declared."""

    name: str
    source: GradedBasis
    target: GradedBasis
    images: tuple[tuple[str, HomologyClass], ...]

    def __post_init__(self):
        rows = [None] * len(self.source.elements)
        for e, img in self.images:
            pos, g = self.source._entry(e)
            if img.basis != self.target:
                raise BasisMismatchError(f"{self.name}: image of {e} outside {self.target.name}")
            if not img.is_zero and img.grade != g:
                raise GradeError(f"{self.name}: {e} (grade {g}) mapped to grade {img.grade}")
            rows[pos] = tuple((j, d) for j, d in enumerate(img.vec) if d)
        _set(self, "_rows", tuple(rows))

    def __call__(self, x: HomologyClass) -> HomologyClass:
        if x.basis is not self.source and x.basis != self.source:
            raise BasisMismatchError(f"{self.name} expects {self.source.name}")
        out = list(self.target._zero)
        for c, row, (e, _) in zip(x.vec, self._rows, self.source.elements):
            if c:
                if row is None:
                    raise LatticeError(f"{self.name} undefined on {e}")
                for j, d in row:
                    out[j] += c * d
        vec = tuple(out)
        return HomologyClass(self.target, vec, x.grade if any(vec) else None)


@dataclass(frozen=True)
class ProductTable:
    """Homology intersection products a . b, from declared symmetric entries.

    Products whose expected grade g(a)+g(b)-n is negative are zero; declared
    entries cover everything the evaluator needs, undeclared complementary
    combinations default to zero.
    """

    basis: GradedBasis
    entries: tuple[tuple[str, str, HomologyClass], ...]

    def __post_init__(self):
        _set(self, "_table", _symmetric(self.entries))

    def product(self, x: HomologyClass, y: HomologyClass) -> HomologyClass:
        _same_basis(x, y)
        zero = cls(self.basis, {})
        if x.is_zero or y.is_zero:
            return zero
        g = x.grade + y.grade - self.basis.n
        if g < 0:
            return zero
        t = self._table
        out = zero
        fund = self.basis.fundamental
        for a, ca in x.coeffs:
            for b, cb in y.coeffs:
                if a == fund:
                    piece = gen(self.basis, b)
                elif b == fund:
                    piece = gen(self.basis, a)
                else:
                    piece = t.get((a, b), zero)
                out = out + piece.scale(ca * cb)
        return out

    def point_coefficient(self, classes: Iterable[HomologyClass]) -> int:
        """H0 coefficient of the iterated product of `classes`."""
        items = list(classes)
        if not items:
            return 0
        acc = items[0]
        for nxt in items[1:]:
            acc = self.product(acc, nxt)
        if acc.is_zero:
            return 0
        if acc.grade != 0:
            return 0
        return acc.coeff(self.basis.point)


def row_reduce(rows, tags=None) -> list[int]:
    """Gauss-Jordan elimination of `rows` in place, over `Fraction`.

    Every column is a pivot candidate, so an augmented system is
    inconsistent exactly when its last column is a pivot.  Rows are swapped
    as they are chosen, and `tags` (one per row, when given) is permuted
    along with them.  Returns the pivot columns; row i of the result holds
    the pivot of the i-th one, scaled to 1, and is zero in every other
    pivot column.
    """
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        sel = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        if tags is not None:
            tags[r], tags[sel] = tags[sel], tags[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def combination(classes, target: HomologyClass) -> tuple[Fraction, ...] | None:
    """The exact coefficients x with sum x_i * classes[i] == target, or None
    when target is outside the span of `classes`.

    The classes must be linearly independent (LatticeError otherwise), so
    the coefficients are unique.  Only positions where some class is
    nonzero enter the elimination; a nonzero target entry elsewhere is
    outside the span at once.
    """
    cols = [c.vec for c in classes]
    rows = []
    for j, t in enumerate(target.vec):
        row = [col[j] for col in cols]
        if any(row):
            rows.append([Fraction(v) for v in row] + [Fraction(t)])
        elif t:
            return None
    pivots = row_reduce(rows)
    n = len(cols)
    if pivots[:n] != list(range(n)):
        raise LatticeError(f"dependent classes: {[c.encode() for c in classes]}")
    if len(pivots) > n:
        return None
    return tuple(row[-1] for row in rows[:n])
