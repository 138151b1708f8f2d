"""Graded homology lattices with exact integer coefficients.

Classes live in the even homology of a fixed space, presented by a graded
basis.  Grade k stands for complex dimension k.  All arithmetic is exact;
coefficients are Python ints throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping


class LatticeError(Exception):
    pass


class BasisMismatchError(LatticeError):
    """Raised when classes from different bases are combined."""


class GradeError(LatticeError):
    """Raised when an operation receives a class of the wrong grade."""


@dataclass(frozen=True)
class GradedBasis:
    """An ordered basis of even homology, each element carrying a grade.

    `name` identifies the space the basis belongs to; `elements` is a tuple of
    (element-name, grade) pairs.  A full basis of an n-dimensional space has
    exactly one grade-0 element (the point) and one grade-n element (the
    fundamental class); for n = 0 they coincide.
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
        # name -> (position, grade); an attribute, not a field, so equality
        # and hashing still see only the declared data
        object.__setattr__(self, "_index", {
            e: (i, g) for i, (e, g) in enumerate(self.elements)})

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


@dataclass(frozen=True)
class HomologyClass:
    """An integer combination of basis elements of a single grade.

    The zero class has empty coefficients and no grade of its own.
    """

    basis: GradedBasis
    coeffs: tuple[tuple[str, int], ...]

    def __post_init__(self):
        positions = {}
        grades = set()
        for name, c in self.coeffs:
            if name in positions:
                raise LatticeError(f"repeated coefficient for {name}")
            if c == 0:
                raise LatticeError("zero coefficients must be dropped")
            positions[name], grade = self.basis._entry(name)
            grades.add(grade)
        if len(grades) > 1:
            raise GradeError(f"mixed grades in class: {self.coeffs}")
        ordered = tuple(sorted(self.coeffs, key=lambda t: positions[t[0]]))
        object.__setattr__(self, "coeffs", ordered)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def grade(self) -> int | None:
        if not self.coeffs:
            return None
        return self.basis.grade(self.coeffs[0][0])

    def coeff(self, name: str) -> int:
        for e, c in self.coeffs:
            if e == name:
                return c
        return 0

    def __add__(self, other: "HomologyClass") -> "HomologyClass":
        _same_basis(self, other)
        acc = {e: c for e, c in self.coeffs}
        for e, c in other.coeffs:
            acc[e] = acc.get(e, 0) + c
        return cls(self.basis, acc)

    def __sub__(self, other: "HomologyClass") -> "HomologyClass":
        _same_basis(self, other)
        acc = {e: c for e, c in self.coeffs}
        for e, c in other.coeffs:
            acc[e] = acc.get(e, 0) - c
        return cls(self.basis, acc)

    def scale(self, k: int) -> "HomologyClass":
        if k == 0:
            return cls(self.basis, {})
        return cls(self.basis, {e: k * c for e, c in self.coeffs})

    def encode(self) -> str:
        """Canonical string: '2*lambda-eps1', '0' for the zero class."""
        if not self.coeffs:
            return "0"
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
        return "".join(parts)

    def __str__(self) -> str:
        return self.encode()


def cls(basis: GradedBasis, coeffs: Mapping[str, int]) -> HomologyClass:
    """Build a class, dropping zero coefficients."""
    return HomologyClass(basis, tuple((e, c) for e, c in coeffs.items() if c != 0))


def gen(basis: GradedBasis, name: str, k: int = 1) -> HomologyClass:
    return cls(basis, {name: k})


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
    pair to 0.
    """

    basis: GradedBasis
    pairs: tuple[tuple[str, str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "_table", _symmetric(self.pairs))

    def intersect(self, x: HomologyClass, y: HomologyClass) -> int:
        _same_basis(x, y)
        if x.basis != self.basis:
            raise BasisMismatchError(f"form on {self.basis.name}, classes on {x.basis.name}")
        if x.is_zero or y.is_zero:
            return 0
        if x.grade + y.grade != self.basis.n:
            return 0
        t = self._table
        total = 0
        for a, ca in x.coeffs:
            for b, cb in y.coeffs:
                total += ca * cb * t.get((a, b), 0)
        return total


@dataclass(frozen=True)
class LinearFunctional:
    """Integer functional on grade-1 classes, given on the curve basis."""

    name: str
    basis: GradedBasis
    values: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "_table", dict(self.values))

    def __call__(self, x: HomologyClass) -> int:
        if x.basis != self.basis:
            raise BasisMismatchError(f"{self.name} on {self.basis.name}, class on {x.basis.name}")
        if x.is_zero:
            return 0
        if x.grade != 1:
            raise GradeError(f"{self.name} expects a curve class, got grade {x.grade}")
        table = self._table
        total = 0
        for e, c in x.coeffs:
            if e not in table:
                raise LatticeError(f"{self.name} undefined on {e}")
            total += c * table[e]
        return total


@dataclass(frozen=True)
class LatticeMap:
    """Basis-to-class map between lattices; linear extension, grade-checked."""

    name: str
    source: GradedBasis
    target: GradedBasis
    images: tuple[tuple[str, HomologyClass], ...]
    grade_shift: int = 0

    def __post_init__(self):
        for e, img in self.images:
            g = self.source.grade(e)
            if not img.is_zero and img.grade != g + self.grade_shift:
                raise GradeError(f"{self.name}: {e} (grade {g}) mapped to grade {img.grade}")
        object.__setattr__(self, "_table", dict(self.images))

    def __call__(self, x: HomologyClass) -> HomologyClass:
        if x.basis != self.source:
            raise BasisMismatchError(f"{self.name} expects {self.source.name}")
        table = self._table
        out: dict[str, int] = {}
        for e, c in x.coeffs:
            if e not in table:
                raise LatticeError(f"{self.name} undefined on {e}")
            for f, d in table[e].coeffs:
                out[f] = out.get(f, 0) + c * d
        return cls(self.target, out)


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
        object.__setattr__(self, "_table", _symmetric(self.entries))

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
