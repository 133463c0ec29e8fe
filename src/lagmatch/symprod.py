"""Monomial model for the cohomology of symmetric products of a surface.

H^*(Sym^n of a genus-g surface; Q) is spanned by monomials U^i e_S where
0 <= i, S is a strictly increasing tuple of H_1 basis indices, and
i + |S| <= n.  The homological degree of U^i e_S is 2(n - i) - |S| (so the
fundamental class is U^0 e_empty and the point class is U^n), and |S| mod 2
is the homological parity.

The monomial range i + |S| <= n is a hard boundary of the model: products
that would leave it are not expressible without relations that the model
does not carry, and raise :class:`RelationNeeded`.  The two U-actions
(classical, quantum genus zero) each guard their regime and raise
:class:`RegimeViolation` outside it.

Everything here is exact: coefficients are ``int`` where the inputs are
integers and ``Fraction`` otherwise, as in ``exterior``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .exterior import ExtElement, SymplecticLattice, _merge_sign, _Sparse, _subset

Monomial = tuple[int, tuple[int, ...]]


class RelationNeeded(Exception):
    """A product left the monomial range i + |S| <= n."""


class RegimeViolation(Exception):
    """An operation was applied outside its (n, g) regime."""


class SymClass(_Sparse):
    """Exact cohomology class of Sym^n, stored monomially.

    ``terms`` maps (i, S) to nonzero ``int`` or ``Fraction`` coefficients.
    Instances are immutable in spirit; all operations return fresh objects.
    """

    __slots__ = ("n", "lattice")

    def __init__(
        self,
        n: int,
        lattice: SymplecticLattice,
        terms: Mapping[Monomial, Fraction | int],
    ):
        if n < 0:
            raise ValueError("symmetric product degree n must be nonnegative")
        self.n = n
        self.lattice = lattice
        super().__init__(terms)
        for i, subset in self.terms:
            if i + len(subset) > n:
                raise RelationNeeded(
                    f"monomial U^{i} e_{subset} outside the range i + |S| <= {n}"
                )

    def _space(self) -> tuple[int, SymplecticLattice]:
        return self.n, self.lattice

    def _key(self, key: Monomial) -> Monomial:
        i, subset = key
        if i < 0:
            raise ValueError(f"negative U-power in monomial ({i}, {tuple(subset)})")
        return i, _subset(self.lattice, subset)

    @classmethod
    def monomial(cls, n: int, lattice: SymplecticLattice, u_power: int, subset: Sequence[int]) -> "SymClass":
        return cls(n, lattice, {(u_power, tuple(subset)): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, u_power: int, subset: Iterable[int]) -> Fraction | int:
        return self.terms.get((u_power, tuple(subset)), 0)

    def __repr__(self) -> str:
        if not self.terms:
            return f"0 (Sym^{self.n}, g={self.lattice.genus})"
        bits = []
        for (i, subset) in sorted(self.terms, key=lambda k: (len(k[1]), k[1], k[0])):
            coeff = self.terms[(i, subset)]
            wedge_part = "^".join(self.lattice.label(j) for j in subset)
            name = f"U^{i}" + (f" {wedge_part}" if wedge_part else "")
            bits.append(f"({coeff})*{name}")
        return " + ".join(bits)


def basis(n: int, lattice: SymplecticLattice) -> list[Monomial]:
    """All monomials (i, S) with i + |S| <= n, in (|S|, S, i) order.

    ``itertools.combinations`` yields the subsets of each size in
    lexicographic order, so the loops emit that order with no sort.
    """
    out: list[Monomial] = []
    for k in range(0, min(n, lattice.rank) + 1):
        for subset in itertools.combinations(range(lattice.rank), k):
            for i in range(0, n - k + 1):
                out.append((i, subset))
    return out


def poincare_polynomial_dimension(n: int, g: int) -> int:
    """Total dimension of the monomial model of H^*(Sym^n), genus g.

    Equals sum over k of (n + 1 - k) C(2g, k); for n >= 2g - 1 this
    collapses to (n - g + 1) 4^g.
    """
    if n < 0 or g < 0:
        raise ValueError("n and g must be nonnegative")
    return sum((n + 1 - k) * math.comb(2 * g, k) for k in range(0, min(n, 2 * g) + 1))


def cap_ext(omega: ExtElement, x: SymClass) -> SymClass:
    """Wedge an exterior-algebra element into the Lambda-factor (on the left).

    The coefficient on each monomial picks up the Koszul sign of merging
    the new indices in front of e_S.  Products that leave the monomial
    range raise RelationNeeded.
    """
    if omega.lattice != x.lattice:
        raise ValueError("lattice mismatch")
    out: dict[Monomial, Fraction | int] = {}
    for t, ct in omega.terms.items():
        for (i, s), cs in x.terms.items():
            sign, merged = _merge_sign(t, s)
            if sign:
                assert merged is not None
                out[i, merged] = out.get((i, merged), 0) + sign * ct * cs
    return SymClass(x.n, x.lattice, out)


def cap_U_classical(x: SymClass) -> SymClass:
    """The classical U-action U^i e_S -> U^{i+1} e_S.

    Only valid in the classical regime 2n <= g - 1, where the monomial
    model carries no quantum corrections.
    """
    g = x.lattice.genus
    if 2 * x.n > g - 1:
        raise RegimeViolation(
            f"classical U-action needs 2n <= g-1; got n={x.n}, g={g}"
        )
    return SymClass(x.n, x.lattice, {(i + 1, s): c for (i, s), c in x.terms.items()})


def cap_U_quantum_g0(x: SymClass, exponent: int = 1) -> SymClass:
    """Quantum U-action for genus 0: U^i -> U^{i+e mod (n+1)}, e the exponent.

    Sym^n of the sphere is CP^n and the point class wraps to the
    fundamental class with period n + 1, so the e-th power of the U-step
    is one cyclic shift.
    """
    if x.lattice.genus != 0:
        raise RegimeViolation("genus-0 quantum action applied to positive genus")
    period = x.n + 1
    return SymClass(x.n, x.lattice, {((i + exponent) % period, s): c for (i, s), c in x.terms.items()})


class EtaThetaClass(NamedTuple):
    """A cohomology class written c_eta * eta + c_theta * theta."""

    eta: int
    theta: int


class RestrictionClasses(NamedTuple):
    """Restrictions of the three universal classes to a Sym^n fiber."""

    diagonal: EtaThetaClass
    canonical: EtaThetaClass
    macdonald: EtaThetaClass


def restriction_classes(n: int, g: int) -> RestrictionClasses:
    """The diagonal, canonical and MacDonald classes on Sym^n, genus g.

    MacDonald's class is the average of the other two:
    ((2 - 2g) + 2n) / 2 = n + 1 - g on the eta side, (-2 + 0)/2 = -1 on the
    theta side.
    """
    if n < 0 or g < 0:
        raise ValueError("n and g must be nonnegative")
    return RestrictionClasses(
        diagonal=EtaThetaClass(eta=2 * n, theta=-2),
        canonical=EtaThetaClass(eta=2 - 2 * g, theta=0),
        macdonald=EtaThetaClass(eta=n + 1 - g, theta=-1),
    )
