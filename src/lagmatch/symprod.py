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

Everything here is exact rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .exterior import ExtElement, SymplecticLattice, _merge_sign

Monomial = tuple[int, tuple[int, ...]]


class RelationNeeded(Exception):
    """A product left the monomial range i + |S| <= n."""


class RegimeViolation(Exception):
    """An operation was applied outside its (n, g) regime."""


class SymClass:
    """Exact rational cohomology class of Sym^n, stored monomially.

    ``terms`` maps (i, S) to nonzero Fractions.  Instances are immutable in
    spirit; all operations return fresh objects.
    """

    __slots__ = ("n", "lattice", "terms")

    def __init__(
        self,
        n: int,
        lattice: SymplecticLattice,
        terms: Mapping[Monomial, Fraction | int],
    ):
        if n < 0:
            raise ValueError("symmetric product degree n must be nonnegative")
        clean: dict[Monomial, Fraction] = {}
        for (i, subset), coeff in terms.items():
            subset = tuple(subset)
            if i < 0:
                raise ValueError(f"negative U-power in monomial ({i}, {subset})")
            if any(not 0 <= k < lattice.rank for k in subset):
                raise ValueError(f"index tuple {subset} out of range")
            if list(subset) != sorted(set(subset)):
                raise ValueError(f"index tuple {subset} is not strictly increasing")
            coeff = Fraction(coeff)
            if not coeff:
                continue
            if i + len(subset) > n:
                raise RelationNeeded(
                    f"monomial U^{i} e_{subset} outside the range i + |S| <= {n}"
                )
            clean[(i, subset)] = coeff
        self.n = n
        self.lattice = lattice
        self.terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def monomial(cls, n: int, lattice: SymplecticLattice, u_power: int, subset: Sequence[int]) -> "SymClass":
        return cls(n, lattice, {(u_power, tuple(subset)): Fraction(1)})

    # -- linear structure --------------------------------------------

    def _require_compatible(self, other: "SymClass") -> None:
        if self.n != other.n or self.lattice != other.lattice:
            raise ValueError("classes live on different symmetric products")

    def __add__(self, other: "SymClass") -> "SymClass":
        self._require_compatible(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + coeff
        return SymClass(self.n, self.lattice, out)

    def __sub__(self, other: "SymClass") -> "SymClass":
        return self + (-other)

    def __neg__(self) -> "SymClass":
        return SymClass(self.n, self.lattice, {k: -c for k, c in self.terms.items()})

    def __rmul__(self, scalar: Fraction | int) -> "SymClass":
        scalar = Fraction(scalar)
        return SymClass(self.n, self.lattice, {k: scalar * c for k, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SymClass)
            and other.n == self.n
            and other.lattice == self.lattice
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return hash((self.n, self.lattice, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, u_power: int, subset: Iterable[int]) -> Fraction:
        return self.terms.get((u_power, tuple(subset)), Fraction(0))

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
    """All monomials (i, S) with i + |S| <= n, in a fixed deterministic order."""
    out: list[Monomial] = []
    for k in range(0, min(n, lattice.rank) + 1):
        for subset in itertools.combinations(range(lattice.rank), k):
            for i in range(0, n - k + 1):
                out.append((i, subset))
    out.sort(key=lambda m: (len(m[1]), m[1], m[0]))
    return out


def poincare_polynomial_dimension(n: int, g: int) -> int:
    """Total dimension of the monomial model of H^*(Sym^n), genus g.

    Equals sum over k of (n + 1 - k) C(2g, k); for n >= 2g - 1 this
    collapses to (n - g + 1) 4^g.
    """
    if n < 0 or g < 0:
        raise ValueError("n and g must be nonnegative")
    return sum((n + 1 - k) * math.comb(2 * g, k) for k in range(0, min(n, 2 * g) + 1))


def _collect(
    n: int,
    lattice: SymplecticLattice,
    pieces: Iterable[tuple[Monomial, Fraction]],
    context: str,
) -> SymClass:
    """Accumulate monomial contributions, tolerating cancellation.

    Range violations only count if they survive cancellation; a nonzero
    out-of-range monomial raises RelationNeeded with the offending term.
    """
    acc: dict[Monomial, Fraction] = {}
    for key, coeff in pieces:
        acc[key] = acc.get(key, Fraction(0)) + coeff
    bad = [(i, s) for (i, s), c in acc.items() if c and i + len(s) > n]
    if bad:
        i, s = bad[0]
        raise RelationNeeded(
            f"{context}: monomial U^{i} e_{s} leaves the range i + |S| <= {n}"
        )
    return SymClass(n, lattice, {k: c for k, c in acc.items() if c})


def cap_ext(omega: ExtElement, x: SymClass) -> SymClass:
    """Wedge an exterior-algebra element into the Lambda-factor (on the left).

    The coefficient on each monomial picks up the Koszul sign of merging
    the new indices in front of e_S.  Products that leave the monomial
    range raise RelationNeeded.
    """
    if omega.lattice != x.lattice:
        raise ValueError("lattice mismatch")

    def pieces() -> Iterable[tuple[Monomial, Fraction]]:
        for t, ct in omega.terms.items():
            for (i, s), cs in x.terms.items():
                sign, merged = _merge_sign(t, s)
                if sign:
                    assert merged is not None
                    yield (i, merged), sign * ct * cs

    return _collect(x.n, x.lattice, pieces(), "mu-type cap")


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
    return _collect(
        x.n,
        x.lattice,
        (((i + 1, s), c) for (i, s), c in x.terms.items()),
        "classical U-action",
    )


def cap_U_quantum_g0(x: SymClass, exponent: int = 1) -> SymClass:
    """Quantum U-action for genus 0: U^i -> U^{i+e mod (n+1)}, e the exponent.

    Sym^n of the sphere is CP^n and the point class wraps to the
    fundamental class with period n + 1, so the e-th power of the U-step
    is one cyclic shift.
    """
    if x.lattice.genus != 0:
        raise RegimeViolation("genus-0 quantum action applied to positive genus")
    period = x.n + 1
    out: dict[Monomial, Fraction] = {}
    for (i, s), c in x.terms.items():
        key = ((i + exponent) % period, s)
        out[key] = out.get(key, Fraction(0)) + c
    return SymClass(x.n, x.lattice, out)


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
