"""Exact exterior algebra over the first homology of a surface.

A closed oriented surface of genus g has H_1 of rank 2g with ordered basis
a_1, ..., a_g, b_1, ..., b_g.  Internally the basis is indexed 0..2g-1,
with index i < g naming a_{i+1} and index g+i naming b_{i+1}.  The
intersection pairing is the block-standard symplectic form

    x . y  =  x^T J y,      J = [[0, I], [-I, 0]],

so a_i . b_i = +1 and all other basis pairings vanish.

Exterior algebra elements are stored sparsely: a map from strictly
increasing index tuples to nonzero ``Fraction`` coefficients.  Koszul signs
are computed by counting the transpositions needed to merge sorted index
tuples.  Everything in this module is exact; no floats anywhere.

Matrices act on column vectors (v maps to M @ v), and ``ext_power_action``
extends that action to wedge monomials factorwise.  ``ext_power_images`` is
the same action on basis monomials with ``int`` coefficients, for integer
matrices on a hot path.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence


class SymplecticLattice:
    """Rank-2g integer lattice with the standard symplectic pairing."""

    __slots__ = ("genus", "rank")

    def __init__(self, genus: int):
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        self.genus = genus
        self.rank = 2 * genus

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymplecticLattice) and other.genus == self.genus

    def __hash__(self) -> int:
        return hash(("SymplecticLattice", self.genus))

    def __repr__(self) -> str:
        return f"SymplecticLattice(genus={self.genus})"

    def label(self, index: int) -> str:
        g = self.genus
        if not 0 <= index < self.rank:
            raise IndexError(f"basis index {index} out of range for genus {g}")
        return f"a{index + 1}" if index < g else f"b{index - g + 1}"

    def basis_vector(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.rank:
            raise IndexError(f"basis index {index} out of range")
        return tuple(1 if j == index else 0 for j in range(self.rank))

    def check_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.rank:
            raise ValueError(f"vector has length {len(v)}, lattice rank is {self.rank}")
        return tuple(int(c) for c in v)

    def intersection_form(self) -> list[list[int]]:
        """The matrix J itself, as dense rows."""
        g = self.genus
        rows = [[0] * self.rank for _ in range(self.rank)]
        for i in range(g):
            rows[i][g + i] = 1
            rows[g + i][i] = -1
        return rows


def intersection(lattice: SymplecticLattice, x: Sequence[int], y: Sequence[int]) -> int:
    """Algebraic intersection number x . y = x^T J y."""
    x = lattice.check_vector(x)
    y = lattice.check_vector(y)
    g = lattice.genus
    return sum(x[i] * y[g + i] - x[g + i] * y[i] for i in range(g))


def _merge_sign(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, tuple[int, ...] | None]:
    """Koszul sign and merged tuple for e_s ^ e_t; (0, None) on a repeat."""
    if set(s) & set(t):
        return 0, None
    # Count inversions: pairs (i in s, j in t) with i > j.
    inversions = 0
    for j in t:
        inversions += sum(1 for i in s if i > j)
    merged = tuple(sorted(s + t))
    return (-1) ** (inversions & 1), merged


class ExtElement:
    """Sparse element of the exterior algebra of a symplectic lattice.

    ``terms`` maps strictly increasing index tuples to nonzero Fractions;
    the empty tuple names the scalar part.  Instances should be treated as
    immutable.
    """

    __slots__ = ("lattice", "terms")

    def __init__(self, lattice: SymplecticLattice, terms: Mapping[tuple[int, ...], Fraction | int]):
        clean: dict[tuple[int, ...], Fraction] = {}
        for subset, coeff in terms.items():
            subset = tuple(subset)
            if any(not 0 <= i < lattice.rank for i in subset):
                raise ValueError(f"index tuple {subset} out of range for rank {lattice.rank}")
            if list(subset) != sorted(set(subset)):
                raise ValueError(f"index tuple {subset} is not strictly increasing")
            coeff = Fraction(coeff)
            if coeff:
                clean[subset] = coeff
        self.lattice = lattice
        self.terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, lattice: SymplecticLattice) -> "ExtElement":
        return cls(lattice, {})

    @classmethod
    def scalar(cls, lattice: SymplecticLattice, c: Fraction | int) -> "ExtElement":
        return cls(lattice, {(): Fraction(c)})

    @classmethod
    def generator(cls, lattice: SymplecticLattice, index: int) -> "ExtElement":
        return cls(lattice, {(index,): Fraction(1)})

    @classmethod
    def from_vector(cls, lattice: SymplecticLattice, coords: Sequence[int]) -> "ExtElement":
        coords = lattice.check_vector(coords)
        return cls(lattice, {(i,): Fraction(c) for i, c in enumerate(coords) if c})

    # -- ring/module structure ----------------------------------------

    def _require_same_lattice(self, other: "ExtElement") -> None:
        if self.lattice != other.lattice:
            raise ValueError("elements live over different lattices")

    def __add__(self, other: "ExtElement") -> "ExtElement":
        self._require_same_lattice(other)
        out = dict(self.terms)
        for subset, coeff in other.terms.items():
            out[subset] = out.get(subset, Fraction(0)) + coeff
        return ExtElement(self.lattice, out)

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        return self + (-other)

    def __neg__(self) -> "ExtElement":
        return ExtElement(self.lattice, {s: -c for s, c in self.terms.items()})

    def __rmul__(self, scalar: Fraction | int) -> "ExtElement":
        scalar = Fraction(scalar)
        return ExtElement(self.lattice, {s: scalar * c for s, c in self.terms.items()})

    def __mul__(self, other: "ExtElement") -> "ExtElement":
        return wedge(self, other)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExtElement)
            and other.lattice == self.lattice
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return hash((self.lattice, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, subset: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(subset), Fraction(0))

    def degrees(self) -> set[int]:
        return {len(s) for s in self.terms}

    def degree(self) -> int:
        """Degree of a homogeneous element (0 for the zero element)."""
        ds = self.degrees()
        if not ds:
            return 0
        if len(ds) > 1:
            raise ValueError(f"element is not homogeneous, degrees {sorted(ds)}")
        return ds.pop()

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for subset in sorted(self.terms, key=lambda s: (len(s), s)):
            coeff = self.terms[subset]
            name = "^".join(self.lattice.label(i) for i in subset) or "1"
            bits.append(f"({coeff})*{name}")
        return " + ".join(bits)


def wedge(x: ExtElement, y: ExtElement) -> ExtElement:
    """Exterior product, with Koszul signs from merge inversions."""
    x._require_same_lattice(y)
    out: dict[tuple[int, ...], Fraction] = {}
    for s, cs in x.terms.items():
        for t, ct in y.terms.items():
            sign, merged = _merge_sign(s, t)
            if sign:
                assert merged is not None
                out[merged] = out.get(merged, Fraction(0)) + sign * cs * ct
    return ExtElement(x.lattice, out)


def theta_divided(m: int, lattice: SymplecticLattice) -> ExtElement:
    """Divided power theta^m / m! of theta = sum_i a_i ^ b_i.

    Expands to the sum over all m-element subsets T of {1..g} of the wedge
    of the corresponding a_i ^ b_i pairs.  Negative m gives 0; m > g gives
    0 because theta^{g+1} = 0 already in the exterior algebra.
    """
    g = lattice.genus
    if m < 0 or m > g:
        return ExtElement.zero(lattice)
    total = ExtElement.zero(lattice)
    for chosen in itertools.combinations(range(g), m):
        term = ExtElement.scalar(lattice, 1)
        for i in chosen:
            pair = ExtElement(lattice, {(i, g + i): Fraction(1)})
            term = wedge(term, pair)
        total = total + term
    return total


class LatticeProjection:
    """A partial relabelling of basis indices between two lattices.

    ``images[i]`` is the target index of source basis index i, or None if
    the generator is killed.  The images that survive must be strictly
    increasing in the source order, so relabelling a sorted index tuple
    never introduces a sign.
    """

    __slots__ = ("source", "target", "images")

    def __init__(
        self,
        source: SymplecticLattice,
        target: SymplecticLattice,
        images: Sequence[int | None],
    ):
        if len(images) != source.rank:
            raise ValueError("one image (or None) required per source generator")
        alive = [i for i in images if i is not None]
        if any(not 0 <= i < target.rank for i in alive):
            raise ValueError("projection image out of range for target lattice")
        if sorted(alive) != alive or len(set(alive)) != len(alive):
            raise ValueError("projection must be strictly order preserving")
        self.source = source
        self.target = target
        self.images = tuple(images)

    @classmethod
    def identity(cls, lattice: SymplecticLattice) -> "LatticeProjection":
        return cls(lattice, lattice, tuple(range(lattice.rank)))

    @classmethod
    def kill_first_pair(cls, source: SymplecticLattice) -> "LatticeProjection":
        """Kill a_1 and b_1; relabel a_j -> a_{j-1}, b_j -> b_{j-1}."""
        g = source.genus
        if g == 0:
            raise ValueError("genus 0 has no handle pair to kill")
        target = SymplecticLattice(g - 1)
        images: list[int | None] = [None] * source.rank
        for j in range(1, g):
            images[j] = j - 1                  # a_{j+1} -> a_j
            images[g + j] = (g - 1) + (j - 1)  # b_{j+1} -> b_j
        return cls(source, target, images)

    @classmethod
    def include_after_first_pair(cls, source: SymplecticLattice) -> "LatticeProjection":
        """Include genus g into genus g+1 as the handles a_2..b_{g+1}."""
        g = source.genus
        target = SymplecticLattice(g + 1)
        images: list[int | None] = [None] * source.rank
        for j in range(g):
            images[j] = j + 1                  # a_j -> a_{j+1}
            images[g + j] = (g + 1) + (j + 1)  # b_j -> b_{j+1}
        return cls(source, target, images)

    def map_subset(self, subset: tuple[int, ...]) -> tuple[int, ...] | None:
        out = []
        for i in subset:
            image = self.images[i]
            if image is None:
                return None
            out.append(image)
        return tuple(out)

    def map_element(self, x: ExtElement) -> ExtElement:
        if x.lattice != self.source:
            raise ValueError("element lattice does not match projection source")
        out: dict[tuple[int, ...], Fraction] = {}
        for subset, coeff in x.terms.items():
            image = self.map_subset(subset)
            if image is not None:
                out[image] = out.get(image, Fraction(0)) + coeff
        return ExtElement(self.target, out)


def contract(
    circle: Sequence[int],
    x: ExtElement,
    projection: LatticeProjection,
) -> ExtElement:
    """Contraction of a wedge monomial along a homology class.

    On a monomial x_1 ^ ... ^ x_k this is

        sum_j (-1)^(j-1) (x_j . circle) q(x_1) ^ ... q(x_j) omitted ... ^ q(x_k),

    extended linearly, where q is the given lattice projection.  The result
    lives in the projection target and has degree exactly one less.
    """
    lattice = projection.source
    if x.lattice != lattice:
        raise ValueError("element lattice does not match projection source")
    circle = lattice.check_vector(circle)
    # Pairings of basis vectors with the circle: e_i . circle = (J circle)_i.
    g = lattice.genus
    pairing = [0] * lattice.rank
    for i in range(g):
        pairing[i] = circle[g + i]
        pairing[g + i] = -circle[i]
    out: dict[tuple[int, ...], Fraction] = {}
    for subset, coeff in x.terms.items():
        for pos, i in enumerate(subset):
            p = pairing[i]
            if not p:
                continue
            rest = subset[:pos] + subset[pos + 1:]
            image = projection.map_subset(rest)
            if image is None:
                continue
            sign = -1 if pos & 1 else 1
            out[image] = out.get(image, Fraction(0)) + sign * p * coeff
    return ExtElement(projection.target, out)


class SpMatrix:
    """Integer symplectic matrix acting on column vectors of a lattice."""

    __slots__ = ("lattice", "rows")

    def __init__(self, lattice: SymplecticLattice, rows: Sequence[Sequence[int]]):
        n = lattice.rank
        rows = tuple(tuple(int(c) for c in row) for row in rows)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"matrix must be {n}x{n}")
        self.lattice = lattice
        self.rows = rows
        if not self._is_symplectic():
            raise ValueError("matrix does not preserve the symplectic form")

    def _is_symplectic(self) -> bool:
        n = self.lattice.rank
        g = self.lattice.genus
        # Check M^T J M = J column pair by column pair.
        cols = [self.column(j) for j in range(n)]
        for i in range(n):
            for j in range(i, n):
                want = 0
                if j == i + g and i < g:
                    want = 1
                got = intersection(self.lattice, cols[i], cols[j])
                if got != want:
                    return False
        return True

    @classmethod
    def identity(cls, lattice: SymplecticLattice) -> "SpMatrix":
        n = lattice.rank
        return cls(lattice, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        v = self.lattice.check_vector(v)
        return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in self.rows)

    def __matmul__(self, other: "SpMatrix") -> "SpMatrix":
        if other.lattice != self.lattice:
            raise ValueError("matrix lattices differ")
        n = self.lattice.rank
        rows = [
            [sum(self.rows[i][k] * other.rows[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        return SpMatrix(self.lattice, rows)

    def inverse(self) -> "SpMatrix":
        """Symplectic inverse M^{-1} = -J M^T J, integer by construction."""
        g = self.lattice.genus
        n = self.lattice.rank

        # Row i of J has a single nonzero entry: (J)_{i, g+i} = 1 for i < g
        # and (J)_{i, i-g} = -1 for i >= g.
        def J_row(i: int) -> tuple[int, int]:
            return (g + i, 1) if i < g else (i - g, -1)

        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            k, si = J_row(i)
            for j in range(n):
                # J_{lj} = -J_{jl} by antisymmetry, absorbing the leading minus.
                l, sj = J_row(j)
                rows[i][j] = si * sj * self.rows[l][k]
        return SpMatrix(self.lattice, rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpMatrix)
            and other.lattice == self.lattice
            and other.rows == self.rows
        )

    def __hash__(self) -> int:
        return hash((self.lattice, self.rows))

    def __repr__(self) -> str:
        return f"SpMatrix(genus={self.lattice.genus}, rows={self.rows})"


def ext_power_action(matrix: SpMatrix, x: ExtElement) -> ExtElement:
    """Functorial action of a matrix on the exterior algebra.

    Each wedge factor e_i is replaced by the i-th column of the matrix; on
    the top exterior power this multiplies by det = 1 for symplectic input.
    """
    if x.lattice != matrix.lattice:
        raise ValueError("element and matrix lattices differ")
    lattice = x.lattice
    out = ExtElement.zero(lattice)
    for subset, coeff in x.terms.items():
        term = ExtElement.scalar(lattice, coeff)
        for i in subset:
            term = wedge(term, ExtElement.from_vector(lattice, matrix.column(i)))
        out = out + term
    return out


def ext_power_images(
    rows: Sequence[Sequence[int]],
) -> Callable[[tuple[int, ...]], dict[tuple[int, ...], int]]:
    """The action S -> Lambda(M) e_S of an integer matrix on basis monomials.

    The image of e_{s_1} ^ ... ^ e_{s_k} is the image of its first k - 1
    factors wedged with column s_k of M; e_i moves into place past the
    indices of each term above i, which gives the Koszul sign.  Images are
    memoized per prefix in a dict that only the returned function holds,
    and it holds no reference to itself, so dropping it frees the memo at
    once.  The returned dicts are shared and must not be mutated.
    """
    columns = [[(i, row[j]) for i, row in enumerate(rows) if row[j]] for j in range(len(rows))]
    memo: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {(): {(): 1}}

    def image(subset: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        found = memo.get(subset)
        if found is not None:
            return found
        known = len(subset) - 1
        while subset[:known] not in memo:
            known -= 1
        current = memo[subset[:known]]
        for end in range(known, len(subset)):
            out: dict[tuple[int, ...], int] = {}
            for t, c in current.items():
                for i, m in columns[subset[end]]:
                    pos = bisect.bisect_left(t, i)
                    if pos < len(t) and t[pos] == i:
                        continue
                    key = t[:pos] + (i,) + t[pos:]
                    out[key] = out.get(key, 0) + (-c * m if (len(t) - pos) & 1 else c * m)
            current = {t: c for t, c in out.items() if c}
            memo[subset[:end + 1]] = current
        return current

    return image


def transvection(lattice: SymplecticLattice, v: Sequence[int], c: int = 1) -> SpMatrix:
    """The symplectic transvection x -> x + c (x . v) v."""
    v = lattice.check_vector(v)
    n = lattice.rank
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(n):
        pair = intersection(lattice, lattice.basis_vector(j), v)
        if pair:
            for i in range(n):
                rows[i][j] += c * pair * v[i]
    return SpMatrix(lattice, rows)


def _bezout(values: Sequence[int]) -> tuple[int, list[int]]:
    """gcd of values plus coefficients realizing it; gcd(∅ or zeros) = 0."""
    coeffs = [0] * len(values)
    g = 0
    for i, value in enumerate(values):
        if g == 0:
            if value != 0:
                g = abs(value)
                coeffs = [0] * len(values)
                coeffs[i] = 1 if value > 0 else -1
            continue
        if value == 0:
            continue
        new_g, x, y = _xgcd(g, value)
        coeffs = [x * c for c in coeffs]
        coeffs[i] += y
        g = new_g
    return g, coeffs


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with a x + b y = g > 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def adapted_basis(lattice: SymplecticLattice, circle: Sequence[int]) -> SpMatrix:
    """Integer symplectic matrix B with B . circle = a_1.

    The circle class must be primitive.  Built by symplectic Gram-Schmidt:
    repeatedly pick a dual partner by a Bezout combination, project the
    remaining generators into the symplectic complement, and recurse.  B is
    the inverse of the change of basis assembled from the (u_i, w_i) pairs.
    """
    g = lattice.genus
    circle = lattice.check_vector(circle)
    content = math.gcd(*circle) if any(circle) else 0
    if content != 1:
        raise ValueError("circle class must be primitive")

    def omega(x: Sequence[int], y: Sequence[int]) -> int:
        return intersection(lattice, x, y)

    gens: list[tuple[int, ...]] = [lattice.basis_vector(i) for i in range(lattice.rank)]
    u: tuple[int, ...] | None = circle
    us: list[tuple[int, ...]] = []
    ws: list[tuple[int, ...]] = []
    while u is not None and len(us) < g:
        pairings = [omega(u, x) for x in gens]
        d, coeffs = _bezout(pairings)
        if d != 1:
            raise ValueError("internal: non-unimodular pairing with a primitive class")
        w = tuple(sum(c * x[i] for c, x in zip(coeffs, gens)) for i in range(lattice.rank))
        us.append(u)
        ws.append(w)
        projected = []
        for x in gens:
            wx = omega(w, x)
            ux = omega(u, x)
            projected.append(
                tuple(x[i] + wx * u[i] - ux * w[i] for i in range(lattice.rank))
            )
        gens = projected
        u = None
        for x in gens:
            if any(x):
                pair_gcd = math.gcd(*(omega(x, y) for y in gens))
                if pair_gcd == 0:
                    continue
                if any(c % pair_gcd for c in x):
                    raise ValueError("internal: complement generator not divisible")
                u = tuple(c // pair_gcd for c in x)
                break
    if len(us) != g:
        raise ValueError("internal: symplectic completion fell short")
    change = SpMatrix(
        lattice,
        [[(us + ws)[j][i] for j in range(lattice.rank)] for i in range(lattice.rank)],
    )
    adapted = change.inverse()
    if adapted.apply(circle) != lattice.basis_vector(0):
        raise ValueError("internal: adapted basis failed to send the circle to a_1")
    return adapted
