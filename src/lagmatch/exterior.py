"""Exact exterior algebra over the first homology of a surface.

A closed oriented surface of genus g has H_1 of rank 2g with ordered basis
a_1, ..., a_g, b_1, ..., b_g.  Internally the basis is indexed 0..2g-1,
with index i < g naming a_{i+1} and index g+i naming b_{i+1}.  The
intersection pairing is the block-standard symplectic form

    x . y  =  x^T J y,      J = [[0, I], [-I, 0]],

so a_i . b_i = +1 and all other basis pairings vanish.

Exterior algebra elements are stored sparsely: a map from strictly
increasing index tuples to nonzero coefficients, each an ``int`` where the
inputs are integers and a ``Fraction`` otherwise.  ``_Sparse`` holds that
linear structure, which ``symprod.SymClass`` shares.  Koszul signs are
computed by counting the transpositions needed to merge sorted index
tuples.  Everything in this module is exact; no floats anywhere.

Matrices act on column vectors (v maps to M @ v), and ``ext_power_action``
extends that action to wedge monomials factorwise.  ``ext_power_images`` is
the same action on basis monomials with ``int`` coefficients, for integer
matrices on a hot path.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Mapping, Sequence


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
        return tuple(map(operator.index, v))


def intersection(lattice: SymplecticLattice, x: Sequence[int], y: Sequence[int]) -> int:
    """Algebraic intersection number x . y = x^T J y."""
    x, y = lattice.check_vector(x), lattice.check_vector(y)
    return sum(map(operator.mul, x, _dual(lattice.genus, y)))


def _dual(g: int, y: Sequence[int]) -> tuple[int, ...]:
    """J y, so that x . y is the dot product of x with it; y has length 2g."""
    return (*y[g:], *map(operator.neg, y[:g]))


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


def _subset(lattice: SymplecticLattice, subset: Sequence[int]) -> tuple[int, ...]:
    """``subset`` as a tuple, checked strictly increasing and in range for the lattice."""
    subset = tuple(subset)
    if any(not 0 <= i < lattice.rank for i in subset):
        raise ValueError(f"index tuple {subset} out of range for rank {lattice.rank}")
    if list(subset) != sorted(set(subset)):
        raise ValueError(f"index tuple {subset} is not strictly increasing")
    return subset


def _coefficient(c: Fraction | int) -> Fraction | int:
    """An ``int`` as it is; any other number as an exact ``Fraction``."""
    return c if type(c) is int else Fraction(c)


class _Sparse:
    """A sparse linear combination: ``terms`` maps keys to nonzero coefficients.

    An ``int`` coefficient stays an ``int`` and any other becomes a
    ``Fraction``, so integer inputs give integer results.  A subclass
    takes its space and then the terms, names the space in ``_space``
    and checks each key, zero coefficients included, in ``_key``.
    Instances should be treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping):
        clean = {}
        for key, coeff in terms.items():
            key = self._key(key)
            coeff = _coefficient(coeff)
            if coeff:
                clean[key] = coeff
        self.terms = clean

    def __add__(self, other: _Sparse) -> _Sparse:
        if other._space() != self._space():
            raise ValueError("elements live over different spaces")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return type(self)(*self._space(), out)

    def __sub__(self, other: _Sparse) -> _Sparse:
        return self + (-other)

    def __neg__(self) -> _Sparse:
        return type(self)(*self._space(), {k: -c for k, c in self.terms.items()})

    def __rmul__(self, scalar: Fraction | int) -> _Sparse:
        scalar = _coefficient(scalar)
        return type(self)(*self._space(), {k: scalar * c for k, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, type(self))
            and other._space() == self._space()
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return hash((*self._space(), frozenset(self.terms.items())))


class ExtElement(_Sparse):
    """Sparse element of the exterior algebra of a symplectic lattice.

    ``terms`` maps strictly increasing index tuples to nonzero ``int`` or
    ``Fraction`` coefficients; the empty tuple names the scalar part.
    """

    __slots__ = ("lattice",)

    def __init__(self, lattice: SymplecticLattice, terms: Mapping[tuple[int, ...], Fraction | int]):
        self.lattice = lattice
        super().__init__(terms)

    def _space(self) -> tuple[SymplecticLattice]:
        return (self.lattice,)

    def _key(self, subset: tuple[int, ...]) -> tuple[int, ...]:
        return _subset(self.lattice, subset)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, lattice: SymplecticLattice) -> "ExtElement":
        return cls(lattice, {})

    @classmethod
    def scalar(cls, lattice: SymplecticLattice, c: Fraction | int) -> "ExtElement":
        return cls(lattice, {(): c})

    @classmethod
    def from_vector(cls, lattice: SymplecticLattice, coords: Sequence[int]) -> "ExtElement":
        coords = lattice.check_vector(coords)
        return cls(lattice, {(i,): c for i, c in enumerate(coords) if c})

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
    if x.lattice != y.lattice:
        raise ValueError("elements live over different lattices")
    out: dict[tuple[int, ...], Fraction | int] = {}
    for s, cs in x.terms.items():
        for t, ct in y.terms.items():
            sign, merged = _merge_sign(s, t)
            if sign:
                assert merged is not None
                out[merged] = out.get(merged, 0) + sign * cs * ct
    return ExtElement(x.lattice, out)


def theta_divided(m: int, lattice: SymplecticLattice) -> ExtElement:
    """Divided power theta^m / m! of theta = sum_i a_i ^ b_i.

    The sum over the m-element subsets T of {1..g} of the wedge of the
    pairs a_i ^ b_i, i in T, in closed form: moving the m b's past the
    a's that follow them sorts each term to e_{T, g + T} with the sign
    (-1)^(m(m-1)/2).  Negative m gives 0, and so does m > g, which has no
    m-subsets: theta^{g+1} = 0 already in the exterior algebra.
    """
    g = lattice.genus
    if m < 0:
        return ExtElement.zero(lattice)
    sign = -1 if m * (m - 1) // 2 & 1 else 1
    terms = {t + tuple(g + i for i in t): sign for t in itertools.combinations(range(g), m)}
    return ExtElement(lattice, terms)


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
        out: dict[tuple[int, ...], Fraction | int] = {}
        for subset, coeff in x.terms.items():
            image = self.map_subset(subset)
            if image is not None:
                out[image] = out.get(image, 0) + coeff
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
    out: dict[tuple[int, ...], Fraction | int] = {}
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
            out[image] = out.get(image, 0) + sign * p * coeff
    return ExtElement(projection.target, out)


def _preserves_j(g: int, cols: Sequence[Sequence[int]], duals: Sequence[Sequence[int]]) -> bool:
    """Whether columns c_j, given with their duals J c_j, satisfy M^T J M = J.

    Column i pairs with columns i+1..2g-1 as row i of J says.  A column
    pairs with itself to 0 for every integer vector, so the diagonal is
    skipped.
    """
    for i, col in enumerate(cols):
        expected = [0] * (len(cols) - i - 1)
        if i < g:
            expected[g - 1] = 1
        if [sum(map(operator.mul, col, dual)) for dual in duals[i + 1:]] != expected:
            return False
    return True


class SpMatrix:
    """Integer symplectic matrix acting on column vectors of a lattice."""

    __slots__ = ("lattice", "rows")

    def __init__(self, lattice: SymplecticLattice, rows: Sequence[Sequence[int]]):
        n = lattice.rank
        rows = tuple(tuple(map(operator.index, row)) for row in rows)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"matrix must be {n}x{n}")
        self.lattice = lattice
        self.rows = rows
        if not self._is_symplectic():
            raise ValueError("matrix does not preserve the symplectic form")

    @classmethod
    def _closed(cls, lattice: SymplecticLattice, rows: Sequence[Sequence[int]]) -> "SpMatrix":
        """A matrix symplectic by group closure, built from checked ones: no check.

        For products, inverses and block sums of matrices that were already
        checked; ``rows`` must be n x n integers.
        """
        self = object.__new__(cls)
        self.lattice = lattice
        self.rows = tuple(map(tuple, rows))
        return self

    def _is_symplectic(self) -> bool:
        """M^T J M = J, from the columns of M and their duals."""
        g = self.lattice.genus
        cols = list(zip(*self.rows))
        return _preserves_j(g, cols, [_dual(g, col) for col in cols])

    @classmethod
    def identity(cls, lattice: SymplecticLattice) -> "SpMatrix":
        n = lattice.rank
        return cls(lattice, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def __matmul__(self, other: "SpMatrix") -> "SpMatrix":
        if other.lattice != self.lattice:
            raise ValueError("matrix lattices differ")
        cols = list(zip(*other.rows))
        rows = [[sum(map(operator.mul, row, col)) for col in cols] for row in self.rows]
        return SpMatrix._closed(self.lattice, rows)

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
    width: int | None = None,
) -> Callable[[tuple[int, ...]], dict[tuple[int, ...], int]]:
    """The action S -> Lambda(M) e_S of an integer matrix on basis monomials.

    M need not be square: ``width`` is its number of columns, len(rows) by
    default, so with no rows Lambda(M) is 1 in degree 0 and 0 above.  The
    image of e_{s_1} ^ ... ^ e_{s_k} is the image of its first k - 1
    factors wedged with column s_k of M; e_i moves into place past the
    indices of each term above i, which gives the Koszul sign.  Images are
    memoized per prefix in a dict that only the returned function holds,
    and it holds no reference to itself, so dropping it frees the memo at
    once.  The returned dicts are shared and must not be mutated.
    """
    width = len(rows) if width is None else width
    columns = [[(i, row[j]) for i, row in enumerate(rows) if row[j]] for j in range(width)]
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


def primitive_class(lattice: SymplecticLattice, circle: Sequence[int]) -> tuple[int, ...]:
    """The circle as a lattice vector, which must be primitive (content 1)."""
    circle = lattice.check_vector(circle)
    if math.gcd(*circle) != 1:
        raise ValueError("circle class must be primitive")
    return circle


def _symplectic_pairs(
    lattice: SymplecticLattice, circle: tuple[int, ...]
) -> tuple[list, list, list, list]:
    """Pairs u_i . w_i = 1 with u_1 = circle, and their duals: lists us, ws, J us, J ws.

    Integer symplectic Gram-Schmidt in closed form, for a primitive circle.
    The projection onto the complement of the pairs found so far is

        P(x) = x - sum_j (x . w_j) u_j + sum_j (x . u_j) w_j,

    and for u in that complement u . P(e_i) = u . e_i = -(J u)_i.  So each
    round takes the Bezout partner coefficients of -J u, w = P(coefficients),
    and as the next u the first nonzero P(e_i) over its content, which is
    the gcd of its pairings with the complement.  The pairings come from
    the duals: x . w_j is x dotted with J w_j, and e_i . w_j = (J w_j)_i.
    P adds one multiple of u_j or w_j at a time, skipping zero pairings.
    An e_i that projected to 0, or gave u, lies in the span of the pairs
    from then on, so each scan resumes after the index the last one took.
    """
    g, n = lattice.genus, lattice.rank
    u = circle
    us: list[tuple[int, ...]] = []
    ws: list[tuple[int, ...]] = []
    dus: list[tuple[int, ...]] = []
    dws: list[tuple[int, ...]] = []
    start = 0
    while True:
        du = _dual(g, u)
        d, coeffs = _bezout(list(map(operator.neg, du)))
        if d != 1:
            raise ValueError("internal: non-unimodular pairing with a primitive class")
        along = [(-sum(map(operator.mul, coeffs, dw)), sum(map(operator.mul, coeffs, dv)))
                 for dv, dw in zip(dus, dws)]
        w = _project(coeffs, along, us, ws)
        us.append(u)
        ws.append(tuple(w))
        dus.append(du)
        dws.append(_dual(g, w))
        if len(us) == g:
            return us, ws, dus, dws
        for i in range(start, n):
            x = [0] * n
            x[i] = 1
            x = _project(x, [(-dw[i], dv[i]) for dv, dw in zip(dus, dws)], us, ws)
            content = math.gcd(*x)
            if content:
                u = tuple(c // content for c in x)
                start = i + 1
                break
        else:
            raise ValueError("internal: symplectic completion fell short")


def _project(x: list[int], along: list[tuple[int, int]], us: list, ws: list) -> list[int]:
    """x + sum_j (a_j u_j + b_j w_j) for the pairings (a_j, b_j) in ``along``."""
    for (a, b), u, w in zip(along, us, ws):
        if a:
            x = [c + a * y for c, y in zip(x, u)]
        if b:
            x = [c + b * y for c, y in zip(x, w)]
    return x


@functools.lru_cache
def _frames(genus: int, circle: tuple[int, ...]) -> tuple[SpMatrix, SpMatrix]:
    """The frame F of a primitive circle and its inverse, certified once per circle.

    The columns of F are the pairs u_1, ..., u_g, w_1, ..., w_g of
    ``_symplectic_pairs``, u_1 = circle, so F sends a_1 to the circle by
    construction; F^{-1} = -J F^T J has rows J w_1, ..., J w_g, -J u_1,
    ..., -J u_g.  F^T J F = J is checked once, on the columns of F and
    the duals the pass already holds, and then both are built unchecked.
    Memoized per (genus, circle), up to the 128 most recent circles; the
    callers check the circle first, so no error is ever cached.
    """
    lattice = SymplecticLattice(genus)
    us, ws, dus, dws = _symplectic_pairs(lattice, circle)
    cols = us + ws
    if not _preserves_j(genus, cols, dus + dws):
        raise ValueError("internal: symplectic completion does not preserve the form")
    frame = SpMatrix._closed(lattice, list(zip(*cols)))
    return frame, SpMatrix._closed(lattice, dws + [tuple(map(operator.neg, du)) for du in dus])


def circle_frame(lattice: SymplecticLattice, circle: Sequence[int]) -> SpMatrix:
    """Integer symplectic matrix F with F . a_1 = circle, which must be primitive.

    The columns of F are the pairs of ``_symplectic_pairs``, u_1 = circle;
    ``_frames`` builds F once per circle.
    """
    return _frames(lattice.genus, primitive_class(lattice, circle))[0]


def adapted_basis(lattice: SymplecticLattice, circle: Sequence[int]) -> SpMatrix:
    """Integer symplectic matrix B with B . circle = a_1: the inverse of ``circle_frame``.

    The circle must be primitive.  B = F^{-1} = -J F^T J is read off the
    duals of the pairs, and ``_frames`` builds it with F.
    """
    return _frames(lattice.genus, primitive_class(lattice, circle))[1]
