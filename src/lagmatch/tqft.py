"""Elementary cobordism maps and closed-cycle evaluation.

A broken fibration over the circle decomposes into elementary pieces:
surgery *down* along an embedded circle in the fiber (genus drops by one,
symmetric-product degree drops by one), surgery *up* (both rise by one),
and fiberwise diffeomorphism *twists* (an integer symplectic matrix on
first homology).  Each piece is an integer map e_S -> image(S) on the
exterior algebra of first homology, acting on the monomial model of the
symmetric-product cohomology by U^i e_S -> U^i image(S); a closed cycle
of pieces composes to an endomorphism whose graded supertrace is the
invariant of the total space.  The supertrace is taken over homological
degree; all published values are canonical up to one global sign.

Surgery along a nullhomologous (separating) circle induces the zero map,
so any cycle containing one evaluates to zero; ``connected_sum_invariant``
reports that short-circuit explicitly.

For a fibration with no surgeries at all (twists only, with monodromy
the product M), the evaluation collapses to coefficients of the
characteristic polynomial of M (Macdonald's formula for Sym^n of a
surface): ``alexander_cycle_value`` is that weighted sum of the
coefficients (a_0, ..., a_g) of det(tI - M)/t^g = sum a_m (t^m + t^-m),
the tuple that ``alexander_fibered`` returns.
``evaluate_cycle`` reads every word, with or without surgeries, as one
bordered determinant of integer matrices, the Fock-space form of the
Frohman-Nicas torsion; a twist-only word is the case with no border.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Callable, NamedTuple, Sequence

from .exterior import (
    LatticeProjection,
    SpMatrix,
    SymplecticLattice,
    adapted_basis,
    circle_frame,
    ext_power_images,
    primitive_class,
)
# Not called here: perfbench/tracing.py wraps these two by name in this namespace.
from .exterior import contract, ext_power_action  # noqa: F401
from .symprod import Monomial, SymClass, basis, cap_U_quantum_g0


class NonClosingCycle(ValueError):
    """The genus/degree bookkeeping of a cycle does not close up."""


Subset = tuple[int, ...]
Image = Callable[[Subset], dict[Subset, int]]


def _push(image: Image, vector: dict[Subset, int]) -> dict[Subset, int]:
    """Apply a map given on basis monomials to an integer vector."""
    out: dict[Subset, int] = {}
    for s, c in vector.items():
        for t, m in image(s).items():
            out[t] = out.get(t, 0) + c * m
    return {t: c for t, c in out.items() if c}


class SymSpace:
    """The monomial basis U^i e_S of Sym^n of a genus-g surface."""

    __slots__ = ("n", "lattice", "monomials")

    def __init__(self, n: int, lattice: SymplecticLattice):
        self.n = n
        self.lattice = lattice
        self.monomials: list[Monomial] = basis(n, lattice)

    @property
    def dim(self) -> int:
        return len(self.monomials)

    def element(self, key: Monomial) -> SymClass:
        return SymClass.monomial(self.n, self.lattice, key[0], key[1])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SymSpace)
            and other.n == self.n
            and other.lattice == self.lattice
        )

    def __hash__(self) -> int:
        return hash((self.n, self.lattice))

    def __repr__(self) -> str:
        return f"SymSpace(n={self.n}, genus={self.lattice.genus}, dim={self.dim})"


class SymLinearMap:
    """The lift U^i e_S -> U^i image(S) of an exterior-level map.

    No move changes the U-power, so a map between two SymSpaces is its
    integer image of each wedge monomial e_S.
    """

    __slots__ = ("src", "dst", "image")

    def __init__(self, src: SymSpace, dst: SymSpace, image: Image):
        self.src = src
        self.dst = dst
        self.image = image

    def apply(self, x: SymClass) -> SymClass:
        if x.n != self.src.n or x.lattice != self.src.lattice:
            raise ValueError("class does not live in this space")
        terms = {}
        for (i, s), coeff in x.terms.items():
            for t, c in self.image(s).items():
                terms[i, t] = terms.get((i, t), 0) + coeff * c
        return SymClass(self.dst.n, self.dst.lattice, terms)

    def __matmul__(self, other: "SymLinearMap") -> "SymLinearMap":
        """self after other, with the composed image memoized."""
        if other.dst != self.src:
            raise ValueError("maps are not composable")
        first, then = other.image, self.image
        return SymLinearMap(other.src, self.dst, functools.cache(lambda s: _push(then, first(s))))


def _contract_a1(frame: SpMatrix, lattice: SymplecticLattice) -> Image:
    """e_S -> the contraction with a_1 of frame e_S, genus g -> g-1.

    Only b_1 pairs with a_1 (b_1 . a_1 = -1), and the first pair is then
    killed, so expanding Lambda(frame) e_S along row b_1 gives

        e_S -> -sum_p (-1)^p frame[b_1][s_p] Lambda(R) e_{S - s_p},

    with p the position of s_p in S from 0, and R the rows of the frame
    other than a_1 and b_1, in order, which relabels them to genus g-1.
    """
    g = lattice.genus
    b1 = frame.rows[g]
    rest = ext_power_images(frame.rows[1:g] + frame.rows[g + 1:], 2 * g)

    @functools.cache
    def image(s: Subset) -> dict[Subset, int]:
        out: dict[Subset, int] = {}
        for p, i in enumerate(s):
            m = b1[i] if p & 1 else -b1[i]
            if m:
                for t, c in rest(s[:p] + s[p + 1:]).items():
                    out[t] = out.get(t, 0) + m * c
        return {t: c for t, c in out.items() if c}

    return image


class ElementaryMove:
    """One elementary piece of a broken fibration over an interval."""

    __slots__ = ("kind", "circle", "matrix")

    def __init__(
        self,
        kind: str,
        circle: Sequence[int] | None = None,
        matrix: SpMatrix | None = None,
    ):
        if kind not in ("down", "up", "twist"):
            raise ValueError(f"unknown move kind {kind!r}")
        if kind == "twist":
            if matrix is None or circle is not None:
                raise ValueError("twist moves carry a matrix and no circle")
        else:
            if circle is None or matrix is not None:
                raise ValueError(f"{kind} moves carry a circle and no matrix")
        self.kind = kind
        self.circle = tuple(map(operator.index, circle)) if circle is not None else None
        self.matrix = matrix

    @property
    def separating(self) -> bool:
        """A surgery along a nullhomologous circle, which induces the zero map."""
        return self.kind != "twist" and not any(self.circle)

    @classmethod
    def down(cls, circle: Sequence[int]) -> "ElementaryMove":
        return cls("down", circle=circle)

    @classmethod
    def up(cls, circle: Sequence[int]) -> "ElementaryMove":
        return cls("up", circle=circle)

    @classmethod
    def twist(cls, matrix: SpMatrix) -> "ElementaryMove":
        return cls("twist", matrix=matrix)

    def __repr__(self) -> str:
        if self.kind == "twist":
            return f"ElementaryMove.twist(genus={self.matrix.lattice.genus})"
        return f"ElementaryMove.{self.kind}(circle={self.circle})"


class MorseCycle:
    """A cyclic word of elementary moves over a circle of fiber genera.

    ``fibers[j]`` is the genus before move j; move j lands on fiber
    j+1 mod k.  ``n0`` is the symmetric-product degree over fiber 0; the
    degree over fiber j is nu_j = n0 + fibers[j] - fibers[0], and every
    nu_j must be nonnegative for the spaces to exist.
    """

    __slots__ = ("fibers", "moves", "n0")

    def __init__(self, fibers: Sequence[int], moves: Sequence[ElementaryMove], n0: int):
        fibers = tuple(map(operator.index, fibers))
        n0 = operator.index(n0)
        moves = tuple(moves)
        if not fibers or len(fibers) != len(moves):
            raise NonClosingCycle("need one move per fiber, cyclically")
        if any(g < 0 for g in fibers):
            raise NonClosingCycle("fiber genera must be nonnegative")
        if n0 < 0:
            raise NonClosingCycle("symmetric degree n0 must be nonnegative")
        k = len(moves)
        for j, move in enumerate(moves):
            g_here, g_next = fibers[j], fibers[(j + 1) % k]
            if move.kind == "down" and g_next != g_here - 1:
                raise NonClosingCycle(f"move {j} goes down but genus {g_here} -> {g_next}")
            if move.kind == "up" and g_next != g_here + 1:
                raise NonClosingCycle(f"move {j} goes up but genus {g_here} -> {g_next}")
            if move.kind == "twist":
                if g_next != g_here:
                    raise NonClosingCycle(f"move {j} twists but genus {g_here} -> {g_next}")
                if move.matrix.lattice.genus != g_here:
                    raise NonClosingCycle(f"move {j} matrix has the wrong genus")
            if move.kind == "down" and len(move.circle) != 2 * g_here:
                raise NonClosingCycle(f"move {j} circle has the wrong rank")
            if move.kind == "up" and len(move.circle) != 2 * g_next:
                raise NonClosingCycle(f"move {j} circle has the wrong rank")
        for j in range(k):
            nu = n0 + fibers[j] - fibers[0]
            if nu < 0:
                raise NonClosingCycle(f"symmetric degree over fiber {j} would be {nu}")
        self.fibers = fibers
        self.moves = moves
        self.n0 = n0

    def nu(self, j: int) -> int:
        return self.n0 + self.fibers[j] - self.fibers[0]

    def __repr__(self) -> str:
        kinds = ",".join(m.kind for m in self.moves)
        return f"MorseCycle(fibers={self.fibers}, moves=[{kinds}], n0={self.n0})"


def _move_image(move: ElementaryMove, genus: int) -> Image:
    """The exterior-level map of a move out of a fiber of the given genus.

    A twist acts as its exterior power.  A down is ``_contract_a1`` of the
    adapted basis sending the circle to a_1.  An up circle lives on the
    target surface (it is the belt circle of the new handle); an up is
    e_S -> Lambda(F)(a_1 ^ e_S), with S included after the first pair and
    F the ``circle_frame`` sending a_1 to the circle.  A separating circle
    gives the zero map, and an essential one must be primitive.
    """
    if move.kind == "twist":
        assert move.matrix is not None
        return ext_power_images(move.matrix.rows)
    assert move.circle is not None
    if move.kind == "down" and genus < 1:
        raise NonClosingCycle("down surgery needs positive fiber genus")
    lattice = SymplecticLattice(genus)
    surface = lattice if move.kind == "down" else SymplecticLattice(genus + 1)
    surface.check_vector(move.circle)
    if move.separating:
        return lambda s: {}
    if move.kind == "down":
        return _contract_a1(adapted_basis(lattice, move.circle), lattice)
    power = ext_power_images(circle_frame(surface, move.circle).rows)
    include = LatticeProjection.include_after_first_pair(lattice)
    return lambda s: power((0,) + include.map_subset(s))


def _lift(move: ElementaryMove, n: int, genus: int) -> SymLinearMap:
    """The Sym-level map of a move out of Sym^n of a genus-g fiber."""
    image = _move_image(move, genus)
    if move.kind == "down" and n < 1:
        raise NonClosingCycle("down surgery needs symmetric degree n >= 1")
    step = {"down": -1, "twist": 0, "up": 1}[move.kind]
    return SymLinearMap(
        SymSpace(n, SymplecticLattice(genus)),
        SymSpace(n + step, SymplecticLattice(genus + step)),
        image,
    )


def down_map(circle: Sequence[int], n: int, lattice: SymplecticLattice) -> SymLinearMap:
    """Surgery down along a circle: Sym^n(genus g) -> Sym^{n-1}(genus g-1)."""
    return _lift(ElementaryMove.down(circle), n, lattice.genus)


def up_map(circle: Sequence[int], n: int, lattice: SymplecticLattice) -> SymLinearMap:
    """Surgery up along a circle: Sym^n(genus g) -> Sym^{n+1}(genus g+1)."""
    return _lift(ElementaryMove.up(circle), n, lattice.genus)


def move_matrix(cycle: MorseCycle, j: int) -> SymLinearMap:
    """The Sym-level map of move j of a validated cycle.

    No path in the package calls it; perfbench/tracing.py wraps it by name.
    """
    return _lift(cycle.moves[j], cycle.nu(j), cycle.fibers[j])


def _series_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two power series truncated to the length of ``a``."""
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(len(a))]


def _bird_det(matrix: list[list[list[int]]]) -> list[int]:
    """Determinant of a square matrix over Z[t]/(t^(N+1)), without division.

    Bird's algorithm (*A simple division-free algorithm for computing
    determinants*, Inf. Process. Lett. 111, 2011): with mu(X) upper
    triangular, mu(X)_ij = X_ij above the diagonal and mu(X)_ii = -(sum of
    X_kk over k > i), iterate X <- mu(X) A from X = A; after h - 1 steps
    X[0][0] = (-1)^(h-1) det A.
    """
    h = len(matrix)
    x = matrix
    for _ in range(h - 1):
        tail = [0] * len(matrix[0][0])
        mu = [None] * h
        for i in range(h - 1, -1, -1):
            mu[i] = [list(map(operator.neg, tail))] + x[i][i + 1:]
            tail = list(map(operator.add, tail, x[i][i]))
        x = [
            [
                list(map(sum, zip(*(_series_mul(m, matrix[i + k][j]) for k, m in enumerate(mu[i])))))
                for j in range(h)
            ]
            for i in range(h)
        ]
    return x[0][0] if h & 1 else list(map(operator.neg, x[0][0]))


def evaluate_cycle(cycle: MorseCycle) -> int:
    """Graded supertrace of the composite around a closed cycle.

    Every move fixes the U-power i, so the fiber-0 model Sym^{n0} splits
    into n0 - k + 1 copies of Lambda^k, one per i, on each of which the
    composite acts as the composite C_k of the exterior-level maps.  The
    value is sum over k of (-1)^k (n0 - k + 1) tr C_k, canonical up to
    one overall sign: the coefficient of t^n0 in T(t) / (1 - t)^2, with
    T(t) = sum_k (-1)^k t^k tr C_k.

    Every circle is checked primitive, in move order, first; then a
    separating circle gives the zero map and the value 0, before any frame
    is built.

    The word is read from fiber r, the one right after the down with the
    lowest target genus (the first such down on ties), or from fiber 0 if
    it has no down.  A surgery moves k and the fiber genus by the same
    step, so C_k at fiber 0 is conjugate to C_k' at fiber r with
    k' = k + g_r - g_0, over Sym^{n0'} with n0' = n0 + g_r - g_0: the
    weight n0 - k + 1 is kept and the sign changes by (-1)^(g_r - g_0).
    On Lambda of first homology a twist or a frame acts as Lambda(M), an up
    as the creation a_1 ^, and a down as -1 times the contraction with the
    b_1 coordinate, so by Wick's theorem T is one bordered determinant: the
    Fock-space form of the Frohman-Nicas torsion and of Donaldson's route
    to Meng-Taubes (*Topological field theories and formulae of Casson and
    Meng-Taubes*, Geom. Topol. Monographs 2, 1999).  The walk carries the
    columns of [R | V] from the identity on fiber r through every twist and
    frame; a down records its b_1 row as (Phi_a, W_a) and drops rows a_1
    and b_1, an up inserts them as zeros and adds the column e_0 to V.
    Then, with L = R, h downs and inv (down, up) pairs with the down earlier,

        T(t) = (-1)^(h(h-1)/2 + inv) det [[I - tL, tV], [Phi, -W]]
             = (-1)^(h(h-1)/2 + inv) det E / p^(h-1),

    p = det(I - tL), E = -p W - t p(t) sum_i t^i Phi L^i V, by
    Cayley-Hamilton.  A word with no down is the case h = 0: T = p, the
    characteristic polynomial of the product of its twists.

    T is a torsion, so it is palindromic about the lowest fiber (Milnor,
    *A duality theorem for Reidemeister torsion*, Ann. of Math. 76, 1962):
    T_k = T_(2 g_r - k), and T has degree at most 2 g_r.  The value is
    sum over k <= min(n0', 2 g_r) of (n0' - k + 1) T_min(k, 2 g_r - k), so
    only t^0 .. t^N with N = min(n0', g_r) are formed, and all is mod
    t^(N+1): p from Newton's identities, det E from Bird's division-free
    determinant, and the division by p^(h-1) exact since p_0 = 1.  ``test_every_mirrored_degree_matches_the_fiber_zero_oracle``
    guards the half: it reads T from the fiber-0 push at every degree up to
    2 g_r + 1 and checks both the values and the palindromy.
    """
    for move, genus in zip(cycle.moves, cycle.fibers):
        if move.kind != "twist" and not move.separating:
            assert move.circle is not None
            surface = SymplecticLattice(genus + 1 if move.kind == "up" else genus)
            primitive_class(surface, move.circle)
    if any(move.separating for move in cycle.moves):
        return 0
    downs = [j for j, move in enumerate(cycle.moves) if move.kind == "down"]
    r = (min(downs, key=cycle.fibers.__getitem__) + 1) % len(cycle.moves) if downs else 0
    rank = 2 * cycle.fibers[r]
    cols = None  # [R | V], by columns; R starts as the identity on fiber r
    border: list[list[int]] = []  # (Phi_a | W_a), one row per down
    inv = 0
    for move, genus in zip(cycle.moves[r:] + cycle.moves[:r], cycle.fibers[r:] + cycle.fibers[:r]):
        if move.kind == "twist":
            rows = move.matrix.rows
        elif move.kind == "down":
            rows = adapted_basis(SymplecticLattice(genus), move.circle).rows
            b1 = rows[genus]
            border.append([sum(map(operator.mul, b1, col)) for col in cols])
            rows = rows[1:genus] + rows[genus + 1:]
        else:
            frame = circle_frame(SymplecticLattice(genus + 1), move.circle).rows
            rows = [row[1:genus + 1] + row[genus + 2:] for row in frame]
            inv += len(border)
        if cols is None:  # the first move, which is never a down
            cols = [list(col) for col in zip(*rows)]
        else:
            cols = [[sum(map(operator.mul, row, col)) for row in rows] for col in cols]
        if move.kind == "up":
            cols.append([row[0] for row in frame])
    h = len(border)
    n0, n = cycle.nu(r), min(cycle.nu(r), rank // 2)
    loop = list(zip(*cols[:rank]))  # L = R back on fiber r, by rows
    p = [-e if k & 1 else e for k, e in enumerate(_elementary(loop, n))]  # det(I - tL)
    krylov = []  # V_b, L V_b, ..., L^(N-1) V_b for each b
    for v in cols[rank:]:
        run = [v]
        for _ in range(n - 1):
            run.append([sum(map(operator.mul, row, run[-1])) for row in loop])
        krylov.append(run[:n])
    phis = [row[:rank] for row in border]
    ws = [row[rank:] + [0] * (rank + h - len(row)) for row in border]  # later ups pair as 0
    e = [  # E_ab = -p W_ab - t p(t) sum_i t^i Phi_a L^i V_b
        [
            [-x * w - y for x, y in zip(p, _series_mul(p, [0] + [sum(map(operator.mul, phi, v)) for v in run]))]
            for w, run in zip(w_row, krylov)
        ]
        for phi, w_row in zip(phis, ws)
    ]
    series = _bird_det(e) if h else p
    for _ in range(h - 1):
        for m in range(1, n + 1):
            series[m] -= sum(p[j] * series[m - j] for j in range(1, m + 1))
    total = sum((n0 - k + 1) * series[min(k, rank - k)] for k in range(min(n0, rank) + 1))
    return -total if (h * (h - 1) // 2 + inv + cycle.fibers[r] - cycle.fibers[0]) & 1 else total


class ConnectedSumReport(NamedTuple):
    """Outcome of the separating-circle short-circuit."""

    value: int
    move_index: int
    reason: str


def connected_sum_invariant(cycle: MorseCycle) -> ConnectedSumReport:
    """Evaluate a cycle that contains a separating-circle surgery.

    A nullhomologous surgery circle forces one elementary map, hence the
    whole composite and its supertrace, to vanish; the report names the
    factor responsible.  Raises ValueError if no move separates, and
    ``evaluate_cycle`` checks that every essential circle is primitive.
    """
    for j, move in enumerate(cycle.moves):
        if move.separating:
            evaluate_cycle(cycle)
            return ConnectedSumReport(
                value=0,
                move_index=j,
                reason=(
                    f"move {j} is a {move.kind} surgery along a nullhomologous circle, "
                    "which induces the zero map"
                ),
            )
    raise ValueError("cycle has no separating-circle surgery")


# -- the fibered (no-surgery) case ------------------------------------


def _elementary(rows: Sequence[Sequence[int]], m: int) -> list[int]:
    """e_0, ..., e_m of the eigenvalues of a square integer matrix A, from power traces.

    Newton's identities give e_k from the power traces p_i = tr A^i:
    k e_k = sum_{i <= k} (-1)^(i-1) e_(k-i) p_i.  For p_1..p_m only A, ...,
    A^h with h = ceil(m/2) are formed, since tr A^(a+b) = sum_ij (A^a)_ij
    (A^b)_ji.  For an integer matrix every division by k is exact.
    """
    h = (m + 1) // 2
    cols = list(zip(*rows))
    powers = [rows]  # powers[a - 1] = A^a
    while len(powers) < h:
        powers.append([[sum(map(operator.mul, row, col)) for col in cols] for row in powers[-1]])
    traces = [0] + [sum(row[i] for i, row in enumerate(power)) for power in powers]
    top = list(itertools.chain.from_iterable(powers[-1]))
    for b in range(1, m - h + 1):
        flipped = itertools.chain.from_iterable(zip(*powers[b - 1]))
        traces.append(sum(map(operator.mul, top, flipped)))  # tr A^h A^b
    e = [1]
    for k in range(1, m + 1):
        total = sum(e[k - i] * traces[i] if i & 1 else -e[k - i] * traces[i] for i in range(1, k + 1))
        if total % k:
            raise AssertionError("characteristic polynomial of an integer matrix must be integral")
        e.append(total // k)
    return e


def alexander_fibered(monodromy: SpMatrix) -> tuple[int, ...]:
    """Coefficients (a_0, ..., a_g) of the Alexander form det(tI - M) / t^g.

    The form is sum a_m (t^m + t^-m).  With e_k the k-th elementary
    symmetric function of the eigenvalues, det(tI - M) = sum_k (-1)^k e_k
    t^(2g - k), so a_m = (-1)^(g - m) e_(g - m).  M was checked symplectic
    when it was built, so the polynomial is palindromic and monic: only
    e_0, ..., e_g are needed, and a_g = e_0 = 1.
    """
    e = _elementary(monodromy.rows, monodromy.lattice.genus)
    return tuple(-ek if k & 1 else ek for k, ek in reversed(list(enumerate(e))))


def alexander_cycle_value(coeffs: Sequence[int], n: int, g: int) -> int:
    """Supertrace on Sym^n of a twist-only word whose product P has the
    Alexander coefficients ``coeffs`` = (a_0, ..., a_g).

    Macdonald's formula: with c the coefficients of det(tI - P), the value
    sum_k (-1)^k (n - k + 1) tr Lambda^k P is sum_k (n - k + 1) c[2g - k]
    over k <= min(n, 2g), since c[2g - k] = (-1)^k tr Lambda^k P; and
    c[2g - k] = a_|g - k|, because c is palindromic.
    """
    if len(coeffs) != g + 1:
        raise ValueError(f"a genus-{g} Alexander form has {g + 1} coefficients, got {len(coeffs)}")
    return sum((n - k + 1) * coeffs[abs(g - k)] for k in range(min(n, 2 * g) + 1))


def weighted_exterior_dimension(d: int, g: int) -> int:
    """sum over j >= 1 of j * C(2g, g - d - j) (binomials vanish out of range).

    At d = g - 1 - n this equals the total dimension of the Sym^n monomial
    model, which is how the graded theory sizes its state spaces.
    """

    def binom(a: int, b: int) -> int:
        return math.comb(a, b) if 0 <= b <= a else 0

    if g < 0:
        raise ValueError("genus must be nonnegative")
    # The binomial is nonzero only for 0 <= g - d - j <= 2g, so j <= g - d.
    return sum(j * binom(2 * g, g - d - j) for j in range(1, max(0, g - d) + 1))


# -- worked closed-manifold examples -----------------------------------


class ExampleReport(NamedTuple):
    """Result of one of the built-in closed-manifold computations."""

    name: str
    m: int
    n: int
    value: int
    monomial: str | None
    notes: tuple[str, ...]


WORKED_EXAMPLES = ("s2xs2", "s1s3-sum")


def worked_example(name: str, m: int, n: int) -> ExampleReport:
    """Run one of the built-in closed-manifold computations.

    ``s2xs2``: sphere bundle evaluations in the genus-0 quantum model; the
    U-exponent (m+1)(n+1)-1 lands on the point class for every m, n >= 0,
    value 1; a negative m (or n) fails the positivity gate, value 0.

    ``s1s3-sum``: a once-surgered torus bundle; surgery down along a_1
    sends the b_1-monomial to the genus-0 model, where n(m+1)-1 quantum
    U-steps land on U^{n-1}; the result is a single monomial with
    coefficient of absolute value 1 (the global sign is conventional).
    Requires n >= 1; m < 0 again gives 0.
    """
    if name == "s2xs2":
        if m < 0 or n < 0:
            return ExampleReport(
                name, m, n, 0, None,
                ("positivity gate: negative parameter forces vanishing",),
            )
        lattice = SymplecticLattice(0)
        exponent = (m + 1) * (n + 1) - 1
        state = cap_U_quantum_g0(SymClass.monomial(n, lattice, 0, ()), exponent)
        value = state.coefficient(n, ())
        return ExampleReport(
            name, m, n, value, f"U^{n}",
            (f"quantum U-exponent {exponent} reduced mod period {n + 1}",),
        )
    if name == "s1s3-sum":
        if n < 1:
            raise ValueError("s1s3-sum needs n >= 1: the quantum period of the model is n")
        if m < 0:
            return ExampleReport(
                name, m, n, 0, None,
                ("positivity gate: negative parameter forces vanishing",),
            )
        torus = SymplecticLattice(1)
        surgered = _move_image(ElementaryMove.down(torus.basis_vector(0)), 1)((1,))  # the b_1 monomial
        state = SymClass(n - 1, SymplecticLattice(0), {(0, t): c for t, c in surgered.items()})
        exponent = n * (m + 1) - 1
        state = cap_U_quantum_g0(state, exponent)
        value = state.coefficient(n - 1, ())
        if abs(value) != 1 or len(state.terms) != 1:
            raise AssertionError("model evaluation did not land on a single unit monomial")
        return ExampleReport(
            name, m, n, value, f"U^{n - 1} lambda",
            (
                "surgery down along a_1, then quantum U-steps in the genus-0 model",
                f"quantum U-exponent {exponent} reduced mod period {n}",
                "overall sign is conventional",
            ),
        )
    raise KeyError(f"unknown example {name!r}; known: {', '.join(WORKED_EXAMPLES)}")
