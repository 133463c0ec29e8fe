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

For a fibration with no surgeries at all (a single twist by the monodromy
M), the evaluation collapses to coefficients of the characteristic
polynomial of M: ``alexander_fibered`` computes the symmetrized form
det(tI - M)/t^g and ``alexander_cycle_value`` the weighted coefficient sum
that the supertrace equals.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Sequence

from .exterior import (
    LatticeProjection,
    SpMatrix,
    SymplecticLattice,
    adapted_basis,
    ext_power_images,
)
# Not called here: perfbench/tracing.py wraps these two by name in this namespace.
from .exterior import contract, ext_power_action  # noqa: F401
from .symprod import Monomial, SymClass, basis, cap_U_quantum_g0, monomial_degree


class NonClosingCycle(ValueError):
    """The genus/degree bookkeeping of a cycle does not close up."""


class SymSpace:
    """The monomial basis of Sym^n of a genus-g surface, with coordinates."""

    __slots__ = ("n", "lattice", "monomials", "index")

    def __init__(self, n: int, lattice: SymplecticLattice):
        self.n = n
        self.lattice = lattice
        self.monomials: list[Monomial] = basis(n, lattice)
        self.index: dict[Monomial, int] = {m: k for k, m in enumerate(self.monomials)}

    @property
    def dim(self) -> int:
        return len(self.monomials)

    def degrees(self) -> list[int]:
        return [monomial_degree(self.n, i, s) for (i, s) in self.monomials]

    def coords(self, x: SymClass) -> list[Fraction]:
        if x.n != self.n or x.lattice != self.lattice:
            raise ValueError("class does not live in this space")
        out = [Fraction(0)] * self.dim
        for key, coeff in x.terms.items():
            out[self.index[key]] = coeff
        return out

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
    """Dense exact matrix of a linear map between two SymSpaces.

    ``rows[r][c]`` is the coefficient of destination monomial r in the
    image of source monomial c.
    """

    __slots__ = ("src", "dst", "rows")

    def __init__(self, src: SymSpace, dst: SymSpace, rows: Sequence[Sequence[Fraction]]):
        if len(rows) != dst.dim or any(len(row) != src.dim for row in rows):
            raise ValueError("matrix shape does not match the spaces")
        self.src = src
        self.dst = dst
        self.rows = tuple(tuple(Fraction(x) for x in row) for row in rows)

    def apply(self, x: SymClass) -> SymClass:
        coords = self.src.coords(x)
        terms = {}
        for r, key in enumerate(self.dst.monomials):
            val = sum((self.rows[r][c] * coords[c] for c in range(self.src.dim)), Fraction(0))
            if val:
                terms[key] = val
        return SymClass(self.dst.n, self.dst.lattice, terms)

    def __matmul__(self, other: "SymLinearMap") -> "SymLinearMap":
        """self after other."""
        if other.dst != self.src:
            raise ValueError("maps are not composable")
        rows = [
            [
                sum(
                    (self.rows[r][k] * other.rows[k][c] for k in range(self.src.dim)),
                    Fraction(0),
                )
                for c in range(other.src.dim)
            ]
            for r in range(self.dst.dim)
        ]
        return SymLinearMap(other.src, self.dst, rows)


Subset = tuple[int, ...]
Image = Callable[[Subset], dict[Subset, int]]


def _push(image: Image, vector: dict[Subset, int]) -> dict[Subset, int]:
    """Apply a map given on basis monomials to an integer vector."""
    out: dict[Subset, int] = {}
    for s, c in vector.items():
        for t, m in image(s).items():
            out[t] = out.get(t, 0) + c * m
    return {t: c for t, c in out.items() if c}


def _twist_image(matrix: SpMatrix) -> Image:
    """A fiberwise diffeomorphism on the exterior algebra: e_S -> M e_S."""
    return ext_power_images(matrix.rows)


def _contract_a1(frame: SpMatrix, lattice: SymplecticLattice) -> Image:
    """e_S -> the contraction with a_1 of frame e_S, genus g -> g-1.

    Only b_1 pairs with a_1 (b_1 . a_1 = -1), and the first pair is then
    killed, so just the terms with b_1 and without a_1 survive, relabelled.
    """
    power = ext_power_images(frame.rows)
    kill = LatticeProjection.kill_first_pair(lattice)
    b1 = lattice.genus

    @functools.cache
    def image(s: Subset) -> dict[Subset, int]:
        out: dict[Subset, int] = {}
        for t, c in power(s).items():
            pos = bisect.bisect_left(t, b1)
            if pos < len(t) and t[pos] == b1:
                rest = kill.map_subset(t[:pos] + t[pos + 1:])
                if rest is not None:
                    out[rest] = c if pos & 1 else -c
        return out

    return image


def _insert_a1(lattice: SymplecticLattice) -> Image:
    """e_S -> a_1 ^ e_S, with S included after the first pair, genus g -> g+1."""
    include = LatticeProjection.include_after_first_pair(lattice)
    return lambda s: {(0,) + include.map_subset(s): 1}


def _down_frame(circle: Sequence[int], lattice: SymplecticLattice) -> SpMatrix | None:
    """The frame sending a down circle to a_1, or None for a separating circle."""
    if lattice.genus < 1:
        raise NonClosingCycle("down surgery needs positive fiber genus")
    circle = lattice.check_vector(circle)
    return adapted_basis(lattice, circle) if any(circle) else None


def _up_frame(circle: Sequence[int], lattice: SymplecticLattice) -> SpMatrix | None:
    """The inverse frame of an up circle on the target, or None if separating."""
    target = SymplecticLattice(lattice.genus + 1)
    circle = target.check_vector(circle)
    return adapted_basis(target, circle).inverse() if any(circle) else None


def _down_image(circle: Sequence[int], lattice: SymplecticLattice) -> Image:
    """Surgery down along a circle on the exterior algebra, genus g -> g-1.

    A separating circle (zero homology class) induces the zero map.  An
    essential circle must be primitive; the map conjugates the standard
    contraction along a_1 by an adapted symplectic basis sending the
    circle class to a_1.
    """
    frame = _down_frame(circle, lattice)
    return (lambda s: {}) if frame is None else _contract_a1(frame, lattice)


def _up_image(circle: Sequence[int], lattice: SymplecticLattice) -> Image:
    """Surgery up along a circle on the exterior algebra, genus g -> g+1.

    The circle class lives on the *target* surface (it is the belt circle
    of the new handle).  A zero class again induces the zero map; an
    essential one conjugates the standard insertion of a_1 by the inverse
    adapted frame.
    """
    frame_inv = _up_frame(circle, lattice)
    if frame_inv is None:
        return lambda s: {}
    insert, twist = _insert_a1(lattice), _twist_image(frame_inv)
    return functools.cache(lambda s: _push(twist, insert(s)))


def _lift(image: Image, src: SymSpace, dst: SymSpace) -> SymLinearMap:
    """The matrix of U^i e_S -> U^i image(S): every move fixes the U-power."""
    rows = [[0] * src.dim for _ in range(dst.dim)]
    for c, (i, subset) in enumerate(src.monomials):
        for t, coeff in image(subset).items():
            rows[dst.index[(i, t)]][c] = coeff
    return SymLinearMap(src, dst, rows)


def twist_map(matrix: SpMatrix, n: int) -> SymLinearMap:
    """The endomorphism of Sym^n induced by a fiberwise diffeomorphism."""
    space = SymSpace(n, matrix.lattice)
    return _lift(_twist_image(matrix), space, space)


def down_map(circle: Sequence[int], n: int, lattice: SymplecticLattice) -> SymLinearMap:
    """Surgery down along a circle: Sym^n(genus g) -> Sym^{n-1}(genus g-1)."""
    image = _down_image(circle, lattice)
    if n < 1:
        raise NonClosingCycle("down surgery needs symmetric degree n >= 1")
    return _lift(image, SymSpace(n, lattice), SymSpace(n - 1, SymplecticLattice(lattice.genus - 1)))


def up_map(circle: Sequence[int], n: int, lattice: SymplecticLattice) -> SymLinearMap:
    """Surgery up along a circle: Sym^n(genus g) -> Sym^{n+1}(genus g+1)."""
    target = SymplecticLattice(lattice.genus + 1)
    return _lift(_up_image(circle, lattice), SymSpace(n, lattice), SymSpace(n + 1, target))


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
        self.circle = tuple(int(c) for c in circle) if circle is not None else None
        self.matrix = matrix

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
        fibers = tuple(int(g) for g in fibers)
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
            if move.kind == "down" and move.circle is not None and len(move.circle) != 2 * g_here:
                raise NonClosingCycle(f"move {j} circle has the wrong rank")
            if move.kind == "up" and move.circle is not None and len(move.circle) != 2 * g_next:
                raise NonClosingCycle(f"move {j} circle has the wrong rank")
        for j in range(k):
            nu = n0 + fibers[j] - fibers[0]
            if nu < 0:
                raise NonClosingCycle(f"symmetric degree over fiber {j} would be {nu}")
        self.fibers = fibers
        self.moves = moves
        self.n0 = int(n0)

    def nu(self, j: int) -> int:
        return self.n0 + self.fibers[j] - self.fibers[0]

    def __repr__(self) -> str:
        kinds = ",".join(m.kind for m in self.moves)
        return f"MorseCycle(fibers={self.fibers}, moves=[{kinds}], n0={self.n0})"


def _move_image(move: ElementaryMove, genus: int) -> Image:
    """The exterior-level map of a move out of a fiber of the given genus."""
    if move.kind == "twist":
        assert move.matrix is not None
        return _twist_image(move.matrix)
    assert move.circle is not None
    surgery = _down_image if move.kind == "down" else _up_image
    return surgery(move.circle, SymplecticLattice(genus))


def move_matrix(cycle: MorseCycle, j: int) -> SymLinearMap:
    """The exact matrix of move j of a validated cycle."""
    after = (j + 1) % len(cycle.moves)
    return _lift(
        _move_image(cycle.moves[j], cycle.fibers[j]),
        SymSpace(cycle.nu(j), SymplecticLattice(cycle.fibers[j])),
        SymSpace(cycle.nu(after), SymplecticLattice(cycle.fibers[after])),
    )


def cycle_composite(cycle: MorseCycle) -> SymLinearMap:
    """The composite endomorphism of the fiber-0 space, last move outermost."""
    composite: SymLinearMap | None = None
    for j in range(len(cycle.moves)):
        step = move_matrix(cycle, j)
        composite = step if composite is None else step @ composite
    assert composite is not None
    if composite.src != composite.dst:
        raise NonClosingCycle("cycle does not return to its starting fiber")
    return composite


def _after_first_pair(matrix: SpMatrix) -> SpMatrix:
    """1 + M on genus g + 1: M on the handles after the first pair, which it fixes.

    The a_1 insertion intertwines the two: a_1 ^ (M x) = (1 + M)(a_1 ^ x).
    """
    include = LatticeProjection.include_after_first_pair(matrix.lattice)
    rank = include.target.rank
    rows = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for i, row in zip(include.images, matrix.rows):
        for j, x in zip(include.images, row):
            rows[i][j] = x
    return SpMatrix(include.target, rows)


def evaluate_cycle(cycle: MorseCycle) -> Fraction:
    """Graded supertrace of the composite around a closed cycle.

    Every move fixes the U-power i, so the fiber-0 model Sym^{n0} splits
    into n0 - k + 1 copies of Lambda^k, one per i, on each of which the
    composite acts as the composite C_k of the exterior-level maps.  The
    value is sum over k of (-1)^k (n0 - k + 1) tr C_k, canonical up to
    one overall sign.

    The stages are the move images' own constructors.  Lambda is a
    functor, so the twists since the last surgery act as the exterior
    power of their integer product P, which folds into the next down
    frame: a down is ``_contract_a1(frame P)``.  An up is ``_insert_a1``
    followed by its inverse frame; the insertion carries P across as
    1 + P, and the frame times 1 + P stays pending.  Each down thus costs
    one integer exterior power, and whatever is pending at the end of the
    word one more.  Every circle is checked before a separating one
    short-circuits to zero.
    """
    stages: list[Image] = []
    pending: SpMatrix | None = None
    separating = False
    for move, genus in zip(cycle.moves, cycle.fibers):
        if move.kind == "twist":
            assert move.matrix is not None
            pending = move.matrix if pending is None else move.matrix @ pending
            continue
        assert move.circle is not None
        lattice = SymplecticLattice(genus)
        if move.kind == "down":
            frame = _down_frame(move.circle, lattice)
            if frame is not None:
                stages.append(_contract_a1(frame if pending is None else frame @ pending, lattice))
            pending = None
        else:
            frame = _up_frame(move.circle, lattice)
            stages.append(_insert_a1(lattice))
            if frame is not None and pending is not None:
                frame = frame @ _after_first_pair(pending)
            pending = frame
        separating |= frame is None
    if separating:
        return Fraction(0)
    last = None if pending is None else _twist_image(pending)
    rank = 2 * cycle.fibers[0]
    total = 0
    for k in range(min(cycle.n0, rank) + 1):
        weight = (-1) ** k * (cycle.n0 - k + 1)
        for start in itertools.combinations(range(rank), k):
            vector = {start: 1}
            for stage in stages:
                vector = _push(stage, vector)
            if last is None:
                total += weight * vector.get(start, 0)
            else:
                total += weight * sum(c * last(t).get(start, 0) for t, c in vector.items())
    return Fraction(total)


class ConnectedSumReport:
    """Outcome of the separating-circle short-circuit."""

    __slots__ = ("value", "move_index", "reason")

    def __init__(self, value: Fraction, move_index: int, reason: str):
        self.value = value
        self.move_index = move_index
        self.reason = reason

    def __repr__(self) -> str:
        return f"ConnectedSumReport(value={self.value}, move={self.move_index})"


def connected_sum_invariant(cycle: MorseCycle) -> ConnectedSumReport:
    """Evaluate a cycle that contains a separating-circle surgery.

    A nullhomologous surgery circle forces one elementary map, hence the
    whole composite and its supertrace, to vanish; the report names the
    factor responsible.  Raises ValueError if no move separates.
    """
    for j, move in enumerate(cycle.moves):
        if move.kind in ("down", "up") and move.circle is not None and not any(move.circle):
            value = evaluate_cycle(cycle)
            if value != 0:
                raise AssertionError("separating surgery produced a nonzero evaluation")
            return ConnectedSumReport(
                value=Fraction(0),
                move_index=j,
                reason=(
                    f"move {j} is a {move.kind} surgery along a nullhomologous circle, "
                    "which induces the zero map"
                ),
            )
    raise ValueError("cycle has no separating-circle surgery")


# -- the fibered (no-surgery) case ------------------------------------


def _char_poly(rows: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients c[0..N] of det(tI - A) = sum c[k] t^k (Faddeev-LeVerrier).

    For an integer matrix every division by k is exact.
    """
    N = len(rows)
    if any(len(row) != N for row in rows):
        raise ValueError("matrix must be square")
    B = [[int(i == j) for j in range(N)] for i in range(N)]
    cs = [1]
    for k in range(1, N + 1):
        AB = [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in rows]
        trace = sum(AB[i][i] for i in range(N))
        if trace % k:
            raise AssertionError("characteristic polynomial of an integer matrix must be integral")
        ck = -(trace // k)
        cs.append(ck)
        B = [[x + ck if i == j else x for j, x in enumerate(row)] for i, row in enumerate(AB)]
    return [cs[N - m] for m in range(N + 1)]


class AlexanderForm:
    """Symmetrized palindromic polynomial sum a_m (t^m + t^-m), m = 0..d.

    Stored as the coefficient tuple (a_0, ..., a_d) with trailing zeros
    trimmed and the overall sign normalized so the highest-index nonzero
    coefficient is positive.  ``a(m)`` extends symmetrically to negative m.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction | int]):
        cleaned = [Fraction(c) for c in coeffs]
        while len(cleaned) > 1 and cleaned[-1] == 0:
            cleaned.pop()
        if not cleaned or all(c == 0 for c in cleaned):
            raise ValueError("the zero polynomial has no Alexander form")
        if cleaned[-1] < 0:
            cleaned = [-c for c in cleaned]
        self.coeffs = tuple(cleaned)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def a(self, m: int) -> Fraction:
        m = abs(m)
        return self.coeffs[m] if m <= self.degree else Fraction(0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AlexanderForm) and other.coeffs == self.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"AlexanderForm({self.coeffs})"


def alexander_fibered(monodromy: SpMatrix | Sequence[Sequence[int]]) -> AlexanderForm:
    """Alexander form det(tI - M) / t^g of a fibered mapping torus.

    Accepts a symplectic matrix (or raw integer rows, checked through the
    palindrome test that symplecticity forces on the characteristic
    polynomial).
    """
    if isinstance(monodromy, SpMatrix):
        rows = monodromy.rows
    else:
        rows = tuple(tuple(int(x) for x in row) for row in monodromy)
    N = len(rows)
    if N % 2:
        raise ValueError("monodromy must act on an even-rank lattice")
    g = N // 2
    c = _char_poly(rows)
    if any(c[k] != c[N - k] for k in range(N + 1)):
        raise ValueError(
            "characteristic polynomial is not palindromic: matrix is not symplectic"
        )
    return AlexanderForm([c[g + m] for m in range(g + 1)])


def alexander_cycle_value(form: AlexanderForm, n: int, g: int) -> Fraction:
    """Weighted coefficient sum equal (up to sign) to the fibered supertrace.

    With offset D = g - 1 - n the value is sum over i >= 1 of i * a(D + i),
    the symmetric extension a(-m) = a(m) understood.
    """
    if n < 0 or g < 0:
        raise ValueError("n and g must be nonnegative")
    D = g - 1 - n
    top = form.degree
    # a(D + i) vanishes unless |D + i| <= top.
    terms = range(max(1, -top - D), top - D + 1)
    return sum((Fraction(i) * form.a(D + i) for i in terms), Fraction(0))


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


class ExampleReport:
    """Result of one of the built-in closed-manifold computations."""

    __slots__ = ("name", "m", "n", "value", "monomial", "notes")

    def __init__(
        self,
        name: str,
        m: int,
        n: int,
        value: Fraction,
        monomial: str | None,
        notes: tuple[str, ...],
    ):
        self.name = name
        self.m = m
        self.n = n
        self.value = value
        self.monomial = monomial
        self.notes = notes

    def __repr__(self) -> str:
        return f"ExampleReport({self.name!r}, m={self.m}, n={self.n}, value={self.value})"


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
                name, m, n, Fraction(0), None,
                ("positivity gate: negative parameter forces vanishing",),
            )
        lattice = SymplecticLattice(0)
        exponent = (m + 1) * (n + 1) - 1
        state = cap_U_quantum_g0(SymClass.monomial(n, lattice, 0, ()), exponent % (n + 1))
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
                name, m, n, Fraction(0), None,
                ("positivity gate: negative parameter forces vanishing",),
            )
        torus = SymplecticLattice(1)
        surgered = _down_image(torus.basis_vector(0), torus)((1,))  # the b_1 monomial
        state = SymClass(n - 1, SymplecticLattice(0), {(0, t): c for t, c in surgered.items()})
        exponent = n * (m + 1) - 1
        state = cap_U_quantum_g0(state, exponent % n)
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
