"""Exact exterior-algebra layer: wedge signs, contraction, symplectic frames."""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from lagmatch import exterior, tqft
from lagmatch.exterior import (
    ExtElement,
    LatticeProjection,
    SpMatrix,
    SymplecticLattice,
    _bezout,
    adapted_basis,
    circle_frame,
    contract,
    ext_power_action,
    ext_power_images,
    intersection,
    primitive_class,
    theta_divided,
    transvection,
    wedge,
)
from lagmatch.tqft import ElementaryMove, MorseCycle
from reference import intersection_form, inverse


def random_element(rng, lattice, max_terms=4, degree=None):
    """Random exterior element, optionally homogeneous of the given degree."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        k = degree if degree is not None else rng.randint(0, lattice.rank)
        subset = tuple(sorted(rng.sample(range(lattice.rank), k)))
        terms[subset] = Fraction(rng.randint(-4, 4))
    return ExtElement(lattice, terms)


def random_primitive(rng, rank, spread=3):
    while True:
        v = [rng.randint(-spread, spread) for _ in range(rank)]
        if any(v) and math.gcd(*v) == 1:
            return tuple(v)


def apply(matrix, v):
    """The matrix times the column vector v."""
    return tuple(sum(map(operator.mul, row, v)) for row in matrix.rows)


def random_sp(rng, lattice, length=4):
    m = SpMatrix.identity(lattice)
    for _ in range(length):
        v = random_primitive(rng, lattice.rank, spread=2)
        m = m @ transvection(lattice, v, rng.choice([-1, 1]))
    return m


# -- lattice and pairing -------------------------------------------------


def test_lattice_basics():
    lat = SymplecticLattice(2)
    assert lat.rank == 4
    assert [lat.label(i) for i in range(4)] == ["a1", "a2", "b1", "b2"]
    # a_i . b_i = +1, everything else among the basis pairs to 0
    for i in range(2):
        for j in range(2):
            assert intersection(lat, lat.basis_vector(i), lat.basis_vector(2 + j)) == (
                1 if i == j else 0
            )
            assert intersection(lat, lat.basis_vector(i), lat.basis_vector(j)) == 0
            assert intersection(lat, lat.basis_vector(2 + i), lat.basis_vector(2 + j)) == 0


def test_intersection_antisymmetric():
    rng = random.Random(11)
    lat = SymplecticLattice(3)
    for _ in range(100):
        x = [rng.randint(-5, 5) for _ in range(6)]
        y = [rng.randint(-5, 5) for _ in range(6)]
        assert intersection(lat, x, y) == -intersection(lat, y, x)


def test_intersection_form_matrix():
    lat = SymplecticLattice(2)
    J = intersection_form(lat)
    for i in range(4):
        for j in range(4):
            assert J[i][j] == intersection(lat, lat.basis_vector(i), lat.basis_vector(j))


# -- wedge ---------------------------------------------------------------


def test_wedge_square_of_generator_vanishes():
    lat = SymplecticLattice(2)
    for i in range(4):
        x = ExtElement(lat, {(i,): 1})
        assert not wedge(x, x).terms


def test_wedge_koszul_sign():
    rng = random.Random(5)
    lat = SymplecticLattice(3)
    for _ in range(120):
        p = rng.randint(0, 3)
        q = rng.randint(0, 3)
        x = random_element(rng, lat, degree=p)
        y = random_element(rng, lat, degree=q)
        sign = -1 if (p * q) % 2 else 1
        assert wedge(x, y) == sign * wedge(y, x)


def test_wedge_associative():
    rng = random.Random(6)
    lat = SymplecticLattice(2)
    for _ in range(100):
        x = random_element(rng, lat)
        y = random_element(rng, lat)
        z = random_element(rng, lat)
        assert wedge(wedge(x, y), z) == wedge(x, wedge(y, z))


def test_wedge_bilinear():
    rng = random.Random(7)
    lat = SymplecticLattice(2)
    for _ in range(100):
        x = random_element(rng, lat)
        y = random_element(rng, lat)
        z = random_element(rng, lat)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert wedge(x + c * y, z) == wedge(x, z) + c * wedge(y, z)


def test_theta_divided_term_counts():
    for g in range(5):
        lat = SymplecticLattice(g)
        for m in range(g + 2):
            th = theta_divided(m, lat)
            assert len(th.terms) == math.comb(g, m)
    assert not theta_divided(-1, SymplecticLattice(2)).terms


def test_theta_divided_power_identity():
    # theta^a/a! ^ theta^b/b! = C(a+b, a) theta^{a+b}/(a+b)!
    lat = SymplecticLattice(4)
    for a in range(3):
        for b in range(3):
            lhs = wedge(theta_divided(a, lat), theta_divided(b, lat))
            rhs = math.comb(a + b, a) * theta_divided(a + b, lat)
            assert lhs == rhs


# -- contraction ---------------------------------------------------------


def test_contract_pinned_values():
    # genus 2, contract along a1, then kill the (a1, b1) pair
    lat = SymplecticLattice(2)
    kill = LatticeProjection.kill_first_pair(lat)
    a1 = lat.basis_vector(0)

    a1_w_b1_w_a2 = ExtElement(lat, {(0, 1, 2): Fraction(-1)})  # a1^b1^a2 sorted
    assert not contract(a1, a1_w_b1_w_a2, kill).terms

    b1_w_a2 = ExtElement(lat, {(1, 2): Fraction(-1)})  # b1 ^ a2
    out = contract(a1, b1_w_a2, kill)
    target = kill.target
    assert out == -ExtElement(target, {(0,): 1})


def test_contract_drops_degree_by_one():
    rng = random.Random(9)
    lat = SymplecticLattice(3)
    kill = LatticeProjection.kill_first_pair(lat)
    for _ in range(100):
        k = rng.randint(1, 5)
        x = random_element(rng, lat, degree=k)
        circle = random_primitive(rng, 6)
        out = contract(circle, x, kill)
        assert not out.terms or {len(s) for s in out.terms} == {k - 1}


def test_contract_graded_leibniz():
    """contract(c, x^y) = contract(c,x)^q(y) + (-1)^|x| q(x)^contract(c,y)."""
    rng = random.Random(10)
    lat = SymplecticLattice(3)
    for proj in (LatticeProjection.kill_first_pair(lat), LatticeProjection(lat, lat, range(lat.rank))):
        for _ in range(120):
            p = rng.randint(0, 3)
            q = rng.randint(0, 3)
            x = random_element(rng, lat, degree=p)
            y = random_element(rng, lat, degree=q)
            circle = random_primitive(rng, 6)
            lhs = contract(circle, wedge(x, y), proj)
            sign = -1 if p % 2 else 1
            rhs = wedge(contract(circle, x, proj), proj.map_element(y)) + sign * wedge(
                proj.map_element(x), contract(circle, y, proj)
            )
            assert lhs == rhs


def test_contract_twice_along_same_circle_vanishes():
    rng = random.Random(12)
    lat = SymplecticLattice(2)
    ident = LatticeProjection(lat, lat, range(lat.rank))
    for _ in range(100):
        x = random_element(rng, lat)
        circle = random_primitive(rng, 4)
        once = contract(circle, x, ident)
        assert not contract(circle, once, ident).terms


# -- symplectic matrices -------------------------------------------------


def test_spmatrix_rejects_non_symplectic():
    lat = SymplecticLattice(1)
    with pytest.raises(ValueError):
        SpMatrix(lat, [[1, 1], [1, 1]])


def test_spmatrix_accepts_exactly_the_matrices_preserving_j():
    """SpMatrix raises exactly when M^T J M != J, computed here densely."""
    rng = random.Random(17)
    for g in range(1, 4):
        lat = SymplecticLattice(g)
        J = intersection_form(lat)
        n = lat.rank
        candidates = []
        for _ in range(12):
            rows = [list(r) for r in random_sp(rng, lat).rows]
            bent = [list(r) for r in rows]
            bent[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1))
            candidates += [rows, bent]
            candidates.append([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
            # [[I, 0], [S, I]] and [[I, S], [0, I]] are symplectic iff S is
            # symmetric; otherwise only the a-a (or b-b) pairings are off.
            S = [[rng.randint(-1, 1) for _ in range(g)] for _ in range(g)]
            if rng.random() < 0.5:
                S = [[S[min(i, j)][max(i, j)] for j in range(g)] for i in range(g)]
            for lower in (True, False):
                shear = [[int(i == j) for j in range(n)] for i in range(n)]
                for i in range(g):
                    for j in range(g):
                        if lower:
                            shear[g + i][j] = S[i][j]
                        else:
                            shear[i][g + j] = S[i][j]
                candidates.append(shear)
            # I + one entry breaks at most the pairings of one column.
            single = [[int(i == j) for j in range(n)] for i in range(n)]
            single[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1))
            candidates.append(single)
        accepted = 0
        for rows in candidates:
            mtj = [[sum(rows[k][i] * J[k][l] for k in range(n)) for l in range(n)] for i in range(n)]
            mtjm = [[sum(mtj[i][l] * rows[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
            if mtjm == J:
                assert SpMatrix(lat, rows).rows == tuple(map(tuple, rows))
                accepted += 1
            else:
                with pytest.raises(ValueError, match="^matrix does not preserve the symplectic form$"):
                    SpMatrix(lat, rows)
        assert accepted >= 12


def test_intersection_checks_vector_lengths():
    lat = SymplecticLattice(2)
    with pytest.raises(ValueError, match="^vector has length 3, lattice rank is 4$"):
        intersection(lat, (1, 0, 0), (0, 0, 1, 0))
    with pytest.raises(ValueError, match="^vector has length 5, lattice rank is 4$"):
        intersection(lat, (1, 0, 0, 0), (0, 0, 1, 0, 0))


def test_transvection_fixes_its_vector():
    rng = random.Random(13)
    for g in (1, 2, 3):
        lat = SymplecticLattice(g)
        for _ in range(40):
            v = random_primitive(rng, lat.rank)
            t = transvection(lat, v, rng.choice([-2, -1, 1, 2]))
            assert apply(t, v) == v


def test_transvection_formula():
    rng = random.Random(14)
    lat = SymplecticLattice(2)
    for _ in range(100):
        v = random_primitive(rng, 4)
        c = rng.choice([-2, -1, 1, 2])
        t = transvection(lat, v, c)
        x = [rng.randint(-4, 4) for _ in range(4)]
        expected = tuple(
            x[i] + c * intersection(lat, x, v) * v[i] for i in range(4)
        )
        assert apply(t, x) == expected


def test_inverse_of_random_products():
    rng = random.Random(15)
    for _ in range(100):
        g = rng.randint(1, 3)
        lat = SymplecticLattice(g)
        m = random_sp(rng, lat)
        assert (m @ inverse(m)).rows == SpMatrix.identity(lat).rows
        assert (inverse(m) @ m).rows == SpMatrix.identity(lat).rows


def test_products_and_inverses_match_the_checked_construction():
    """Products skip the symplectic check: they pass it, and equal the
    matrix the checked constructor builds from their rows, with inverses
    from the reference among the factors."""
    rng = random.Random(47)
    for g in range(1, 9):
        lat = SymplecticLattice(g)
        for _ in range(3):
            a, b = random_sp(rng, lat, length=g + 2), random_sp(rng, lat, length=g + 2)
            for m in (a @ b, b @ a, inverse(a), inverse(a @ b) @ b):
                assert m._is_symplectic()
                assert SpMatrix(lat, m.rows) == m
                assert all(type(x) is int for row in m.rows for x in row)


def test_ext_power_action_is_multiplicative():
    rng = random.Random(16)
    lat = SymplecticLattice(2)
    for _ in range(60):
        m = random_sp(rng, lat)
        x = random_element(rng, lat, degree=rng.randint(0, 2))
        y = random_element(rng, lat, degree=rng.randint(0, 2))
        assert ext_power_action(m, wedge(x, y)) == wedge(
            ext_power_action(m, x), ext_power_action(m, y)
        )


def test_ext_power_action_functorial():
    rng = random.Random(17)
    lat = SymplecticLattice(2)
    for _ in range(60):
        m = random_sp(rng, lat, length=3)
        n = random_sp(rng, lat, length=3)
        x = random_element(rng, lat)
        assert ext_power_action(m @ n, x) == ext_power_action(m, ext_power_action(n, x))


def test_ext_power_action_preserves_theta():
    # theta = sum a_i ^ b_i is the invariant form; any symplectic map fixes it
    rng = random.Random(18)
    for g in (1, 2, 3):
        lat = SymplecticLattice(g)
        th = theta_divided(1, lat)
        for _ in range(30):
            m = random_sp(rng, lat)
            assert ext_power_action(m, th) == th


# -- adapted frames ------------------------------------------------------


def test_adapted_basis_sends_circle_to_a1():
    rng = random.Random(19)
    for _ in range(120):
        g = rng.randint(1, 3)
        lat = SymplecticLattice(g)
        circle = random_primitive(rng, lat.rank)
        frame = adapted_basis(lat, circle)  # constructor enforces symplecticity
        assert apply(frame, circle) == lat.basis_vector(0)


def test_adapted_basis_rejects_imprimitive():
    lat = SymplecticLattice(1)
    with pytest.raises(ValueError):
        adapted_basis(lat, (2, 0))
    with pytest.raises(ValueError):
        adapted_basis(lat, (0, 0))


def _oracle_adapted_basis(lattice, circle):
    """The frame as first written: Gram-Schmidt on copied vectors, then inverted."""
    g = lattice.genus
    rank = lattice.rank

    def pairing(x, y):
        return sum(x[i] * y[g + i] - x[g + i] * y[i] for i in range(g))

    gens = [lattice.basis_vector(i) for i in range(rank)]
    u = tuple(circle)
    us, ws = [], []
    while u is not None and len(us) < g:
        d, coeffs = _bezout([pairing(u, x) for x in gens])
        assert d == 1
        w = tuple(sum(c * x[i] for c, x in zip(coeffs, gens)) for i in range(rank))
        us.append(u)
        ws.append(w)
        gens = [tuple(x[i] + pairing(w, x) * u[i] - pairing(u, x) * w[i] for i in range(rank))
                for x in gens]
        u = None
        for x in gens:
            if any(x):
                pair_gcd = math.gcd(*(pairing(x, y) for y in gens))
                if pair_gcd:
                    u = tuple(c // pair_gcd for c in x)
                    break
    change = SpMatrix(lattice, [[(us + ws)[j][i] for j in range(rank)] for i in range(rank)])
    return inverse(change)


def test_frames_match_the_first_construction():
    """circle_frame is the inverse of the adapted basis, for down and up frames alike."""
    rng = random.Random(23)
    for _ in range(150):
        g = rng.randint(1, 8)
        lat = SymplecticLattice(g)
        circle = random_primitive(rng, lat.rank, spread=rng.choice((1, 2, 3, 5, 7)))
        oracle = _oracle_adapted_basis(lat, circle)
        assert adapted_basis(lat, circle).rows == oracle.rows
        assert circle_frame(lat, circle).rows == inverse(oracle).rows
        assert circle_frame(lat, circle).column(0) == circle


def test_integer_kernel_matches_ext_power_action():
    rng = random.Random(53)
    assert ext_power_images(())(()) == {(): 1}
    for g in range(1, 4):
        lat = SymplecticLattice(g)
        for _ in range(4):
            m = random_sp(rng, lat)
            image = ext_power_images(m.rows)
            for k in range(lat.rank + 1):
                for subset in itertools.combinations(range(lat.rank), k):
                    want = ext_power_action(m, ExtElement(lat, {subset: 1}))
                    got = image(subset)
                    assert got == want.terms, (g, subset)
                    assert all(type(c) is int for c in got.values())


def _oracle_circle_frame(lattice, circle):
    """The frame as built before the closed-form pass: each round pairs u with
    all 2g projected generators by dot products, projects every generator,
    and divides the first nonzero one by the gcd of its pairings.

    It also asserts the identity the closed form rests on: every projected
    generator pairs with u as -(J u)_i, the pairing of u with e_i.
    """
    g = lattice.genus
    n = lattice.rank

    def dual(y):
        return (*y[g:], *(-c for c in y[:g]))

    gens = [lattice.basis_vector(i) for i in range(n)]
    u = tuple(circle)
    us, ws = [], []
    while u is not None and len(us) < g:
        du = dual(u)
        pairings = [-sum(a * b for a, b in zip(x, du)) for x in gens]
        assert pairings == [-c for c in du]
        d, coeffs = _bezout(pairings)
        assert d == 1
        w = tuple(sum(c * x[i] for c, x in zip(coeffs, gens)) for i in range(n))
        us.append(u)
        ws.append(w)
        dw = dual(w)
        projected = []
        for x, ux in zip(gens, pairings):
            wx = -sum(a * b for a, b in zip(x, dw))
            projected.append(tuple(xi + wx * ui - ux * wi for xi, ui, wi in zip(x, u, w)))
        gens = projected
        u = None
        for x in gens:
            if any(x):
                dx = dual(x)
                pair_gcd = math.gcd(*(sum(a * b for a, b in zip(y, dx)) for y in gens))
                if pair_gcd == 0:
                    continue
                assert all(c % pair_gcd == 0 for c in x)
                u = tuple(c // pair_gcd for c in x)
                break
    assert len(us) == g
    return SpMatrix(lattice, list(zip(*(us + ws))))


def test_closed_form_frames_match_both_oracles():
    """circle_frame and adapted_basis give the rows of the dot-product
    Gram-Schmidt and of the first construction on 2,400 seeded circles."""
    rng = random.Random(29)
    for trial in range(2400):
        g = trial % 8 + 1
        lat = SymplecticLattice(g)
        circle = random_primitive(rng, lat.rank, spread=trial // 8 % 7 + 1)
        frame = _oracle_circle_frame(lat, circle)
        assert circle_frame(lat, circle).rows == frame.rows, circle
        assert adapted_basis(lat, circle).rows == inverse(frame).rows, circle
        if trial % 4 == 0:
            assert inverse(frame).rows == _oracle_adapted_basis(lat, circle).rows, circle


def test_primitive_class_rejects_content_and_length():
    lat = SymplecticLattice(2)
    assert primitive_class(lat, [2, 3, 0, 0]) == (2, 3, 0, 0)
    for circle in ((2, 0, 0, 4), (0, 0, 0, 0)):
        with pytest.raises(ValueError, match="^circle class must be primitive$"):
            primitive_class(lat, circle)
    with pytest.raises(ValueError, match="^vector has length 2, lattice rank is 4$"):
        primitive_class(lat, (1, 0))
    with pytest.raises(ValueError, match="^circle class must be primitive$"):
        primitive_class(SymplecticLattice(0), ())


def test_ext_power_images_of_non_square_rows():
    """Rows of a 2x3 matrix, and no rows at all, as in a genus-1 contraction."""
    image = ext_power_images([(1, 2, 0), (0, 1, 3)], 3)
    assert image((1,)) == {(0,): 2, (1,): 1}
    assert image((0, 1)) == {(0, 1): 1}
    assert image((1, 2)) == {(0, 1): 6}
    assert image((0, 1, 2)) == {}
    empty = ext_power_images((), 2)
    assert empty(()) == {(): 1}
    assert empty((0,)) == empty((1,)) == empty((0, 1)) == {}


def test_frames_are_built_once_per_circle(monkeypatch):
    """A down-up along one circle, every rotation of a surgery word and the
    lifts run one Gram-Schmidt pass per distinct (genus, circle); hits give
    the rows of both oracles, and the memo keeps at most 128 circles."""
    passes = []
    pairs = exterior._symplectic_pairs

    def counted(lattice, circle):
        passes.append((lattice.genus, circle))
        return pairs(lattice, circle)

    monkeypatch.setattr(exterior, "_symplectic_pairs", counted)
    exterior._frames.cache_clear()
    rng = random.Random(83)
    lat = SymplecticLattice(3)
    circle = random_primitive(rng, lat.rank)
    tqft.evaluate_cycle(MorseCycle([3, 2], [ElementaryMove.down(circle), ElementaryMove.up(circle)], 2))
    assert passes == [(3, circle)]

    down, up = random_primitive(rng, lat.rank), random_primitive(rng, lat.rank)
    fibers = [3, 2, 2, 3]
    moves = [
        ElementaryMove.down(down),
        ElementaryMove.twist(random_sp(rng, SymplecticLattice(2))),
        ElementaryMove.up(up),
        ElementaryMove.twist(random_sp(rng, lat)),
    ]
    for r in range(4):
        tqft.evaluate_cycle(MorseCycle(fibers[r:] + fibers[:r], moves[r:] + moves[:r], fibers[r] - 1))
    tqft.down_map(down, 2, lat)
    tqft.up_map(up, 1, SymplecticLattice(2))
    assert sorted(passes) == sorted({(3, circle), (3, down), (3, up)})
    for c in (circle, down, up):
        assert circle_frame(lat, c).rows == _oracle_circle_frame(lat, c).rows
        assert adapted_basis(lat, list(c)).rows == _oracle_adapted_basis(lat, c).rows
    assert len(passes) == 3

    for _ in range(1000):
        g = rng.randint(1, 4)
        circle_frame(SymplecticLattice(g), random_primitive(rng, 2 * g, spread=9))
    assert exterior._frames.cache_info().currsize <= 128


def test_frame_errors_are_checked_on_every_call():
    """Length, then integrality, then content, on every call: no error is
    cached and no pass runs."""
    exterior._frames.cache_clear()
    lat = SymplecticLattice(2)
    cases = (
        ((2, 0), ValueError, "^vector has length 2, lattice rank is 4$"),
        ((0.5, 0), ValueError, "^vector has length 2, lattice rank is 4$"),
        ((1.5, 0, 0, 0), TypeError, "^'float' object cannot be interpreted as an integer$"),
        ((2, 0.5, 0, 0), TypeError, "^'float' object cannot be interpreted as an integer$"),
        ((2, 0, 0, 4), ValueError, "^circle class must be primitive$"),
        ((0, 0, 0, 0), ValueError, "^circle class must be primitive$"),
    )
    for build in (adapted_basis, circle_frame):
        for circle, error, message in cases:
            for _ in range(2):
                with pytest.raises(error, match=message):
                    build(lat, circle)
    info = exterior._frames.cache_info()
    assert info.misses == info.currsize == 0
