"""Exact exterior-algebra layer: wedge signs, contraction, symplectic frames."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from lagmatch.exterior import (
    ExtElement,
    LatticeProjection,
    SpMatrix,
    SymplecticLattice,
    adapted_basis,
    contract,
    ext_power_action,
    ext_power_images,
    intersection,
    theta_divided,
    transvection,
    wedge,
)


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
    J = lat.intersection_form()
    for i in range(4):
        for j in range(4):
            assert J[i][j] == intersection(lat, lat.basis_vector(i), lat.basis_vector(j))


# -- wedge ---------------------------------------------------------------


def test_wedge_square_of_generator_vanishes():
    lat = SymplecticLattice(2)
    for i in range(4):
        x = ExtElement.generator(lat, i)
        assert wedge(x, x).is_zero()


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
    assert theta_divided(-1, SymplecticLattice(2)).is_zero()


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
    assert contract(a1, a1_w_b1_w_a2, kill).is_zero()

    b1_w_a2 = ExtElement(lat, {(1, 2): Fraction(-1)})  # b1 ^ a2
    out = contract(a1, b1_w_a2, kill)
    target = kill.target
    assert out == -ExtElement.generator(target, 0)


def test_contract_drops_degree_by_one():
    rng = random.Random(9)
    lat = SymplecticLattice(3)
    kill = LatticeProjection.kill_first_pair(lat)
    for _ in range(100):
        k = rng.randint(1, 5)
        x = random_element(rng, lat, degree=k)
        circle = random_primitive(rng, 6)
        out = contract(circle, x, kill)
        assert out.is_zero() or out.degrees() == {k - 1}


def test_contract_graded_leibniz():
    """contract(c, x^y) = contract(c,x)^q(y) + (-1)^|x| q(x)^contract(c,y)."""
    rng = random.Random(10)
    lat = SymplecticLattice(3)
    for proj in (LatticeProjection.kill_first_pair(lat), LatticeProjection.identity(lat)):
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
    ident = LatticeProjection.identity(lat)
    for _ in range(100):
        x = random_element(rng, lat)
        circle = random_primitive(rng, 4)
        once = contract(circle, x, ident)
        assert contract(circle, once, ident).is_zero()


# -- symplectic matrices -------------------------------------------------


def test_spmatrix_rejects_non_symplectic():
    lat = SymplecticLattice(1)
    with pytest.raises(ValueError):
        SpMatrix(lat, [[1, 1], [1, 1]])


def test_transvection_fixes_its_vector():
    rng = random.Random(13)
    for g in (1, 2, 3):
        lat = SymplecticLattice(g)
        for _ in range(40):
            v = random_primitive(rng, lat.rank)
            t = transvection(lat, v, rng.choice([-2, -1, 1, 2]))
            assert t.apply(v) == v


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
        assert t.apply(x) == expected


def test_inverse_of_random_products():
    rng = random.Random(15)
    for _ in range(100):
        g = rng.randint(1, 3)
        lat = SymplecticLattice(g)
        m = random_sp(rng, lat)
        assert (m @ m.inverse()).rows == SpMatrix.identity(lat).rows
        assert (m.inverse() @ m).rows == SpMatrix.identity(lat).rows


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
        assert frame.apply(circle) == lat.basis_vector(0)


def test_adapted_basis_rejects_imprimitive():
    lat = SymplecticLattice(1)
    with pytest.raises(ValueError):
        adapted_basis(lat, (2, 0))
    with pytest.raises(ValueError):
        adapted_basis(lat, (0, 0))


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
