"""Monomial model of the symmetric-product cohomology and its cap actions."""

import random
import unittest
from fractions import Fraction

from lagmatch.exterior import ExtElement, SymplecticLattice, theta_divided
from lagmatch.symprod import (
    RegimeViolation,
    RelationNeeded,
    SymClass,
    basis,
    cap_U_classical,
    cap_U_quantum_g0,
    cap_ext,
    monomial_degree,
    poincare_polynomial_dimension,
    restriction_classes,
)


class MonomialModelTest(unittest.TestCase):
    def test_monomial_degree(self):
        # U has degree -2 on the homological grading, e_S contributes |S|
        self.assertEqual(monomial_degree(3, 0, ()), 6)
        self.assertEqual(monomial_degree(3, 1, ()), 4)
        self.assertEqual(monomial_degree(3, 0, (0,)), 5)
        self.assertEqual(monomial_degree(2, 2, ()), 0)

    def test_range_enforced_on_construction(self):
        lat = SymplecticLattice(1)
        with self.assertRaises(RelationNeeded):
            SymClass.monomial(1, lat, 2, ())
        with self.assertRaises(RelationNeeded):
            SymClass.monomial(1, lat, 0, (0, 1))
        with self.assertRaises(ValueError):
            SymClass.monomial(1, lat, 0, (0, 2))  # index outside the lattice

    def test_basis_count_matches_formula(self):
        for g in range(4):
            lat = SymplecticLattice(g)
            for n in range(7):
                self.assertEqual(
                    len(basis(n, lat)), poincare_polynomial_dimension(n, g), (g, n)
                )

    def test_basis_count_closed_form_in_stable_range(self):
        # once n >= 2g - 1 every subset size occurs: (n + 1 - g) 4^g classes
        for g in range(4):
            lat = SymplecticLattice(g)
            for n in range(max(0, 2 * g - 1), 7):
                self.assertEqual(len(basis(n, lat)), (n + 1 - g) * 4**g)

    def test_from_ext_roundtrip(self):
        lat = SymplecticLattice(2)
        omega = ExtElement(lat, {(0, 2): Fraction(3), (1,): Fraction(-1, 2)})
        x = SymClass.from_ext(3, omega, u_power=1)
        self.assertEqual(x.coefficient(1, (0, 2)), Fraction(3))
        self.assertEqual(x.coefficient(1, (1,)), Fraction(-1, 2))
        self.assertEqual(x.coefficient(0, ()), 0)

    def test_linear_structure_cancels(self):
        lat = SymplecticLattice(1)
        x = SymClass.monomial(2, lat, 1, (), 5)
        self.assertTrue((x - x).is_zero())
        self.assertEqual((2 * x).coefficient(1, ()), 10)


class CapActionTest(unittest.TestCase):
    def test_mu_generators_anticommute(self):
        rng = random.Random(21)
        lat = SymplecticLattice(2)
        for _ in range(100):
            n = rng.randint(2, 4)
            i = rng.randint(0, n - 2)
            k = rng.randint(0, n - 2 - i)
            subset = tuple(sorted(rng.sample(range(4), k)))
            x = SymClass.monomial(n, lat, i, subset)
            u = [rng.randint(-2, 2) for _ in range(4)]
            v = [rng.randint(-2, 2) for _ in range(4)]
            mu_u, mu_v = ExtElement.from_vector(lat, u), ExtElement.from_vector(lat, v)
            lhs = cap_ext(mu_u, cap_ext(mu_v, x))
            rhs = -1 * cap_ext(mu_v, cap_ext(mu_u, x))
            self.assertEqual(lhs.terms, rhs.terms)

    def test_mu_squares_to_zero(self):
        lat = SymplecticLattice(2)
        x = SymClass.monomial(4, lat, 0, (1,))
        v = (1, 2, 0, -1)
        mu_v = ExtElement.from_vector(lat, v)
        self.assertTrue(cap_ext(mu_v, cap_ext(mu_v, x)).is_zero())

    def test_cap_ext_raises_out_of_range(self):
        lat = SymplecticLattice(2)
        x = SymClass.monomial(2, lat, 0, (1, 3))
        with self.assertRaises(RelationNeeded):
            cap_ext(theta_divided(1, lat), x)

    def test_classical_regime_guard(self):
        lat = SymplecticLattice(2)
        x = SymClass.monomial(1, lat, 0, ())
        with self.assertRaises(RegimeViolation):
            cap_U_classical(x)  # 2n = 2 > g - 1 = 1

    def test_classical_increments_u(self):
        lat = SymplecticLattice(5)  # 2n = 4 <= g - 1 = 4
        x = SymClass.monomial(2, lat, 0, (0,), 3)
        y = cap_U_classical(x)
        self.assertEqual(y.coefficient(1, (0,)), 3)
        self.assertEqual(len(y.terms), 1)

    def test_classical_needs_relation_at_top(self):
        lat = SymplecticLattice(5)
        x = SymClass.monomial(2, lat, 2, ())
        with self.assertRaises(RelationNeeded):
            cap_U_classical(x)

    def test_quantum_g0_wrong_genus(self):
        lat = SymplecticLattice(1)
        with self.assertRaises(RegimeViolation):
            cap_U_quantum_g0(SymClass.monomial(1, lat, 0, ()))

    def test_quantum_g0_period(self):
        rng = random.Random(22)
        lat = SymplecticLattice(0)
        for _ in range(120):
            n = rng.randint(0, 5)
            x = SymClass(
                n, lat, {(i, ()): Fraction(rng.randint(-5, 5)) for i in range(n + 1)}
            )
            y = x
            for _ in range(n + 1):
                y = cap_U_quantum_g0(y)
            self.assertEqual(y.terms, x.terms)

    def test_quantum_g0_single_step(self):
        lat = SymplecticLattice(0)
        x = SymClass.monomial(3, lat, 3, ())
        self.assertEqual(cap_U_quantum_g0(x).coefficient(0, ()), 1)


class RestrictionClassesTest(unittest.TestCase):
    def test_component_values(self):
        r = restriction_classes(3, 2)
        self.assertEqual(tuple(r.diagonal), (6, -2))
        self.assertEqual(tuple(r.canonical), (-2, 0))
        self.assertEqual(tuple(r.macdonald), (2, -1))

    def test_average_identity_on_grid(self):
        for n in range(9):
            for g in range(9):
                r = restriction_classes(n, g)
                self.assertEqual(2 * r.macdonald.eta, r.diagonal.eta + r.canonical.eta)
                self.assertEqual(
                    2 * r.macdonald.theta, r.diagonal.theta + r.canonical.theta
                )

    def test_rejects_negative_parameters(self):
        with self.assertRaises(ValueError):
            restriction_classes(-1, 0)
        with self.assertRaises(ValueError):
            restriction_classes(0, -2)


if __name__ == "__main__":
    unittest.main()
