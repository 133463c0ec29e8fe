"""Hand-computed cases for the benchmark's oracles.

Run from the repository root:  python3 -m unittest perfbench/test_oracles.py
"""

import math
import os
import sys
import unittest
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402

ANOSOV = [[2, 1], [1, 1]]


class IntegerLinearAlgebra(unittest.TestCase):
    def test_bareiss_det(self):
        self.assertEqual(oracles.bareiss_det([]), 1)
        self.assertEqual(oracles.bareiss_det([[7]]), 7)
        self.assertEqual(oracles.bareiss_det(ANOSOV), 1)
        # Needs a row swap: the leading entry is zero.
        self.assertEqual(oracles.bareiss_det([[0, 1], [1, 0]]), -1)
        self.assertEqual(oracles.bareiss_det([[2, 0, 1], [1, 3, 2], [1, 1, 2]]), 6)
        self.assertEqual(oracles.bareiss_det([[1, 2], [2, 4]]), 0)

    def test_charpoly(self):
        # det(tI - A) = t^2 - 3t + 1 for the Anosov matrix.
        self.assertEqual(oracles.charpoly(ANOSOV), [1, -3, 1])
        self.assertEqual(oracles.charpoly([]), [1])
        # A 4x4 block diagonal: (t^2 - 3t + 1)(t - 1)^2.
        m = [[2, 0, 1, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]
        self.assertEqual(oracles.charpoly(m), [1, -5, 8, -5, 1])

    def test_macdonald_coefficient(self):
        # det(1 - tA) = 1 - 3t + t^2, and [t^1] of that over (1-t)^2 is 2 - 3.
        self.assertEqual(oracles.macdonald_coefficient(ANOSOV, 1), -1)
        # Genus 0: the empty matrix, det = 1, [t^2] 1/(1-t)^2 = 3.
        self.assertEqual(oracles.macdonald_coefficient([], 2), 3)
        # Identity in genus 1: (1-t)^2/(1-t)^2 = 1.
        self.assertEqual(oracles.macdonald_coefficient([[1, 0], [0, 1]], 0), 1)
        self.assertEqual(oracles.macdonald_coefficient([[1, 0], [0, 1]], 3), 0)
        # -I in genus 1: (1+t)^2/(1-t)^2 = 1 + 4t + 8t^2 + ...
        minus = [[-1, 0], [0, -1]]
        self.assertEqual([oracles.macdonald_coefficient(minus, n) for n in range(3)], [1, 4, 8])

    def test_alexander_coefficients(self):
        # t^2 - 3t + 1 over t: a_0 = -3, a_1 = 1.
        self.assertEqual(oracles.alexander_coefficients(ANOSOV), [-3, 1])
        self.assertEqual(oracles.alexander_coefficients([]), [1])

    def test_alexander_weighted_sum(self):
        # Anosov, g = 1: (a_0, a_1) = (-3, 1).  n0 = 1: a(0) + 2 a(1) = -1;
        # n0 = 2: a(-1) + 2 a(0) + 3 a(1) = 1 - 6 + 3 = -2.
        self.assertEqual(oracles.alexander_weighted_sum([-3, 1], 1, 1), -1)
        self.assertEqual(oracles.alexander_weighted_sum([-3, 1], 2, 1), -2)
        # Identity in genus 1: (-2, 1), n0 = 1: -2 + 2 = 0.
        self.assertEqual(oracles.alexander_weighted_sum([-2, 1], 1, 1), 0)
        # Genus 0, form (1,): n0 = 2 gives a(-2) + 2 a(-1) + 3 a(0) = 3.
        self.assertEqual(oracles.alexander_weighted_sum([1], 2, 0), 3)

    def test_transvection_is_symplectic(self):
        for g, v in ((1, (1, 0)), (2, (1, -1, 0, 2)), (3, (0, 1, 1, -1, 0, 1))):
            for c in (-1, 1, 2):
                self.assertTrue(oracles.is_symplectic(g, oracles.transvection(g, v, c)))
        # b1 . a1 = -1, so b1 -> b1 - a1.
        self.assertEqual(oracles.transvection(1, (1, 0), 1), [[1, -1], [0, 1]])
        self.assertFalse(oracles.is_symplectic(1, [[2, 0], [0, 1]]))


class StateSpaces(unittest.TestCase):
    def test_dimensions(self):
        self.assertEqual(oracles.state_space_dim(2, 0), 3)
        self.assertEqual(oracles.state_space_dim(1, 1), 4)
        self.assertEqual(oracles.state_space_dim(2, 2), 3 + 8 + 6)
        self.assertEqual(oracles.state_space_dim(4, 3), 129)
        self.assertEqual(oracles.state_space_dim(3, 4), 140)
        # n >= 2g - 1 collapses to (n - g + 1) 4^g.
        self.assertEqual(oracles.state_space_dim(5, 2), 4 * 16)

    def test_cycle_dims(self):
        self.assertEqual(oracles.cycle_dims(1, [1, 0]), [4, 1])


TORUS_SECTION_SUM = {
    "regions": [
        {"chi_base": 1, "fibers": [{"genus": 1, "class": [1, 0]}]},
        {"chi_base": 0, "fibers": [{"genus": 1, "class": [1, 0]}]},
        {"chi_base": 1, "fibers": [{"genus": 0, "class": [0, 1]}]},
    ],
    "lefschetz_points": 0,
    "signature": 0,
    "h2": {"form": [[0, 1], [1, 0]], "canonical": [0, 2]},
}

S2XS2 = {
    "regions": [{"chi_base": 2, "fibers": [{"genus": 0, "class": [0, 1]}]}],
    "signature": 0,
    "h2": {"form": [[0, 1], [1, 0]], "canonical": [2, 2]},
}


class SpinC(unittest.TestCase):
    def test_torus_section_sum(self):
        # chi = 1*0 + 0*0 + 1*2 = 2; c1^2 = 2*2*2 = 8; (8 - 4)/4 = 1.
        got = oracles.dim_entry({"c1": [2, 2]}, TORUS_SECTION_SUM)
        self.assertEqual(got["c1_squared"], 8)
        self.assertEqual(got["formal_dimension"], 1)
        self.assertEqual(got["fiber_pairing"], 2)
        self.assertEqual(got["nu"], [1, 1, 0])

    def test_definite_form(self):
        # Q = [[4, 1], [1, 0]], Q^-1 = [[0, 1], [1, -4]]; c1 = (10, 2): 40 - 16 = 24.
        fib = {
            "regions": [{"chi_base": 2, "fibers": [{"genus": 0, "class": [0, 1]}]}],
            "h2": {"form": [[4, 1], [1, 0]], "canonical": [4, 2]},
        }
        got = oracles.dim_entry({"c1": [10, 2]}, fib)
        self.assertEqual(got["c1_squared"], 24)
        self.assertEqual(got["formal_dimension"], Fraction(24 - 8, 4))

    def test_product_grid(self):
        # S^2 x S^2 at beta = (m, n): formal dimension 2(mn + m + n), nu = n.
        for m in range(-2, 3):
            for n in range(0, 3):
                got = oracles.dim_entry({"beta": [m, n]}, S2XS2)
                self.assertEqual(got["c1"], [2 + 2 * m, 2 + 2 * n])
                self.assertEqual(got["formal_dimension"], 2 * (m * n + m + n))
                self.assertEqual(got["nu"], [n])

    def test_gradings(self):
        self.assertEqual(oracles.grading_modulus([4, 6]), 2)
        self.assertEqual(oracles.grading_modulus([0, 0]), 0)
        self.assertTrue(oracles.divisibility_ok([2, 2], 1, 2, 2))
        self.assertFalse(oracles.divisibility_ok([4, 4], 1, 2, 2))
        self.assertTrue(oracles.divisibility_ok([0, 0], 0, 5, 1))
        self.assertFalse(oracles.divisibility_ok([0, 0], 1, 5, 1))
        self.assertTrue(oracles.divisibility_ok([2, 0], 3, 5, 3))


class ConleyZehnder(unittest.TestCase):
    def test_closed_forms(self):
        self.assertEqual(oracles.cz_index([("rotation", 1)]), 1)
        self.assertEqual(oracles.cz_index([("rotation", -3)]), -3)
        self.assertEqual(oracles.cz_index([("hyperbolic", 0)]), 0)
        self.assertEqual(oracles.cz_index([("rotation", 3), ("hyperbolic", 0)]), 3)
        self.assertEqual(oracles.cz_index([("rotation", 1), ("rotation", 5)]), 6)
        with self.assertRaises(ValueError):
            oracles.cz_index([("rotation", 2)])

    def test_paths(self):
        rot = oracles.rotation_path(1, 5)
        self.assertEqual(rot[0], [[1.0, -0.0], [0.0, 1.0]])
        end = rot[-1]
        self.assertAlmostEqual(end[0][0], -1.0)
        self.assertAlmostEqual(end[1][0], 0.0)
        hyp = oracles.hyperbolic_path(1.0, 3)
        self.assertAlmostEqual(hyp[-1][0][0], math.e)
        self.assertAlmostEqual(hyp[-1][1][1], 1 / math.e)

    def test_direct_sum(self):
        quarter = [[0.0, -1.0], [1.0, 0.0]]
        stretch = [[2.0, 0.0], [0.0, 0.5]]
        self.assertEqual(
            oracles.direct_sum(quarter, stretch),
            [[0.0, 0.0, -1.0, 0.0], [0.0, 2.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.5]],
        )


if __name__ == "__main__":
    unittest.main()
