"""Spin-c bookkeeping: dimensions, admissibility regimes, gradings."""

import json
import os
import random
import subprocess
import sys
import time
import unittest
from fractions import Fraction

import pytest

from lagmatch.bareiss import Bareiss
from lagmatch.spinc import (
    _shown,
    DescriptorError,
    FiberComponent,
    FibrationDescriptor,
    H2Model,
    InadmissibleError,
    Region,
    SpinC,
    admissibility,
    c1_squared,
    common_fiber_pairing,
    divisibility_check,
    euler_characteristic,
    fiber_pairings,
    formal_dimension,
    formal_dimension_core,
    grading_modulus,
    is_characteristic,
    nu_function,
    pairing,
    taubes_convert,
)


def torus_descriptor():
    """Genus-1 fibration over the sphere with a section: E(0)-like data.

    H^2 model in (fiber, section) coordinates: Q = [[0,1],[1,0]],
    canonical dual coordinates (2, 0) pair to -chi on each class.
    """
    h2 = H2Model(form=((0, 1), (1, 0)), canonical=(0, 2))
    fiber = FiberComponent(genus=1, h2_class=(1, 0))
    regions = [Region(chi_base=2, fibers=(fiber,))]
    return FibrationDescriptor(
        regions=regions, round_circles=(), lefschetz_points=0, signature=0, h2=h2
    )


def s2xs2_descriptor():
    h2 = H2Model(form=((0, 1), (1, 0)), canonical=(2, 2))
    fiber = FiberComponent(genus=0, h2_class=(1, 0))
    regions = [Region(chi_base=2, fibers=(fiber,))]
    return FibrationDescriptor(
        regions=regions, round_circles=(), lefschetz_points=0, signature=0, h2=h2
    )


class PairingAndDimensionTest(unittest.TestCase):
    def test_pairing_is_dot_in_dual_coordinates(self):
        self.assertEqual(pairing((2, 3), (1, 0)), 2)
        self.assertEqual(pairing((2, 3), (0, 1)), 3)
        self.assertEqual(pairing((2, 3), (2, -1)), 1)

    def test_characteristic_diagonal_parity(self):
        # c is characteristic iff c_j = Q_jj mod 2 against each basis class
        h2 = H2Model(form=((2, 1), (1, 0)), canonical=(2, 0))
        self.assertTrue(is_characteristic(SpinC((2, 0)), h2))
        self.assertTrue(is_characteristic(SpinC((4, 2)), h2))
        self.assertFalse(is_characteristic(SpinC((1, 0)), h2))
        self.assertFalse(is_characteristic(SpinC((2, 1)), h2))

    def test_c1_squared_exact(self):
        # Q = [[0,1],[1,0]]: Q^{-1} = Q, so c^2 = 2 c_0 c_1
        h2 = H2Model(form=((0, 1), (1, 0)), canonical=(2, 2))
        self.assertEqual(c1_squared(SpinC((2, 2)), h2), 8)
        self.assertEqual(c1_squared(SpinC((4, 4)), h2), 32)
        self.assertEqual(c1_squared(SpinC((10, 2)), h2), 40)

    def test_singular_form_rejected(self):
        h2 = H2Model(form=((2, 2), (2, 2)), canonical=(0, 0))
        with self.assertRaisesRegex(DescriptorError, "^intersection form is singular$"):
            c1_squared(SpinC((0, 0)), h2)
        with self.assertRaisesRegex(DescriptorError, "^intersection form must be nonsingular$"):
            FibrationDescriptor(
                regions=[], round_circles=(), lefschetz_points=0, signature=0, h2=h2
            )

    def test_formal_dimension_core(self):
        self.assertEqual(formal_dimension_core(8, 2, 0), 1)
        self.assertEqual(formal_dimension_core(32, 4, 0), 6)
        with self.assertRaises(DescriptorError):
            formal_dimension_core(9, 2, 0)

    def test_torus_fixture_dimension(self):
        desc = torus_descriptor()
        self.assertEqual(euler_characteristic(desc), 0)
        spinc = SpinC((2, 2))
        # chi = 0 here; the embedded fixture uses chi = 2 with extras, so
        # this is an independent sanity point: (8 - 0 - 0)/4 = 2
        self.assertEqual(formal_dimension(spinc, desc), 2)

    def test_s2xs2_dimension_grid(self):
        desc = s2xs2_descriptor()
        for m in range(-2, 5):
            for n in range(-2, 5):
                spinc = taubes_convert((m, n), desc)
                self.assertEqual(
                    formal_dimension(spinc, desc), 2 * (m * n + m + n), (m, n)
                )

    def test_non_characteristic_rejected(self):
        desc = s2xs2_descriptor()
        with self.assertRaises(DescriptorError):
            formal_dimension(SpinC((1, 2)), desc)

    def test_euler_characteristic_with_decorations(self):
        h2 = H2Model(form=((0, 1), (1, 0)), canonical=(2, 2))
        fiber = FiberComponent(genus=0, h2_class=(1, 0))
        desc = FibrationDescriptor(
            regions=[Region(chi_base=2, fibers=(fiber,))],
            round_circles=(True, False),
            lefschetz_points=3,
            signature=-1,
            h2=h2,
        )
        base = euler_characteristic(s2xs2_descriptor())
        self.assertEqual(euler_characteristic(desc), base + 3)


class TaubesMapTest(unittest.TestCase):
    def test_convert_golden(self):
        desc = s2xs2_descriptor()
        self.assertEqual(taubes_convert((1, 1), desc).c1, (4, 4))
        self.assertEqual(taubes_convert((0, 0), desc).c1, (2, 2))

    def test_roundtrip_random(self):
        rng = random.Random(40)
        desc = torus_descriptor()
        canonical = desc.h2.canonical
        for _ in range(100):
            beta = (rng.randint(-9, 9), rng.randint(-9, 9))
            want = tuple(k + 2 * b for k, b in zip(canonical, beta))
            self.assertEqual(taubes_convert(beta, desc).c1, want)

    def test_length_check(self):
        desc = s2xs2_descriptor()
        with self.assertRaises(ValueError):
            taubes_convert((1,), desc)


class FiberPairingTest(unittest.TestCase):
    def test_constant_across_regions(self):
        h2 = H2Model(form=((0, 1), (1, 0)), canonical=(0, 2))
        fiber = FiberComponent(genus=1, h2_class=(1, 0))
        desc = FibrationDescriptor(
            regions=[
                Region(chi_base=2, fibers=(fiber,)),
                Region(chi_base=0, fibers=(fiber,)),
            ],
            round_circles=(True,),
            lefschetz_points=0,
            signature=0,
            h2=h2,
        )
        spinc = SpinC((2, 2))
        self.assertEqual(fiber_pairings(spinc, desc), [2, 2])
        self.assertEqual(common_fiber_pairing(spinc, desc), 2)

    def test_disagreement_raises(self):
        h2 = H2Model(form=((0, 1), (1, 0)), canonical=(0, 2))
        desc = FibrationDescriptor(
            regions=[
                Region(chi_base=2, fibers=(FiberComponent(1, (1, 0)),)),
                Region(chi_base=2, fibers=(FiberComponent(1, (3, 0)),)),
            ],
            round_circles=(),
            lefschetz_points=0,
            signature=0,
            h2=h2,
        )
        with self.assertRaises(DescriptorError):
            common_fiber_pairing(SpinC((2, 2)), desc)

    def test_missing_classes_raise(self):
        h2 = H2Model(form=((0, 1), (1, 0)), canonical=(0, 2))
        desc = FibrationDescriptor(
            regions=[Region(chi_base=2, fibers=(FiberComponent(1, None),))],
            round_circles=(),
            lefschetz_points=0,
            signature=0,
            h2=h2,
        )
        with self.assertRaises(DescriptorError):
            fiber_pairings(SpinC((2, 2)), desc)


class NuFunctionTest(unittest.TestCase):
    def test_values(self):
        self.assertEqual(nu_function([0, -2], 2), [1, 2])
        self.assertEqual(nu_function([2], 2), [0])

    def test_parity_mismatch(self):
        with self.assertRaises(InadmissibleError):
            nu_function([1], 2)

    def test_negative_degree(self):
        with self.assertRaises(InadmissibleError):
            nu_function([2], 0)


class AdmissibilityTest(unittest.TestCase):
    def _single_region(self, genus, c1_pair):
        """One region, one connected fiber of the given genus; c_1 pairs as asked."""
        h2 = H2Model(form=((0, 1), (1, 0)), canonical=(2 * genus - 2, 0))
        desc = FibrationDescriptor(
            regions=[Region(chi_base=2, fibers=(FiberComponent(genus, (1, 0)),))],
            round_circles=(),
            lefschetz_points=0,
            signature=0,
            h2=h2,
        )
        # dual coordinates pair by plain dot, so the class (1,0) reads the
        # first coordinate of c_1
        return SpinC((c1_pair, 0)), desc

    def test_monotone_region(self):
        spinc, desc = self._single_region(1, 2)
        report = admissibility(spinc, desc)
        self.assertEqual(report.regime, "monotone")

    def test_negative_region(self):
        # genus 2 fiber, chi = -2; pairing -2 satisfies both negative clauses
        spinc, desc = self._single_region(2, -2)
        report = admissibility(spinc, desc)
        self.assertEqual(report.regime, "negative")

    def test_excluded_band(self):
        # genus 2, pairing 0: floor holds (0 >= -2) but 2p = 0 > chi = -2 and p <= 0
        spinc, desc = self._single_region(2, 0)
        report = admissibility(spinc, desc)
        self.assertEqual(report.regime, "inadmissible")
        self.assertIn("excluded band", report.regions[0].detail)

    def test_floor_violation(self):
        spinc, desc = self._single_region(0, 1)  # chi = 2, pairing 1 < 2
        report = admissibility(spinc, desc)
        self.assertEqual(report.regime, "inadmissible")

    def test_two_component_clause(self):
        h2 = H2Model(form=((0, 1, 1), (1, 0, 1), (1, 1, 0)), canonical=(2, 2, 0))
        comp1 = FiberComponent(2, (1, 0, 0))
        comp2 = FiberComponent(2, (0, 1, 0))
        desc = FibrationDescriptor(
            regions=[Region(chi_base=2, fibers=(comp1, comp2))],
            round_circles=(),
            lefschetz_points=0,
            signature=0,
            h2=h2,
        )
        ok = admissibility(SpinC((-2, -2, 0)), desc)
        self.assertEqual(ok.regime, "negative")
        self.assertIn("two-component", ok.regions[0].detail)
        bad = admissibility(SpinC((2, -2, 0)), desc)
        self.assertEqual(bad.regime, "inadmissible")


class GradingTest(unittest.TestCase):
    def test_modulus(self):
        self.assertEqual(grading_modulus((2, 2)), 2)
        self.assertEqual(grading_modulus((4, 6)), 2)
        self.assertEqual(grading_modulus((0, 0)), 0)
        self.assertEqual(grading_modulus((3, 5)), 1)

    def test_divisibility_table(self):
        # modulus 2 | 2*2 and 2 | 3 + 1 - 2
        self.assertTrue(divisibility_check((4, 6), 2, 3, 2))
        # n_gamma does not divide n + 1 - g
        self.assertFalse(divisibility_check((4, 6), 2, 3, 1))
        # modulus does not divide 2 n_gamma
        self.assertFalse(divisibility_check((6, 0), 1, 2, 1))
        # torsion class with no sections passes outright
        self.assertTrue(divisibility_check((0, 0), 0, 4, 1))
        # torsion class with sections: 0 | 2n_gamma fails unless n_gamma = 0
        self.assertFalse(divisibility_check((0, 0), 2, 4, 1))


def test_float_entries_are_rejected_not_truncated():
    import numpy as np

    desc = torus_descriptor()

    def descriptor(lefschetz_points, signature):
        return FibrationDescriptor(regions=desc.regions, round_circles=(), h2=desc.h2,
                                   lefschetz_points=lefschetz_points, signature=signature)

    for call in (
        lambda: pairing((1.7,), (1,)),
        lambda: grading_modulus((2.5, 4)),
        lambda: taubes_convert((0.6, 1.2), desc),
        lambda: descriptor(1.9, 0),
        lambda: descriptor(0, 0.5),
    ):
        with pytest.raises(TypeError):
            call()
    # bools and numpy integers are integers, and the results are Python ints
    values = (
        pairing((np.int64(2), True), (3, np.int32(4))),
        grading_modulus((np.int64(-4), 6)),
        grading_modulus((np.int64(-4),)),
        *taubes_convert((np.int64(1), False), desc).c1,
        descriptor(np.int64(1), True).lefschetz_points,
        descriptor(np.int64(1), True).signature,
    )
    assert values == (10, 2, 4, 2, 2, 1, 1)
    assert {type(v) for v in values} == {int}


class HugeIntegerMessageTest(unittest.TestCase):
    """Diagnostics abbreviate integers too long for str() instead of failing on them."""

    def setUp(self):
        limit = sys.get_int_max_str_digits()
        if limit != 4300:
            self.skipTest(f"the interpreter prints integers of up to {limit} digits")
        self.big = 10**4300  # 4301 digits

    def test_shown(self):
        for n in (0, 7, -12, 10**4299, -(10**4300 - 1)):
            self.assertEqual(_shown(n), str(n))
        self.assertEqual(_shown(self.big), "100000...000000 (4301 digits)")
        self.assertEqual(_shown(-(2 * 10**4305 - 3)), "-199999...999997 (4306 digits)")
        self.assertEqual(_shown(Fraction(-self.big, 3)), "-100000...000000 (4301 digits)/3")
        for k in range(4301, 4340):
            self.assertTrue(_shown(10**k - 1).endswith(f"999999 ({k} digits)"), k)
            self.assertTrue(_shown(10**k).endswith(f"000000 ({k + 1} digits)"), k)

    def test_formal_dimension_message(self):
        with self.assertRaisesRegex(
            DescriptorError, r"= -300000\.\.\.000003 \(4301 digits\)/4 is not an integer$"
        ):
            formal_dimension_core(0, 0, self.big + 1)

    def test_c1_squared_message(self):
        h2 = H2Model(form=((2, 1), (1, 2)), canonical=(0, 0))
        with self.assertRaisesRegex(
            DescriptorError, r"^c_1\^2 = 800000\.\.\.000000 \(8601 digits\)/3 is not an integer"
        ):
            c1_squared(SpinC((2 * self.big, 0)), h2)

    def test_fiber_pairing_message(self):
        h2 = H2Model(form=((0, 1), (1, 0)), canonical=(0, 2))
        desc = FibrationDescriptor(
            regions=[
                Region(chi_base=2, fibers=(FiberComponent(1, (1, 0)),)),
                Region(chi_base=2, fibers=(FiberComponent(1, (3, 0)),)),
            ],
            round_circles=(),
            lefschetz_points=0,
            signature=0,
            h2=h2,
        )
        with self.assertRaisesRegex(
            DescriptorError,
            r"differs across regions: \[100000\.\.\.000000 \(4301 digits\), "
            r"300000\.\.\.000000 \(4301 digits\)\];",
        ):
            common_fiber_pairing(SpinC((self.big, 0)), desc)

    def test_nu_parity_message(self):
        with self.assertRaisesRegex(
            InadmissibleError,
            r"^pairing 3 and fiber chi -199999\.\.\.999998 \(4301 digits\) have distinct parity$",
        ):
            nu_function([2 - 2 * self.big], 3)

    def test_admissibility_detail(self):
        report = admissibility(SpinC((self.big, 2)), torus_descriptor())
        self.assertEqual(report.regions[0].detail, "pairing 100000...000000 (4301 digits) > 0")


# -- the one elimination against Fraction Gauss-Jordan ----------------------


def fraction_solve(rows, rhs):
    """Solve Q x = rhs exactly by Fraction Gauss-Jordan; None if Q is singular.

    The solve ``spinc`` ran once per check and per entry before it
    eliminated each form once; kept as the oracle.
    """
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [a[r][j] - factor * a[col][j] for j in range(n + 1)]
    return [a[i][n] for i in range(n)]


def fraction_det(rows):
    """det by Fraction Gaussian elimination: the product of the pivots, signed by the swaps."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DescriptorError, ValueError) as err:
        return f"{type(err).__name__}: {err}"


def _oracle_c1_squared(c1, form):
    x = fraction_solve(form, c1)
    if x is None:
        return "DescriptorError: intersection form is singular"
    value = sum((Fraction(c) * xi for c, xi in zip(c1, x)), Fraction(0))
    if value.denominator != 1:
        return f"DescriptorError: c_1^2 = {_shown(value)} is not an integer in this H^2 model"
    return int(value)


def seeded_form(rng, rank, kind):
    """A symmetric form: even, odd, singular, unimodular, or with any diagonal."""
    q = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            q[i][j] = q[j][i] = rng.randint(-3, 3)
        if kind == "even":
            q[i][i] = 2 * rng.randint(-2, 2)
        elif kind == "odd":
            q[i][i] = 2 * rng.randint(-2, 2) + 1
    if kind == "singular" and rank:
        k = rng.randrange(rank)  # row and column k repeat row and column 0
        for i in range(rank):
            q[i][k] = q[i][0]
        q[k] = list(q[0])
    if kind == "unimodular":
        q = [[int(i + j == rank - 1) for j in range(rank)] for i in range(rank)]
    return tuple(map(tuple, q))


class EliminationOracleTest(unittest.TestCase):
    KINDS = ("even", "odd", "singular", "unimodular", "mixed")

    def test_bareiss_solves_what_fraction_gauss_jordan_solves(self):
        rng = random.Random(41)
        for _ in range(400):
            n = rng.randint(0, 9)
            a = [[rng.choice((0, 0, 1, -1, 2, -3, 7)) for _ in range(n)] for _ in range(n)]
            elimination = Bareiss(a)
            self.assertEqual(elimination.det, fraction_det(a), a)
            for _ in range(3):
                b = [rng.randint(-9, 9) for _ in range(n)]
                x = fraction_solve(a, b)
                self.assertEqual(x is None, elimination.det == 0, a)
                if x is not None:
                    adj_b = elimination.adjugate_times(b)
                    self.assertEqual([Fraction(v, elimination.det) for v in adj_b], x, a)

    def test_verdicts_values_and_messages_match_the_fraction_solve(self):
        """Seeded forms of rank 0-12: the singularity verdict, c_1^2 and
        every message, integral and not, characteristic and not."""
        rng = random.Random(12)
        seen = set()
        for _ in range(500):
            rank, kind = rng.randint(0, 12), rng.choice(self.KINDS)
            form = seeded_form(rng, rank, kind)
            canonical = tuple(form[j][j] % 2 + 2 * rng.randint(-2, 2) for j in range(rank))
            h2 = H2Model(form=form, canonical=canonical)
            singular = fraction_solve(form, canonical) is None
            desc = _outcome(FibrationDescriptor, [], (), 0, rng.randint(-3, 3), h2)
            expected = "DescriptorError: intersection form must be nonsingular" if singular else None
            self.assertEqual(desc if isinstance(desc, str) else None, expected, form)
            for _ in range(4):
                c1 = tuple(form[j][j] % 2 + 2 * rng.randint(-3, 3) + (rng.random() < 0.2)
                           for j in range(rank))
                sq = _oracle_c1_squared(c1, form)
                self.assertEqual(_outcome(c1_squared, SpinC(c1), h2), sq, (form, c1))
                seen.add(type(sq).__name__ + kind * (not isinstance(sq, int)))
                if singular:
                    continue
                if not is_characteristic(SpinC(c1), h2):
                    dim = "DescriptorError: c_1 is not characteristic for the intersection form"
                elif isinstance(sq, str):
                    dim = sq
                else:
                    dim = _outcome(formal_dimension_core, sq, euler_characteristic(desc),
                                   desc.signature)
                self.assertEqual(_outcome(formal_dimension, SpinC(c1), desc), dim, (form, c1))
                if isinstance(sq, int):
                    self.assertEqual(_outcome(formal_dimension, SpinC(c1), desc, sq), dim)
        self.assertLessEqual({"int", "strsingular", "streven", "strodd"}, seen)


def dense_even_form(rank, seed):
    """A dense even form Q = P^T D P with c_1 = P^T w, and c_1^2 in closed form.

    P = L U is unimodular with P e_0 = e_0, and D is the hyperbolic plane
    followed by blocks [[2, 1], [1, 2]] of determinant 3, so
    c_1^2 = w^T D^{-1} w = 2 w_0 w_1 + (2/3) sum of a^2 - a b + b^2 over
    the blocks' pairs (a, b) of w, and e_0 is a fiber class of square 0.
    """
    rng = random.Random(seed)

    def unit_triangular(lower):
        m = [[int(i == j) for j in range(rank)] for i in range(rank)]
        for i in range(rank):
            for j in range(1, i) if lower else range(i + 1, rank):
                if rng.random() < 0.15:
                    m[i][j] = rng.choice((-1, 1))
        return m

    def mul(a, b):
        cols = list(zip(*b))
        return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]

    p = mul(unit_triangular(True), unit_triangular(False))
    d = [[0] * rank for _ in range(rank)]
    d[0][1] = d[1][0] = 1
    for k in range(2, rank, 2):
        d[k][k] = d[k + 1][k + 1] = 2
        d[k][k + 1] = d[k + 1][k] = 1
    pt = [list(col) for col in zip(*p)]
    w = [2] + [2 * rng.randint(-3, 3) for _ in range(rank - 1)]
    c1 = [sum(x * y for x, y in zip(row, w)) for row in pt]
    blocks = sum(a * a - a * b + b * b for a, b in zip(w[2::2], w[3::2]))
    return mul(mul(pt, d), p), c1, 2 * w[0] * w[1] + Fraction(2 * blocks, 3)


# The Fraction solve took 17.4 s on a rank-160 form; one elimination takes
# about 1.5 s with interpreter start-up on a 2-core host.
RANK_160_SECONDS = 8.0


def test_dim_on_a_dense_even_rank_160_form_answers_in_seconds():
    form, c1, c1_sq = dense_even_form(160, 160)
    assert c1_sq.denominator == 3 and sum(x != 0 for row in form for x in row) > 0.9 * 160**2
    doc = {
        "schema": "lagmatch-input@1",
        "fibration": {
            "regions": [{"chi_base": 2, "fibers": [{"genus": 1, "class": [1] + [0] * 159}]}],
            "h2": {"form": form, "canonical": c1},
        },
        "spinc": [{"c1": c1}],
    }
    env = dict(os.environ)
    env.pop("LAGMATCH_THREADS", None)
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "lagmatch", "dim", "--input", "-"],
                         input=json.dumps(doc), capture_output=True, text=True, env=env,
                         timeout=120)
    elapsed = time.perf_counter() - start
    expected = f"error: c_1^2 = {c1_sq} is not an integer in this H^2 model\n"
    assert (out.returncode, out.stdout, out.stderr) == (3, "", expected)
    assert elapsed < RANK_160_SECONDS, elapsed


if __name__ == "__main__":
    unittest.main()
