"""Elementary-move maps, cycle evaluation, and the fibered cross-check."""

import bisect
import functools
import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from lagmatch.exterior import (
    ExtElement,
    LatticeProjection,
    SpMatrix,
    SymplecticLattice,
    adapted_basis,
    circle_frame,
    contract,
    ext_power_action,
    ext_power_images,
    primitive_class,
    theta_divided,
    transvection,
    wedge,
)
from lagmatch.symprod import SymClass, basis, cap_U_classical, cap_ext
from lagmatch import tqft
from lagmatch.tqft import (
    _contract_a1,
    _move_image,
    ElementaryMove,
    MorseCycle,
    NonClosingCycle,
    SymLinearMap,
    SymSpace,
    alexander_cycle_value,
    alexander_fibered,
    connected_sum_invariant,
    down_map,
    evaluate_cycle,
    up_map,
    weighted_exterior_dimension,
    worked_example,
)
from reference import after_first_pair, cycle_composite, insert_a1, inverse, twist_map

ANOSOV = [[2, 1], [1, 1]]


def random_primitive(rng, rank, spread=3):
    while True:
        v = [rng.randint(-spread, spread) for _ in range(rank)]
        if any(v) and math.gcd(*v) == 1:
            return tuple(v)


def random_sp(rng, lattice, length=4):
    m = SpMatrix.identity(lattice)
    if lattice.rank == 0:
        return m
    for _ in range(length):
        v = random_primitive(rng, lattice.rank, spread=2)
        m = m @ transvection(lattice, v, rng.choice([-1, 1]))
    return m


def twist_cycle(g, n, rows):
    lat = SymplecticLattice(g)
    return MorseCycle([g], [ElementaryMove.twist(SpMatrix(lat, rows))], n)


def images(f):
    """The image of every source monomial under a Sym-level map."""
    return [f.apply(f.src.element(key)) for key in f.src.monomials]


def graded_trace(cycle):
    """Sum of (-1)^|S| <U^i e_S, C U^i e_S> over the composite's source monomials."""
    comp = cycle_composite(cycle)
    return sum((-1) ** len(s) * comp.image(s).get(s, 0) for _, s in comp.src.monomials)


# -- spaces and twist maps ------------------------------------------------


def test_space_dimension_matches_basis():
    for g in range(3):
        lat = SymplecticLattice(g)
        for n in range(4):
            assert SymSpace(n, lat).dim == len(basis(n, lat))


def test_twist_by_identity_is_identity():
    lat = SymplecticLattice(2)
    t = twist_map(SpMatrix.identity(lat), 2)
    assert images(t) == [t.src.element(key) for key in t.src.monomials]


def test_twist_is_functorial():
    rng = random.Random(30)
    lat = SymplecticLattice(1)
    for _ in range(40):
        m = random_sp(rng, lat, length=3)
        k = random_sp(rng, lat, length=3)
        n = rng.randint(0, 2)
        assert images(twist_map(m, n) @ twist_map(k, n)) == images(twist_map(m @ k, n))


# -- frozen supertrace values --------------------------------------------


def test_single_twist_goldens():
    assert evaluate_cycle(twist_cycle(1, 1, ANOSOV)) == -1
    assert evaluate_cycle(twist_cycle(1, 2, ANOSOV)) == -2
    assert evaluate_cycle(twist_cycle(1, 1, [[1, 0], [0, 1]])) == 0
    assert evaluate_cycle(twist_cycle(0, 2, [])) == 3
    assert evaluate_cycle(twist_cycle(0, 4, [])) == 5


def test_alexander_goldens():
    assert alexander_fibered(SpMatrix(SymplecticLattice(1), ANOSOV)) == (-3, 1)
    ident = SpMatrix(SymplecticLattice(1), [[1, 0], [0, 1]])
    assert alexander_fibered(ident) == (-2, 1)
    assert alexander_fibered(SpMatrix(SymplecticLattice(0), [])) == (1,)


def test_weighted_sum_goldens():
    assert alexander_cycle_value((-3, 1), 1, 1) == -1
    assert alexander_cycle_value((-3, 1), 2, 1) == -2
    assert alexander_cycle_value((1,), 3, 0) == 4
    with pytest.raises(ValueError):
        alexander_cycle_value((-3, 1, 0), 2, 1)


def test_fibered_equality_random():
    """Supertrace of a word of one, two or three twists equals Macdonald's
    sum over the Faddeev-LeVerrier characteristic polynomial of their
    product, for every degree up to and past the min(n0, 2g) cap."""
    rng = random.Random(31)
    for g in (0, 1, 2):
        lat = SymplecticLattice(g)
        for n in (0, 1, 2):
            for _ in range(8):
                m = random_sp(rng, lat)
                lhs = evaluate_cycle(MorseCycle([g], [ElementaryMove.twist(m)], n))
                assert lhs == _macdonald(m.rows, n), (g, n, m.rows)
    for g in range(9):
        lat = SymplecticLattice(g)
        for length in (2, 3):
            twists = [random_sp(rng, lat, length=rng.randint(1, 4)) for _ in range(length)]
            product = functools.reduce(lambda p, m: m @ p, twists)
            moves = [ElementaryMove.twist(m) for m in twists]
            for n in range(2 * g + 2):
                lhs = evaluate_cycle(MorseCycle([g] * length, moves, n))
                assert lhs == _macdonald(product.rows, n), (g, n, product.rows)


# -- surgery maps ---------------------------------------------------------


def test_move_images_match_exterior_reference():
    """Each move's integer image on every e_S agrees with contract, wedge and
    ext_power_action, which no evaluation path calls."""
    rng = random.Random(62)
    for g in range(4):
        lat, target = SymplecticLattice(g), SymplecticLattice(g + 1)
        include = LatticeProjection.include_after_first_pair(lat)
        a1 = ExtElement(target, {(0,): 1})
        monomials = [
            s for k in range(lat.rank + 1) for s in itertools.combinations(range(lat.rank), k)
        ]
        for _ in range(3):
            twist = random_sp(rng, lat)
            twist_image = _move_image(ElementaryMove.twist(twist), g)
            up_circle = random_primitive(rng, target.rank)
            up_frame_inv = inverse(adapted_basis(target, up_circle))
            up_image = _move_image(ElementaryMove.up(up_circle), g)
            for s in monomials:
                e_s = ExtElement(lat, {s: 1})
                assert twist_image(s) == ext_power_action(twist, e_s).terms, (twist.rows, s)
                want = ext_power_action(up_frame_inv, wedge(a1, include.map_element(e_s)))
                assert up_image(s) == want.terms, (up_circle, s)
            if g == 0:
                continue
            down_circle = random_primitive(rng, lat.rank)
            frame = adapted_basis(lat, down_circle)
            kill = LatticeProjection.kill_first_pair(lat)
            down_image = _move_image(ElementaryMove.down(down_circle), g)
            for s in monomials:
                e_s = ExtElement(lat, {s: 1})
                want = contract(lat.basis_vector(0), ext_power_action(frame, e_s), kill)
                assert down_image(s) == want.terms, (down_circle, s)
        separating_up = _move_image(ElementaryMove.up((0,) * target.rank), g)
        separating_down = _move_image(ElementaryMove.down((0,) * lat.rank), g) if g else None
        for s in monomials:
            assert separating_up(s) == {}
            assert separating_down is None or separating_down(s) == {}


def test_down_of_b1_and_up_of_one():
    lat1 = SymplecticLattice(1)
    down = down_map((1, 0), 1, lat1)
    b1 = SymClass.monomial(1, lat1, 0, (1,))
    assert down.apply(b1).terms == {(0, ()): Fraction(-1)}

    up = up_map((1, 0), 0, SymplecticLattice(0))
    one = SymClass.monomial(0, SymplecticLattice(0), 0, ())
    assert up.apply(one).terms == {(0, (0,)): Fraction(1)}


def test_down_then_up_vanishes():
    rng = random.Random(32)
    for trial in range(120):
        g = rng.randint(0, 1) if trial % 4 else 2  # keep the big lattice sparse
        n = rng.randint(0, 2 - g // 2)
        source = SymplecticLattice(g)
        target = SymplecticLattice(g + 1)
        circle = random_primitive(rng, target.rank)
        up = up_map(circle, n, source)
        down = down_map(circle, n + 1, target)
        for key in up.src.monomials:
            image = up.apply(up.src.element(key))
            assert down.apply(image).is_zero(), (g, n, circle, key)


def test_separating_circle_gives_zero_map():
    lat = SymplecticLattice(2)
    zero = (0, 0, 0, 0)
    d = down_map(zero, 2, lat)
    assert all(x.is_zero() for x in images(d))
    u = up_map((0,) * 6, 1, lat)
    assert all(x.is_zero() for x in images(u))


def test_down_commutes_with_classical_u():
    rng = random.Random(33)
    lat5, lat4 = SymplecticLattice(5), SymplecticLattice(4)
    for _ in range(20):
        circle = random_primitive(rng, 10)
        down = down_map(circle, 2, lat5)
        for (i, subset) in basis(2, lat5):
            if i + len(subset) > 1:
                continue  # U needs headroom in the truncated model
            x = SymClass.monomial(2, lat5, i, subset)
            assert down.apply(cap_U_classical(x)).terms == cap_U_classical(
                down.apply(x)
            ).terms


def test_down_commutes_with_theta():
    rng = random.Random(34)
    lat2, lat1 = SymplecticLattice(2), SymplecticLattice(1)
    th2, th1 = theta_divided(1, lat2), theta_divided(1, lat1)
    for _ in range(25):
        circle = random_primitive(rng, 4)
        down = down_map(circle, 4, lat2)
        for (i, subset) in basis(4, lat2):
            if i + len(subset) > 2:
                continue
            x = SymClass.monomial(4, lat2, i, subset)
            assert down.apply(cap_ext(th2, x)).terms == cap_ext(
                th1, down.apply(x)
            ).terms


# -- cycles ---------------------------------------------------------------


def test_three_move_comparator_cycle():
    lat1 = SymplecticLattice(1)
    cycle = MorseCycle(
        [1, 0, 1],
        [
            ElementaryMove.down((1, 0)),
            ElementaryMove.up((1, 0)),
            ElementaryMove.twist(SpMatrix(lat1, ANOSOV)),
        ],
        1,
    )
    assert evaluate_cycle(cycle) == 1


def test_bare_down_up_pair_is_traceless():
    cycle = MorseCycle(
        [1, 0], [ElementaryMove.down((1, 0)), ElementaryMove.up((1, 0))], 1
    )
    assert evaluate_cycle(cycle) == 0


def test_rotation_changes_value_by_move_parity_only():
    """Supertrace cyclicity: rotating past down/up flips the sign, past a
    twist preserves it; the absolute value never moves."""
    rng = random.Random(35)
    lat1, lat2 = SymplecticLattice(1), SymplecticLattice(2)
    for _ in range(40):
        moves = [
            ElementaryMove.down(random_primitive(rng, 4)),
            ElementaryMove.twist(random_sp(rng, lat1, length=2)),
            ElementaryMove.up(random_primitive(rng, 4)),
            ElementaryMove.twist(random_sp(rng, lat2, length=2)),
        ]
        fibers = [2, 1, 1, 2]
        n0 = rng.randint(1, 2)
        base = evaluate_cycle(MorseCycle(fibers, moves, n0))
        sign = 1
        for r in range(1, 4):
            sign *= -1 if moves[r - 1].kind in ("down", "up") else 1
            rotated = MorseCycle(
                fibers[r:] + fibers[:r], moves[r:] + moves[:r], n0 + fibers[r] - fibers[0]
            )
            assert evaluate_cycle(rotated) == sign * base


def test_twist_only_rotation_invariance():
    rng = random.Random(36)
    lat = SymplecticLattice(1)
    for _ in range(30):
        mats = [random_sp(rng, lat, length=2) for _ in range(3)]
        moves = [ElementaryMove.twist(m) for m in mats]
        vals = {
            evaluate_cycle(MorseCycle([1, 1, 1], moves[r:] + moves[:r], 1))
            for r in range(3)
        }
        assert len(vals) == 1


def test_composite_preserves_degree():
    lat1 = SymplecticLattice(1)
    cycle = MorseCycle(
        [1, 0, 1],
        [
            ElementaryMove.down((1, 1)),
            ElementaryMove.up((0, 1)),
            ElementaryMove.twist(SpMatrix(lat1, ANOSOV)),
        ],
        2,
    )
    comp = cycle_composite(cycle)
    n = comp.src.n
    for (i, s), image in zip(comp.src.monomials, images(comp)):
        for j, t in image.terms:
            assert 2 * (n - j) - len(t) == 2 * (n - i) - len(s)


def test_connected_sum_report():
    cycle = MorseCycle(
        [1, 0], [ElementaryMove.down((0, 0)), ElementaryMove.up((1, 0))], 1
    )
    report = connected_sum_invariant(cycle)
    assert report.value == 0
    assert report.move_index == 0
    assert "nullhomologous" in report.reason

    honest = MorseCycle(
        [1, 0], [ElementaryMove.down((1, 0)), ElementaryMove.up((1, 0))], 1
    )
    with pytest.raises(ValueError):
        connected_sum_invariant(honest)


def test_separating_moves():
    assert ElementaryMove.down((0, 0)).separating
    assert ElementaryMove.up((0, 0, 0, 0)).separating
    assert not ElementaryMove.down((0, 1)).separating
    assert not ElementaryMove.up((1, 0, 0, 0)).separating
    assert not ElementaryMove.twist(SpMatrix.identity(SymplecticLattice(1))).separating


def test_non_closing_cycles_rejected():
    lat1 = SymplecticLattice(1)
    with pytest.raises(NonClosingCycle):
        MorseCycle([1, 1], [ElementaryMove.down((1, 0)), ElementaryMove.up((1, 0))], 1)
    with pytest.raises(NonClosingCycle):
        MorseCycle([1], [ElementaryMove.down((1, 0))], 1)  # 1 -> 0 but wraps to 1
    with pytest.raises(NonClosingCycle):
        MorseCycle([2, 1], [ElementaryMove.down((1, 0)), ElementaryMove.up((1, 0, 0, 0))], 0)
    with pytest.raises(NonClosingCycle):
        MorseCycle([1], [ElementaryMove.twist(SpMatrix(SymplecticLattice(2), [
            [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))], 1)
    with pytest.raises(NonClosingCycle):
        MorseCycle([], [], 0)


def test_down_needs_genus_and_degree():
    """The lifts check genus, then circle length, then separating, then
    primitive, then degree."""
    lat1 = SymplecticLattice(1)
    with pytest.raises(NonClosingCycle, match="positive fiber genus"):
        down_map((0,) * 0, 1, SymplecticLattice(0))
    with pytest.raises(NonClosingCycle, match="positive fiber genus"):
        down_map((1,), 0, SymplecticLattice(0))
    with pytest.raises(NonClosingCycle, match="symmetric degree n >= 1"):
        down_map((1, 0), 0, lat1)
    with pytest.raises(ValueError, match="^vector has length 0, lattice rank is 2$"):
        down_map((), 0, lat1)
    with pytest.raises(ValueError, match="^vector has length 2, lattice rank is 4$"):
        up_map((0, 0), 0, lat1)
    with pytest.raises(NonClosingCycle, match="symmetric degree n >= 1"):
        down_map((0, 0), 0, lat1)
    with pytest.raises(ValueError, match="^circle class must be primitive$"):
        down_map((2, 0), 0, lat1)
    with pytest.raises(ValueError, match="^circle class must be primitive$"):
        up_map((2, 0, 0, 0), 0, lat1)


# -- dimensions -----------------------------------------------------------


def test_weighted_dimension_tracks_state_spaces():
    for g in range(4):
        lat = SymplecticLattice(g)
        for n in range(7):
            assert weighted_exterior_dimension(g - 1 - n, g) == len(basis(n, lat))


def test_weighted_dimension_empty_out_of_range():
    # offsets at or beyond the top coefficient leave an empty sum
    assert weighted_exterior_dimension(5, 2) == 0
    with pytest.raises(ValueError):
        weighted_exterior_dimension(0, -1)


# -- worked examples ------------------------------------------------------


def test_s2xs2_grid():
    for m in range(5):
        for n in range(5):
            report = worked_example("s2xs2", m, n)
            assert report.value == 1, (m, n)
            assert report.monomial == f"U^{n}"


def test_s2xs2_negative_gate():
    assert worked_example("s2xs2", -1, 2).value == 0
    assert worked_example("s2xs2", 3, -2).value == 0


def test_s1s3_values():
    for m in range(4):
        for n in range(1, 5):
            report = worked_example("s1s3-sum", m, n)
            assert abs(report.value) == 1, (m, n)
            assert report.monomial == f"U^{n - 1} lambda"
    assert worked_example("s1s3-sum", -1, 2).value == 0


def test_s1s3_needs_positive_n():
    with pytest.raises(ValueError):
        worked_example("s1s3-sum", 2, 0)


def test_unknown_example():
    with pytest.raises(KeyError):
        worked_example("nope", 0, 0)


def test_evaluation_matches_reference_composite():
    """Degree-by-degree evaluation equals the graded trace of the composite of lifts."""
    rng = random.Random(37)
    cycles = []
    for trial in range(48):
        kind = trial % 4
        if kind == 0:
            g, n0 = rng.randint(0, 4), rng.randint(0, 4)
            lat = SymplecticLattice(g)
            moves = [ElementaryMove.twist(random_sp(rng, lat)) for _ in range(rng.randint(1, 2))]
            cycles.append(MorseCycle([g] * len(moves), moves, n0))
            continue
        g, n0 = rng.randint(1, 4), rng.randint(1, 4)
        if kind == 1:
            fibers = [g, g - 1, g - 1, g]
            moves = [
                ElementaryMove.down(random_primitive(rng, 2 * g)),
                ElementaryMove.twist(random_sp(rng, SymplecticLattice(g - 1), length=2)),
                ElementaryMove.up(random_primitive(rng, 2 * g)),
                ElementaryMove.twist(random_sp(rng, SymplecticLattice(g), length=2)),
            ]
            r = rng.randint(0, 3)
            cycles.append(
                MorseCycle(fibers[r:] + fibers[:r], moves[r:] + moves[:r], n0 + fibers[r] - g)
            )
            continue
        circles = [random_primitive(rng, 2 * g), random_primitive(rng, 2 * g)]
        if kind == 2:
            circles[rng.randint(0, 1)] = (0,) * (2 * g)
        moves = [ElementaryMove.down(circles[0]), ElementaryMove.up(circles[1])]
        cycles.append(MorseCycle([g, g - 1], moves, n0))
    for cycle in cycles:
        assert evaluate_cycle(cycle) == graded_trace(cycle), cycle


def test_worked_examples_at_large_parameters():
    start = time.perf_counter()
    report = worked_example("s2xs2", 1000, 1000)
    assert (report.value, report.monomial) == (1, "U^1000")
    report = worked_example("s1s3-sum", 1000, 1000)
    assert (report.value, report.monomial) == (-1, "U^999 lambda")
    assert time.perf_counter() - start < 1.0


def folding_words(rng, count):
    """Seeded words whose twists fold into neighbouring frames.

    Runs of two or three twists, twists on both sides of a down and of an
    up, every rotation (so words start and end on twists or on surgeries),
    genus-0 fibers, and separating circles.
    """
    def circle(rank):
        return (0,) * rank if rng.random() < 0.15 else random_primitive(rng, rank)

    def twists(g, low, high):
        lat = SymplecticLattice(g)
        count = rng.randint(low, high)
        return [ElementaryMove.twist(random_sp(rng, lat, length=2)) for _ in range(count)]

    words = []
    for trial in range(count):
        kind = trial % 3
        if kind == 0:
            g, n0 = rng.randint(0, 4), rng.randint(0, 4)
            moves = twists(g, 2, 3)
            words.append(MorseCycle([g] * len(moves), moves, n0))
            continue
        if kind == 1:
            # twists, down, twists, up, twists around a genus g >= 1 fiber
            g = rng.randint(1, 4)
            runs = [twists(g, 0, 2), twists(g - 1, 1, 2), twists(g, 0, 2)]
            moves = runs[0] + [ElementaryMove.down(circle(2 * g))] + runs[1]
            moves += [ElementaryMove.up(circle(2 * g))] + runs[2]
            fibers = [g] * (len(runs[0]) + 1) + [g - 1] * (len(runs[1]) + 1) + [g] * len(runs[2])
        else:
            # up from a fiber of genus g >= 0, twists above, down again
            g = rng.randint(0, 3)
            runs = [twists(g, 0, 2), twists(g + 1, 1, 2)]
            moves = runs[0] + [ElementaryMove.up(circle(2 * g + 2))] + runs[1]
            moves += [ElementaryMove.down(circle(2 * g + 2))]
            fibers = [g] * (len(runs[0]) + 1) + [g + 1] * (len(runs[1]) + 1)
        top = max(fibers)
        nu_top = rng.randint(1, 4)
        r = rng.randrange(len(moves))
        words.append(
            MorseCycle(fibers[r:] + fibers[:r], moves[r:] + moves[:r], nu_top + fibers[r] - top)
        )
    return words


def test_folded_evaluation_matches_reference_composite():
    """Twists folded into surgery frames give the graded trace of the composite."""
    words = folding_words(random.Random(41), 60)
    assert any(any(m.circle is not None and not any(m.circle) for m in w.moves) for w in words)
    for cycle in words:
        assert evaluate_cycle(cycle) == graded_trace(cycle), cycle


def test_separating_down_before_non_primitive_up_still_fails():
    """Every circle is checked before a separating one short-circuits."""
    cycle = MorseCycle(
        [2, 1], [ElementaryMove.down((0, 0, 0, 0)), ElementaryMove.up((2, 0, 0, 2))], 1
    )
    with pytest.raises(ValueError, match="^circle class must be primitive$"):
        evaluate_cycle(cycle)


def _oracle_contract_a1(frame, lattice):
    """The down image as first written: the whole Lambda(frame) e_S, filtered
    for the terms with b_1 and without a_1, which are relabelled."""
    power = ext_power_images(frame.rows)
    kill = LatticeProjection.kill_first_pair(lattice)
    b1 = lattice.genus

    def image(s):
        out = {}
        for t, c in power(s).items():
            pos = bisect.bisect_left(t, b1)
            if pos < len(t) and t[pos] == b1:
                rest = kill.map_subset(t[:pos] + t[pos + 1:])
                if rest is not None:
                    out[rest] = c if pos & 1 else -c
        return out

    return image


def test_contract_a1_matches_the_filtered_exterior_power():
    """The expansion along row b_1 equals the filter of the full exterior
    power on every subset, for frames times twists at genus 1 to 5."""
    rng = random.Random(46)
    for g in range(1, 6):
        lat = SymplecticLattice(g)
        subsets = [s for k in range(lat.rank + 1) for s in itertools.combinations(range(lat.rank), k)]
        for _ in range(3 if g < 5 else 1):
            frame = adapted_basis(lat, random_primitive(rng, lat.rank))
            matrix = frame @ random_sp(rng, lat, length=rng.randint(1, 2 * g))
            got, want = _contract_a1(matrix, lat), _oracle_contract_a1(matrix, lat)
            for s in subsets:
                assert got(s) == want(s), (matrix.rows, s)


def multi_handle_words(rng, count):
    """Seeded words over two handles: down, down, twist, up, up (the genus
    drops by two) and down, up, down, up, at top genus 2 or 3."""
    words = []
    for trial in range(count):
        g = 2 + trial % 2
        if trial % 4 < 2:
            fibers = [g, g - 1, g - 2, g - 2, g - 1]
            moves = [
                ElementaryMove.down(random_primitive(rng, 2 * g)),
                ElementaryMove.down(random_primitive(rng, 2 * g - 2)),
                ElementaryMove.twist(random_sp(rng, SymplecticLattice(g - 2), length=2)),
                ElementaryMove.up(random_primitive(rng, 2 * g - 2)),
                ElementaryMove.up(random_primitive(rng, 2 * g)),
            ]
        else:
            fibers = [g, g - 1, g, g - 1]
            moves = [
                ElementaryMove.down(random_primitive(rng, 2 * g)),
                ElementaryMove.up(random_primitive(rng, 2 * g)),
                ElementaryMove.down(random_primitive(rng, 2 * g)),
                ElementaryMove.up(random_primitive(rng, 2 * g)),
            ]
        words.append((fibers, moves, rng.randint(2, 3) if g == 2 else 2))
    return words


def test_multi_handle_words_match_the_composite_in_every_rotation():
    """Each rotation equals the graded trace of the composite of lifts, and
    rotating past a surgery flips the sign."""
    for fibers, moves, n0 in multi_handle_words(random.Random(47), 12):
        base = None
        sign = 1
        for r in range(len(moves)):
            if r:
                sign *= -1 if moves[r - 1].kind in ("down", "up") else 1
            cycle = MorseCycle(fibers[r:] + fibers[:r], moves[r:] + moves[:r], n0 + fibers[r] - fibers[0])
            value = evaluate_cycle(cycle)
            assert value == graded_trace(cycle), cycle
            if base is None:
                base = value
            assert value == sign * base, cycle


def test_separating_word_builds_no_frame(monkeypatch):
    """A separating circle decides the value before any frame is built."""

    def refuse(*args):
        raise AssertionError("a frame was built")

    monkeypatch.setattr(tqft, "adapted_basis", refuse)
    monkeypatch.setattr(tqft, "circle_frame", refuse)
    lat = SymplecticLattice(2)
    for moves, fibers in (
        ([ElementaryMove.twist(SpMatrix.identity(lat)), ElementaryMove.down((0,) * 4),
          ElementaryMove.up((1, 0, 0, 0))], [2, 2, 1]),
        ([ElementaryMove.down((0, 1, 1, 0)), ElementaryMove.up((0,) * 4)], [2, 1]),
    ):
        assert evaluate_cycle(MorseCycle(fibers, moves, 2)) == 0
    with pytest.raises(AssertionError, match="a frame was built"):
        evaluate_cycle(MorseCycle([2, 1], [ElementaryMove.down((0, 1, 1, 0)), ElementaryMove.up((1, 0, 0, 0))], 2))


def test_separating_up_before_non_primitive_down_still_fails():
    cycle = MorseCycle(
        [1, 2], [ElementaryMove.up((0, 0, 0, 0)), ElementaryMove.down((0, 3, 0, 3))], 1
    )
    with pytest.raises(ValueError, match="^circle class must be primitive$"):
        evaluate_cycle(cycle)


# -- the lowest-fiber start against the fiber-0 oracle ---------------------


def _oracle_evaluate_cycle(cycle):
    """evaluate_cycle as it was before it started on the lowest fiber: every
    e_S of fiber 0 is pushed around the word, and the product still pending
    at the end is applied as one integer exterior power."""
    for move, genus in zip(cycle.moves, cycle.fibers):
        if move.kind != "twist" and not move.separating:
            surface = SymplecticLattice(genus + 1 if move.kind == "up" else genus)
            primitive_class(surface, move.circle)
    if any(move.separating for move in cycle.moves):
        return 0
    stages = []
    pending = None
    for move, genus in zip(cycle.moves, cycle.fibers):
        if move.kind == "twist":
            pending = move.matrix if pending is None else move.matrix @ pending
            continue
        lattice = SymplecticLattice(genus)
        if move.kind == "down":
            frame = adapted_basis(lattice, move.circle)
            stages.append(_contract_a1(frame if pending is None else frame @ pending, lattice))
            pending = None
        else:
            frame = circle_frame(SymplecticLattice(genus + 1), move.circle)
            stages.append(insert_a1(lattice))
            pending = frame if pending is None else frame @ after_first_pair(pending)
    if not stages:
        return _macdonald(pending.rows, cycle.n0)
    last = None if pending is None else ext_power_images(pending.rows)
    rank = 2 * cycle.fibers[0]
    total = 0
    for k in range(min(cycle.n0, rank) + 1):
        weight = (-1) ** k * (cycle.n0 - k + 1)
        for start in itertools.combinations(range(rank), k):
            vector = {start: 1}
            for stage in stages:
                vector = tqft._push(stage, vector)
                if not vector:
                    break
            else:
                if last is None:
                    total += weight * vector.get(start, 0)
                else:
                    total += weight * sum(c * last(t).get(start, 0) for t, c in vector.items())
    return total


def rotations(fibers, moves, n0):
    """The cycle read from each of its fibers in turn, fiber 0 first."""
    for r in range(len(moves)):
        yield MorseCycle(fibers[r:] + fibers[:r], moves[r:] + moves[:r], n0 + fibers[r] - fibers[0])


def cycle_eval_words(rng):
    """The word shapes of the cycle-eval benchmark: one and two twists,
    down.twist.up.twist, a separating down, and down.up, at genus 1 to 4,
    with n0 up to 2g at g <= 3 and up to 3 at g = 4."""
    words = []
    for g in range(1, 5):
        lat, low = SymplecticLattice(g), SymplecticLattice(g - 1)
        for n0 in range(1, (2 * g if g <= 3 else 3) + 1):
            mats = [random_sp(rng, lat, length=2 * g + 2) for _ in range(2)]
            words.append(([g], [ElementaryMove.twist(mats[0])], n0))
            words.append(([g, g], [ElementaryMove.twist(m) for m in mats], n0))
            words.append(([g, g - 1, g - 1, g], [
                ElementaryMove.down(random_primitive(rng, 2 * g, spread=2)),
                ElementaryMove.twist(random_sp(rng, low, length=2 * g)),
                ElementaryMove.up(random_primitive(rng, 2 * g, spread=2)),
                ElementaryMove.twist(mats[1]),
            ], n0))
            words.append(([g, g, g - 1], [
                ElementaryMove.twist(mats[0]),
                ElementaryMove.down((0,) * (2 * g)),
                ElementaryMove.up(random_primitive(rng, 2 * g, spread=2)),
            ], n0))
            circle = random_primitive(rng, 2 * g, spread=2)
            words.append(([g, g - 1], [ElementaryMove.down(circle), ElementaryMove.up(circle)], n0))
    return words


def twist_run_words(rng, count):
    """Seeded words with a run of twists right before their lowest down:
    one handle with twists on every fiber, two handles whose downs tie for
    the lowest target, and a genus drop of two, at top genus 2 or 3."""
    def twists(g, length):
        lat = SymplecticLattice(g)
        return [ElementaryMove.twist(random_sp(rng, lat, length=3)) for _ in range(length)]

    def circle(g):
        return ElementaryMove.down(random_primitive(rng, 2 * g)), ElementaryMove.up(random_primitive(rng, 2 * g))

    words = []
    for trial in range(count):
        g = 2 + trial % 2
        (down, up), (down2, up2) = circle(g), circle(g)
        kind = trial % 3
        if kind == 0:
            moves = twists(g, 2) + [down] + twists(g - 1, 2) + [up] + twists(g, 1)
            fibers = [g, g, g, g - 1, g - 1, g - 1, g]
        elif kind == 1:
            moves = twists(g, 1) + [down, up] + twists(g, 2) + [down2, up2]
            fibers = [g, g, g - 1, g, g, g, g - 1]
        else:
            lower_down, lower_up = circle(g - 1)
            moves = twists(g, 1) + [down] + twists(g - 1, 1) + [lower_down] + twists(g - 2, 1)
            moves += [lower_up, up]
            fibers = [g, g, g - 1, g - 1, g - 2, g - 2, g - 1]
        words.append((fibers, moves, rng.randint(2, 3)))
    return words


def test_lowest_fiber_start_matches_the_fiber_zero_oracle():
    """Every rotation of every benchmark shape, two-handle word and word with
    twists before its lowest down equals the fiber-0 evaluation, sign included."""
    rng = random.Random(74)
    words = cycle_eval_words(rng) + multi_handle_words(rng, 12) + twist_run_words(rng, 12)
    nonzero = 0
    for fibers, moves, n0 in words:
        for cycle in rotations(fibers, moves, n0):
            value = evaluate_cycle(cycle)
            assert value == _oracle_evaluate_cycle(cycle), cycle
            nonzero += value != 0
    assert nonzero > 200


def test_twist_run_words_match_the_composite():
    """The oracle itself against the graded trace of the composite of lifts."""
    for fibers, moves, n0 in twist_run_words(random.Random(75), 6):
        cycle = next(rotations(fibers, moves, n0))
        assert evaluate_cycle(cycle) == graded_trace(cycle), cycle


def test_down_twist_up_twist_words_match_the_composite():
    """A down-twist-up-twist word, which evaluate_cycle reads from fiber 1
    right after its down, equals the graded trace of the composite of lifts
    at genus 1 to 3."""
    rng = random.Random(76)
    cases = []
    for g in (1, 2, 3):
        fibers = [g, g - 1, g - 1, g]
        moves = [
            ElementaryMove.down(random_primitive(rng, 2 * g)),
            ElementaryMove.twist(random_sp(rng, SymplecticLattice(g - 1))),
            ElementaryMove.up(random_primitive(rng, 2 * g)),
            ElementaryMove.twist(random_sp(rng, SymplecticLattice(g))),
        ]
        for n0 in (1, 2):
            cycle = MorseCycle(fibers, moves, n0)
            cases.append((cycle, graded_trace(cycle)))
    assert sum(1 for _, value in cases if value) >= 4
    for cycle, value in cases:
        assert evaluate_cycle(cycle) == value, cycle


# -- the bordered determinant against both push oracles ---------------------


def surgery_order_words(rng):
    """Every order of h downs and h ups with h <= 3, at genus <= 4: a start
    genus that keeps every fiber in 0..4, up to one twist before each
    surgery and after the last, and the degree over the lowest fiber 0, 1
    or 2 in turn."""
    words = []
    for h in (1, 2, 3):
        for order, downs in enumerate(itertools.combinations(range(2 * h), h)):
            steps = [-1 if j in downs else 1 for j in range(2 * h)]
            offsets = list(itertools.accumulate(steps, initial=0))
            genus = rng.randint(-min(offsets), 4 - max(offsets))
            fibers, moves = [], []
            for step in steps + [0]:
                if not step or rng.random() < 0.5:
                    fibers.append(genus)
                    moves.append(ElementaryMove.twist(random_sp(rng, SymplecticLattice(genus), length=2)))
                if step:
                    fibers.append(genus)
                    rank = 2 * genus if step < 0 else 2 * genus + 2
                    kind = ElementaryMove.down if step < 0 else ElementaryMove.up
                    moves.append(kind(random_primitive(rng, rank, spread=2)))
                    genus += step
            words.append((fibers, moves, order % 3 + fibers[0] - min(fibers)))
    return words


def test_bordered_determinant_matches_both_push_oracles():
    """Every rotation of every seeded surgery shape, read by the bordered
    determinant, equals the fiber-0 push and the graded trace of the
    composite of lifts, sign included."""
    rng = random.Random(81)
    words = [(c.fibers, c.moves, c.n0) for c in folding_words(rng, 24)]
    words += cycle_eval_words(rng) + multi_handle_words(rng, 8) + twist_run_words(rng, 6)
    orders = surgery_order_words(rng)
    assert len({tuple(m.kind for m in moves if m.kind != "twist") for _, moves, _ in orders}) == 2 + 6 + 20
    assert all(0 <= min(fibers) and max(fibers) <= 4 for fibers, _, _ in orders)
    words += orders
    nonzero = 0
    for fibers, moves, n0 in words:
        for cycle in rotations(fibers, moves, n0):
            value = evaluate_cycle(cycle)
            assert value == _oracle_evaluate_cycle(cycle), cycle
            assert value == graded_trace(cycle), cycle
            nonzero += value != 0
    assert nonzero > 400


def test_every_mirrored_degree_matches_the_fiber_zero_oracle():
    """Every rotation of the five seeded generators, at every degree n0' =
    0 .. 2 g_r + 1 over the lowest fiber, equals the fiber-0 push, and the
    push's own T(t) = (1 - t)^2 sum_n value(n) t^n has degree at most 2 g_r
    and is palindromic.  evaluate_cycle forms T only up to t^(g_r) and
    mirrors the rest, so a palindromy check on its values alone would pass
    by construction; the push forms every degree.  Runtime budget: 60 s
    (about 8 s on a 2-vCPU host)."""
    rng = random.Random(83)
    words = [(c.fibers, c.moves, c.n0) for c in folding_words(rng, 24)]
    words += cycle_eval_words(rng) + multi_handle_words(rng, 8) + twist_run_words(rng, 6)
    words += surgery_order_words(rng)
    assert max(max(fibers) for fibers, _, _ in words) == 4
    mirrored = 0  # evaluations that take a nonzero share of their value from k > g_r
    for fibers, moves, n0 in words:
        for cycle in rotations(fibers, moves, n0):
            low = min(cycle.fibers)
            values = []
            for degree in range(2 * low + 2):
                shifted = MorseCycle(cycle.fibers, cycle.moves, degree + cycle.fibers[0] - low)
                values.append(_oracle_evaluate_cycle(shifted))
                assert evaluate_cycle(shifted) == values[-1], shifted
            padded = [0, 0] + values
            t = [padded[k + 2] - 2 * padded[k + 1] + padded[k] for k in range(2 * low + 2)]
            assert t[2 * low + 1] == 0, cycle
            assert t[:2 * low + 1] == t[2 * low::-1], cycle
            for degree in range(low + 1, 2 * low + 2):
                top = range(low + 1, min(degree, 2 * low) + 1)
                mirrored += sum((degree - k + 1) * t[k] for k in top) != 0
    assert mirrored > 1000


CHILD_EVALUATE = """
import contextlib, io, json, sys, time
from lagmatch import cli
for path in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(["tqft-eval", "--input", path, "--json"])
        elapsed = time.perf_counter() - start
    print(json.dumps([code, json.loads(out.getvalue())["value"], elapsed]))
"""


def test_genus_eight_surgery_word_obeys_the_sign_rule_in_every_rotation(tmp_path):
    """down.twist.up.twist at genus 8 and n0 = 16, every rotation in-process
    in one child under a 1 GiB address-space limit: rotating past a surgery
    flips the sign, and each rotation answers within 1 s (the push took
    about 2 s at genus 6 and grew about sixteenfold per genus)."""
    import resource

    limit = 2**30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    rng = random.Random(82)
    fibers = [8, 7, 7, 8]
    moves = [
        ElementaryMove.down(random_primitive(rng, 16, spread=2)),
        ElementaryMove.twist(random_sp(rng, SymplecticLattice(7), length=14)),
        ElementaryMove.up(random_primitive(rng, 16, spread=2)),
        ElementaryMove.twist(random_sp(rng, SymplecticLattice(8), length=16)),
    ]
    paths = []
    for cycle in rotations(fibers, moves, 16):
        doc = {
            "n0": cycle.n0,
            "fibers": list(cycle.fibers),
            "moves": [
                {"kind": m.kind, "circle": list(m.circle)} if m.matrix is None
                else {"kind": "twist", "matrix": [list(row) for row in m.matrix.rows]}
                for m in cycle.moves
            ],
        }
        paths.append(tmp_path / f"rotation-{len(paths)}.json")
        paths[-1].write_text(json.dumps({"schema": "lagmatch-input@1", "morse_cycle": doc}))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("LAGMATCH_THREADS", None)
    out = subprocess.run(
        [sys.executable, "-c", CHILD_EVALUATE, *map(str, paths)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        preexec_fn=cap_memory,
    )
    assert out.returncode == 0, out.stderr
    rows = [json.loads(line) for line in out.stdout.splitlines()]
    assert len(rows) == 4
    base = int(rows[0][1])
    assert base != 0
    sign = 1
    for r, (code, value, elapsed) in enumerate(rows):
        if r:
            sign *= -1 if moves[r - 1].kind in ("down", "up") else 1
        assert code == 0
        assert int(value) == sign * base, r
        assert elapsed < 1.0, (r, elapsed)


# -- twist-only words: Macdonald's formula ---------------------------------


def test_twist_only_words_match_reference_composite():
    """The closed form equals the graded trace of the composite of lifts,
    sign included, up to and past the min(n0, 2g) cap."""
    rng = random.Random(43)
    for g in range(4):
        lat = SymplecticLattice(g)
        for n0 in range(2 * g + 3):
            count = rng.randint(1, 3)
            moves = [ElementaryMove.twist(random_sp(rng, lat)) for _ in range(count)]
            cycle = MorseCycle([g] * count, moves, n0)
            assert evaluate_cycle(cycle) == graded_trace(cycle), cycle


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_twist_only_direct_sum_of_torus_blocks():
    """Eight genus-1 blocks, conjugated dense: det(t - P) is the product of
    t^2 - tr_i t + 1, so sum_k (-1)^k (n0 - k + 1) tr Lambda^k P is known
    from the block traces alone."""
    rng = random.Random(44)
    g = 8
    lat = SymplecticLattice(g)
    rows = [[0] * (2 * g) for _ in range(2 * g)]
    poly = [1]  # coefficients of t^0, t^1, ...
    for i in range(g):
        block = [[1, 0], [0, 1]]
        for _ in range(rng.randint(1, 4)):
            step = rng.choice(([[1, 1], [0, 1]], [[1, 0], [1, 1]], [[1, -1], [0, 1]], [[1, 0], [-1, 1]]))
            block = [[sum(block[r][k] * step[k][c] for k in range(2)) for c in range(2)] for r in range(2)]
        (p, q), (r, s) = block
        rows[i][i], rows[i][g + i], rows[g + i][i], rows[g + i][g + i] = p, q, r, s
        poly = _poly_mul(poly, [1, -(p + s), 1])
    conj = random_sp(rng, lat, length=6)
    word = [inverse(conj), SpMatrix(lat, rows), conj]
    cycle_moves = [ElementaryMove.twist(m) for m in word]
    start = time.perf_counter()
    for n0 in (0, 1, 5, 2 * g, 2 * g + 3):
        # tr Lambda^k P = (-1)^k [t^(2g - k)] det(t - P)
        expected = sum((n0 - k + 1) * poly[2 * g - k] for k in range(min(n0, 2 * g) + 1))
        assert evaluate_cycle(MorseCycle([g] * 3, cycle_moves, n0)) == expected, n0
    assert time.perf_counter() - start < 1.0


def test_dense_genus_six_twist_answers_quickly():
    rng = random.Random(45)
    lat = SymplecticLattice(6)
    matrix = random_sp(rng, lat, length=12)
    assert sum(1 for row in matrix.rows for x in row if x) > 100
    cycle = MorseCycle([6], [ElementaryMove.twist(matrix)], 12)
    start = time.perf_counter()
    value = evaluate_cycle(cycle)
    assert time.perf_counter() - start < 0.05
    assert value == alexander_cycle_value(alexander_fibered(matrix), 12, 6)


# -- characteristic polynomials: power traces against Faddeev-LeVerrier ----


def _oracle_char_poly(rows):
    """Coefficients c[0..N] of det(tI - A) by Faddeev-LeVerrier, as first written."""
    N = len(rows)
    B = [[int(i == j) for j in range(N)] for i in range(N)]
    cs = [1]
    for k in range(1, N + 1):
        cols = list(zip(*B))
        AB = [[sum(map(operator.mul, row, col)) for col in cols] for row in rows]
        trace = sum(AB[i][i] for i in range(N))
        assert trace % k == 0
        ck = -(trace // k)
        cs.append(ck)
        B = [[x + ck if i == j else x for j, x in enumerate(row)] for i, row in enumerate(AB)]
    return [cs[N - m] for m in range(N + 1)]


def _macdonald(rows, n0):
    """sum_k (n0 - k + 1) c[2g - k] over k <= min(n0, 2g), c from the oracle."""
    c = _oracle_char_poly(rows)
    N = len(rows)
    return sum((n0 - k + 1) * c[N - k] for k in range(min(n0, N) + 1))


def test_char_poly_matches_faddeev_leverrier():
    """The half path of power traces agrees with the old algorithm on seeded products:
    the Faddeev-LeVerrier polynomial is palindromic, and its upper half is the
    Alexander form."""
    rng = random.Random(71)
    for N in range(0, 17, 2):
        lat = SymplecticLattice(N // 2)
        for _ in range(6):
            m = random_sp(rng, lat, length=rng.randint(1, 12))
            c = _oracle_char_poly(m.rows)
            assert c == c[::-1], (N, m.rows)
            assert alexander_fibered(m) == tuple(c[N // 2:]), (N, m.rows)


def test_alexander_cycle_value_is_macdonalds_sum():
    """The weighted coefficient sum of the Alexander form equals
    sum_k (n0 - k + 1) c[2g - k] with c from Faddeev-LeVerrier, up to and
    past the min(n0, 2g) cap."""
    rng = random.Random(73)
    for g in range(9):
        lat = SymplecticLattice(g)
        for _ in range(3):
            m = random_sp(rng, lat, length=rng.randint(1, 10))
            coeffs = alexander_fibered(m)
            for n0 in range(2 * g + 3):
                assert alexander_cycle_value(coeffs, n0, g) == _macdonald(m.rows, n0), (g, n0, m.rows)


def test_float_entries_are_rejected_not_truncated():
    import numpy as np

    lat = SymplecticLattice(1)
    with pytest.raises(TypeError):
        SpMatrix(lat, [[1.9, 0], [0, 1.2]])
    with pytest.raises(TypeError):
        lat.check_vector((1.7, 0))
    with pytest.raises(TypeError):
        ElementaryMove.down((1.0, 0))
    with pytest.raises(TypeError):
        MorseCycle([1.0], [ElementaryMove.twist(SpMatrix.identity(lat))], 1)
    with pytest.raises(TypeError):
        MorseCycle([1], [ElementaryMove.twist(SpMatrix.identity(lat))], 1.0)
    # bools and numpy integers are integers
    assert SpMatrix(lat, [[True, False], [np.int64(0), 1]]).rows == ((1, 0), (0, 1))
    assert lat.check_vector((np.int32(1), False)) == (1, 0)
    assert ElementaryMove.up((np.int64(0), 1)).circle == (0, 1)


def test_tqft_eval_dense_genus_eight_two_twists_stays_bounded():
    """The top of the genus grid: two dense genus-8 twists at n0 = 16, in a
    child under a 1 GiB address-space limit."""
    import resource

    limit = 2**30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    rng = random.Random(73)
    lat = SymplecticLattice(8)
    first, second = random_sp(rng, lat, length=12), random_sp(rng, lat, length=12)
    assert all(sum(1 for row in m.rows for x in row if x) > 150 for m in (first, second))
    cycle = {
        "n0": 16,
        "fibers": [8, 8],
        "moves": [{"kind": "twist", "matrix": [list(row) for row in m.rows]} for m in (first, second)],
    }
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("LAGMATCH_THREADS", None)
    out = subprocess.run(
        [sys.executable, "-m", "lagmatch", "tqft-eval", "--input", "-", "--json"],
        input=json.dumps({"schema": "lagmatch-input@1", "morse_cycle": cycle}),
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        preexec_fn=cap_memory,
    )
    assert out.returncode == 0, out.stderr
    assert int(json.loads(out.stdout)["value"]) == _macdonald((second @ first).rows, 16)


def test_tqft_eval_genus_five_surgery_word_stays_bounded():
    """down.twist.up.twist at genus 5 and n0 = 10, in a child under a 1 GiB
    address-space limit, equals the fiber-0 evaluation."""
    import resource

    limit = 2**30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    rng = random.Random(78)
    fibers = [5, 4, 4, 5]
    moves = [
        ElementaryMove.down(random_primitive(rng, 10, spread=2)),
        ElementaryMove.twist(random_sp(rng, SymplecticLattice(4), length=10)),
        ElementaryMove.up(random_primitive(rng, 10, spread=2)),
        ElementaryMove.twist(random_sp(rng, SymplecticLattice(5), length=12)),
    ]
    cycle = {
        "n0": 10,
        "fibers": fibers,
        "moves": [
            {"kind": m.kind, "circle": list(m.circle)} if m.matrix is None
            else {"kind": "twist", "matrix": [list(row) for row in m.matrix.rows]}
            for m in moves
        ],
    }
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("LAGMATCH_THREADS", None)
    out = subprocess.run(
        [sys.executable, "-m", "lagmatch", "tqft-eval", "--input", "-", "--json"],
        input=json.dumps({"schema": "lagmatch-input@1", "morse_cycle": cycle}),
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        preexec_fn=cap_memory,
    )
    assert out.returncode == 0, out.stderr
    expected = _oracle_evaluate_cycle(MorseCycle(fibers, moves, 10))
    assert expected != 0
    assert int(json.loads(out.stdout)["value"]) == expected
