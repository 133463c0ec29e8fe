"""Elementary-move maps, cycle evaluation, and the fibered cross-check."""

import itertools
import math
import random
import time
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
    theta_divided,
    transvection,
    wedge,
)
from lagmatch.symprod import SymClass, basis, cap_U_classical, cap_ext
from lagmatch.tqft import (
    _down_image,
    _twist_image,
    _up_image,
    AlexanderForm,
    ElementaryMove,
    MorseCycle,
    NonClosingCycle,
    SymLinearMap,
    SymSpace,
    alexander_cycle_value,
    alexander_fibered,
    connected_sum_invariant,
    cycle_composite,
    down_map,
    evaluate_cycle,
    twist_map,
    up_map,
    weighted_exterior_dimension,
    worked_example,
)

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


# -- spaces and twist maps ------------------------------------------------


def test_space_dimension_matches_basis():
    for g in range(3):
        lat = SymplecticLattice(g)
        for n in range(4):
            assert SymSpace(n, lat).dim == len(basis(n, lat))


def test_twist_by_identity_is_identity():
    lat = SymplecticLattice(2)
    t = twist_map(SpMatrix.identity(lat), 2)
    for j, key in enumerate(t.src.monomials):
        col = [t.rows[i][j] for i in range(t.src.dim)]
        assert col == [Fraction(1) if i == j else Fraction(0) for i in range(t.src.dim)]


def test_twist_is_functorial():
    rng = random.Random(30)
    lat = SymplecticLattice(1)
    for _ in range(40):
        m = random_sp(rng, lat, length=3)
        k = random_sp(rng, lat, length=3)
        n = rng.randint(0, 2)
        assert (twist_map(m, n) @ twist_map(k, n)).rows == twist_map(m @ k, n).rows


# -- frozen supertrace values --------------------------------------------


def test_single_twist_goldens():
    assert evaluate_cycle(twist_cycle(1, 1, ANOSOV)) == -1
    assert evaluate_cycle(twist_cycle(1, 2, ANOSOV)) == -2
    assert evaluate_cycle(twist_cycle(1, 1, [[1, 0], [0, 1]])) == 0
    assert evaluate_cycle(twist_cycle(0, 2, [])) == 3
    assert evaluate_cycle(twist_cycle(0, 4, [])) == 5


def test_alexander_goldens():
    assert alexander_fibered(ANOSOV).coeffs == (Fraction(-3), Fraction(1))
    ident = SpMatrix(SymplecticLattice(1), [[1, 0], [0, 1]])
    assert alexander_fibered(ident).coeffs == (Fraction(-2), Fraction(1))
    assert alexander_fibered([]).coeffs == (Fraction(1),)


def test_alexander_form_symmetric_extension():
    form = AlexanderForm([-3, 1])
    assert form.degree == 1
    assert form.a(1) == form.a(-1) == 1
    assert form.a(0) == -3
    assert form.a(5) == 0


def test_weighted_sum_goldens():
    assert alexander_cycle_value(AlexanderForm([-3, 1]), 1, 1) == -1
    assert alexander_cycle_value(AlexanderForm([-3, 1]), 2, 1) == -2
    assert alexander_cycle_value(AlexanderForm([1]), 3, 0) == 4


def test_fibered_equality_random():
    """Supertrace of a single twist equals the weighted coefficient sum."""
    rng = random.Random(31)
    for g in (0, 1, 2):
        lat = SymplecticLattice(g)
        for n in (0, 1, 2):
            for _ in range(8):
                m = random_sp(rng, lat)
                lhs = evaluate_cycle(MorseCycle([g], [ElementaryMove.twist(m)], n))
                rhs = alexander_cycle_value(alexander_fibered(m), n, g)
                assert lhs == rhs, (g, n, m.rows)


# -- surgery maps ---------------------------------------------------------


def test_move_images_match_exterior_reference():
    """Each move's integer image on every e_S agrees with contract, wedge and
    ext_power_action, which no evaluation path calls."""
    rng = random.Random(62)
    for g in range(4):
        lat, target = SymplecticLattice(g), SymplecticLattice(g + 1)
        include = LatticeProjection.include_after_first_pair(lat)
        a1 = ExtElement.generator(target, 0)
        monomials = [
            s for k in range(lat.rank + 1) for s in itertools.combinations(range(lat.rank), k)
        ]
        for _ in range(3):
            twist = random_sp(rng, lat)
            twist_image = _twist_image(twist)
            up_circle = random_primitive(rng, target.rank)
            up_frame_inv = adapted_basis(target, up_circle).inverse()
            up_image = _up_image(up_circle, lat)
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
            down_image = _down_image(down_circle, lat)
            for s in monomials:
                e_s = ExtElement(lat, {s: 1})
                want = contract(lat.basis_vector(0), ext_power_action(frame, e_s), kill)
                assert down_image(s) == want.terms, (down_circle, s)
        separating_up = _up_image((0,) * target.rank, lat)
        separating_down = _down_image((0,) * lat.rank, lat) if g else None
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
    assert all(all(c == 0 for c in row) for row in d.rows)
    u = up_map((0,) * 6, 1, lat)
    assert all(all(c == 0 for c in row) for row in u.rows)


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
    degs = comp.src.degrees()
    for r in range(comp.src.dim):
        for c in range(comp.src.dim):
            if degs[r] != degs[c]:
                assert comp.rows[r][c] == 0


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
    with pytest.raises(NonClosingCycle):
        down_map((0,) * 0, 1, SymplecticLattice(0))
    with pytest.raises(NonClosingCycle):
        down_map((1, 0), 0, SymplecticLattice(1))


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
    """Degree-by-degree evaluation equals the graded trace of the dense composite."""
    rng = random.Random(37)
    cycles = []
    for trial in range(48):
        kind = trial % 4
        if kind == 0:
            g, n0 = rng.randint(0, 3), rng.randint(0, 3)
            lat = SymplecticLattice(g)
            moves = [ElementaryMove.twist(random_sp(rng, lat)) for _ in range(rng.randint(1, 2))]
            cycles.append(MorseCycle([g] * len(moves), moves, n0))
            continue
        g = rng.randint(1, 3)
        n0 = rng.randint(1, 2 if g == 3 else 3)
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
        comp = cycle_composite(cycle)
        reference = sum(
            (-1) ** len(subset) * comp.rows[r][r]
            for r, (_, subset) in enumerate(comp.src.monomials)
        )
        assert evaluate_cycle(cycle) == reference, cycle


def test_worked_examples_at_large_parameters():
    start = time.perf_counter()
    report = worked_example("s2xs2", 1000, 1000)
    assert (report.value, report.monomial) == (1, "U^1000")
    report = worked_example("s1s3-sum", 1000, 1000)
    assert (report.value, report.monomial) == (-1, "U^999 lambda")
    assert time.perf_counter() - start < 1.0


def graded_trace(cycle):
    comp = cycle_composite(cycle)
    return sum(
        (-1) ** len(subset) * comp.rows[r][r]
        for r, (_, subset) in enumerate(comp.src.monomials)
    )


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
            g = rng.randint(0, 3)
            n0 = rng.randint(0, 2 if g == 3 else 3)
            moves = twists(g, 2, 3)
            words.append(MorseCycle([g] * len(moves), moves, n0))
            continue
        if kind == 1:
            # twists, down, twists, up, twists around a genus g >= 1 fiber
            g = rng.randint(1, 3)
            runs = [twists(g, 0, 2), twists(g - 1, 1, 2), twists(g, 0, 2)]
            moves = runs[0] + [ElementaryMove.down(circle(2 * g))] + runs[1]
            moves += [ElementaryMove.up(circle(2 * g))] + runs[2]
            fibers = [g] * (len(runs[0]) + 1) + [g - 1] * (len(runs[1]) + 1) + [g] * len(runs[2])
        else:
            # up from a fiber of genus g >= 0, twists above, down again
            g = rng.randint(0, 2)
            runs = [twists(g, 0, 2), twists(g + 1, 1, 2)]
            moves = runs[0] + [ElementaryMove.up(circle(2 * g + 2))] + runs[1]
            moves += [ElementaryMove.down(circle(2 * g + 2))]
            fibers = [g] * (len(runs[0]) + 1) + [g + 1] * (len(runs[1]) + 1)
        # the degree over the top fiber; the reference composite costs
        # seconds at genus 3 and degree 3
        top = max(fibers)
        nu_top = rng.randint(1, 2 if top == 3 else 3)
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
