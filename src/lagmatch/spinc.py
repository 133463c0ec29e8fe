"""Spin-c structures on broken fibration descriptors.

A descriptor records the combinatorics of a broken fibration over S^2 (or
another base): fibered regions with their base Euler characteristics and
fiber components, round-handle circles (which contribute nothing to the
Euler characteristic but are tracked with their orientability), isolated
Lefschetz critical points, the signature, and a user-supplied model of H^2
(intersection form plus the canonical class of the fibration, both in the
same fixed basis).

Spin-c structures are recorded through c_1 in the dual coordinates of that
basis: the j-th coordinate is the pairing of c_1 with the j-th basis
class, so pairings are plain dot products and the characteristic condition
is the componentwise congruence c_j = Q_jj mod 2.

All arithmetic is exact.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .bareiss import Bareiss


class DescriptorError(ValueError):
    """The fibration descriptor is internally inconsistent."""


class InadmissibleError(ValueError):
    """A nu-value came out negative or non-integral."""


class FiberComponent(NamedTuple):
    genus: int
    h2_class: tuple[int, ...] | None = None


class Region(NamedTuple):
    chi_base: int
    fibers: tuple[FiberComponent, ...]

    @property
    def fiber_chi(self) -> int:
        return sum(2 - 2 * comp.genus for comp in self.fibers)


@dataclass(frozen=True)
class H2Model:
    form: tuple[tuple[int, ...], ...]
    canonical: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.form)

    @functools.cached_property
    def elimination(self) -> Bareiss:
        """The form's one fraction-free elimination: det Q, and Q^{-1} c for every c."""
        return Bareiss(self.form)


class SpinC(NamedTuple):
    """A spin-c structure, recorded through c_1 in dual coordinates."""

    c1: tuple[int, ...]


class FibrationDescriptor:
    __slots__ = ("regions", "round_circles", "lefschetz_points", "signature", "h2")

    def __init__(
        self,
        regions: Sequence[Region],
        round_circles: Sequence[bool],
        lefschetz_points: int,
        signature: int,
        h2: H2Model,
    ):
        rank = h2.rank
        if any(len(row) != rank for row in h2.form):
            raise DescriptorError("intersection form must be square")
        if any(h2.form[i][j] != h2.form[j][i] for i in range(rank) for j in range(rank)):
            raise DescriptorError("intersection form must be symmetric")
        if len(h2.canonical) != rank:
            raise DescriptorError("canonical class has the wrong length")
        if any((h2.canonical[j] - h2.form[j][j]) % 2 for j in range(rank)):
            raise DescriptorError("canonical class must be characteristic")
        if not h2.elimination.det:
            raise DescriptorError("intersection form must be nonsingular")
        for r, region in enumerate(regions):
            if not region.fibers:
                raise DescriptorError(f"region {r} has no fiber components")
            if len(region.fibers) > 2:
                raise DescriptorError(f"region {r} has more than two fiber components")
            for comp in region.fibers:
                if comp.genus < 0:
                    raise DescriptorError(f"region {r} has a negative-genus component")
                if comp.h2_class is not None and len(comp.h2_class) != rank:
                    raise DescriptorError(f"region {r} carries a class of the wrong length")
            if len(region.fibers) == 1 and region.fibers[0].h2_class is not None:
                v = region.fibers[0].h2_class
                if _pair_qf(h2.form, v, v) != 0:
                    raise DescriptorError(
                        f"region {r}: a full fiber class must have self-intersection 0"
                    )
        if lefschetz_points < 0:
            raise DescriptorError("lefschetz point count must be nonnegative")
        self.regions = tuple(regions)
        self.round_circles = tuple(bool(b) for b in round_circles)
        self.lefschetz_points = operator.index(lefschetz_points)
        self.signature = operator.index(signature)
        self.h2 = h2


def _shown(x: int | Fraction) -> str:
    """str(x), or the ends and length of each integer too long for str()."""
    try:
        return str(x)
    except ValueError:  # more digits than the interpreter's int_max_str_digits
        if x.denominator != 1:
            return f"{_shown(x.numerator)}/{_shown(x.denominator)}"
        m = abs(x.numerator)
        digits = int((m.bit_length() - 1) * math.log10(2)) + 1
        digits += m >= 10**digits
        return f"{'-' * (x < 0)}{m // 10 ** (digits - 6)}...{m % 10**6:06d} ({digits} digits)"


def _pair_qf(form: Sequence[Sequence[int]], v: Sequence[int], w: Sequence[int]) -> int:
    return sum(v[i] * form[i][j] * w[j] for i in range(len(v)) for j in range(len(w)))


def pairing(c1: Sequence[int], h2_class: Sequence[int]) -> int:
    """<c_1, v> for c_1 in dual coordinates: a plain dot product."""
    if len(c1) != len(h2_class):
        raise ValueError("coordinate lengths differ")
    return sum(operator.index(a) * operator.index(b) for a, b in zip(c1, h2_class))


def euler_characteristic(descriptor: FibrationDescriptor) -> int:
    """chi of the total space: fibered regions plus Lefschetz points.

    Round-handle circles contribute zero regardless of orientability.
    """
    total = sum(region.chi_base * region.fiber_chi for region in descriptor.regions)
    return total + descriptor.lefschetz_points


def is_characteristic(spinc: SpinC, h2: H2Model) -> bool:
    return len(spinc.c1) == h2.rank and all(
        (spinc.c1[j] - h2.form[j][j]) % 2 == 0 for j in range(h2.rank)
    )


def c1_squared(spinc: SpinC, h2: H2Model) -> int:
    """c_1^2 = c_1 . Q^{-1} c_1 from the form's elimination; must come out an integer."""
    elimination = h2.elimination
    if not elimination.det:
        raise DescriptorError("intersection form is singular")
    adj_c1 = elimination.adjugate_times(spinc.c1)
    value = Fraction(sum(map(operator.mul, spinc.c1, adj_c1)), elimination.det)
    if value.denominator != 1:
        raise DescriptorError(f"c_1^2 = {_shown(value)} is not an integer in this H^2 model")
    return int(value)


def formal_dimension_core(c1_sq: int, chi: int, sigma: int) -> int:
    """(c_1^2 - 2 chi - 3 sigma)/4, which must be an integer."""
    num = c1_sq - 2 * chi - 3 * sigma
    if num % 4:
        raise DescriptorError(
            f"formal dimension (c1^2 - 2chi - 3sigma)/4 = {_shown(num)}/4 is not an integer"
        )
    return num // 4


def formal_dimension(
    spinc: SpinC, descriptor: FibrationDescriptor, c1_sq: int | None = None
) -> int:
    """Expected dimension of the moduli space attached to the spin-c structure.

    ``c1_sq`` is ``c1_squared(spinc, descriptor.h2)`` for a caller that
    already holds it; otherwise it is computed here.
    """
    if not is_characteristic(spinc, descriptor.h2):
        raise DescriptorError("c_1 is not characteristic for the intersection form")
    if c1_sq is None:
        c1_sq = c1_squared(spinc, descriptor.h2)
    return formal_dimension_core(c1_sq, euler_characteristic(descriptor), descriptor.signature)


def taubes_convert(beta: Sequence[int], descriptor: FibrationDescriptor) -> SpinC:
    """Spin-c structure of a class beta: c_1 = canonical + 2 beta, coordinatewise."""
    h2 = descriptor.h2
    if len(beta) != h2.rank:
        raise ValueError("beta has the wrong length")
    return SpinC(tuple(h2.canonical[j] + 2 * operator.index(beta[j]) for j in range(h2.rank)))


def fiber_pairings(spinc: SpinC, descriptor: FibrationDescriptor) -> list[int]:
    """<c_1, full fiber> per region (components summed); classes required."""
    out = []
    for r, region in enumerate(descriptor.regions):
        total = 0
        for comp in region.fibers:
            if comp.h2_class is None:
                raise DescriptorError(f"region {r} needs fiber classes in the H^2 model")
            total += pairing(spinc.c1, comp.h2_class)
        out.append(total)
    return out


def common_fiber_pairing(spinc: SpinC, descriptor: FibrationDescriptor) -> int:
    """The region-independent value <c_1, fiber>; raises if regions disagree."""
    values = fiber_pairings(spinc, descriptor)
    if len(set(values)) > 1:
        raise DescriptorError(
            f"<c_1, fiber> differs across regions: [{', '.join(map(_shown, values))}]; "
            "descriptor and c_1 are inconsistent"
        )
    return values[0]


def nu_function(fiber_chis: Sequence[int], two_d: int) -> list[int]:
    """Per-region symmetric-product degrees nu = (two_d - chi)/2.

    ``two_d`` is the constant pairing <c_1, fiber>.  A parity mismatch or a
    negative degree is an inadmissibility signal.
    """
    out = []
    for chi in fiber_chis:
        if (two_d - chi) % 2:
            raise InadmissibleError(
                f"pairing {_shown(two_d)} and fiber chi {_shown(chi)} have distinct parity"
            )
        nu = (two_d - chi) // 2
        if nu < 0:
            raise InadmissibleError(f"negative symmetric-product degree nu = {_shown(nu)}")
        out.append(nu)
    return out


class RegionVerdict(NamedTuple):
    index: int
    verdict: str  # "monotone" | "negative" | "inadmissible"
    detail: str


class AdmissibilityReport(NamedTuple):
    regime: str  # "monotone" | "negative" | "inadmissible"
    regions: tuple[RegionVerdict, ...]


def admissibility(spinc: SpinC, descriptor: FibrationDescriptor) -> AdmissibilityReport:
    """Classify a spin-c structure into the monotone or negative regime.

    Per region, every fiber component F must satisfy <c_1, F> >= chi(F).
    A connected fiber is monotone when <c_1, F> > 0 and negative when
    2 <c_1, F> <= chi(F).  A two-component fiber only has the negative
    option, componentwise: chi(F_i) <= <c_1, F_i> and 2 <c_1, F_i> <= chi(F_i).
    Anything else is inadmissible, as is a mix of monotone and negative
    regions (which the constant fiber pairing rules out anyway).
    """
    verdicts: list[RegionVerdict] = []
    for r, region in enumerate(descriptor.regions):
        pairs = []
        chis = []
        for comp in region.fibers:
            if comp.h2_class is None:
                raise DescriptorError(f"region {r} needs fiber classes for admissibility")
            pairs.append(pairing(spinc.c1, comp.h2_class))
            chis.append(2 - 2 * comp.genus)
        floor_fail = [i for i in range(len(pairs)) if pairs[i] < chis[i]]
        if floor_fail:
            i = floor_fail[0]
            detail = f"component {i}: pairing {_shown(pairs[i])} < chi {_shown(chis[i])}"
            verdicts.append(RegionVerdict(r, "inadmissible", detail))
            continue
        if len(pairs) == 1:
            p, chi = pairs[0], chis[0]
            if p > 0:
                verdicts.append(RegionVerdict(r, "monotone", f"pairing {_shown(p)} > 0"))
            elif 2 * p <= chi:
                detail = f"2*pairing {_shown(2 * p)} <= chi {_shown(chi)}"
                verdicts.append(RegionVerdict(r, "negative", detail))
            else:
                detail = f"pairing {_shown(p)} in the excluded band (chi/2, 0]"
                verdicts.append(RegionVerdict(r, "inadmissible", detail))
        else:
            bad = [i for i in range(2) if 2 * pairs[i] > chis[i]]
            if bad:
                i = bad[0]
                detail = f"component {i} has 2*pairing {_shown(2 * pairs[i])} > chi {_shown(chis[i])}"
                verdicts.append(RegionVerdict(r, "inadmissible", f"two-component fiber: {detail}"))
            else:
                verdicts.append(RegionVerdict(r, "negative", "two-component negative clause"))
    kinds = {v.verdict for v in verdicts}
    if "inadmissible" in kinds:
        regime = "inadmissible"
    elif kinds == {"monotone"}:
        regime = "monotone"
    elif "monotone" in kinds:
        regime = "inadmissible"  # mixed regimes cannot coexist; defensive
    else:
        regime = "negative"
    return AdmissibilityReport(regime, tuple(verdicts))


def grading_modulus(coords: Sequence[int]) -> int:
    """gcd of the coordinates; 0 for the zero vector (fully torsion case)."""
    return math.gcd(*coords)


def _divides(a: int, b: int) -> bool:
    if a == 0:
        return b == 0
    return b % a == 0


def divisibility_check(c1_coords: Sequence[int], n_gamma: int, n: int, g: int) -> bool:
    """Compatibility of the grading modulus with a section count.

    Torsion case first: modulus 0 with n_gamma = 0 passes outright.
    Otherwise the modulus must divide 2 n_gamma and n_gamma must divide
    n + 1 - g (0 divides only 0 throughout).
    """
    div = grading_modulus(c1_coords)
    if div == 0 and n_gamma == 0:
        return True
    return _divides(div, 2 * n_gamma) and _divides(n_gamma, n + 1 - g)
