"""Closed forms that the benchmark checks lagmatch against.

Nothing here imports lagmatch: every expected value is computed apart
from the program, from the input document or from a formula.

- ``macdonald_coefficient``: the t^n0 coefficient of det(1 - tP)/(1 - t)^2
  (Macdonald, *Symmetric products of an algebraic curve*, Topology 1962),
  the Lefschetz number of a monodromy P on Sym^n0 of the fiber.  The
  characteristic polynomial comes from integer principal minors
  (Bareiss fraction-free elimination), not from Faddeev-LeVerrier.
- ``alexander_weighted_sum``: the weighted coefficient sum of the
  Alexander form, which agrees with the single-twist value up to sign.
- ``state_space_dim``: sum_k (nu + 1 - k) C(2g, k).
- ``dim_entry``: c1, c1^2 = c1^T Q^-1 c1, the formal dimension
  (c1^2 - 2 chi - 3 sigma)/4, the fiber pairing and nu, read from a
  descriptor document.
- ``grading_modulus`` and ``divisibility_ok``.
- Conley-Zehnder closed forms: k half-turns of a rotation have index k
  (k odd, so the end is nondegenerate), a hyperbolic path has index 0,
  and a direct sum adds.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

Matrix = Sequence[Sequence[int]]


# -- integer linear algebra ------------------------------------------


def bareiss_det(rows: Matrix) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Exact by Sylvester's identity.
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def elementary_traces(rows: Matrix) -> list[int]:
    """e_k = tr Lambda^k P = sum of the k x k principal minors, k = 0..N."""
    n = len(rows)
    out = [1]
    for k in range(1, n + 1):
        total = 0
        for idx in itertools.combinations(range(n), k):
            total += bareiss_det([[rows[i][j] for j in idx] for i in idx])
        out.append(total)
    return out


def det_one_minus_tp(rows: Matrix) -> list[int]:
    """Coefficients of det(1 - tP) in t, lowest degree first."""
    return [(-1) ** k * e for k, e in enumerate(elementary_traces(rows))]


def charpoly(rows: Matrix) -> list[int]:
    """Coefficients c[0..N] of det(tI - P), lowest degree first."""
    n = len(rows)
    e = elementary_traces(rows)
    return [(-1) ** (n - m) * e[n - m] for m in range(n + 1)]


def macdonald_coefficient(rows: Matrix, n0: int) -> int:
    """[t^n0] det(1 - tP) / (1 - t)^2, using 1/(1-t)^2 = sum (j+1) t^j."""
    p = det_one_minus_tp(rows)
    return sum(p[k] * (n0 - k + 1) for k in range(min(n0, len(p) - 1) + 1))


def alexander_coefficients(rows: Matrix) -> list[int]:
    """(a_0..a_g) of det(tI - P)/t^g, trailing zeros trimmed, top entry positive."""
    c = charpoly(rows)
    g = len(rows) // 2
    coeffs = [c[g + m] for m in range(g + 1)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if coeffs[-1] < 0:
        coeffs = [-x for x in coeffs]
    return coeffs


def alexander_weighted_sum(coeffs: Sequence[int], n0: int, g: int) -> int:
    """sum_{i >= 1} i a(g - 1 - n0 + i), with a(-m) = a(m) and a = 0 past the top."""
    top = len(coeffs) - 1

    def a(m: int) -> int:
        return coeffs[abs(m)] if abs(m) <= top else 0

    d = g - 1 - n0
    return sum(i * a(d + i) for i in range(1, top - d + 1))


def matmul(a: Matrix, b: Matrix) -> list[list[int]]:
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def omega(g: int, x: Sequence[int], y: Sequence[int]) -> int:
    """The standard symplectic pairing on Z^2g: a_i . b_i = 1."""
    return sum(x[i] * y[g + i] - x[g + i] * y[i] for i in range(g))


def transvection(g: int, v: Sequence[int], c: int) -> list[list[int]]:
    """Matrix of x -> x + c (x . v) v; symplectic for every integer c."""
    n = 2 * g
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(n):
        e_j = [int(i == j) for i in range(n)]
        pair = omega(g, e_j, v)
        for i in range(n):
            rows[i][j] += c * pair * v[i]
    return rows


def is_symplectic(g: int, rows: Matrix) -> bool:
    n = 2 * g
    cols = [[rows[i][j] for i in range(n)] for j in range(n)]
    return all(
        omega(g, cols[i], cols[j]) == (1 if j == i + g else -1 if i == j + g else 0)
        for i in range(n)
        for j in range(n)
    )


# -- state spaces -----------------------------------------------------


def state_space_dim(nu: int, g: int) -> int:
    """Dimension of H^*(Sym^nu) of a genus-g surface: sum_k (nu+1-k) C(2g, k)."""
    return sum((nu + 1 - k) * math.comb(2 * g, k) for k in range(min(nu, 2 * g) + 1))


def cycle_dims(n0: int, fibers: Sequence[int]) -> list[int]:
    """State-space dimension over every fiber of a cycle: nu_j = n0 + g_j - g_0."""
    return [state_space_dim(n0 + g - fibers[0], g) for g in fibers]


# -- spin-c data from a descriptor document ----------------------------


def _solve(form: Matrix, rhs: Sequence[int]) -> list[Fraction]:
    """x with Q x = rhs, by Cramer's rule on Bareiss determinants."""
    det = bareiss_det(form)
    n = len(form)
    out = []
    for col in range(n):
        swapped = [[rhs[i] if j == col else form[i][j] for j in range(n)] for i in range(n)]
        out.append(Fraction(bareiss_det(swapped), det))
    return out


def euler_characteristic(fibration: dict) -> int:
    chi = sum(
        int(region["chi_base"]) * sum(2 - 2 * int(f["genus"]) for f in region["fibers"])
        for region in fibration["regions"]
    )
    return chi + int(fibration.get("lefschetz_points", 0))


def c1_of(entry: dict, fibration: dict | None) -> list[int]:
    if "c1" in entry:
        return [int(x) for x in entry["c1"]]
    canonical = fibration["h2"]["canonical"]
    return [int(k) + 2 * int(b) for k, b in zip(canonical, entry["beta"])]


def dim_entry(entry: dict, fibration: dict) -> dict:
    """Expected fields of one ``dim`` report entry."""
    form = [[int(x) for x in row] for row in fibration["h2"]["form"]]
    c1 = c1_of(entry, fibration)
    c1_sq = sum(Fraction(c) * x for c, x in zip(c1, _solve(form, c1)))
    chi = euler_characteristic(fibration)
    sigma = int(fibration.get("signature", 0))
    num = c1_sq - 2 * chi - 3 * sigma
    pairing = sum(
        c * int(x)
        for f in fibration["regions"][0]["fibers"]
        for c, x in zip(c1, f["class"])
    )
    nu = [
        (pairing - sum(2 - 2 * int(f["genus"]) for f in region["fibers"])) // 2
        for region in fibration["regions"]
    ]
    return {
        "c1": c1,
        "c1_squared": int(c1_sq),
        "formal_dimension": Fraction(num, 4),
        "fiber_pairing": pairing,
        "nu": nu,
    }


def grading_modulus(c1: Sequence[int]) -> int:
    return math.gcd(*c1)


def divisibility_ok(c1: Sequence[int], n_gamma: int, n: int, g: int) -> bool:
    """modulus | 2 n_gamma and n_gamma | n + 1 - g; torsion with n_gamma = 0 passes."""
    d = grading_modulus(c1)
    if d == 0 and n_gamma == 0:
        return True

    def divides(a: int, b: int) -> bool:
        return b == 0 if a == 0 else b % a == 0

    return divides(d, 2 * n_gamma) and divides(n_gamma, n + 1 - g)


# -- Conley-Zehnder closed forms ----------------------------------------


def rotation_path(half_turns: int, count: int) -> list[list[list[float]]]:
    """exp(i pi k t) on R^2, t in [0, 1]; index k for odd k."""
    out = []
    for i in range(count):
        th = half_turns * math.pi * i / (count - 1)
        out.append([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    return out


def hyperbolic_path(rate: float, count: int) -> list[list[list[float]]]:
    """diag(e^{rt}, e^{-rt}); no crossing after t = 0, index 0."""
    out = []
    for i in range(count):
        t = rate * i / (count - 1)
        out.append([[math.exp(t), 0.0], [0.0, math.exp(-t)]])
    return out


def direct_sum(a: Matrix, b: Matrix) -> list[list[float]]:
    """Block sum of two 2x2 symplectic matrices in (a1, a2, b1, b2) coordinates."""
    return [
        [a[0][0], 0.0, a[0][1], 0.0],
        [0.0, b[0][0], 0.0, b[0][1]],
        [a[1][0], 0.0, a[1][1], 0.0],
        [0.0, b[1][0], 0.0, b[1][1]],
    ]


def cz_index(parts: Sequence[tuple[str, int]]) -> int:
    """Index of a direct sum of ('rotation', k) and ('hyperbolic', _) factors."""
    total = 0
    for kind, k in parts:
        if kind == "rotation":
            if k % 2 == 0:
                raise ValueError("an even number of half-turns ends degenerate")
            total += k
        elif kind != "hyperbolic":
            raise ValueError(f"no closed form for {kind!r}")
    return total
