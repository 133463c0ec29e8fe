"""Fraction-free (Bareiss) elimination of a square integer matrix.

One elimination gives det A and then solves A x = b for any number of
right-hand sides.  Every entry the elimination writes is a minor of A, or
of A with b as an extra column (Sylvester's identity), so each division
is exact and no entry grows past the size of those minors; Fraction
Gauss-Jordan would take a gcd for every entry it writes instead.
"""

from __future__ import annotations

import operator
from typing import Sequence


class Bareiss:
    """The elimination of one square integer matrix A, kept for its solves.

    ``det`` is det A.  When it is not zero, ``adjugate_times(b)`` is
    adj(A) b, the integer vector det(A) x for the solution x of A x = b.
    """

    __slots__ = ("det", "_steps")

    def __init__(self, rows: Sequence[Sequence[int]]):
        # One step per column k: the row swapped into place k, the pivot
        # row from column k on, and the column-k entries below the pivot.
        steps: list[tuple[int, list[int], list[int]]] = []
        rest = [list(row) for row in rows]  # rows k.. of the matrix, from column k on
        sign = prev = 1
        while rest:
            k = len(steps)
            p = next((r for r, row in enumerate(rest) if row[0]), None)
            if p is None:
                self.det = 0
                self._steps = steps
                return
            if p:
                rest[0], rest[p] = rest[p], rest[0]
                sign = -sign
            top = rest[0]
            pivot, tail = top[0], top[1:]
            below = [row[0] for row in rest[1:]]
            rest = [
                [(pivot * x - m * y) // prev for x, y in zip(row[1:], tail)]
                for row, m in zip(rest[1:], below)
            ]
            steps.append((k + p, top, below))
            prev = pivot
        self.det = sign * prev
        self._steps = steps

    def adjugate_times(self, b: Sequence[int]) -> list[int]:
        """adj(A) b, the integers det(A) x with A x = b; A must be nonsingular."""
        n = len(self._steps)
        if not self.det:
            raise ValueError("the matrix is singular")
        if len(b) != n:
            raise ValueError(f"right-hand side of length {len(b)} for a {n}x{n} matrix")
        y = list(b)
        prev = 1
        for k, (p, top, below) in enumerate(self._steps):  # replay the elimination on b
            y[k], y[p] = y[p], y[k]
            pivot, yk = top[0], y[k]
            y[k + 1:] = [(pivot * yi - m * yk) // prev for yi, m in zip(y[k + 1:], below)]
            prev = pivot
        # Back substitution on the triangle: each quotient is exact because
        # det(A) x is an integer vector (Cramer's rule).
        x = [0] * n
        for k in reversed(range(n)):
            top = self._steps[k][1]
            x[k] = (self.det * y[k] - sum(map(operator.mul, top[1:], x[k + 1:]))) // top[0]
        return x
