"""Sym-level and matrix references that the tests compare the package against.

No path of ``lagmatch`` needs these: ``evaluate_cycle`` reads a word from
one bordered determinant and composes no maps.  The matrices here are
built through the checked ``SpMatrix`` constructor, so each stays an
independent reference.
"""

from lagmatch import tqft
from lagmatch.exterior import LatticeProjection, SpMatrix


def intersection_form(lattice):
    """The matrix J itself, as dense rows."""
    g = lattice.genus
    rows = [[0] * lattice.rank for _ in range(lattice.rank)]
    for i in range(g):
        rows[i][g + i] = 1
        rows[g + i][i] = -1
    return rows


def inverse(matrix):
    """The symplectic inverse M^{-1} = -J M^T J, through the checked constructor.

    For M = [[A, B], [C, D]] in g x g blocks this is [[D^T, -B^T], [-C^T, A^T]].
    """
    g = matrix.lattice.genus
    cols = list(zip(*matrix.rows))
    rows = [col[g:] + tuple(-x for x in col[:g]) for col in cols[g:]]
    rows += [tuple(-x for x in col[g:]) + col[:g] for col in cols[:g]]
    return SpMatrix(matrix.lattice, rows)


def insert_a1(lattice):
    """e_S -> a_1 ^ e_S, with S included after the first pair, genus g -> g+1."""
    include = LatticeProjection.include_after_first_pair(lattice)
    return lambda s: {(0,) + include.map_subset(s): 1}


def after_first_pair(matrix):
    """1 + M on genus g + 1: M on the handles after the first pair, which it fixes.

    The a_1 insertion intertwines the two: a_1 ^ (M x) = (1 + M)(a_1 ^ x).
    """
    include = LatticeProjection.include_after_first_pair(matrix.lattice)
    rank = include.target.rank
    rows = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for i, row in zip(include.images, matrix.rows):
        for j, x in zip(include.images, row):
            rows[i][j] = x
    return SpMatrix(include.target, rows)


def twist_map(matrix, n):
    """The endomorphism of Sym^n induced by a fiberwise diffeomorphism."""
    return tqft._lift(tqft.ElementaryMove.twist(matrix), n, matrix.lattice.genus)


def cycle_composite(cycle):
    """The composite endomorphism of the fiber-0 space, last move outermost.

    Each move is lifted through ``tqft.move_matrix`` and composed with
    ``@``, the names the benchmark's tracer wraps.
    """
    composite = None
    for j in range(len(cycle.moves)):
        step = tqft.move_matrix(cycle, j)
        composite = step if composite is None else step @ composite
    if composite.src != composite.dst:
        raise tqft.NonClosingCycle("cycle does not return to its starting fiber")
    return composite
