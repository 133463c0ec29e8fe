"""lagmatch: exact invariants of broken fibrations on four-manifolds.

The package has eight modules below the command line, bottom to top:

``exterior``
    Exact exterior algebra over the first homology of a surface, with the
    symplectic intersection pairing, contraction along a circle, induced
    actions of symplectic matrices, and integer symplectic basis completion.

``symprod``
    The monomial model of the cohomology of symmetric products of a
    surface, with the cap actions (mu-classes, U in its classical and
    quantum regimes) and the restriction classes of the universal family.

``tqft``
    Elementary cobordism maps (surgery down/up along a circle, fiberwise
    diffeomorphism twists), closed-cycle evaluation by graded supertrace,
    and the Alexander-polynomial form of the fibered case.

``bareiss``
    Fraction-free integer elimination: the determinant of a form and exact
    solves against it.

``spinc``
    Spin-c structures on a broken fibration descriptor: formal dimensions,
    the Taubes correspondence, admissibility regimes, grading moduli.

``czindex``
    Conley-Zehnder indices of sampled symplectic paths (the one floating
    point corner, guarded).

``schema``
    The versioned JSON Schema of input documents, and ``conforms``, the
    standard-library check that accepts the valid ones.

``fixtures``
    Small worked input documents, embedded in the package.

``cli`` exposes the ``lagmatch`` command.
"""

__version__ = "0.1.0"
