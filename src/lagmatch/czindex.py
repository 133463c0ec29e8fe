"""Conley-Zehnder indices of sampled symplectic paths.

This is the one corner of the package that works in floating point: paths
of symplectic matrices arrive as uniform time samples (from numerical
integration of a linearized flow, say), and the index is computed by the
crossing-count recipe.  A crossing is a time where det(Psi(t) - I)
vanishes; the path always crosses at t = 0 (it starts at the identity) and
must be nondegenerate at t = 1.  Each crossing contributes the signature
of the quadratic form omega(v, Psi'(t) v) on the kernel of Psi(t) - I,
halved at t = 0; the total is the index and must come out an integer.

Crossings are located two ways: sign changes of the determinant (odd
multiplicity) and parabolic near-tangencies (even multiplicity, e.g. a
full rotation, where the determinant touches zero without changing sign).
A tangency is only credited when the fitted parabola dips within half a
sample step of zero, so eigenvalues that pass close to 1 without reaching
it are resolved correctly once the sampling is fine enough - and when it
is not, the guards below raise ResolutionError rather than return a wrong
integer: oversized steps, unresolvable kernels, degenerate crossing
forms, non-integer totals, and crossing parities that contradict
sign det(I - Psi(1)) all refuse.

Mod 2, index + half-dimension reproduces that determinant sign: parity 0
exactly when det(I - Psi(1)) > 0.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

# The fixed tolerances of the crossing count, and what each one bounds:
#   JUMP_TOL    the entries of the step between consecutive samples;
#   END_TOL     |det(Psi(1) - I)|, relative to the largest |det(Psi(t) - I)|,
#               below which the end is degenerate;
#   KERNEL_TOL  the singular values of Psi(t) - I that span a crossing's
#               kernel, and the relative size of a crossing-form eigenvalue
#               that counts as zero;
#   SYMPL_TOL   the entries of M^T J M - J, for every sample M.
JUMP_TOL = 0.5
END_TOL = 1e-8
KERNEL_TOL = 1e-6
SYMPL_TOL = 1e-6


class DegenerateEndpoint(ValueError):
    """det(Psi(1) - I) is (numerically) zero; the index is undefined."""


class ResolutionError(RuntimeError):
    """The sampling is too coarse to certify the crossing count."""


class NonFiniteSample(ValueError):
    """A sample has an entry that is NaN, infinite or too large for a float."""

    def __init__(self, sample: int):
        super().__init__(f"sample {sample} has an entry that is not a finite float")
        self.sample = sample


class CzResult(NamedTuple):
    index: int
    parity: int
    det_end_sign: int
    half_dim: int
    crossings: int


def _standard_j(m: int) -> np.ndarray:
    j = np.zeros((2 * m, 2 * m))
    j[:m, m:] = np.eye(m)
    j[m:, :m] = -np.eye(m)
    return j


def direct_sum(a: Sequence[Sequence[float]], b: Sequence[Sequence[float]]) -> list[list[float]]:
    """Block sum of two symplectic matrices in big-block coordinates.

    The a/b halves of each factor are interleaved so that the result is
    again symplectic for the big-block form of the total dimension.
    """
    am = np.asarray(a, dtype=float)
    bm = np.asarray(b, dtype=float)
    p, q = am.shape[0] // 2, bm.shape[0] // 2
    if am.shape != (2 * p, 2 * p) or bm.shape != (2 * q, 2 * q):
        raise ValueError("factors must be even-dimensional square matrices")
    m = p + q
    out = np.zeros((2 * m, 2 * m))
    a_idx = list(range(p)) + list(range(m, m + p))
    b_idx = list(range(p, m)) + list(range(m + p, 2 * m))
    out[np.ix_(a_idx, a_idx)] = am
    out[np.ix_(b_idx, b_idx)] = bm
    return out.tolist()


def stacked(samples: Sequence[Sequence[Sequence[float]]]) -> np.ndarray | None:
    """The samples as one (count, rows, columns) float array, or None when
    they are not all of one shape or hold an integer past the float range."""
    try:
        path = np.asarray(samples, dtype=float)
    except (ValueError, OverflowError):
        return None
    return path if path.ndim == 3 else None


def _one_by_one(samples: Sequence[Sequence[Sequence[float]]]) -> list[np.ndarray]:
    """Each sample as an array, so that an overflow names the first non-finite sample."""
    mats: list[np.ndarray] = []
    for i, s in enumerate(samples):
        try:
            mats.append(np.asarray(s, dtype=float))
        except OverflowError:  # an integer past the float range
            earlier = [j for j, m in enumerate(mats) if not np.isfinite(m).all()]
            raise NonFiniteSample((earlier or [i])[0]) from None
    return mats


def _stacked(samples: Sequence[Sequence[Sequence[float]]]) -> np.ndarray:
    """The samples as one (count, dim, dim) array, once they pass the shape checks."""
    path = stacked(samples)
    mats = _one_by_one(samples) if path is None else path
    count = len(mats)
    if count < 5:
        raise ResolutionError(f"need at least 5 samples, got {count}")
    dim = mats[0].shape[0] if mats[0].ndim == 2 else 0
    if mats[0].shape != (dim, dim) or dim % 2 or dim == 0:
        raise ValueError("samples must be square matrices of even dimension")
    if path is None:
        if any(m.shape != (dim, dim) for m in mats):
            raise ValueError("samples must all have the same shape")
        path = np.array(mats)
    return path


def conley_zehnder(samples: Sequence[Sequence[Sequence[float]]]) -> CzResult:
    """Crossing-count Conley-Zehnder index of a sampled symplectic path.

    ``samples[i]`` is the matrix at time i/(len-1); the first must be the
    identity and the last must have no eigenvalue 1.  Raises
    DegenerateEndpoint for a degenerate end, NonFiniteSample for the first
    sample with a NaN, infinite or overflowing entry, ValueError for other
    inputs that are not a symplectic path at all, and ResolutionError
    whenever the sampling cannot certify the answer.
    """
    path = _stacked(samples)
    finite = np.isfinite(path).all(axis=(1, 2))
    if not finite.all():
        raise NonFiniteSample(int(np.argmin(finite)))
    count, dim, _ = path.shape
    half = dim // 2
    J = _standard_j(half)
    eye = np.eye(dim)
    if np.max(np.abs(path[0] - eye)) > 1e-9:
        raise ValueError("path must start at the identity")
    drift = np.abs(np.swapaxes(path, 1, 2) @ J @ path - J).max(axis=(1, 2)) > SYMPL_TOL
    if drift.any():
        raise ValueError(f"sample {np.argmax(drift)} is not symplectic to tolerance {SYMPL_TOL}")
    steps = np.abs(np.diff(path, axis=0)).max(axis=(1, 2))
    worst = int(np.argmax(np.fmax(steps, 0.0)))  # a NaN step is never the worst
    if steps[worst] > JUMP_TOL:
        raise ResolutionError(
            f"jump of size {steps[worst]:.3g} > {JUMP_TOL} between samples "
            f"{worst} and {worst + 1}; refine the sampling"
        )

    h = 1.0 / (count - 1)
    dets = np.linalg.det(path - eye)
    scale = float(np.fmax.reduce(np.abs(dets), initial=1.0))  # NaNs left out
    if abs(dets[-1]) < END_TOL * scale:
        raise DegenerateEndpoint("det(Psi(1) - I) is numerically zero")

    def velocity(i: int) -> np.ndarray:
        if i == 0:
            return (path[1] - path[0]) / h
        return (path[i + 1] - path[i - 1]) / (2 * h)

    def signature_of(form: np.ndarray, where: str) -> int:
        eigs = np.linalg.eigvalsh((form + form.T) / 2.0)
        if (np.abs(eigs) <= KERNEL_TOL * max(1.0, float(np.abs(eigs).max()))).any():
            raise ResolutionError(f"degenerate crossing form {where}; refine the sampling")
        return int((eigs > 0).sum() - (eigs < 0).sum())

    def crossing_signature(i: int) -> int:
        cutoff = max(KERNEL_TOL, 3.0 * max(steps[i - 1], steps[i]))
        _, s, vt = np.linalg.svd(path[i] - eye)
        kernel = vt[s < cutoff].T
        if not kernel.size:
            raise ResolutionError(
                f"crossing near sample {i} has no resolvable kernel; refine the sampling"
            )
        return signature_of(kernel.T @ J @ (velocity(i) @ kernel), f"near sample {i}")

    # t = 0: the whole space is the kernel, half weight.
    total = 0.5 * signature_of(J @ velocity(0), "at t = 0")

    # Candidates at the interior samples i, with (u, v, w) the determinants
    # at i - 1, i, i + 1: a sign change, credited to whichever of i - 1 and
    # i is nearer the zero; a numerical zero; or a parabolic tangency of the
    # determinant (flipped positive) that dips within curv / 4 of zero.
    tiny = 1e-11 * scale
    with np.errstate(all="ignore"):
        u, v, w = dets[:-2], dets[1:-1], dets[2:]
        sign_change = (u * v < 0) & (np.abs(u) > tiny)
        back = sign_change & ~(np.abs(v) <= np.abs(u))
        hit = sign_change | (np.abs(v) < tiny)
        flip = np.where(u >= 0, 1.0, -1.0)
        u, v, w = flip * u, flip * v, flip * w
        curv = (u + w) / 2.0 - v
        slope = (w - u) / 2.0
        dip = v - slope * slope / (4.0 * curv)
        hit |= (0 <= v) & (v <= np.where(w < u, w, u)) & (curv > 0) & (
            np.abs(slope) <= 2.02 * curv) & (dip <= curv / 4.0)
    candidates = np.flatnonzero(hit) + 1

    # After a crossing at sample p the scan resumes at sample p + 2.  No
    # crossing is credited to sample 0: after the identity check
    # |det(Psi(0) - I)| is far below tiny, so a sign change at sample 1
    # never goes back to it.
    crossings = 0
    resume = 1
    for i, pick in zip(candidates.tolist(), (candidates - back[hit]).tolist()):
        if i >= resume:
            total += crossing_signature(pick)
            crossings += 1
            resume = pick + 2

    index = round(total)
    if abs(total - index) > 1e-6:
        raise ResolutionError(f"crossing sum {total} is not an integer; refine the sampling")
    det_end_sign = 1 if dets[-1] > 0 else -1
    parity = (index + half) % 2
    if parity != (0 if det_end_sign > 0 else 1):
        raise ResolutionError(
            "crossing parity contradicts det(I - Psi(1)); a crossing was missed"
        )
    return CzResult(
        index=int(index),
        parity=parity,
        det_end_sign=det_end_sign,
        half_dim=half,
        crossings=crossings,
    )
