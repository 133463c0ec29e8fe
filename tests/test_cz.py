"""Crossing-count index of sampled symplectic paths."""

import math
import random

import numpy as np
import pytest

from lagmatch.czindex import (
    CzResult,
    DegenerateEndpoint,
    ResolutionError,
    conley_zehnder,
    direct_sum,
)


def rotation_path(half_turns, count):
    """R(half_turns * pi * t) sampled uniformly on [0, 1]."""
    out = []
    for k in range(count):
        th = half_turns * math.pi * k / (count - 1)
        out.append([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    return out


def rotations(angles):
    return [[[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]] for th in angles]


def hyperbolic_path(rate, count):
    out = []
    for k in range(count):
        t = rate * k / (count - 1)
        out.append([[math.exp(t), 0.0], [0.0, math.exp(-t)]])
    return out


def shear_path(amount, count):
    out = []
    for k in range(count):
        t = amount * k / (count - 1)
        out.append([[1.0, t], [0.0, 1.0]])
    return out


def test_half_rotation_golden():
    res = conley_zehnder(rotation_path(1, 41))
    assert res == CzResult(index=1, parity=0, det_end_sign=1, half_dim=1, crossings=0)


def test_hyperbolic_golden():
    res = conley_zehnder(hyperbolic_path(1.0, 41))
    assert res.index == 0
    assert res.parity == 1
    assert res.det_end_sign == -1
    assert res.crossings == 0


def test_three_half_turns_counts_interior_crossing():
    # det(R(th) - I) touches zero quadratically at th = 2 pi: a tangential
    # crossing that contributes its full signature 2
    res = conley_zehnder(rotation_path(3, 201))
    assert res.index == 3
    assert res.crossings == 1


def test_crossings_on_adjacent_samples_count_once():
    # the blocks reach 2 pi at samples 24 and 25: one crossing, whose kernel
    # at sample 24 takes in both blocks, and sample 25 is not counted again
    a, b = rotation_path(10 / 3, 41), rotation_path(3.2, 41)
    res = conley_zehnder([direct_sum(x, y) for x, y in zip(a, b)])
    assert res == CzResult(index=6, parity=0, det_end_sign=1, half_dim=2, crossings=1)


def test_near_miss_of_eigenvalue_one_is_not_a_crossing():
    # up to 2 pi - 0.3 and back to pi: the determinant dips to 0.09, more
    # than a quarter of the fitted curvature, so only t = 0 counts
    up = [(2 * math.pi - 0.5) * k / 29 for k in range(30)]
    down = [2 * math.pi - 0.5 - (math.pi - 0.5) * k / 14 for k in range(15)]
    res = conley_zehnder(rotations(up + [2 * math.pi - 0.3] + down))
    assert res == CzResult(index=1, parity=0, det_end_sign=1, half_dim=1, crossings=0)


def test_kernel_cutoff_reads_the_larger_neighbouring_step():
    # a step of 0.3 into the crossing at 2 pi + 0.05 and one of 0.01 out of it:
    # the kernel is resolved against the larger step
    angles = [(2 * math.pi - 0.25) * k / 24 for k in range(25)] + [2 * math.pi + 0.05]
    angles += [2 * math.pi + 0.06 + (math.pi - 0.06) * k / 12 for k in range(13)]
    res = conley_zehnder(rotations(angles))
    assert res == CzResult(index=3, parity=0, det_end_sign=1, half_dim=1, crossings=1)


def test_odd_half_turns_random():
    rng = random.Random(50)
    for _ in range(30):
        k = rng.choice([1, 3, 5])
        count = rng.randint(120 * k, 160 * k)
        res = conley_zehnder(rotation_path(k, count))
        assert res.index == k, (k, count)
        assert res.crossings == (k - 1) // 2


def test_direct_sum_adds_indices():
    rng = random.Random(51)
    for _ in range(40):
        k = rng.choice([1, 3])
        rate = rng.uniform(0.5, 1.5)
        count = 601
        rot = rotation_path(k, count)
        hyp = hyperbolic_path(rate, count)
        path = [direct_sum(a, b) for a, b in zip(rot, hyp)]
        res = conley_zehnder(path)
        assert res.half_dim == 2
        assert res.index == k
        assert res.parity == (res.index + 2) % 2


def test_parity_tracks_end_determinant():
    rng = random.Random(52)
    checked = 0
    for _ in range(120):
        kind = rng.choice(["rot", "hyp", "sum"])
        if kind == "rot":
            path = rotation_path(rng.choice([1, 3]), 501)
        elif kind == "hyp":
            path = hyperbolic_path(rng.uniform(0.4, 1.2), 101)
        else:
            path = [
                direct_sum(a, b)
                for a, b in zip(
                    rotation_path(1, 501), hyperbolic_path(rng.uniform(0.4, 1.2), 501)
                )
            ]
        res = conley_zehnder(path)
        end = np.asarray(path[-1], dtype=float)
        det = np.linalg.det(end - np.eye(end.shape[0]))
        assert res.det_end_sign == (1 if det > 0 else -1)
        assert res.parity == (res.index + res.half_dim) % 2
        assert res.parity == (0 if det > 0 else 1)
        checked += 1
    assert checked == 120


DEGENERATE_END = r"^det\(Psi\(1\) - I\) is numerically zero$"


def test_full_rotation_degenerate_endpoint():
    with pytest.raises(DegenerateEndpoint, match=DEGENERATE_END):
        conley_zehnder(rotation_path(2, 201))


def test_shear_endpoint_degenerate():
    # the shear keeps eigenvalue 1 throughout
    with pytest.raises(DegenerateEndpoint, match=DEGENERATE_END):
        conley_zehnder(shear_path(1.0, 41))


def test_too_few_samples():
    with pytest.raises(ResolutionError, match=r"^need at least 5 samples, got 4$"):
        conley_zehnder(rotation_path(1, 4))


def test_coarse_sampling_rejected():
    # all four steps are the same size up to rounding
    with pytest.raises(
        ResolutionError, match=r"^jump of size 1\.71 > 0\.5 between samples \d and \d; refine"
    ):
        conley_zehnder(rotation_path(3, 5))


def test_jump_names_the_worst_step():
    path = rotation_path(3, 41)
    del path[10:15]  # one step of 18 pi / 40 among steps of 3 pi / 40
    with pytest.raises(
        ResolutionError,
        match=r"^jump of size 1\.24 > 0\.5 between samples 9 and 10; refine the sampling$",
    ):
        conley_zehnder(path)


def test_must_start_at_identity():
    path = rotation_path(1, 41)
    path[0] = [[0.0, -1.0], [1.0, 0.0]]
    with pytest.raises(ValueError, match=r"^path must start at the identity$"):
        conley_zehnder(path)


def test_rejects_non_symplectic_samples():
    path = rotation_path(1, 41)
    path[7] = [[2.0, 0.0], [0.0, 2.0]]
    with pytest.raises(ValueError, match=r"^sample 7 is not symplectic to tolerance 1e-06$"):
        conley_zehnder(path)
    path[3] = [[3.0, 0.0], [0.0, 3.0]]
    with pytest.raises(ValueError, match=r"^sample 3 is not symplectic to tolerance 1e-06$"):
        conley_zehnder(path)


def test_rejects_odd_dimension():
    path = [[[1.0]] for _ in range(10)]
    with pytest.raises(ValueError, match=r"^samples must be square matrices of even dimension$"):
        conley_zehnder(path)


def test_rejects_mixed_shapes():
    path = rotation_path(1, 41)
    path[20] = [[1.0, 0.0, 0.0, 0.0]] * 4
    with pytest.raises(ValueError, match=r"^samples must all have the same shape$"):
        conley_zehnder(path)


def test_direct_sum_is_symplectic_block_arrangement():
    a = rotation_path(1, 3)[1]
    b = hyperbolic_path(1.0, 3)[1]
    m = np.asarray(direct_sum(a, b))
    j = np.zeros((4, 4))
    j[:2, 2:] = np.eye(2)
    j[2:, :2] = -np.eye(2)
    assert np.allclose(m.T @ j @ m, j)


def reference_conley_zehnder(samples):
    """The crossing count one sample at a time, the oracle for conley_zehnder.

    Same tolerances and the same checks in the same order, with a Python
    loop over every sample where conley_zehnder uses array expressions.
    """
    mats = [np.asarray(s, dtype=float) for s in samples]
    count = len(mats)
    if count < 5:
        raise ResolutionError(f"need at least 5 samples, got {count}")
    dim = mats[0].shape[0] if mats[0].ndim == 2 else 0
    if mats[0].shape != (dim, dim) or dim % 2 or dim == 0:
        raise ValueError("samples must be square matrices of even dimension")
    if any(m.shape != (dim, dim) for m in mats):
        raise ValueError("samples must all have the same shape")
    half = dim // 2
    J = np.zeros((dim, dim))
    J[:half, half:] = np.eye(half)
    J[half:, :half] = -np.eye(half)
    eye = np.eye(dim)
    if np.max(np.abs(mats[0] - eye)) > 1e-9:
        raise ValueError("path must start at the identity")
    for i, m in enumerate(mats):
        if np.max(np.abs(m.T @ J @ m - J)) > 1e-6:
            raise ValueError(f"sample {i} is not symplectic to tolerance 1e-06")
    steps = [float(np.max(np.abs(mats[i + 1] - mats[i]))) for i in range(count - 1)]
    worst = max(range(count - 1), key=lambda i: steps[i])
    if steps[worst] > 0.5:
        raise ResolutionError(
            f"jump of size {steps[worst]:.3g} > 0.5 between samples "
            f"{worst} and {worst + 1}; refine the sampling"
        )
    h = 1.0 / (count - 1)
    dets = [float(np.linalg.det(m - eye)) for m in mats]
    scale = max(1.0, max(abs(d) for d in dets))
    if abs(dets[-1]) < 1e-8 * scale:
        raise DegenerateEndpoint("det(Psi(1) - I) is numerically zero")

    def velocity(i):
        if i == 0:
            return (mats[1] - mats[0]) / h
        return (mats[i + 1] - mats[i - 1]) / (2 * h)

    def signature_of(form, where):
        eigs = np.linalg.eigvalsh((form + form.T) / 2.0)
        tol = 1e-6 * max(1.0, float(np.max(np.abs(eigs))))
        if any(abs(e) <= tol for e in eigs):
            raise ResolutionError(f"degenerate crossing form {where}; refine the sampling")
        return sum(1 for e in eigs if e > 0) - sum(1 for e in eigs if e < 0)

    def crossing_signature(i):
        cutoff = max(1e-6, 3.0 * max(steps[i - 1], steps[i]))
        _, s, vt = np.linalg.svd(mats[i] - eye)
        cols = [vt[r] for r in range(dim) if s[r] < cutoff]
        if not cols:
            raise ResolutionError(
                f"crossing near sample {i} has no resolvable kernel; refine the sampling"
            )
        kernel = np.stack(cols, axis=1)
        return signature_of(kernel.T @ J @ (velocity(i) @ kernel), f"near sample {i}")

    total = 0.5 * signature_of(J @ velocity(0), "at t = 0")
    tiny = 1e-11 * scale
    crossings = 0
    i = 1
    while i < count - 1:
        u, v, w = dets[i - 1], dets[i], dets[i + 1]
        if u * v < 0 and abs(u) > tiny:
            pick = i if abs(v) <= abs(u) else i - 1
        elif abs(v) < tiny:
            pick = i
        else:
            s = 1.0 if u >= 0 else -1.0
            u, v, w = s * u, s * v, s * w
            curv = (u + w) / 2.0 - v
            slope = (w - u) / 2.0
            if not (0 <= v <= min(u, w) and curv > 0 and abs(slope) <= 2.02 * curv
                    and v - slope * slope / (4.0 * curv) <= curv / 4.0):
                i += 1
                continue
            pick = i
        total += crossing_signature(pick)
        crossings += 1
        i = pick + 2
    index = round(total)
    if abs(total - index) > 1e-6:
        raise ResolutionError(f"crossing sum {total} is not an integer; refine the sampling")
    det_end_sign = 1 if dets[-1] > 0 else -1
    parity = (index + half) % 2
    if parity != (0 if det_end_sign > 0 else 1):
        raise ResolutionError("crossing parity contradicts det(I - Psi(1)); a crossing was missed")
    return CzResult(index, parity, det_end_sign, half, crossings)


def _outcome(fn, path):
    try:
        return repr(fn(path))
    except (ValueError, ResolutionError) as err:
        return f"{type(err).__name__}: {err}"


N_SUMS = 150


def test_stacked_count_matches_the_reference():
    """Same result or same exception text on seeded finite paths, guarded ones included."""
    rng = random.Random(53)
    outcomes = set()
    for _ in range(200):
        turns, count = rng.choice([1, 2, 3, 5, -1, -3]), rng.choice([5, 9, 21, 41, 121, 401])
        path = rotation_path(turns, count)
        kind = rng.choice(["plain", "noise", "double", "truncate", "drop", "swap", "sum"])
        if kind == "noise":
            eps = rng.choice([1e-12, 1e-9, 1e-7, 1e-5, 1e-3])
            noisy = [[[x + rng.gauss(0, eps) for x in row] for row in m] for m in path[1:]]
            path = [path[0]] + noisy
        elif kind == "double":
            i = rng.randrange(1, len(path))
            path[i] = [[2 * x for x in row] for row in path[i]]
        elif kind == "truncate":
            path = path[: rng.randrange(3, len(path))]
        elif kind == "drop":
            del path[rng.randrange(1, len(path))]
        elif kind == "swap":
            i = rng.randrange(1, len(path) - 1)
            path[i], path[i + 1] = path[i + 1], path[i]
        elif kind == "sum":
            hyp = hyperbolic_path(rng.uniform(0.2, 2), len(path))
            path = [direct_sum(a, b) for a, b in zip(path, hyp)]
        expected = _outcome(reference_conley_zehnder, path)
        assert _outcome(conley_zehnder, path) == expected, (kind, len(path))
        outcomes.add(expected.split("(")[0].split(":")[0])
    for _ in range(N_SUMS):
        count = rng.choice([41, 101, 401])
        rot = rotation_path(rng.choice([1, 3, -1]), count)
        hyp = hyperbolic_path(rng.uniform(0.2, 2), count)
        path = [direct_sum(a, b) for a, b in zip(rot, hyp)]
        expected = _outcome(reference_conley_zehnder, path)
        assert _outcome(conley_zehnder, path) == expected, ("sum", count)
        outcomes.add(expected.split("(")[0].split(":")[0])
    assert outcomes == {"CzResult", "ResolutionError", "ValueError", "DegenerateEndpoint"}
