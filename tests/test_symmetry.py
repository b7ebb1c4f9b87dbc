"""Signed permutations and the invariance check."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexiq import SignedPermutation, apply_symmetry, hyperoctahedral_group
from convexiq.bodies import (Ball, Zonotope, convex_hull, cross_polytope, cube, k1, scale_body,
                             support_many)
from convexiq.errors import InvalidArgument
from convexiq.symmetry import is_group_invariant

from conftest import random_polytope, random_signed_permutation


def test_group_order():
    assert len(hyperoctahedral_group(2)) == 8
    assert len(hyperoctahedral_group(3)) == 48


def test_action_convention():
    g = SignedPermutation((1, 0, 2), (-1, 1, 1))
    x = np.array([1.0, 2.0, 3.0])
    # (g x)[i] = signs[i] * x[perm[i]]
    np.testing.assert_allclose(g.apply(x), [-2.0, 1.0, 3.0])


def test_invalid_elements():
    with pytest.raises(InvalidArgument):
        SignedPermutation((0, 0, 1), (1, 1, 1))
    with pytest.raises(InvalidArgument):
        SignedPermutation((0, 1), (2, 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_matrix_matches_apply(seed):
    rng = np.random.default_rng(seed)
    g = random_signed_permutation(4, rng)
    x = rng.standard_normal(4)
    np.testing.assert_allclose(g.matrix() @ x, g.apply(x), atol=1e-12)


def test_group_closure_3d():
    """Composing any two group elements as matrices lands back in the group."""
    group = hyperoctahedral_group(2)
    mats = [g.matrix() for g in group]
    for a in mats[:4]:
        for b in mats:
            prod = a @ b
            assert any(np.array_equal(prod, m) for m in mats)


def test_apply_symmetry_moves_support(rng):
    p = random_polytope(rng, 3)
    g = random_signed_permutation(3, rng)
    moved = apply_symmetry(p, g)
    dirs = rng.standard_normal((24, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # h_{gK}(u) = h_K(g^T u)
    np.testing.assert_allclose(support_many(moved, dirs),
                               support_many(p, dirs @ g.matrix()),
                               atol=1e-10)


def test_apply_symmetry_moves_every_body_kind(rng):
    """h_{gK}(u) = h_K(g^T u) on random u for a zonotope, a ball flattened
    along two axes and K1, which every signed permutation maps onto
    itself."""
    for body in (Zonotope(rng.standard_normal(4), rng.standard_normal((6, 4))),
                 Ball(rng.standard_normal(4), 1.5, frozenset({0, 2})), k1()):
        for _ in range(8):
            g = random_signed_permutation(body.n, rng)
            dirs = rng.standard_normal((24, body.n))
            np.testing.assert_allclose(support_many(apply_symmetry(body, g), dirs),
                                       support_many(body, dirs @ g.matrix()),
                                       rtol=0.0, atol=1e-12)


def test_invariance_of_named_bodies(rng):
    for body in (cube(3), cross_polytope(3), k1()):
        assert is_group_invariant(body, rng=rng)
    assert not is_group_invariant(random_polytope(rng, 3), rng=rng)


@pytest.mark.parametrize("factor", [1e-9, 1e9])
def test_invariance_checks_are_relative(factor):
    """The check compares the defect with the body's size, so a dilation
    does not change its answer."""
    rng = np.random.default_rng(5)
    assert is_group_invariant(scale_body(cube(3), factor), rng)
    assert not is_group_invariant(scale_body(random_polytope(rng, 3), factor), rng)


def _invariance_defect(body, dirs):
    """max |h(g u) - h(u)| over the 48 signed permutations of R^3."""
    base = support_many(body, dirs)
    return max(np.max(np.abs(support_many(body, dirs @ g.matrix().T) - base))
               for g in hyperoctahedral_group(3))


def test_invariance_defect_zero_on_cube(rng):
    dirs = rng.standard_normal((32, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    assert _invariance_defect(cube(3), dirs) < 1e-12
    assert _invariance_defect(random_polytope(rng, 3), dirs) > 1e-3


def _invariant_by_element(body, rng):
    """The invariance check one group element at a time: the same 16
    directions and 16 elements drawn in the same order, as
    SignedPermutations, a support call per element."""
    dirs = rng.standard_normal((16, body.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    perms = rng.permuted(np.tile(np.arange(body.n), (16, 1)), axis=1)
    signs = rng.choice((-1.0, 1.0), size=(16, body.n))
    elems = [SignedPermutation(p, s) for p, s in zip(perms, signs)]
    base = support_many(body, dirs)
    defect = max(float(np.max(np.abs(support_many(body, dirs @ g.matrix().T) - base)))
                 for g in elems)
    return defect <= 1e-8 * float(np.max(np.abs(base)))


def _orbit_hull(rng, n):
    """The hull of the signed-permutation orbit of one random point."""
    x = rng.standard_normal(n)
    return convex_hull(np.array([g.apply(x) for g in hyperoctahedral_group(n)]))


def _invariance_cases(factor):
    """(body, invariant) pairs dilated by factor; K1 is represented at
    unit scale only, so it comes undilated."""
    rng = np.random.default_rng(36)
    invariant = [cube(3), cube(4), cross_polytope(3), cross_polytope(4),
                 _orbit_hull(rng, 3), _orbit_hull(rng, 3), _orbit_hull(rng, 4)]
    asymmetric = [random_polytope(rng, n) for n in (3, 3, 4, 4)]
    return ([(scale_body(body, factor), True) for body in invariant]
            + [(scale_body(body, factor), False) for body in asymmetric]
            + ([(k1(), True)] if factor == 1.0 else []))


@pytest.mark.parametrize("factor", [1e-8, 1e-4, 1.0, 1e4, 1e8])
@pytest.mark.parametrize("seed", [0, 20240])
def test_one_call_invariance_check_is_the_per_element_check(factor, seed):
    """Stacking the 256 images into one support call returns what the
    element-by-element check returns from the same seed, on invariant
    bodies, on asymmetric ones and on their dilates."""
    for body, invariant in _invariance_cases(factor):
        answer = is_group_invariant(body, np.random.default_rng(seed))
        assert answer is _invariant_by_element(body, np.random.default_rng(seed))
        assert answer is invariant
