"""Signed permutations and invariance checks."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexiq import SignedPermutation, apply_symmetry, hyperoctahedral_group
from convexiq.bodies import (Zonotope, cross_polytope, cube, k1, scale_body,
                             support_many)
from convexiq.errors import InvalidArgument
from convexiq.symmetry import (invariance_defect, is_group_invariant,
                               is_signflip_invariant,
                               random_signed_permutation)

from conftest import random_polytope


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


def test_invariance_of_named_bodies(rng):
    for body in (cube(3), cross_polytope(3), k1()):
        assert is_group_invariant(body, rng=rng)
    assert not is_group_invariant(random_polytope(rng, 3), rng=rng)


def test_signflip_invariance(rng):
    # axis-parallel generators give an unconditional box
    z = Zonotope(np.zeros(3), np.diag(rng.uniform(0.5, 2.0, size=3)))
    assert is_signflip_invariant(z, rng)
    # a generic centered zonotope is o-symmetric but not unconditional
    skew = Zonotope(np.zeros(3), rng.standard_normal((4, 3)))
    assert not is_signflip_invariant(skew, rng)


@pytest.mark.parametrize("factor", [1e-9, 1e9])
def test_invariance_checks_are_relative(factor):
    """Both checks compare the defect with the body's size, so a dilation
    changes neither answer."""
    rng = np.random.default_rng(5)
    box = Zonotope(np.zeros(3), factor * np.diag([0.5, 1.0, 2.0]))
    skew = Zonotope(np.zeros(3), factor * rng.standard_normal((4, 3)))
    assert is_signflip_invariant(box, rng)
    assert not is_signflip_invariant(skew, rng)
    assert is_group_invariant(scale_body(cube(3), factor), rng)
    assert not is_group_invariant(scale_body(random_polytope(rng, 3), factor), rng)


def test_invariance_defect_zero_on_cube(rng):
    dirs = rng.standard_normal((32, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    defect = invariance_defect(cube(3), hyperoctahedral_group(3), dirs)
    assert defect < 1e-12
    skew = random_polytope(rng, 3)
    assert invariance_defect(skew, hyperoctahedral_group(3), dirs) > 1e-3
