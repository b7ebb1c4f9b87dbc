"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own measure code paths:
volumes come from rejection sampling against half-space membership, and
surface areas from summing simplex areas with explicit Gram determinants.
"""
from __future__ import annotations

from functools import cache

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from convexiq import (Body, DimensionMismatch, QuadratureSpec, SignedPermutation, VPolytope,
                      Zonotope, as_vpolytope, convex_hull, cube)


@pytest.fixture(scope="session")
def spec3() -> QuadratureSpec:
    return QuadratureSpec.for_dimension(3)


RNG_SEED = 20240817


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(RNG_SEED)


# A generic 3-polytope with five vertices and no symmetry.
FIVE_VERTICES = convex_hull(np.array(
    [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [-0.5, -0.5, 0], [0.2, 0.3, -0.8]]))


@cache
def shared_cube(d: int) -> VPolytope:
    """cube(d), one instance per session, so that each of its V_m is
    measured once however many tests ask for it."""
    return cube(d)


@cache
def k1_polygon(k: int) -> VPolytope:
    """The hull of the regular k-gons inscribed in K1's three coordinate
    unit disks: inside K1, and K1 inside its dilate by sec(pi/k), so its
    V_m (m <= 3) and those of its shadows fall short of K1's by at most
    sec(pi/k)^3 - 1 < 18/k^2 relative (k >= 8)."""
    t = 2.0 * np.pi * np.arange(k) / k
    disk = np.stack([np.cos(t), np.sin(t)], axis=1)
    return convex_hull(np.vstack([np.insert(disk, i, 0.0, axis=1) for i in range(3)]))


def minkowski_sum(p: Body, q: Body) -> VPolytope:
    """Minkowski sum of two polytopal bodies (hull of pairwise vertex sums)."""
    pv = as_vpolytope(p).vertices
    qv = as_vpolytope(q).vertices
    if pv.shape[1] != qv.shape[1]:
        raise DimensionMismatch("summands live in different dimensions")
    sums = (pv[:, None, :] + qv[None, :, :]).reshape(-1, pv.shape[1])
    return convex_hull(sums)


def random_signed_permutation(n: int, rng: np.random.Generator) -> SignedPermutation:
    """A random signed permutation of R^n: a permutation, then signs."""
    perm = tuple(int(i) for i in rng.permutation(n))
    signs = tuple(int(s) for s in rng.choice((-1, 1), size=n))
    return SignedPermutation(perm, signs)


def random_polytope(rng: np.random.Generator, n: int, k: int | None = None) -> VPolytope:
    k = k if k is not None else 2 * n + 4
    return convex_hull(rng.standard_normal((k, n)))


def random_zonotope(rng: np.random.Generator, n: int, k: int | None = None) -> Zonotope:
    k = k if k is not None else n + 3
    return Zonotope(np.zeros(n), rng.standard_normal((k, n)))


def parallelepiped(g) -> Zonotope:
    """The parallelepiped {sum_j t_j g_j : t in [0, 1]^m} spanned by the
    rows of g, as a zonotope; its V_m is the Gram measure sqrt(det(g g^T))."""
    g = np.asarray(g, dtype=float)
    return Zonotope(g.sum(axis=0) / 2.0, g / 2.0)


def mc_volume(vertices: np.ndarray, samples: int, rng: np.random.Generator):
    """Rejection-sampling volume of conv(vertices) with a 3-sigma bound.

    Membership is tested against qhull's facet half-spaces directly, so
    none of the library's volume code is involved.  Returns (estimate,
    three_sigma).
    """
    vertices = np.asarray(vertices, dtype=float)
    hull = ConvexHull(vertices)
    lo = vertices.min(axis=0)
    hi = vertices.max(axis=0)
    box_vol = float(np.prod(hi - lo))
    pts = rng.uniform(lo, hi, size=(samples, vertices.shape[1]))
    # A x + b <= tol for all facets
    inside = np.all(pts @ hull.equations[:, :-1].T + hull.equations[:, -1]
                    <= 1e-12, axis=1)
    p = float(np.mean(inside))
    est = box_vol * p
    sigma = box_vol * np.sqrt(max(p * (1 - p), 1e-12) / samples)
    return est, 3.0 * sigma


def gram_surface_area(vertices: np.ndarray) -> float:
    """Sum of facet areas of conv(vertices) via Gram determinants of
    qhull's simplicial facets."""
    vertices = np.asarray(vertices, dtype=float)
    hull = ConvexHull(vertices)
    total = 0.0
    d = vertices.shape[1]
    fact = float(np.prod(np.arange(1, d)))  # (d-1)!
    for simplex in hull.simplices:
        edges = vertices[simplex[1:]] - vertices[simplex[0]]
        gram = edges @ edges.T
        total += np.sqrt(max(np.linalg.det(gram), 0.0)) / fact
    return total
