"""Coordinate-hyperplane operations: projections, sections, group
averaging, and Steiner symmetrization.

Projections come in two views: ``project`` keeps the ambient space
(coordinate zeroed), ``project_drop`` deletes the coordinate so nested
projections and intrinsic measures of the projected body are natural.
"""
from __future__ import annotations

import math

import numpy as np

from . import bodies as _b
from .bodies import (Ball, Body, DiskHull, VPolytope, Zonotope, convex_hull,
                     resolve, scale_body)
from .errors import InvalidArgument, UnsupportedOperation
from .symmetry import SignedPermutation, apply_symmetry

ON_PLANE_TOL = 1e-10


def _sum_budget(n: int) -> tuple[int, int]:
    """(max accumulated vertices, max product rows) for exact Minkowski sums.

    Exact symmetrals of complex bodies blow up combinatorially, and qhull
    memory grows much faster with point count in dimension >= 4 than in 3;
    give up cleanly instead of exhausting memory.
    """
    if n <= 3:
        return 120_000, 40_000_000
    return 2_000, 200_000


class EmptyBody:
    """Marker for an empty section; every V_m of it is 0."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):  # pragma: no cover
        return "EmptyBody()"


EMPTY = EmptyBody()


def _check_axis(n: int, i: int) -> int:
    i = int(i)
    if not 0 <= i < n:
        raise InvalidArgument(f"axis {i} out of range for n={n}")
    return i


def project(body: Body, i: int) -> Body:
    """Orthogonal projection onto e_i^perp, kept in the ambient space
    (coordinate i zeroed)."""
    body = resolve(body)
    i = _check_axis(body.n, i)
    if isinstance(body, VPolytope):
        pts = body.vertices.copy()
        pts[:, i] = 0.0
        return convex_hull(pts)
    if isinstance(body, Zonotope):
        c = body.center.copy()
        c[i] = 0.0
        g = body.generators.copy()
        g[:, i] = 0.0
        return Zonotope(c, g)
    if isinstance(body, Ball):
        return Ball(body.center, body.radius, body.zeroed | {i})
    if isinstance(body, DiskHull):
        # The projection is the unit disk of e_i^perp (each other disk
        # projects inside it).
        return Ball(np.zeros(3), 1.0, frozenset({i}))
    raise InvalidArgument(f"not a body: {type(body).__name__}")


def project_drop(body: Body, i: int) -> Body:
    """Projection onto e_i^perp in deleted-coordinate form (ambient n-1).

    Computed once per body instance and axis (:func:`bodies.derived`), so
    every caller gets the same object and shares its derived values.
    """
    body = resolve(body)
    i = _check_axis(body.n, i)
    return _b.derived(body, ("project_drop", i), lambda: _project_drop(body, i))


def _project_drop(body: Body, i: int) -> Body:
    keep = [j for j in range(body.n) if j != i]
    if isinstance(body, VPolytope):
        return convex_hull(body.vertices[:, keep])
    if isinstance(body, Zonotope):
        return Zonotope(body.center[keep], body.generators[:, keep])
    if isinstance(body, Ball):
        zeroed = frozenset(j if j < i else j - 1 for j in body.zeroed if j != i)
        return Ball(body.center[keep], body.radius, zeroed)
    if isinstance(body, DiskHull):
        return Ball(np.zeros(2), 1.0)
    raise InvalidArgument(f"not a body: {type(body).__name__}")


def section(p: Body, i: int):
    """The slice {x in P : x_i = 0} of a body.

    A polytope's vertices (a zonotope's after expansion) are classified
    against the hyperplane at 1e-10; crossing segments between straddling
    vertex pairs are interpolated and the union is hulled (interior
    interpolation points are removed by the hull, so enumerating all
    straddling pairs is safe and avoids edge bookkeeping).  Returns
    ``EMPTY`` when the plane misses the body.
    A ball's section is a ball flat along axis i, in closed form.
    K1 (a :class:`DiskHull`) lies in the unit ball and contains the unit
    disk of e_i^perp, so its section is that disk, exactly.
    """
    p = resolve(p)
    i = _check_axis(p.n, i)
    if isinstance(p, DiskHull):
        return Ball(np.zeros(3), 1.0, frozenset({i}))
    if isinstance(p, Ball):
        if i in p.zeroed:
            return p
        c = abs(float(p.center[i]))
        if c > p.radius:
            return EMPTY
        return Ball(p.center, math.sqrt((p.radius - c) * (p.radius + c)),
                    p.zeroed | {i})
    p = _b.as_vpolytope(p)
    coords = p.vertices[:, i]
    on = np.abs(coords) <= ON_PLANE_TOL
    pos = coords > ON_PLANE_TOL
    neg = coords < -ON_PLANE_TOL
    pts = [p.vertices[on]]
    if np.any(pos) and np.any(neg):
        above = p.vertices[pos]
        below = p.vertices[neg]
        ca = coords[pos]
        cb = coords[neg]
        # x = a + t (b - a) with t = ca / (ca - cb) zeroes coordinate i.
        t = (ca[:, None] / (ca[:, None] - cb[None, :]))[:, :, None]
        cross = above[:, None, :] + t * (below[None, :, :] - above[:, None, :])
        pts.append(cross.reshape(-1, p.n))
    stacked = np.vstack([q for q in pts if q.shape[0]]) if any(
        q.shape[0] for q in pts) else np.zeros((0, p.n))
    if stacked.shape[0] == 0:
        return EMPTY
    stacked[:, i] = 0.0  # exact on-plane coordinates
    return convex_hull(stacked)


def section_drop(p: Body, i: int):
    """Section in deleted-coordinate form (ambient n-1), computed once per
    body instance and axis, like :func:`project_drop`."""
    p = resolve(p)
    return _b.derived(p, ("section_drop", i), lambda: _section_drop(p, i))


def _section_drop(p: Body, i: int):
    s = section(p, i)
    if s is EMPTY:
        return EMPTY
    if isinstance(s, Ball):     # flat along axis i
        return project_drop(s, i)
    return _b.drop_axes(s, [i])


# ---------------------------------------------------------------------------
# group averaging


def g_symmetral(body: Body) -> VPolytope:
    """Minkowski average (1/|G|) sum_{g in G} gK over all signed
    permutations.

    The average factorizes: the sign flips form a product of per-axis
    reflections (n pairwise averages), and the permutation average climbs
    the subgroup chain S_1 < S_2 < ... < S_n using transposition coset
    representatives (j summands at level j).  That replaces the flat
    2^n n!-term sum with 2n - 1 small Minkowski averages.
    """
    body = resolve(body)
    n = body.n
    if n > 5:
        raise UnsupportedOperation(
            f"group averaging refused for n={n} (2^n n! blow-up; cap 5)")
    ident = tuple(range(n))
    levels = [[SignedPermutation(ident, (1,) * n),
               SignedPermutation(ident, tuple(-1 if j == i else 1 for j in range(n)))]
              for i in range(n)]
    for j in range(2, n + 1):
        taus = []
        for i in range(1, j + 1):
            perm = list(ident)
            perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
            taus.append(SignedPermutation(tuple(perm), (1,) * n))
        levels.append(taus)
    vert_budget, row_budget = _sum_budget(n)
    acc = _b.as_vpolytope(body)
    for elements in levels:
        images = [apply_symmetry(acc, g) for g in elements]
        total = images[0]
        for image in images[1:]:
            if total.vertex_count > vert_budget:
                raise UnsupportedOperation(
                    f"Minkowski accumulation exceeded {vert_budget} vertices "
                    f"in dimension {n}; the exact sum is too complex for "
                    "this implementation")
            rows = total.vertex_count * image.vertex_count
            if rows > row_budget:
                raise UnsupportedOperation(
                    f"Minkowski accumulation needs a {rows}-point cloud "
                    f"in dimension {n} (budget {row_budget}); the exact "
                    "sum is too complex for this implementation")
            total = _b.minkowski_sum(total, image)
        acc = scale_body(total, 1.0 / len(elements))
    return acc


# ---------------------------------------------------------------------------
# Steiner symmetrization (n = 3)


def steiner_symmetrize(p: Body, i: int, slabs: int = 256) -> VPolytope:
    """Slab-discretized Steiner symmetrization of a 3-polytope in
    direction e_i: chords of P parallel to e_i are re-centered on
    e_i^perp.

    The chord function of a polytope is piecewise linear and concave, so
    the hull of re-centered chords sampled on a grid over the projection
    (plus chords through every projected vertex, which pins the creases)
    is an inscribed polytope converging at O(1/slabs^2) in volume.
    """
    p = _b.as_vpolytope(p)
    if p.n != 3:
        raise UnsupportedOperation("Steiner symmetrization is implemented for n = 3")
    if slabs < 16:
        raise InvalidArgument("slabs must be at least 16")
    if _b.affine_dim(p) < 3:
        raise UnsupportedOperation("Steiner symmetrization needs a full-dimensional body")
    i = _check_axis(3, i)
    others = [j for j in range(3) if j != i]
    eq = p.qhull.equations  # rows (a, b): a.x + b <= 0 inside
    a_i = eq[:, i]
    a_other = eq[:, others]
    b = eq[:, 3]

    lo = p.vertices[:, others].min(axis=0)
    hi = p.vertices[:, others].max(axis=0)
    g0 = np.linspace(lo[0], hi[0], slabs)
    g1 = np.linspace(lo[1], hi[1], slabs)
    grid = np.stack([a.ravel() for a in np.meshgrid(g0, g1)], axis=1)
    ys = np.vstack([grid, p.vertices[:, others]])

    # Chord of the line {y + t e_i} against every facet half-space:
    # a_other . y + a_i t + b <= 0.
    rhs = -(ys @ a_other.T) - b[None, :]  # constraint: a_i t <= rhs
    t_hi = np.full(ys.shape[0], np.inf)
    t_lo = np.full(ys.shape[0], -np.inf)
    feasible = np.ones(ys.shape[0], dtype=bool)
    for f in range(eq.shape[0]):
        ai = a_i[f]
        if abs(ai) <= 1e-12:
            feasible &= rhs[:, f] >= -1e-9
        elif ai > 0:
            t_hi = np.minimum(t_hi, rhs[:, f] / ai)
        else:
            t_lo = np.maximum(t_lo, rhs[:, f] / ai)
    length = t_hi - t_lo
    ok = feasible & (length >= -1e-12) & np.isfinite(length)
    half = np.maximum(length[ok], 0.0) / 2.0
    base = ys[ok]
    out = np.zeros((2 * base.shape[0], 3))
    out[:base.shape[0], others] = base
    out[:base.shape[0], i] = half
    out[base.shape[0]:, others] = base
    out[base.shape[0]:, i] = -half
    return convex_hull(out)
