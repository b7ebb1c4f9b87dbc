"""Coordinate-hyperplane operations: projections, sections, group
averaging, and Steiner symmetrization.

Projections come in two views: ``project`` keeps the ambient space
(coordinate zeroed), ``project_drop`` deletes the coordinate so nested
projections and intrinsic measures of the projected body are natural.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial import ConvexHull

from . import bodies as _b
from .bodies import (Ball, Body, DiskHull, VPolytope, Zonotope, convex_hull,
                     resolve)
from .errors import InvalidArgument, UnsupportedOperation
from .symmetry import SignedPermutation

ON_PLANE_TOL = 1e-10
# Relative excess of the symmetral's support over a hull facet that
# counts as a missing vertex (g_symmetral's stop rule).
SUPPORT_TOL = 1e-12
# Entries of the (directions x vertices) product one support-oracle call
# in g_symmetral may hold, and rows of one block of its seed orbit.
ORACLE_BATCH = 1 << 20
ORBIT_BLOCK = 1 << 16
# |a_i| of a unit facet normal below which the facet is parallel to e_i
# (steiner_symmetrize).
VERTICAL_TOL = 1e-12
# Segment pairs one crossing test in steiner_symmetrize may hold.
CROSSING_BLOCK = 1 << 18


def _sum_budget(n: int) -> int:
    """Most candidate points :func:`g_symmetral` hulls in dimension n.

    Exact symmetrals of complex bodies have combinatorially many
    vertices, and qhull memory grows much faster with point count in
    dimension >= 4 than in 3.  The candidate set is checked against this
    cap before every hull, so a refusal comes before the expensive work.
    """
    return 120_000 if n <= 3 else 2_000


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


def _group_levels(n: int) -> list[list[SignedPermutation]]:
    """The chain of small averages whose composition is the average over
    all signed permutations.

    The sign flips form a product of per-axis reflections (n levels of
    two elements), and the permutation average climbs the subgroup chain
    S_1 < S_2 < ... < S_n using transposition coset representatives (j
    elements at level j): 2n - 1 levels instead of one 2^n n!-term sum.
    """
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
    return levels


def _average_argmax(vertices: np.ndarray, levels, u: np.ndarray) -> np.ndarray:
    """For each row of u, a point of the chain's average maximizing <., u>.

    A Minkowski sum's support point is the sum of its summands' support
    points, so each level sums its images' points in element order and
    scales by 1/|level|.  Those are the float operations of summing the
    level's images pairwise, so each point has the bytes of the
    corresponding vertex of the pairwise sum.
    """
    if not levels:
        return vertices[np.argmax(u @ vertices.T, axis=1)]
    elements = levels[-1]
    count = u.shape[0]
    w = np.empty((len(elements) * count, u.shape[1]))
    for k, g in enumerate(elements):
        # <g x, u> = <x, w> with w[perm[i]] = signs[i] u[i]
        w[k * count:(k + 1) * count, list(g.perm)] = u * np.array(g.signs, dtype=float)
    pts = _average_argmax(vertices, levels[:-1], w)
    total = elements[0].apply_points(pts[:count])
    for k, g in enumerate(elements[1:], 1):
        total = total + g.apply_points(pts[k * count:(k + 1) * count])
    return (1.0 / len(elements)) * total


def _distinct_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of a, lexicographically sorted."""
    a = _b._lexsorted(a)
    return a[np.concatenate([[True], np.any(a[1:] != a[:-1], axis=1)])]


def g_symmetral(body: Body) -> VPolytope:
    """Minkowski average (1/|G|) sum_{g in G} gK over all signed
    permutations, as an exact vertex list.

    Built from a support oracle (:func:`_average_argmax` over the level
    chain of :func:`_group_levels`), never from a vertex-sum cloud.  The
    candidates start as the oracle points of the group orbit of K's facet
    normals and vertex directions.  Each round hulls them and adds the
    oracle point of every hull facet (a, b) with h(a) > b + SUPPORT_TOL *
    scale.  When no facet is violated the hull is the average: it lies
    inside the average, and every facet inequality of the hull holds on
    the average.  The candidate count is checked against
    :func:`_sum_budget` before every hull.
    """
    body = resolve(body)
    n = body.n
    if n > 5:
        raise UnsupportedOperation(
            f"group averaging refused for n={n} (2^n n! blow-up; cap 5)")
    k = _b.as_vpolytope(body)
    levels = _group_levels(n)
    perms = np.array(list(itertools.permutations(range(n))))
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    order = perms.shape[0] * signs.shape[0]
    batch = max(1, ORACLE_BATCH // (order * k.vertex_count))
    cap = _sum_budget(n)

    def grow(cands, dirs, bound):
        """cands plus the oracle points of dirs that exceed bound,
        refused past the cap."""
        for s in range(0, dirs.shape[0], batch):
            u = dirs[s:s + batch]
            pts = _average_argmax(k.vertices, levels, u)
            pts = pts[np.einsum("ij,ij->i", pts, u) > bound[s:s + batch]]
            cands = _distinct_rows(np.vstack([cands, pts]))
            if cands.shape[0] > cap:
                raise UnsupportedOperation(
                    f"the symmetral needs more than {cap} candidate points "
                    f"in dimension {n}; the exact average is too complex "
                    "for this implementation")
        return cands

    if _b.affine_dim(k) == 0:
        return VPolytope(_average_argmax(k.vertices, levels, np.zeros((1, n))))
    seeds = k.vertices
    if _b.affine_dim(k) == n:
        seeds = _distinct_rows(np.vstack([k.qhull.equations[:, :n], seeds]))
    cands = np.zeros((0, n))
    per = max(1, ORBIT_BLOCK // order)   # seeds per orbit block
    for s in range(0, seeds.shape[0], per):
        # every signed permutation x -> signs * x[perm] of each seed
        orbit = seeds[s:s + per][:, perms][:, :, None, :] * signs
        orbit = _distinct_rows(orbit.reshape(-1, n))
        cands = grow(cands, orbit, np.full(orbit.shape[0], -np.inf))
    while True:
        qh = ConvexHull(cands)
        eq = _distinct_rows(qh.equations)
        scale = float(np.max(np.abs(cands)))
        grown = grow(cands, eq[:, :n], SUPPORT_TOL * scale - eq[:, n])
        if grown.shape[0] == cands.shape[0]:
            return VPolytope(_b._dedup_points(cands[qh.vertices]))
        cands = grown


# ---------------------------------------------------------------------------
# Steiner symmetrization (n = 3)


def _crossings(flat: np.ndarray, e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Points where a planar segment of e crosses one of f.

    ``flat`` holds planar points and e, f are (k, 2) index pairs into it.
    Parallel pairs are skipped: they meet, if at all, at endpoints.
    """
    p, d = flat[e[:, 0]], flat[e[:, 1]] - flat[e[:, 0]]
    q, g = flat[f[:, 0]][None], (flat[f[:, 1]] - flat[f[:, 0]])[None]
    out = [np.zeros((0, 2))]
    step = max(1, CROSSING_BLOCK // f.shape[0])
    for s in range(0, e.shape[0], step):
        # p + a d = q + b g, solved by 2-d cross products
        ps, ds = p[s:s + step, None], d[s:s + step, None]
        r = q - ps
        den = ds[..., 0] * g[..., 1] - ds[..., 1] * g[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            a = (r[..., 0] * g[..., 1] - r[..., 1] * g[..., 0]) / den
            b = (r[..., 0] * ds[..., 1] - r[..., 1] * ds[..., 0]) / den
        rows, cols = np.nonzero((den != 0) & (a >= 0) & (a <= 1) & (b >= 0) & (b <= 1))
        out.append(p[s + rows] + a[rows, cols, None] * d[s + rows])
    return np.vstack(out)


def steiner_symmetrize(p: Body, i: int) -> VPolytope:
    """Steiner symmetrization of a 3-polytope in direction e_i: every
    chord of P parallel to e_i is re-centered on e_i^perp.

    Exact: over the projection, the top of P is linear on each projected
    upper facet and the bottom on each projected lower facet, so the chord
    length l is linear on every cell of the overlay of the two.  The
    cells' corners are the projected vertices and the crossings of a
    projected upper edge with a projected lower edge, and the symmetral
    is the hull of +-l/2 above those points.
    """
    p = _b.as_vpolytope(p)
    if p.n != 3:
        raise UnsupportedOperation("Steiner symmetrization is implemented for n = 3")
    if _b.affine_dim(p) < 3:
        raise UnsupportedOperation("Steiner symmetrization needs a full-dimensional body")
    i = _check_axis(3, i)
    others = [j for j in range(3) if j != i]
    hull = p.qhull
    eq = hull.equations  # rows (a, b): a.x + b <= 0 inside
    up = eq[:, i] > VERTICAL_TOL
    down = eq[:, i] < -VERTICAL_TOL

    def edges(simplices):
        pairs = simplices[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        return _distinct_rows(np.sort(pairs, axis=1))

    flat = p.vertices[:, others]
    ys = np.vstack([flat, _crossings(flat, edges(hull.simplices[up]),
                                     edges(hull.simplices[down]))])
    # Chord of the line {y + t e_i} against every facet half-space
    # a_other . y + a_i t + b <= 0; vertical facets bound no chord.
    rhs = -(ys @ eq[:, others].T) - eq[:, 3]
    t_hi = np.min(rhs[:, up] / eq[up, i], axis=1)
    t_lo = np.max(rhs[:, down] / eq[down, i], axis=1)
    half = np.maximum(t_hi - t_lo, 0.0) / 2.0
    out = np.zeros((2 * ys.shape[0], 3))
    out[:, others] = np.vstack([ys, ys])
    out[:, i] = np.concatenate([half, -half])
    return convex_hull(out)
