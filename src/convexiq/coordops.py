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
# Step from a normal-fan arc crossing into the four cells around it
# (g_symmetral's seed directions, about unit length), and arc pairs one
# crossing test there may hold (about 16 MB of temporaries).
CELL_STEP = 1e-7
ARC_BLOCK = 1 << 16
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

    A polytope's section is the hull of the points where the plane meets
    its edges: the skeleton points (:func:`bodies.skeleton`) within 1e-10
    of the plane, and the crossing of every skeleton edge whose ends lie
    strictly on opposite sides.  For a zonotope those are its sign points
    and sign-cube edges, so it is never expanded.  Returns ``EMPTY`` when
    the plane misses the body.
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
    cut = _cut(p, i)
    return EMPTY if cut is None else convex_hull(cut)


def _cut(p: Body, i: int) -> np.ndarray | None:
    """The points whose hull is the section of a polytopal body by
    x_i = 0, with coordinate i set to exactly 0; None when the plane
    misses the body."""
    pts, edges = _b.skeleton(p)
    coords = pts[:, i]
    on = np.abs(coords) <= ON_PLANE_TOL
    pos = coords > ON_PLANE_TOL
    neg = coords < -ON_PLANE_TOL
    a, b = edges[:, 0], edges[:, 1]
    a_up = pos[a] & neg[b]
    straddle = a_up | (neg[a] & pos[b])
    above = np.where(a_up, a, b)[straddle]
    below = np.where(a_up, b, a)[straddle]
    ca, cb = coords[above], coords[below]
    # x = a + t (b - a) with t = ca / (ca - cb) zeroes coordinate i.
    t = (ca / (ca - cb))[:, None]
    cross = pts[above] + t * (pts[below] - pts[above])
    cut = np.vstack([pts[on], cross])
    if cut.shape[0] == 0:
        return None
    cut[:, i] = 0.0  # exact on-plane coordinates
    return cut


def section_drop(p: Body, i: int):
    """Section in deleted-coordinate form (ambient n-1), computed once per
    body instance and axis, like :func:`project_drop`.  A polytopal
    section is hulled once, in the n-1 kept coordinates, so that hull is
    the one its measures read."""
    p = resolve(p)
    i = _check_axis(p.n, i)
    return _b.derived(p, ("section_drop", i), lambda: _section_drop(p, i))


def _section_drop(p: Body, i: int):
    if isinstance(p, (Ball, DiskHull)):
        s = section(p, i)   # a ball flat along axis i
        return EMPTY if s is EMPTY else project_drop(s, i)
    cut = _cut(p, i)
    return EMPTY if cut is None else convex_hull(np.delete(cut, i, axis=1))


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
    return a[np.concatenate([[True], np.any(a[1:] != a[:-1], axis=1)])[:len(a)]]


def _orbit(x: np.ndarray, perms: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Every signed permutation x -> signs * x[perm] of each row of x,
    row-major: row r is the image of x[r // |G|] under element r % |G|."""
    return (x[:, perms][:, :, None, :] * signs).reshape(-1, x.shape[1])


def _fan_arcs(hull: ConvexHull, perms: np.ndarray, signs: np.ndarray):
    """The distinct normal-fan arcs of the signed-permutation images of a
    3-polytope, as (starts, ends, image) with one row per arc.

    An edge of the polytope is the arc between the unit normals of its
    two facets (:func:`bodies.facets`).  An arc that several images share
    is one row with image -1, to be paired with every other arc.
    """
    facet = _b.facets(hull)
    s = np.repeat(np.arange(facet.size), 3)
    t = hull.neighbors.ravel()
    keep = (s < t) & (facet[s] != facet[t])
    arcs = np.hstack([_orbit(hull.equations[u, :3], perms, signs)
                      for u in (s[keep], t[keep])]) + 0.0   # no -0.0
    _, first, count = np.unique(arcs.view(np.dtype((np.void, 48))).ravel(),
                                return_index=True, return_counts=True)
    image = first % (perms.shape[0] * signs.shape[0])   # row r: image r % |G|
    return arcs[first, :3], arcs[first, 3:], np.where(count > 1, -1, image)


def _cell_directions(a: np.ndarray, b: np.ndarray, image: np.ndarray):
    """The distinct directions into the four cells around every point
    where two arcs of different images cross, testing one block of arc
    pairs at a time.

    Arc r runs from a_r to b_r on the great circle normal to
    c_r = a_r x b_r, and x lies strictly inside it when
    x.(c_r x a_r) > 0 and x.(b_r x c_r) > 0.  Two circles meet at
    +-(c_1 x c_2), and the arcs cross where one sign is inside both.
    Around that point d, the tangent f_1 of arc 2 (turned towards c_1)
    and the tangent f_2 of arc 1 (turned towards c_2) point into the
    cells, so d + CELL_STEP (+-f_1 +-f_2) are four directions, one in each.
    """
    m = a.shape[0]
    c = np.cross(a, b)
    inside = np.stack([np.cross(c, a), np.cross(b, c)], axis=1)
    quadrants = _b._sign_matrix(2)
    cols, out = np.arange(m), [np.zeros((0, 3))]
    step = max(1, ARC_BLOCK // m)

    def toward(f, g):
        """f scaled to unit length with f.g > 0."""
        return f * (np.sign(np.einsum("ij,ij->i", f, g))
                    / np.linalg.norm(f, axis=1))[:, None]

    for s in range(0, m, step):
        rows = cols[s:s + step]
        i, j = np.nonzero((rows[:, None] < cols) & ((image[rows, None] != image)
                                                     | (image[rows, None] < 0)))
        i += s
        x = np.cross(c[i], c[j])
        side = np.hstack([np.einsum("pkx,px->pk", inside[i], x),
                          np.einsum("pkx,px->pk", inside[j], x)])
        keep = np.all(side > 0, axis=1) | np.all(side < 0, axis=1)
        d = x[keep] * np.sign(side[keep, :1])
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        c1, c2 = c[i[keep]], c[j[keep]]
        f = np.stack([toward(np.cross(d, c2), c1), toward(np.cross(d, c1), c2)],
                     axis=1)
        out.append((d[:, None, :] + CELL_STEP * (quadrants @ f)).reshape(-1, 3))
    return _distinct_rows(np.vstack(out))


def g_symmetral(body: Body) -> VPolytope:
    """Minkowski average (1/|G|) sum_{g in G} gK over all signed
    permutations, as an exact vertex list.

    Built from a support oracle (:func:`_average_argmax` over the level
    chain of :func:`_group_levels`), never from a vertex-sum cloud.  The
    candidates start as the oracle points of the group orbit of K's facet
    normals and vertex directions.  For a full-dimensional K in R^3 they
    also hold the oracle points of the four cells around every crossing
    of two images' normal-fan arcs (:func:`_cell_directions`): the
    average's normal fan is the common refinement of its summands', so
    each of its facets is parallel to a facet of some image gK or to an
    edge of each of two images, where those edges' arcs cross, and the
    first hull is the average save for cells these seeds miss.  Each
    round hulls the candidates and adds the oracle point of every hull
    facet (a, b) with h(a) > b + SUPPORT_TOL * scale.  When no facet is
    violated the hull is the average: it lies inside the average, and
    every facet inequality of the hull holds on the average.  The
    candidate count is checked against :func:`_sum_budget` after every
    oracle batch, so before every hull.
    """
    body = resolve(body)
    n = body.n
    if n > 5:
        raise UnsupportedOperation(
            f"group averaging refused for n={n} (2^n n! blow-up; cap 5)")
    k = _b.as_vpolytope(body)
    levels = _group_levels(n)
    perms = np.array(list(itertools.permutations(range(n))))
    signs = _b._sign_matrix(n)
    order = perms.shape[0] * signs.shape[0]
    batch = max(1, ORACLE_BATCH // (order * k.vertex_count))
    cap = _sum_budget(n)

    def grow(cands, dirs, bound=None):
        """cands plus the oracle points of dirs that exceed bound (all of
        them without one), refused past the cap."""
        for s in range(0, dirs.shape[0], batch):
            u = dirs[s:s + batch]
            pts = _average_argmax(k.vertices, levels, u)
            if bound is not None:
                pts = pts[np.einsum("ij,ij->i", pts, u) > bound[s:s + batch]]
            cands = _distinct_rows(np.vstack([cands, pts]))
            if cands.shape[0] > cap:
                raise UnsupportedOperation(
                    f"the symmetral needs more than {cap} candidate points "
                    f"in dimension {n}; the exact average is too complex "
                    "for this implementation")
        return cands

    dim = _b.affine_dim(k)
    if dim == 0:
        return VPolytope(_average_argmax(k.vertices, levels, np.zeros((1, n))))
    seeds = k.vertices
    if dim == n:
        seeds = _distinct_rows(np.vstack([k.qhull.equations[:, :n], seeds]))
    cands = np.zeros((0, n))
    per = max(1, ORBIT_BLOCK // order)   # seeds per orbit block
    for s in range(0, seeds.shape[0], per):
        cands = grow(cands, _distinct_rows(_orbit(seeds[s:s + per], perms, signs)))
    if dim == n == 3:
        cands = grow(cands, _cell_directions(*_fan_arcs(k.qhull, perms, signs)))
    while True:
        qh = ConvexHull(cands)
        eq = _distinct_rows(qh.equations)
        scale = float(np.max(np.abs(cands)))
        grown = grow(cands, eq[:, :n], SUPPORT_TOL * scale - eq[:, n])
        if grown.shape[0] == cands.shape[0]:
            return _b.hulled(cands, qh)
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

    flat = hull.points[:, others]   # the index space of hull.simplices
    ys = np.vstack([p.vertices[:, others],
                    _crossings(flat, edges(hull.simplices[up]),
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
