"""Coordinate-hyperplane operations: projections, sections and group
averaging.

Projections and sections are made in deleted-coordinate form (ambient
n-1) by ``project_drop`` and ``section_drop``, once per body and axis, so
nested projections and intrinsic measures of the result are natural.
``project`` and ``section`` keep the ambient space: they are those bodies
with coordinate i put back as 0, so each body kind is projected and
sectioned in one function.
"""
from __future__ import annotations

import itertools
import math
from functools import cache

import numpy as np

from . import bodies as _b
from .bodies import (Ball, Body, DiskHull, VPolytope, Zonotope, convex_hull,
                     resolve)
from .errors import InvalidArgument, UnsupportedMeasure, UnsupportedOperation
from .symmetry import SignedPermutation

# Relative excess of the symmetral's support over a hull facet that
# counts as a missing vertex (g_symmetral's stop rule).
SUPPORT_TOL = 1e-12
# Entries of the (directions x vertices) product one support-oracle call
# in g_symmetral may hold, and of one block of its (directions x paths) tuples.
ORACLE_BATCH = 1 << 18
ORBIT_BLOCK = 1 << 16
# Step from a normal-fan arc crossing into the four cells around it
# (g_symmetral's seed directions, about unit length), and arc pairs one
# crossing test there may hold (about 16 MB of temporaries).
CELL_STEP = 1e-7
ARC_BLOCK = 1 << 16


def _sum_budget(n: int) -> int:
    """Most candidate points :func:`g_symmetral` hulls in dimension n.

    Exact symmetrals of complex bodies have combinatorially many
    vertices, and qhull memory grows much faster with point count in
    dimension >= 4 than in 3.  The distinct seed tuples are checked before
    they are assembled and the candidates before every hull, so a refusal
    comes before the expensive work.
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
    (coordinate i zeroed): :func:`project_drop` lifted back (:func:`_lift`)."""
    return _lift(project_drop(body, i), i)


def _lift(body, i: int):
    """A deleted-coordinate body put back into R^n with coordinate i = 0:
    a zero column inserted into a polytope's vertices (their lexicographic
    order is unchanged), a zonotope's center and generators, or a ball's
    center, whose zeroed axes shift past i and gain i.  ``EMPTY`` passes
    through."""
    if isinstance(body, VPolytope):
        return VPolytope(np.insert(body.vertices, i, 0.0, axis=1))
    if isinstance(body, Zonotope):
        return Zonotope(np.insert(body.center, i, 0.0),
                        np.insert(body.generators, i, 0.0, axis=1))
    if isinstance(body, Ball):
        zeroed = frozenset(j if j < i else j + 1 for j in body.zeroed) | {i}
        return Ball(np.insert(body.center, i, 0.0), body.radius, zeroed)
    return body


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
        # the unit disk of e_i^perp: each other disk projects inside it
        return Ball(np.zeros(2), 1.0)
    raise InvalidArgument(f"not a body: {type(body).__name__}")


def project_along(body: Body, u: np.ndarray) -> Body:
    """The projection of a polytope or ball onto u^perp (unit u, not a
    coordinate axis) in the coordinates of an orthonormal basis of u^perp,
    in R^{n-1} like :func:`project_drop`: vertices times the basis.
    Zonotopes are measured along u without it
    (:func:`measures.vm_projection`)."""
    n = body.n
    basis = np.linalg.svd(u[None, :])[2][1:]
    if isinstance(body, VPolytope):
        return convex_hull(body.vertices @ basis.T)
    if isinstance(body, Ball):
        # A ball projects to a ball only along its span (one dimension
        # fewer) or across it (itself); V_m sees only dimension and radius.
        flat = np.zeros(n, dtype=bool)
        flat[list(body.zeroed)] = True
        if not np.any(u[flat]):
            d = body.active_dim - 1
        elif not np.any(u[~flat]):
            d = body.active_dim
        else:
            raise UnsupportedMeasure(
                "an oblique projection of a flattened ball is an ellipsoid")
        return Ball(np.zeros(n - 1), body.radius, frozenset(range(n - 1 - d)))
    raise InvalidArgument(f"not a body: {type(body).__name__}")


def section(p: Body, i: int):
    """The slice {x in P : x_i = 0} of a body, kept in the ambient space:
    :func:`section_drop` lifted back (:func:`_lift`).  Returns ``EMPTY``
    when the plane misses the body."""
    return _lift(section_drop(p, i), i)


def _upper(pts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The side rule of the planes x_i = 0 (x's last axis) for the body
    that the points pts span (or rows whose least x_i on each axis is the
    body's): whether each point of x lies on the upper side, x_i >= 0
    when some point of pts has x_i < 0 and x_i <= 0 otherwise.  A point on the plane is always upper, so a plane through
    K's interior is cut as the limit of x_i = -eps, and every point is
    upper only when K lies in the plane."""
    return np.where(np.any(pts < 0, axis=0), x >= 0, x <= 0)


def _cut_points(pts: np.ndarray, a: np.ndarray, b: np.ndarray, i: np.ndarray) -> np.ndarray:
    """The points x_ab = a + t (b - a), t = a_i / (a_i - b_i), where the
    edges from the upper points a to the lower points b (:func:`_upper`)
    cross x_i = 0, in the coordinates other than i; a and b are index
    arrays whose rows hold the edges of the axes i.  A point on the plane
    is its own cut point, bytes included."""
    m, n = pts.shape
    i = i.reshape((-1,) + (1,) * (a.ndim - 1))
    reduced = pts[:, _others(n)].transpose(1, 0, 2).reshape(-1, n - 1)   # row i m + p
    pa, pb = reduced[i * m + a], reduced[i * m + b]
    ca, cb = pts.ravel()[a * n + i], pts.ravel()[b * n + i]
    return np.where((ca == 0)[..., None], pa, pa + (ca / (ca - cb))[..., None] * (pb - pa))


@cache
def _others(n: int) -> np.ndarray:
    """Row i: the coordinates of R^n other than i."""
    return np.array([[j for j in range(n) if j != i] for i in range(n)], dtype=np.intp)


def _cut(p: Body, i: int) -> np.ndarray | None:
    """The points whose hull is the section of a polytopal body by
    x_i = 0, in the n-1 coordinates other than i: the cut points
    (:func:`_cut_points`) of the skeleton edges (:func:`bodies.skeleton`)
    with one upper and one lower end (:func:`_upper`); every skeleton
    point when all are upper (the body lies in the plane); None when no
    edge crosses the plane."""
    pts, edges = _b.skeleton(p)
    up = _upper(pts, pts)[:, i]
    if up.all():
        return pts[:, _others(p.n)[i]]
    crossing = edges[up[edges[:, 0]] != up[edges[:, 1]]]
    if not crossing.size:
        return None
    crossing = np.where(up[crossing[:, :1]], crossing, crossing[:, ::-1])   # upper end first
    return _cut_points(pts, crossing[:, 0], crossing[:, 1], np.asarray(i))


def section_drop(p: Body, i: int):
    """The slice {x in P : x_i = 0} in deleted-coordinate form (ambient
    n-1), computed once per body instance and axis, like
    :func:`project_drop`; ``EMPTY`` when the plane misses the body.

    A body that x_i -> -x_i maps onto itself bit for bit (K1, and a
    polytope whose canonical vertex list is unchanged by negating column
    i) holds the midpoint of x and its mirror image, so its section is its
    projection: the same object as ``project_drop(p, i)``, with no
    skeleton cut.  A ball's section is a ball, in closed form.  Any other
    polytopal section is the hull of the points where the plane meets its
    skeleton edges (:func:`_cut`), by the side rule of :func:`_upper` and
    with no tolerance: a point on the plane is its own cut point.  For a
    zonotope the skeleton is its sign points and sign-cube edges, so it
    is never expanded (``measures`` reads V_{n-1} and V_{n-2} of a
    zonotope in general position off its facets, and V_{n-3} off its
    ridges, with no cut, so past 16 generators too).  That cut
    is hulled once, in the n-1 kept coordinates, so that hull is the one
    its measures read."""
    p = resolve(p)
    i = _check_axis(p.n, i)
    return _b.derived(p, ("section_drop", i), lambda: _section_drop(p, i))


def mirror_symmetric(p: Body, i: int) -> bool:
    """Whether x_i -> -x_i maps the body onto itself exactly, with no
    tolerance, once per body instance and axis; then its section by
    e_i^perp is its projection.  Balls and zonotopes answer False and
    keep their routes."""
    p = resolve(p)
    i = _check_axis(p.n, i)
    return _b.derived(p, ("mirror_symmetric", i), lambda: _mirror_symmetric(p, i))


def _mirror_symmetric(p: Body, i: int) -> bool:
    if isinstance(p, DiskHull):
        return True
    if not isinstance(p, VPolytope):
        return False
    flipped = p.vertices.copy()
    flipped[:, i] *= -1.0
    return np.array_equal(_b._lexsorted(flipped), p.vertices)


def _section_drop(p: Body, i: int):
    if mirror_symmetric(p, i):
        return project_drop(p, i)
    if isinstance(p, Ball):
        c = abs(float(p.center[i]))   # 0 when the ball is flat along axis i
        if c > p.radius:
            return EMPTY
        if i in p.zeroed:   # its own section
            return project_drop(p, i)
        r = math.sqrt((p.radius - c) * (p.radius + c))
        return _project_drop(Ball(p.center, r, p.zeroed | {i}), i)
    cut = _cut(p, i)
    return EMPTY if cut is None else convex_hull(cut)


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


class _ChainOracle:
    """Support oracle of the chain's average of a vertex list.  Path h
    takes one element per level of :func:`_group_levels` (the first
    level's is h's most significant digit) and queries K in the direction
    sigma[h] * u[pi[h]], an exact signed permutation of u; the paths meet
    each signed permutation A, handled as e = A^-1 (1, ..., n), once.  So
    a direction's argmax tuple (K's maximizing vertex on every path) is
    its canonical direction's re-indexed (:meth:`paths`).
    """

    def __init__(self, vertices: np.ndarray):
        self.vertices, n = vertices, vertices.shape[1]
        self.levels, w = _group_levels(n), np.arange(1.0, n + 1)[None]
        for elements in reversed(self.levels):   # as the recursive chain expands
            w = np.vstack([w @ g.matrix() for g in elements])
        self.order, self.per = w.shape[0], max(1, ORBIT_BLOCK // w.shape[0])
        self.pi, self.sigma = np.abs(w).astype(np.intp) - 1, np.sign(w)
        self.radix = (2 * n + 1) ** np.arange(n - 1, -1, -1)   # e -> (e + n) @ radix
        self.path_at = np.empty((2 * n + 1) ** n, dtype=np.intp)
        self.path_at[((w + n) @ self.radix).astype(np.intp)] = np.arange(self.order)
        self.perms = np.array(list(itertools.permutations(range(n))))
        self.signs, self.offsets = _b._sign_matrix(n), np.arange(self.order) * len(vertices)
        self.units = _orbit(np.arange(1.0, n + 1)[None], self.perms, self.signs)
        # row h |V| + v: path h's elements applied to vertex v, whose
        # product with u is vertex v's with path h's direction at u
        inv = np.argsort(self.pi, axis=1)
        self.images = (vertices[:, inv] * np.take_along_axis(self.sigma, inv, axis=1)
                       ).transpose(1, 0, 2).reshape(-1, n)

    def paths(self, e: np.ndarray) -> np.ndarray:
        """Row i, column h: the path whose direction at c is path h's at
        A^-1 c, e[i] = A^-1 (1, ..., n), bit for bit but for the sign of
        zeros, which no argmax sees; from one block's distinct e."""
        first, inv = _distinct(e, return_index=True, return_inverse=True)[1:]
        d = e[first][:, self.pi] * self.sigma + len(self.radix)
        return self.path_at[(d @ self.radix).astype(np.intp)][inv]

    def tabulate(self, u: np.ndarray):
        """(c, table, index, e): the distinct canonical directions c of the
        rows of u, their argmax tuples, each row's c and its A, A u = c."""
        a, v = np.abs(u), self.vertices   # +0.0 for zeros
        q = np.argsort(a, axis=1, kind="stable")
        e = np.where(u < 0, -1.0, 1.0) * (np.argsort(q, axis=1) + 1)
        c = np.take_along_axis(a, q, axis=1)
        first, index = _distinct(c, return_index=True, return_inverse=True)[1:]
        c, table = c[first], np.empty((first.size, self.order), dtype=np.intp)
        per = max(1, ORACLE_BATCH // (self.order * len(v)))
        for b in range(0, len(c), per):
            d = (c[b:b + per, self.pi] * self.sigma).reshape(-1, v.shape[1])
            table[b:b + per] = np.argmax(d @ v.T, axis=1).reshape(-1, self.order)
        return c, table, index, e

    def orbit_tuples(self, u: np.ndarray) -> np.ndarray:
        """The distinct argmax tuples, in the smallest unsigned type, of the
        distinct images A^-1 c of the canonical directions c of the rows
        of u, refused past the cap before any is assembled."""
        c, table = self.tabulate(u)[:2]
        keep, n, per = _distinct(table, return_index=True)[1], u.shape[1], self.per
        c, table, found = c[keep], table[keep], []
        for b in range(0, len(c), max(1, per // n)):
            images = _orbit(c[b:b + max(1, per // n)], self.perms, self.signs) + 0.0
            pairs = b * self.order + _distinct(images, return_index=True)[1]
            for p in range(0, pairs.size, per):
                row, g = np.divmod(pairs[p:p + per], self.order)
                t = table[row[:, None], self.paths(self.units[g])].astype(
                    np.min_scalar_type(len(self.vertices) - 1))
                found.append(t[_distinct(t, return_index=True)[1]])
                if sum(map(len, found)) > _sum_budget(n):
                    _merge(found, n)
        _merge(found, n)
        return found[0]

    def at(self, u: np.ndarray) -> np.ndarray:
        """The average's oracle point in every direction of the rows of u."""
        _, table, index, e = self.tabulate(u)
        return np.vstack([np.zeros((0, u.shape[1]))] + [
            self.points(table[index[b:b + self.per, None], self.paths(e[b:b + self.per])])
            for b in range(0, len(u), self.per)])

    def points(self, t: np.ndarray) -> np.ndarray:
        """The average's point of every argmax tuple.  A sum's support
        point sums its summands', so each level sums its images' points in
        element order and scales by 1/|level|, to the byte as summing them
        pairwise does; signed permutations commute with that (``images``)."""
        out = []
        for b in range(0, len(t), self.per):
            x = np.take(self.images, self.offsets + t[b:b + self.per], axis=0)
            for elements in self.levels:
                x = x.reshape(len(x), len(elements), -1, x.shape[-1])
                total = x[:, 0]
                for k in range(1, len(elements)):
                    total = total + x[:, k]
                x = (1.0 / len(elements)) * total
            out.append(x.reshape(len(x), -1))
        return np.vstack(out)


def _distinct(a: np.ndarray, **kwargs):
    """np.unique over the rows of a, sorted exactly on their bytes."""
    return np.unique(_b._byte_rows(a), **kwargs)


def _merge(blocks: list, n: int) -> None:
    """Replace blocks by one block of their distinct rows, capped by _sum_budget."""
    w = np.vstack(blocks)
    blocks.clear()
    blocks.append(_distinct(w).view(w.dtype).reshape(-1, w.shape[1]))
    _check_budget(len(blocks[0]), n)


def _check_budget(count: int, n: int) -> None:
    """Refuse more than _sum_budget(n) distinct candidate points."""
    if count > _sum_budget(n):
        raise UnsupportedOperation(
            f"the symmetral needs more than {_sum_budget(n)} candidate points "
            f"in dimension {n}; the exact average is too complex "
            "for this implementation")


def _distinct_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of a, lexicographically sorted."""
    a = _b._lexsorted(a)
    return a[np.concatenate([[True], np.any(a[1:] != a[:-1], axis=1)])[:len(a)]]


def _orbit(x: np.ndarray, perms: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Every signed permutation x -> signs * x[perm] of each row of x,
    row-major: row r is the image of x[r // |G|] under element r % |G|."""
    return (x[:, perms][:, :, None, :] * signs).reshape(-1, x.shape[1])


def _cell_directions(k: VPolytope, perms: np.ndarray, signs: np.ndarray):
    """Directions into the four cells around every crossing of two
    signed-permutation images' normal-fan arcs, for a full-dimensional
    3-polytope.

    An edge is the arc between the unit normals of the two facets at a
    bent ridge (:func:`bodies.bent_ridges`), and byte-equal arcs of
    several images are one.  Arcs of one image never cross, so only image
    0's arcs are paired with the arcs that are not image 0's, a block of
    pairs at a time: g^-1 maps a crossing of an arc of g with one that is
    not g's to one of these, so these directions' orbits hold every
    crossing's cells.

    Arc r runs from a_r to b_r on the great circle normal to
    c_r = a_r x b_r, and x lies strictly inside it when
    x.(c_r x a_r) > 0 and x.(b_r x c_r) > 0.  Two circles meet at
    +-(c_1 x c_2), and the arcs cross where one sign is inside both.
    Around that point d, the tangent f_1 of arc 2 (turned towards c_1)
    and the tangent f_2 of arc 1 (turned towards c_2) point into the
    cells, so d + CELL_STEP (+-f_1 +-f_2) are four directions, one in each.
    """
    normals = k.qhull.equations[:, :3]
    arcs = np.hstack([_orbit(normals[u], perms, signs)
                      for u in _b.bent_ridges(k)[:2]]) + 0.0   # no -0.0
    _, first, index = _distinct(arcs, return_index=True, return_inverse=True)
    a, b = arcs[first, :3], arcs[first, 3:]
    zero = np.zeros(first.size, dtype=bool)
    zero[index[::perms.shape[0] * signs.shape[0]]] = True   # arc row r is image r % |G|'s
    reps, others = np.flatnonzero(zero), np.flatnonzero(~zero)
    c = np.cross(a, b)
    inside = np.stack([np.cross(c, a), np.cross(b, c)], axis=1)
    quadrants, out = _b._sign_matrix(2), [np.zeros((0, 3))]
    step = max(1, ARC_BLOCK // max(1, others.size))

    def toward(f, g):
        """f scaled to unit length with f.g > 0."""
        return f * (np.sign(np.einsum("ij,ij->i", f, g))
                    / np.linalg.norm(f, axis=1))[:, None]

    for s in range(0, reps.size, step):
        i = np.repeat(reps[s:s + step], others.size)
        j = np.tile(others, reps[s:s + step].size)
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
    return np.vstack(out)


def _orthant_cloud(cands: np.ndarray) -> np.ndarray:
    """The candidates in the orthant x >= 0 and all their 2^n coordinate
    projections (each subset of coordinates set to +0.0), distinct and
    lexicographically sorted: for a sign-invariant cloud their hull is
    the cloud's hull cut by the orthant, since an unconditional body
    holds the coordinate projections of its points.  A coordinate within
    DEDUP_TOL R of 0 (R the largest |coordinate|) is put on the mirror,
    as :func:`bodies.convex_hull` would merge the point with its mirror
    image."""
    n, tol = cands.shape[1], _b.DEDUP_TOL * float(np.max(np.abs(cands)))
    corner = cands[np.all(cands >= -tol, axis=1)]
    corner = np.where(np.abs(corner) <= tol, 0.0, corner)   # +0.0, no -0.0
    keep = _b._sign_matrix(n) > 0   # row r: the coordinates projection r keeps
    return _distinct_rows((corner[:, None, :] * keep).reshape(-1, n))


def _unfold(q: VPolytope) -> VPolytope:
    """The unconditional polytope P whose cut by the orthant x >= 0 is q
    (the hull of :func:`_orthant_cloud`), with its boundary triangulation
    (:class:`bodies.Triangulation`) made from q's qhull triangulation and
    its 2^n sign images, with no hull of P.

    q's simplices whose normal has an entry below -DEDUP_TOL lie on the
    cuts x_i = 0 (normal -e_i) and drop out, and so do the flat simplices
    that qhull puts in a cut (all vertices on one x_i = 0), which their
    mirror images would repeat; the others are P's boundary in the
    orthant.  A point on x_i = 0 is its own image under the sign change
    of x_i, and a zero coordinate of an image is made +0.0.  A facet of q
    with |a_i| <= DEDUP_TOL that holds a simplex with n - 1 vertices on
    x_i = 0 is half of a facet of P that the mirror maps to itself, so
    its a_i is set to 0 and both halves carry one equation bit for bit,
    as qhull's merged facet does; a facet with a ridge on the mirror and
    a larger a_i (a cross-polytope's) bends there.  Each simplex's
    neighbour across a ridge is the one other simplex holding it
    (:func:`_ridge_neighbors`).  P's volume is 2^n times q's, and its
    area 2^n times q's without the cuts.

    The vertices of P are the points whose incident facet normals have
    rank n.  A vertex p of q with zero coordinates Z is a vertex of q's
    face x_Z = 0, so the uncut normals at p have rank n - |Z| outside
    the coordinates Z; P's normals at p are their images under the sign
    changes of Z, which add e_i for each i in Z where one of them has
    a_i != 0.  So p is a vertex of P when every zero coordinate of p has
    such a normal."""
    h, n, images = q.qhull, q.n, 1 << q.n
    pts, signs = h.points, _b._sign_matrix(n)   # sign row r: image r
    uncut = (np.min(h.equations[:, :n], axis=1) >= -_b.DEDUP_TOL) & \
        ~np.any(np.all(pts[h.simplices] == 0.0, axis=1), axis=1)
    tri, eq, facet = h.simplices[uncut], h.equations[uncut], _b.facets(h)[uncut]
    on_mirror = np.count_nonzero(pts[tri] == 0.0, axis=1) == n - 1   # simplex, axis
    s, i = np.nonzero(on_mirror & (np.abs(eq[:, :n]) <= _b.DEDUP_TOL))
    fixed = np.zeros((facet.max() + 1, n), dtype=bool)   # facets the mirror i maps to themselves
    fixed[facet[s], i] = True
    eq[:, :n][fixed[facet]] = 0.0
    # image r of a point depends on the bits of r at its nonzero
    # coordinates (coordinate j is bit n-1-j; :func:`bodies._sign_matrix`)
    used, slot = np.unique(tri, return_inverse=True)
    slot = slot.reshape(tri.shape)
    live = pts[used] != 0.0
    bits = live @ (1 << np.arange(n - 1, -1, -1))
    keys = np.arange(used.size)[:, None] * images + (np.arange(images) & bits[:, None])
    keys, image = np.unique(keys, return_inverse=True)
    image = image.reshape(used.size, images)   # point of image r of used[u]
    points = pts[used[keys // images]] * signs[keys % images] + 0.0
    simplices = image[slot].transpose(2, 0, 1).reshape(-1, n)
    equations = np.concatenate([
        eq[None, :, :n] * signs[:, None, :] + 0.0,
        np.broadcast_to(eq[None, :, n:], (images, len(eq), 1))], axis=2).reshape(-1, n + 1)
    hit = np.zeros((used.size, n), dtype=bool)   # some uncut normal at u has a_i != 0
    for j in range(n):
        hit[slot[eq[:, j] != 0.0], j] = True
    vertices = np.unique(image[np.all(hit | live, axis=1)])
    cut = pts[h.simplices[~uncut]]   # rows: the normal, then the edges from vertex 0
    cut[:, 1:] -= cut[:, :1]
    cut[:, 0] = h.equations[~uncut, :n]
    area = h.area - float(np.sum(np.abs(np.linalg.det(cut)))) / math.factorial(n - 1)
    p = VPolytope(_b._lexsorted(points[vertices]))
    vars(p)["qhull"] = _b.Triangulation(
        points, simplices, _ridge_neighbors(simplices, len(points)), equations, vertices,
        images * area, images * h.volume)
    return p


def _ridge_neighbors(simplices: np.ndarray, points: int) -> np.ndarray:
    """neighbors[s, k], the other simplex holding the ridge of s opposite
    its vertex k (qhull's layout), where every ridge is held by exactly
    two simplices; otherwise the triangulation does not close up and
    :class:`UnsupportedOperation` is raised.  A ridge is keyed by its
    sorted point indices in base ``points``, which fits an int64 under
    :func:`_sum_budget`'s caps: a candidate in the orthant with k nonzero
    coordinates has 2^k sign images and its projections have 3^k, so
    there are at most (3/2)^n points per candidate."""
    count, n = simplices.shape
    opposite = (np.arange(n)[:, None] + np.arange(1, n)) % n   # row k: the slots but k
    ridge = np.sort(simplices[:, opposite], axis=2).reshape(-1, n - 1)   # row s n + k
    key = ridge.astype(np.int64) @ (points ** np.arange(n - 2, -1, -1, dtype=np.int64))
    order = np.argsort(key)
    same = key[order[1:]] == key[order[:-1]]
    if order.size % 2 or not same[::2].all() or same[1::2].any():
        raise UnsupportedOperation(
            "the sign images of the symmetral's orthant hull do not close up")
    a, b = order[::2], order[1::2]
    neighbors = np.empty(order.size, dtype=np.intp)
    neighbors[a], neighbors[b] = b // n, a // n
    return neighbors.reshape(count, n)


def g_symmetral(body: Body) -> VPolytope:
    """Minkowski average (1/|G|) sum_{g in G} gK over all signed
    permutations, as an exact vertex list.

    Hulled from a support oracle (:class:`_ChainOracle`) at the orbits of
    K's facet normals and vertex directions and, for a full-dimensional K
    in R^3, of the four cells around every crossing of two images'
    normal-fan arcs (:func:`_cell_directions`): the average's fan refines
    its summands', so each of its facets is parallel to a facet of some
    gK or to edges of two images whose arcs cross.

    The average is unconditional, so each round hulls one orthant of it
    (:func:`bodies.convex_hull`, one qhull call): Q, the candidates in
    the closed orthant x >= 0 and their coordinate projections
    (:func:`_orthant_cloud`).  The candidates' sign images are candidates
    bit for bit, and an unconditional body holds the coordinate
    projections of its points, so Q's hull is the candidates' hull cut
    by the orthant; without the projections it would lack its faces on
    the mirrors x_i = 0 (the cube's Q would be one point).  The returned
    polytope is Q's hull and its 2^n sign images (:func:`_unfold`),
    whose triangulation is handed over as the result's ``qhull``
    (:class:`bodies.Triangulation`), with no hull of the whole.  A facet
    of Q with a ridge on x_i = 0 and |a_i| <= DEDUP_TOL is half of a
    facet that the mirror fixes and gets a_i = 0, so that its halves are
    one facet.  DEDUP_TOL is that rule's slack for the reason it is the
    chamber's below: qhull's unit normal of a facet of width w is off by
    about eps R / w, and the narrowest mirror facet seen (6.6e-5 R) has
    a_i = -1.1e-12.

    Each round tests the hull's facets (a, b) for
    h(a) > b + SUPPORT_TOL * scale.
    The candidates are G-invariant up to roundoff: the seeds are whole
    orbits, the oracle's point at g a is g times its point at a up to
    the order of its sums, and a round adds whole orbits.  So the hull's
    facets come in orbits, and (a, b) holds iff (g a, b) does, since the
    average's h is G-invariant.  Every orbit of unit normals meets the
    closed chamber 0 <= a_1 <= ... <= a_n (sort |a|), which lies in the
    orthant, so only the facets of Q whose normal lies within DEDUP_TOL
    of it are tested.  That slack is
    for qhull's rounding: a facet of width w has its unit normal off by
    about eps R / w, and a facet on a mirror (a_1 = 0 or a_i = a_{i+1})
    has its chamber images only on the mirror.  A 5-vertex benchmark
    body has one 6.6e-5 R wide with a_1 = -1.1e-12; DEDUP_TOL covers
    widths down to about 2e-6 R, 30 times narrower.  A failing facet
    adds the oracle points of its whole orbit of normals (:func:`_orbit`),
    which keeps the next candidates G-invariant; when none fails, or the
    oracle adds no new point (a near-duplicate vertex that
    :func:`bodies.convex_hull` merged away), that hull unfolds to the
    average.
    :func:`_sum_budget` caps the distinct seed tuples before any is
    assembled, and the candidates before every hull.
    """
    body = resolve(body)
    n = body.n
    if n > 5:
        raise UnsupportedOperation(
            f"group averaging refused for n={n} (2^n n! blow-up; cap 5)")
    k = _b.as_vpolytope(body)
    oracle, dim, seeds = _ChainOracle(k.vertices), _b.affine_dim(k), k.vertices
    if dim == n > 1:
        seeds = np.vstack([k.qhull.equations[:, :n], seeds])
    if dim == n == 3:
        seeds = np.vstack([seeds, _cell_directions(k, oracle.perms, oracle.signs)])
    cands = _distinct_rows(oracle.points(oracle.orbit_tuples(seeds)))
    step = max(1, oracle.per // n)
    while n > 1 and len(cands) > 1:   # else a point, or a segment in R^1
        _check_budget(len(cands), n)   # the cap, before every hull
        hull = convex_hull(_orthant_cloud(cands))
        eq = hull.qhull.equations
        chamber = np.all(np.diff(eq[:, :n], axis=1, prepend=0.0) >= -_b.DEDUP_TOL, axis=1)
        eq = _distinct_rows(eq[chamber])
        bound = SUPPORT_TOL * float(np.max(np.abs(cands))) - eq[:, n]
        pts = oracle.at(eq[:, :n])
        failed = eq[np.einsum("ij,ij->i", pts, eq[:, :n]) > bound, :n]
        if not len(failed):
            return _unfold(hull)
        grown = _distinct_rows(np.vstack([cands] + [
            oracle.at(_orbit(failed[b:b + step], oracle.perms, oracle.signs))
            for b in range(0, len(failed), step)]))
        if len(grown) == len(cands):   # the oracle adds nothing new
            return _unfold(hull)
        cands = grown
    return convex_hull(cands)
