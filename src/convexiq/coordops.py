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
    dimension >= 4 than in 3.  The candidates' orbits are counted before
    every hull, so a refusal comes before the expensive work.
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
    its canonical direction's re-indexed (:meth:`paths`), and the argmax
    runs once per distinct canonical direction (:meth:`tabulate`).
    :func:`g_symmetral` asks it at the canonical directions of its seeds
    (:meth:`points` of their distinct tuples) and at its chamber hull's
    facet normals (:meth:`at`), never at a whole orbit.
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
        self.offsets = np.arange(self.order) * len(vertices)
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


@cache
def _group(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(perms, signs): element p 2^n + s of G is x -> signs[s] * x[perms[p]],
    :func:`_orbit`'s order."""
    return _b._freeze_index(list(itertools.permutations(range(n)))), _b._sign_matrix(n)


# The chamber C = {0 <= x_1 <= ... <= x_n} of the signed permutations.
# Wall i is x_{i+1} = x_i, with x_0 = 0: wall 0 is x_1 = 0, and wall
# i > 0 joins x_i and x_{i+1}.  A wall mask has bit i set for wall i.


def _walls(x: np.ndarray) -> np.ndarray:
    """Each row's wall mask: the walls it lies on exactly."""
    return (np.diff(x, axis=1, prepend=0.0) == 0) @ (1 << np.arange(x.shape[1]))


@cache
def _runs(n: int, walls: int) -> tuple[tuple[int, int], ...]:
    """The runs [lo, hi) of coordinates that the walls in the mask join;
    with bit 0, the first run lies on x_1 = 0."""
    bounds = [0] + [i for i in range(1, n) if not walls >> i & 1] + [n]
    return tuple(zip(bounds[:-1], bounds[1:]))


def _project(x: np.ndarray, walls: int) -> np.ndarray:
    """The rows of x projected onto the walls in the mask, the mean of
    their images under the group that the reflections in those walls
    generate: each run the walls join replaced by its mean, and the run
    through x_1 by +0.0 with bit 0.  A run whose entries are equal keeps
    them bit for bit."""
    out = x.copy()
    for lo, hi in _runs(x.shape[1], walls):
        if lo == 0 and walls & 1:
            out[:, :hi] = 0.0
        elif hi - lo > 1:
            run = x[:, lo:hi]
            out[:, lo:hi] = np.where(np.all(run == run[:, :1], axis=1), run[:, 0],
                                     np.sum(run, axis=1) / (hi - lo))[:, None]
    return out


def _project_each(x: np.ndarray, walls: np.ndarray) -> np.ndarray:
    """Row r of x projected onto the walls in walls[r] (:func:`_project`)."""
    out = x.copy()
    for w in np.unique(walls[walls != 0]):
        out[walls == w] = _project(x[walls == w], int(w))
    return out


def _fold(x: np.ndarray, tol: float) -> np.ndarray:
    """The distinct chamber points of the orbits of the rows of x:
    sort(|x|), +0.0 for zeros, projected onto each wall it lies within
    tol of (x_1 <= tol, or x_{i+1} - x_i <= 2 tol).  So every coordinate
    of a projection onto other walls (:func:`_project`) moves by more
    than tol or by nothing, and :func:`bodies.convex_hull` merges no
    wall point with a point off that wall."""
    y = np.sort(np.abs(x), axis=1)
    slack = np.full(x.shape[1], 2.0 * tol)
    slack[0] = tol
    near = np.diff(y, axis=1, prepend=0.0) <= slack
    return _distinct_rows(_project_each(y, near @ (1 << np.arange(x.shape[1]))))


@cache
def _stabilizers(n: int):
    """(orbit, slot, rep, vertex) for the wall masks w of R^n: a point of C
    on exactly the walls w has orbit[w] distinct images; element g maps it
    to its image slot[w, g], and rep[w, j] is the first element mapping it
    to image j.  vertex[w, f]: whether the normals at such a point, with
    f the walls i where one of them has a_{i+1} != a_i (a_0 = 0), span
    every irreducible part of its stabilizer's action (:func:`_unfold`)."""
    perms, signs = _group(n)
    masks, order = range(1 << n), len(perms) * len(signs)
    orbit = np.empty(1 << n, dtype=np.intp)
    slot = np.empty((1 << n, order), dtype=np.intp)
    rep = np.zeros((1 << n, order), dtype=np.intp)
    vertex = np.empty((1 << n, 1 << n), dtype=bool)
    radix = (2 * n + 1) ** np.arange(n)
    for w in masks:
        label = np.zeros(n)
        for r, (lo, hi) in enumerate(_runs(n, w)):
            label[lo:hi] = 0 if lo == 0 and w & 1 else r + 1
        codes = ((_orbit(label[None], perms, signs) + n) @ radix).astype(np.int64)
        _, first, slot[w] = np.unique(codes, return_index=True, return_inverse=True)
        orbit[w] = first.size
        rep[w, :first.size] = first
        # each run's joining walls, and wall 0 for the run on x_1 = 0:
        # the irreducible parts of the stabilizer's action
        blocks = [sum(1 << i for i in range(0 if lo == 0 and w & 1 else lo + 1, hi))
                  for lo, hi in _runs(n, w)]
        vertex[w] = [all(b & f for b in blocks if b) for f in masks]
    for table in (orbit, slot, rep, vertex):
        table.setflags(write=False)
    return orbit, slot, rep, vertex


@cache
def _wall_products(n: int) -> np.ndarray:
    """Row 0: every element g of G; row i + 1: the element g r_i, r_i the
    reflection in wall i."""
    perms, signs = _group(n)
    radix = (2 * n + 1) ** np.arange(n)
    e = np.arange(1.0, n + 1)
    reflected = [e]   # r_i (1, ..., n)
    for i in range(n):
        r = e.copy()
        if i:
            r[[i - 1, i]] = r[[i, i - 1]]
        else:
            r[0] = -r[0]
        reflected.append(r)
    codes = ((_orbit(np.array(reflected), perms, signs) + n) @ radix).astype(np.int64)
    index = np.empty(int(codes.max()) + 1, dtype=np.intp)
    index[codes[:len(perms) * len(signs)]] = np.arange(len(perms) * len(signs))
    return _b._freeze_index(index[codes].reshape(n + 1, -1))


def _on_walls(h) -> np.ndarray:
    """Each simplex's wall mask: the walls that hold all its vertices."""
    return np.bitwise_and.reduce(_walls(h.points)[h.simplices], axis=1)


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


def _unfold(q: VPolytope) -> VPolytope:
    """The G-invariant polytope P whose cut by the chamber C is q (the
    hull of :func:`g_symmetral`'s chamber cloud), with its boundary
    triangulation (:class:`bodies.Triangulation`) made from q's qhull
    triangulation and its |G| = 2^n n! images, with no hull of P.

    q's simplices whose vertices all lie on one wall are its facets on
    the walls, or flat simplices that qhull puts in a wall, which an image
    would repeat; they drop out, and the others are P's boundary in C.
    Element g maps point p to the exact image g p, +0.0 for zeros; the
    images of p are deduplicated by bytes through p's wall mask, since
    the reflections in p's walls generate its stabilizer
    (:func:`_stabilizers`).  A facet of q with a simplex that has n - 1
    vertices on wall i and a normal within DEDUP_TOL of that wall (a_1
    for wall 0, a_{i+1} - a_i for the others) is half of a facet of P
    that the reflection r_i maps to itself: its normal is projected
    onto the wall (:func:`_project`), so that both halves carry one
    equation bit for bit, as qhull's merged facet does.  DEDUP_TOL is
    that slack because qhull's unit normal of a facet of width w is off
    by about eps R / w: the narrowest such facet seen, 6.6e-5 R wide, has
    a_1 = -1.1e-12.  The neighbours come from q's own
    (:func:`_chamber_neighbors`).  P's volume is |G| times q's, and its
    area |G| times q's without the walls.  Row s |G| + g of the simplices,
    neighbours and equations is the image of q's s-th uncut simplex under
    element g, and the triangulation carries |G| as its ``order``, so the
    measures read a G-invariant sum off the rows s |G|.

    The vertices of P are the points whose incident facet normals have
    rank n.  A point p of q's simplices is a vertex of q, so its normals
    in q and the normals of its walls have rank n; P's normals at p are
    the images of q's under p's stabilizer, which add the span of its
    irreducible parts (one per run of joined walls) that some normal
    meets.  So p is a vertex of P when every run of walls at p has a
    normal with a_{i+1} != a_i (a_0 = 0) at one of its walls i."""
    h, n = q.qhull, q.n
    perms, signs = _group(n)
    order, bits = len(perms) * len(signs), 1 << np.arange(n)
    orbit, slot_of, rep, vertex = _stabilizers(n)
    walls, on = _walls(h.points), _on_walls(h)
    uncut = on == 0
    tri, eq, facet = h.simplices[uncut], h.equations[uncut].copy(), _b.facets(h)[uncut]
    ridge = np.bitwise_and.reduce(walls[tri][:, _others(n)], axis=2)   # on the ridge opposite k
    fixed = np.zeros(facet.max() + 1, dtype=np.intp)   # walls whose reflection fixes a facet
    np.bitwise_or.at(fixed, facet, np.bitwise_or.reduce(ridge, axis=1) & (
        (np.abs(np.diff(eq[:, :n], axis=1, prepend=0.0)) <= _b.DEDUP_TOL) @ bits))
    eq[:, :n] = _project_each(eq[:, :n], fixed[facet])
    neighbors = _chamber_neighbors(h, uncut, ridge)
    # image g of used[u] is point base[u] + slot_of[kind[u], g]
    used, slot = np.unique(tri, return_inverse=True)
    slot, kind = slot.reshape(tri.shape), walls[used]
    counts = orbit[kind]
    base = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(used.size), counts)
    element = rep[kind[owner], np.arange(owner.size) - base[owner]]
    points = np.take_along_axis(h.points[used[owner]], perms[element // len(signs)], axis=1) \
        * signs[element % len(signs)] + 0.0
    image = base[:, None] + slot_of[kind]
    simplices = image[slot].transpose(0, 2, 1).reshape(-1, n)
    equations = np.hstack([_orbit(eq[:, :n], perms, signs) + 0.0,
                           np.repeat(eq[:, n:], order, axis=0)])
    meets = np.zeros(used.size, dtype=np.intp)   # walls i where a normal at u has a_{i+1} != a_i
    np.bitwise_or.at(meets, slot.ravel(), np.repeat(
        (np.diff(eq[:, :n], axis=1, prepend=0.0) != 0) @ bits, n))
    vertices = np.flatnonzero(np.repeat(vertex[kind, meets], counts))
    cut = h.points[h.simplices[~uncut]]   # rows: the normal, then the edges from vertex 0
    cut[:, 1:] -= cut[:, :1]
    cut[:, 0] = h.equations[~uncut, :n]
    area = h.area - float(np.sum(np.abs(np.linalg.det(cut)))) / math.factorial(n - 1)
    p = VPolytope(_b._lexsorted(points[vertices]))
    vars(p)["qhull"] = _b.Triangulation(points, simplices, neighbors, equations, vertices,
                                        order * area, order * h.volume, order)
    return p


def _chamber_neighbors(h, uncut: np.ndarray, ridge: np.ndarray) -> np.ndarray:
    """neighbors[s |G| + g, k] of the unfolded triangulation (qhull's
    layout: the simplex across the ridge opposite slot k), from q's qhull
    ``neighbors``; s counts the uncut simplices, and ridge[s, k] is the
    wall mask of that ridge.  Off the walls, the neighbour of g s is g
    times q's neighbour of s; across a ridge on wall i, which r_i fixes
    point by point, it is (g r_i) s.  A ridge on no wall whose neighbour
    lies in a wall, a ridge on a wall whose neighbour does not, a ridge on
    two walls, and a pairing that is not an involution do not close up:
    :class:`UnsupportedOperation`."""
    count, n = ridge.shape
    products = _wall_products(n)
    across, wall = h.neighbors[uncut], ridge != 0
    if np.any(wall == uncut[across]) or np.any(ridge & (ridge - 1)):
        raise UnsupportedOperation("the images of the symmetral's chamber hull do not close up")
    partner = np.where(wall, np.arange(count)[:, None], (np.cumsum(uncut) - 1)[across])
    back = np.where(wall, np.arange(n),   # the partner's slot across the same ridge
                    np.argmax(h.neighbors[across] == np.flatnonzero(uncut)[:, None, None], axis=2))
    element = np.where(wall, np.log2(np.maximum(ridge, 1)).astype(np.intp) + 1, 0)
    neighbors = (partner[:, None, :] * products.shape[1]
                 + products[element].transpose(0, 2, 1)).reshape(-1, n)
    if np.any(neighbors[neighbors, np.repeat(back, products.shape[1], axis=0)]
              != np.arange(len(neighbors))[:, None]):
        raise UnsupportedOperation("the images of the symmetral's chamber hull do not close up")
    return neighbors


def g_symmetral(body: Body) -> VPolytope:
    """Minkowski average (1/|G|) sum_{g in G} gK over all signed
    permutations, as an exact vertex list.

    Hulled from a support oracle (:class:`_ChainOracle`) at the orbits of
    K's facet normals and vertex directions and, for a full-dimensional K
    in R^3, of the four cells around every crossing of two images'
    normal-fan arcs (:func:`_cell_directions`): the average's fan refines
    its summands', so each of its facets is parallel to a facet of some
    gK or to edges of two images whose arcs cross.

    The average P is G-invariant, so it is hulled in one chamber
    C = {0 <= x_1 <= ... <= x_n}, which meets every orbit once.  The
    oracle answers at the distinct canonical directions of the seeds, one
    per orbit; the point at g u is g times the point at u up to the order
    of its sums, so each orbit of candidates is its point folded into C
    (:func:`_fold`, which snaps it onto the walls it lies within
    DEDUP_TOL R of).  For y in C, the points of C that y weakly
    majorizes under signed permutations are the hull of y's 2^n wall
    projections (:func:`_project`), so the candidates' G-hull cut by C
    is the hull of the folded candidates and their wall projections:
    each round makes that one hull (:func:`bodies.convex_hull`, one
    qhull call).  The returned polytope is that hull and its |G| images
    (:func:`_unfold`), whose triangulation is handed over as the result's
    ``qhull`` (:class:`bodies.Triangulation`), with no hull of the whole.

    Each round tests the hull's facets off the walls, (a, b), for
    h(a) > b + SUPPORT_TOL * scale, asking the oracle at sort(|a|).  Off
    the walls, the chamber hull's
    facets are the average's facets that meet the open chamber, whose
    normals lie in C (a point x of int C on a facet with normal a has
    <x, a> >= <x, g a> for every g), and they meet every orbit of the
    candidates' hull's facets, since h is G-invariant.  A failing facet
    adds its folded oracle point; when none fails, or the oracle adds no
    new point (a near-duplicate vertex that :func:`bodies.convex_hull`
    merged away), that hull unfolds to the average.  :func:`_sum_budget`
    caps the candidates' orbits, sum |G| / |Stab(y)|, before every hull.
    """
    body = resolve(body)
    n = body.n
    if n > 5:
        raise UnsupportedOperation(
            f"group averaging refused for n={n} (2^n n! blow-up; cap 5)")
    k = _b.as_vpolytope(body)
    oracle, dim, seeds = _ChainOracle(k.vertices), _b.affine_dim(k), k.vertices
    perms, signs = _group(n)
    if dim == n > 1:
        seeds = np.vstack([k.qhull.equations[:, :n], seeds])
    if dim == n == 3:
        seeds = np.vstack([seeds, _cell_directions(k, perms, signs)])
    table = oracle.tabulate(seeds)[1]
    found = oracle.points(table[_distinct(table, return_index=True)[1]])
    scale = float(np.max(np.abs(found)))
    tol = _b.DEDUP_TOL * scale
    cands = _fold(found, tol)
    if n == 1 or not np.any(cands):   # a segment in R^1, or the origin
        return convex_hull(_orbit(cands, perms, signs) + 0.0)
    while True:
        _check_budget(int(np.sum(_stabilizers(n)[0][_walls(cands)])), n)   # before every hull
        hull = convex_hull(_distinct_rows(np.vstack(
            [_project(cands, w) for w in range(1 << n)])))
        h = hull.qhull
        eq = _distinct_rows(h.equations[_on_walls(h) == 0])
        bound = SUPPORT_TOL * scale - eq[:, n]
        pts = oracle.at(np.sort(np.abs(eq[:, :n]), axis=1))   # at each normal's fold
        failed = pts[np.einsum("ij,ij->i", pts, eq[:, :n]) > bound]
        if not len(failed):
            return _unfold(hull)
        grown = _distinct_rows(np.vstack([cands, _fold(failed, tol)]))
        if len(grown) == len(cands):   # the oracle adds nothing new
            return _unfold(hull)
        cands = grown
