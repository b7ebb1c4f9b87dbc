"""Convex body representations and elementary operations.

A "body" is one of:

* :class:`VPolytope` -- convex hull of finitely many points, stored as its
  canonical extreme-vertex list;
* :class:`Zonotope` -- center plus a list of segment generators;
* :class:`Ball` -- Euclidean ball, optionally flattened along coordinate
  axes (so that coordinate projections of balls stay symbolic);
* :class:`DiskHull` -- the convex hull of the three unit coordinate disks
  in R^3 (exact support function; :mod:`measures` takes its intrinsic
  volumes and those of its shadows from its structure, with no polytope
  stand-in);
* :class:`NamedBody` -- thin serializable wrapper around a named
  construction (``cross``, ``cube``, ``K1``, ``K2``).

All coordinates are float64.  Ambient dimensions from 2 through 8 are the
supported public range; internal coordinate-deleted views may drop to 1.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DimensionMismatch, InvalidArgument, UnsupportedOperation

# Vertex merge tolerance, relative to the largest |coordinate| of the
# points merged (:func:`_dedup_points`).
DEDUP_TOL = 1e-10
# Singular-value cutoff used by affine rank computations.
RANK_TOL = 1e-9
MIN_DIM = 2
MAX_DIM = 8
# Sign-enumeration guard for zonotope vertex expansion (2**k points).
MAX_ZONOTOPE_EXPAND_GENERATORS = 16


def as_vector(x, n: int | None = None) -> np.ndarray:
    """Validate and return a 1-d float64 coordinate vector."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InvalidArgument(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidArgument("vector has non-finite coordinates")
    if n is not None and v.shape[0] != n:
        raise DimensionMismatch(f"expected dimension {n}, got {v.shape[0]}")
    return v


def _as_point_array(points, what: str = "points") -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
        raise InvalidArgument(f"{what} must be a non-empty (count, dim) array")
    if not np.all(np.isfinite(pts)):
        raise InvalidArgument(f"{what} contain non-finite coordinates")
    if pts.shape[1] > MAX_DIM:
        raise UnsupportedOperation(
            f"ambient dimension {pts.shape[1]} exceeds the supported cap {MAX_DIM}")
    return pts


def _dedup_points(pts: np.ndarray) -> np.ndarray:
    """Collapse rows that coincide in max-norm within tol, DEDUP_TOL times
    their largest |coordinate|, so that a dilate merges the rows its source
    merges.

    Deterministic: rows are visited in lexicographic order and the first
    representative of each cluster survives, so the result is already
    sorted.  Close pairs are found by a vectorized sweep of the scan
    column: round k compares every row with the row k places later, and
    the sweep ends at the first k where no such pair is within tol in
    that column (so it runs as many rounds as the largest tol-window
    holds rows).  The scan column is the first one whose end values
    differ: the columns before it are constant, so it is sorted too.
    (Sections and projections zero a coordinate; a constant scan column
    would put every row in one window.)  The greedy visit then only
    walks the rows that have a close predecessor.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.shape[0] <= 1:
        return np.array(pts, copy=True)
    tol = DEDUP_TOL * float(np.max(np.abs(pts)))
    sp = pts[np.lexsort(pts.T[::-1])]
    col = 0
    if sp[0, 0] == sp[-1, 0]:
        differ = np.flatnonzero(sp[0] != sp[-1])
        col = int(differ[0]) if differ.size else 0
    xs = sp[:, col]
    found = []
    for k in range(1, sp.shape[0]):
        near = np.flatnonzero(xs[k:] - xs[:-k] <= tol)
        if not near.size:
            break
        near = near[np.max(np.abs(sp[near + k] - sp[near]), axis=1) <= tol]
        found.append(np.stack([near, near + k], axis=1))
    if not any(f.size for f in found):
        return sp
    # Group each row's close predecessors; visit rows in order.
    pairs = np.vstack(found)
    pairs = pairs[np.lexsort((pairs[:, 0], pairs[:, 1]))]
    later, starts = np.unique(pairs[:, 1], return_index=True)
    bounds = np.append(starts, pairs.shape[0])
    kept = np.ones(sp.shape[0], dtype=bool)
    for j, lo, hi in zip(later.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
        kept[j] = not kept[pairs[lo:hi, 0]].any()
    return sp[kept]


def _lexsorted(pts: np.ndarray) -> np.ndarray:
    """Rows sorted lexicographically by first coordinate, then second, ..."""
    order = np.lexsort(pts.T[::-1])
    return pts[order]


def derived(body, key, compute):
    """The value ``compute()`` derived from ``body``, computed once per
    body instance.

    Bodies are frozen dataclasses over write-protected arrays, so a value
    derived from one holds for the instance's whole life.  It is stored
    in the instance's ``__dict__`` under ``key`` (the operation and its
    arguments) and dies with the instance.  Failures are not stored.
    """
    store = body.__dict__.setdefault("_derived", {})
    try:
        return store[key]
    except KeyError:
        value = store[key] = compute()
        return value


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _freeze_index(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.intp)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class VPolytope:
    """Polytope given by its canonical vertex list (extreme points only,
    deduplicated, lexicographically sorted).  Build via :func:`convex_hull`."""

    vertices: np.ndarray

    def __post_init__(self):
        v = _as_point_array(self.vertices, "vertices")
        object.__setattr__(self, "vertices", _freeze(v))

    @property
    def n(self) -> int:
        return self.vertices.shape[1]

    @property
    def vertex_count(self) -> int:
        return self.vertices.shape[0]

    @cached_property
    def qhull(self) -> ConvexHull:
        """Qhull triangulation of the (full-dimensional) polytope.

        :func:`convex_hull` hands over the hull it built, whose input
        cloud may hold more points than ``vertices`` and in another
        order: index ``hull.points`` with ``hull.simplices`` and
        ``hull.vertices``, never ``vertices``.
        Where qhull fails (callers check :func:`affine_dim` first) it raises
        UnsupportedOperation: a joggled (QJ) hull is not exact.
        """
        try:
            return ConvexHull(self.vertices)
        except QhullError as exc:
            raise UnsupportedOperation(f"qhull failed: {str(exc).splitlines()[0]}") from exc


@dataclass(frozen=True)
class Zonotope:
    """Minkowski sum of segments: center + sum_i [-g_i, g_i].

    Generators are stored sign-normalized and lexicographically sorted,
    so that structurally equal zonotopes compare equal.  Both steps decide
    "zero" exactly: a generator whose entries are all 0.0 (or -0.0) is
    dropped, and each other one is flipped so that its first nonzero entry
    is positive.  A generator's share of every V_m is continuous and
    homogeneous in it, so a small one is kept at any scale.
    """

    center: np.ndarray
    generators: np.ndarray

    def __post_init__(self):
        c = as_vector(self.center)
        if c.shape[0] == 0:
            raise InvalidArgument("a zonotope needs at least one coordinate")
        g = np.asarray(self.generators, dtype=float)
        if g.ndim != 2 or g.shape[1] != c.shape[0]:
            raise InvalidArgument(
                f"generators must be (k, {c.shape[0]}), got {g.shape}")
        if not np.all(np.isfinite(g)):
            raise InvalidArgument("generators contain non-finite coordinates")
        if c.shape[0] > MAX_DIM:
            raise UnsupportedOperation(
                f"ambient dimension {c.shape[0]} exceeds the supported cap {MAX_DIM}")
        nonzero = g != 0.0
        live = nonzero.any(axis=1)
        g, nonzero = g[live], nonzero[live]
        lead = g[np.arange(g.shape[0]), np.argmax(nonzero, axis=1)]
        norm = _lexsorted(np.where(lead[:, None] > 0, g, -g))
        object.__setattr__(self, "center", _freeze(c))
        object.__setattr__(self, "generators", _freeze(norm))

    @property
    def n(self) -> int:
        return self.center.shape[0]

    @property
    def generator_count(self) -> int:
        return self.generators.shape[0]


@dataclass(frozen=True)
class Ball:
    """Euclidean ball of the given radius, optionally flattened along
    coordinate axes (the result of projecting a ball onto coordinate
    hyperplanes; ``zeroed`` lists the collapsed axes)."""

    center: np.ndarray
    radius: float
    zeroed: frozenset = frozenset()

    def __post_init__(self):
        c = as_vector(self.center).copy()
        if not (self.radius >= 0 and math.isfinite(self.radius)):
            raise InvalidArgument("radius must be non-negative and finite")
        z = frozenset(int(i) for i in self.zeroed)
        for i in z:
            if not 0 <= i < c.shape[0]:
                raise InvalidArgument(f"zeroed axis {i} out of range")
            c[i] = 0.0
        if c.shape[0] > MAX_DIM:
            raise UnsupportedOperation(
                f"ambient dimension {c.shape[0]} exceeds the supported cap {MAX_DIM}")
        object.__setattr__(self, "center", _freeze(c))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "zeroed", z)

    @property
    def n(self) -> int:
        return self.center.shape[0]

    @property
    def active_dim(self) -> int:
        """Dimension of the subspace the ball actually fills."""
        return self.n - len(self.zeroed)


@dataclass(frozen=True)
class DiskHull:
    """Convex hull of the three unit coordinate disks B^3 \\cap e_i^perp,
    with exact support function h(u) = sqrt(|u|^2 - min_i u_i^2)."""

    @property
    def n(self) -> int:
        return 3


@dataclass(frozen=True)
class NamedBody:
    """Serializable reference to a named construction.

    ``name`` is one of ``cross``, ``cube``, ``K1``, ``K2``.  The wrapper
    keeps corpus files stable under read/write round trips; ``expand()``
    yields the concrete body.
    """

    name: str
    n: int

    _ALLOWED = ("cross", "cube", "K1", "K2")

    def __post_init__(self):
        if self.name not in self._ALLOWED:
            raise InvalidArgument(
                f"unknown named body {self.name!r}; expected one of {self._ALLOWED}")
        n = int(self.n)
        if self.name in ("K1", "K2") and n != 3:
            raise InvalidArgument(f"{self.name} is a 3-dimensional body")
        if not (MIN_DIM <= n <= MAX_DIM):
            raise InvalidArgument(f"dimension {n} outside supported range")
        object.__setattr__(self, "n", n)

    def expand(self) -> "Body":
        if self.name == "cross":
            return cross_polytope(self.n)
        if self.name == "cube":
            return cube(self.n)
        if self.name == "K1":
            return DiskHull()
        return k2()


Body = Union[VPolytope, Zonotope, Ball, DiskHull, NamedBody]


def resolve(body: Body) -> Body:
    """Expand named wrappers; other bodies pass through."""
    if isinstance(body, NamedBody):
        return derived(body, "expand", body.expand)
    if isinstance(body, (VPolytope, Zonotope, Ball, DiskHull)):
        return body
    raise InvalidArgument(f"not a body: {type(body).__name__}")


# ---------------------------------------------------------------------------
# constructions


def cross_polytope(n: int) -> VPolytope:
    """Unit coordinate cross-polytope conv{+-e_1, ..., +-e_n}."""
    if not (MIN_DIM <= n <= MAX_DIM):
        raise InvalidArgument(f"dimension {n} outside supported range")
    eye = np.eye(n)
    return VPolytope(_lexsorted(np.vstack([eye, -eye])))


def cube(n: int) -> VPolytope:
    """Cube [-1, 1]^n."""
    if not (MIN_DIM <= n <= MAX_DIM):
        raise InvalidArgument(f"dimension {n} outside supported range")
    return VPolytope(_sign_matrix(n))


def ball(n: int, radius: float = 1.0, center=None) -> Ball:
    if not (MIN_DIM <= n <= MAX_DIM):
        raise InvalidArgument(f"dimension {n} outside supported range")
    c = np.zeros(n) if center is None else as_vector(center, n)
    return Ball(c, radius)


def k1() -> DiskHull:
    """Convex hull of the three unit coordinate disks in R^3."""
    return DiskHull()


def k2() -> VPolytope:
    """The cross-polytope sqrt(pi/2) * conv{+-e_i} in R^3 (the scaled
    octahedron whose coordinate sections are unit disks in area)."""
    return scale_body(cross_polytope(3), math.sqrt(math.pi / 2.0))


# ---------------------------------------------------------------------------
# support functions


def support(body: Body, u) -> float:
    """Support function h_K(u) = sup_{x in K} <x, u>.  Requires u != 0."""
    body = resolve(body)
    u = as_vector(u, body.n)
    if np.linalg.norm(u) == 0.0:
        raise InvalidArgument("support direction must be non-zero")
    return float(support_many(body, u[None, :])[0])


def support_many(body: Body, directions: np.ndarray) -> np.ndarray:
    """Vectorized support function over a (N, n) array of directions."""
    body = resolve(body)
    U = np.asarray(directions, dtype=float)
    if U.ndim != 2 or U.shape[1] != body.n:
        raise DimensionMismatch(
            f"directions must be (N, {body.n}), got {U.shape}")
    if isinstance(body, VPolytope):
        return np.max(U @ body.vertices.T, axis=1)
    if isinstance(body, Zonotope):
        base = U @ body.center
        if body.generator_count:
            base = base + np.sum(np.abs(U @ body.generators.T), axis=1)
        return base
    if isinstance(body, Ball):
        mask = np.ones(body.n, dtype=bool)
        mask[list(body.zeroed)] = False
        return U @ body.center + body.radius * np.linalg.norm(U[:, mask], axis=1)
    if isinstance(body, DiskHull):
        sq = U * U
        return np.sqrt(np.maximum(np.sum(sq, axis=1) - np.min(sq, axis=1), 0.0))
    raise InvalidArgument(f"not a body: {type(body).__name__}")


# ---------------------------------------------------------------------------
# hulls and sums


def convex_hull(points) -> VPolytope:
    """Canonical hull of a point cloud: extreme points only, merged
    (:func:`_dedup_points`), lexicographically sorted.

    The cloud's affine span is :func:`_span`'s.  Full-dimensional input
    is hulled in its own coordinates, and that hull becomes the result's
    :attr:`VPolytope.qhull` unless merging joined two of its vertices.
    Degenerate input is reduced to its affine span before calling qhull.
    """
    pts = _as_point_array(points)
    if pts.shape[0] == 1:
        return VPolytope(pts)
    rank, origin, vt = _span(pts)
    if rank == 0:
        return VPolytope(origin[None, :])
    if rank == 1:
        t = (pts - origin) @ vt[0]
        sel = pts[[int(np.argmin(t)), int(np.argmax(t))]]
        return VPolytope(_lexsorted(sel))
    coords = pts if rank == pts.shape[1] else (pts - origin) @ vt[:rank].T
    try:
        hull = ConvexHull(coords)
    except QhullError:
        return VPolytope(_dedup_points(pts[ConvexHull(coords, qhull_options="QJ").vertices]))
    p = VPolytope(_dedup_points(pts[hull.vertices]))
    if coords is pts and p.vertex_count == hull.vertices.size:
        vars(p)["qhull"] = hull
    return p


def _span(points: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(rank, mean, vt) of a point set's affine span: the SVD about the
    mean, not about one of the points, so the rank does not depend on
    which point is listed first; singular values are cut at RANK_TOL
    times the largest.  The first rank rows of vt span it."""
    mean = points.mean(axis=0)
    _, svals, vt = np.linalg.svd(points - mean, full_matrices=False)
    return int(np.sum(svals > RANK_TOL * svals[0])), mean, vt


def _byte_rows(a: np.ndarray) -> np.ndarray:
    """The rows of a 2-d array as ``np.void`` scalars of their bytes, which
    compare and sort exactly."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).ravel()


def facets(hull: ConvexHull) -> np.ndarray:
    """Each qhull boundary simplex's facet index: qhull gives the simplices
    of a merged facet its equation, so simplices with bitwise equal
    ``equations`` rows form one facet."""
    return np.unique(_byte_rows(hull.equations), return_inverse=True)[1]


def bent_ridges(p: VPolytope):
    """(s, t, ridge) of a full-dimensional polytope, once per instance:
    every ridge of qhull's boundary triangulation between simplices of two
    different facets (:func:`facets`: their ``equations`` rows differ in
    some bit), once, as simplex s, its neighbour t > s across the ridge,
    and the ridge's d - 1 point indices, ordered by s and then by the
    slot of t in ``hull.neighbors[s]``.  The ridges inside a facet are
    left out: their facets' normals are equal, so they bend by 0 and have
    no silhouette."""
    def find():
        hull = p.qhull
        tri, nb, rows = hull.simplices, hull.neighbors, _byte_rows(hull.equations)
        s, k = np.nonzero((nb > np.arange(tri.shape[0])[:, None]) & (rows[:, None] != rows[nb]))
        return s, nb[s, k], tri[s[:, None], (k[:, None] + np.arange(1, p.n)) % p.n]
    return derived(p, "bent_ridges", find)


def unconditional_hull(base) -> VPolytope:
    """Hull of every coordinate sign flip of a base point set (2^n images
    of each point): an unconditional polytope."""
    base = _as_point_array(base, "base points")
    n = base.shape[1]
    return convex_hull((base[:, None, :] * _sign_matrix(n)).reshape(-1, n))


def as_vpolytope(body: Body) -> VPolytope:
    """The vertex representation of a polytopal body.

    Zonotopes are expanded exactly (sign enumeration of generators, capped
    at 2**16 points) once per instance.  Balls and K1 have no vertex
    representation and raise :class:`UnsupportedOperation`.
    """
    body = resolve(body)
    if isinstance(body, VPolytope):
        return body
    if isinstance(body, Zonotope):
        return derived(body, "vpolytope", lambda: _expand_zonotope(body))
    raise UnsupportedOperation(
        f"{type(body).__name__} has no exact vertex representation")


def _expand_zonotope(z: Zonotope) -> VPolytope:
    if z.generator_count == 0:
        return VPolytope(z.center[None, :])
    return convex_hull(_sign_points(z))


def _sign_points(z: Zonotope) -> np.ndarray:
    """c + sum_j s_j g_j for every sign vector s, in the row order of
    :func:`_sign_matrix`, refused past 2**16 points."""
    return z.center + _sign_matrix(z.generator_count) @ z.generators


def _sign_matrix(k: int) -> np.ndarray:
    """The 2**k sign vectors of {-1, 1}^k as rows, in itertools.product
    order: entry j of row r is -1 where bit k-1-j of r is 0, +1 where it
    is 1, so the rows are lexicographically sorted.  Refused past
    2**16 rows (a zonotope with more than 16 generators)."""
    if k > MAX_ZONOTOPE_EXPAND_GENERATORS:
        raise UnsupportedOperation(
            f"refusing to enumerate the 2**{k} sign vectors of {k} "
            f"generators (cap {MAX_ZONOTOPE_EXPAND_GENERATORS})")
    bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return _freeze(2.0 * bits - 1.0)


def _sign_cube_edges(k: int) -> np.ndarray:
    """Row-index pairs of the sign vectors that differ in one generator
    only: the k * 2**(k-1) edges of the cube {-1, 1}^k."""
    rows = np.arange(1 << k)
    pairs = []
    for j in range(k):
        bit = 1 << (k - 1 - j)
        lo = rows[(rows & bit) == 0]
        pairs.append(np.stack([lo, lo + bit], axis=1))
    return _freeze_index(np.vstack(pairs) if pairs else np.zeros((0, 2), dtype=int))


def skeleton(body: Body) -> tuple[np.ndarray, np.ndarray]:
    """Points and index pairs into them whose segments include every
    edge of a polytopal body, computed once per instance.

    A zonotope's every edge is the image of an edge of the generator sign
    cube (McMullen 1971), so its skeleton is the 2**k sign points and the
    k * 2**(k-1) cube edges, with no hull.  A polytope's is the edges of
    its boundary triangulation (of the affine span when it is flat), a
    superset of its true edges.  Extra segments lie inside the body.
    """
    body = resolve(body)
    if isinstance(body, Zonotope):
        return derived(body, "skeleton", lambda: (
            _sign_points(body), _sign_cube_edges(body.generator_count)))
    return derived(body, "skeleton", lambda: _polytope_skeleton(as_vpolytope(body)))


def _polytope_skeleton(p: VPolytope) -> tuple[np.ndarray, np.ndarray]:
    d = affine_dim(p)
    if d == 0:
        return p.vertices[:1], np.zeros((0, 2), dtype=int)
    if d == p.n:
        hull = p.qhull
        pts, tri = hull.points, hull.simplices
    else:
        pts = p.vertices
        _, mean, vt = _span(pts)
        coords = (pts - mean) @ vt[:d].T
        if d == 1:
            tri = np.array([[np.argmin(coords[:, 0]), np.argmax(coords[:, 0])]])
        else:
            try:
                tri = ConvexHull(coords).simplices
            except QhullError:
                tri = ConvexHull(coords, qhull_options="QJ").simplices
    # every pair of every simplex, once; points renumbered to the used ones
    pairs = tri[:, list(itertools.combinations(range(tri.shape[1]), 2))]
    used, edges = np.unique(np.sort(pairs.reshape(-1, 2), axis=1),
                            return_inverse=True)
    # a renumbered pair (a, b), a < b, as the key a * N + b: sorted keys
    # are the pairs in lexicographic order
    edges = edges.reshape(-1, 2)
    keys = np.unique(edges[:, 0] * used.size + edges[:, 1])
    edges = np.stack([keys // used.size, keys % used.size], axis=1)
    return _freeze(pts[used]), _freeze_index(edges)


# ---------------------------------------------------------------------------
# affine structure


def affine_dim(body: Body) -> int:
    """Dimension of the affine hull: the rank of a polytope's vertices
    about their mean (the rank :func:`_span` gives, from the singular
    values alone) or of a zonotope's generators, both cut at RANK_TOL
    times the largest singular value; a dilate's is its source's
    (:func:`dilate_source`)."""
    body = resolve(body)
    return derived(body, "affine_dim", lambda: _affine_dim(body))


def _affine_dim(body: Body) -> int:
    source = dilate_source(body)
    if source is not None:
        return affine_dim(source[0])
    if isinstance(body, Ball):
        return body.active_dim if body.radius > 0 else 0
    if isinstance(body, DiskHull):
        return 3
    if isinstance(body, VPolytope):
        v = body.vertices
        return _rank(v - v.mean(axis=0))
    if not isinstance(body, Zonotope):
        raise InvalidArgument(f"not a body: {type(body).__name__}")
    return _rank(body.generators) if body.generator_count else 0


def _rank(x: np.ndarray) -> int:
    """The number of singular values of x above RANK_TOL times the
    largest, from the singular values alone."""
    svals = np.linalg.svd(x, compute_uv=False)
    return int(np.sum(svals > RANK_TOL * float(svals[0])))


def to_affine_coords(p: VPolytope) -> VPolytope:
    """Isometric coordinates for a lower-dimensional polytope: project onto
    an orthonormal basis of the affine span, merged (:func:`_dedup_points`).
    Intrinsic volumes agree."""
    d = affine_dim(p)
    if d == 0:
        raise InvalidArgument("a point has no affine coordinate view")
    _, mean, vt = _span(p.vertices)
    return VPolytope(_dedup_points((p.vertices - mean) @ vt[:d].T))


# ---------------------------------------------------------------------------
# scaling / translation


def scale_body(body: Body, factor: float) -> Body:
    """Dilate a body about the origin by a non-negative factor (K1 raises
    :class:`UnsupportedOperation`).

    A positive factor keeps a polytope's vertices distinct and extreme at
    any scale, so they are not re-merged at ``DEDUP_TOL``; the sort only
    repairs rounding ties.  Factor 0 gives the origin as one vertex.

    A polytope dilated by a positive factor lambda, and a zonotope that
    keeps every generator (it loses one only where lambda g underflows
    to 0), is the dilate lambda K of the resolved body K
    and remembers it (:func:`dilate_source`).  Its measures come from K:
    V_m(lambda K) = lambda^m V_m(K), and the same for the V_m of its
    shadows and sections, so ``measures.vm``, ``vm_shadows``,
    ``vm_sections`` and an oblique ``vm_projection`` read every value off
    K, a quadrature estimate with its error (``measures._off_source``),
    and :func:`affine_dim` is K's.  The dilate keeps K alive.  A zonotope
    dilate whose scaled rows are still canonical keeps them as they are
    (:func:`_scaled_zonotope`).  A factor that takes a coordinate past
    the double range raises :class:`InvalidArgument` (:func:`_scaled`)."""
    if not (factor >= 0 and math.isfinite(factor)):
        raise InvalidArgument("scale factor must be non-negative and finite")
    factor, body = float(factor), resolve(body)   # a numpy scalar would warn on overflow
    if isinstance(body, VPolytope):
        if factor == 0:
            return VPolytope(np.zeros((1, body.n)))
        out = VPolytope(_lexsorted(_scaled(body.vertices, factor)))
    elif isinstance(body, Zonotope):
        out = _scaled_zonotope(body, factor)
        if out.generator_count != body.generator_count:
            return out
    elif isinstance(body, Ball):
        return Ball(_scaled(body.center, factor), factor * body.radius, body.zeroed)
    else:
        raise UnsupportedOperation(
            "a DiskHull (K1) is represented at unit scale only")
    if factor > 0:
        vars(out)["dilate_of"] = (body, factor)
    return out


def _scaled_zonotope(z: Zonotope, factor: float) -> Zonotope:
    """``Zonotope(factor c, factor G)``.  A positive factor that turns no
    entry of G into 0 keeps each generator's zeros (-0.0 included) and
    its positive leading entry, so when the rows of factor G are still
    in lexicographic order the canonical form is factor G itself, kept
    without ``Zonotope.__post_init__``.  Rounding can tie entries that
    differed only in their last bits or in subnormals, and so reorder
    rows; those are built as usual."""
    c, g = _scaled(z.center, factor), _scaled(z.generators, factor)
    if not (factor > 0 and np.count_nonzero(g) == np.count_nonzero(z.generators)
            and _rows_sorted(g)):
        return Zonotope(c, g)
    out = object.__new__(Zonotope)
    object.__setattr__(out, "center", _freeze(c))
    object.__setattr__(out, "generators", _freeze(g))
    return out


def _scaled(a: np.ndarray, factor: float) -> np.ndarray:
    """factor * a, refused with :class:`InvalidArgument` when an entry
    leaves the double range: the largest |entry| is scaled first, as a
    Python float, so that numpy never overflows."""
    if not math.isfinite(factor * float(np.max(np.abs(a), initial=0.0))):
        raise InvalidArgument(f"scaling by {factor!r} overflows the body's coordinates")
    return factor * a


def _rows_sorted(a: np.ndarray) -> bool:
    """Whether the rows of a are in lexicographic order, equal rows
    included, so that the stable sort of :func:`_lexsorted` keeps them in
    place: each row is at most the next in the first column where they
    differ (column 0 when they are equal)."""
    above, below = a[:-1], a[1:]
    j = (above != below).argmax(axis=1)
    r = np.arange(j.size)
    return bool((above[r, j] <= below[r, j]).all())


def dilate_source(body: Body) -> tuple[Body, float] | None:
    """(K, lambda) for a dilate ``scale_body(K, lambda)``, lambda > 0, that
    remembers its source K; None for every other body."""
    return vars(body).get("dilate_of")


def translate_body(body: Body, t) -> Body:
    body = resolve(body)
    t = as_vector(t, body.n)
    if isinstance(body, VPolytope):
        return VPolytope(_lexsorted(body.vertices + t))
    if isinstance(body, Zonotope):
        return Zonotope(body.center + t, body.generators)
    if isinstance(body, Ball):
        if any(abs(t[i]) > 0 for i in body.zeroed):
            raise InvalidArgument("cannot translate a flattened ball off its slab")
        return Ball(body.center + t, body.radius, body.zeroed)
    raise UnsupportedOperation(
        "a DiskHull (K1) is represented at the origin only")

