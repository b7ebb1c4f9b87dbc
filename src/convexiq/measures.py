"""Intrinsic volumes V_m of bodies.

Exact paths:

* volume and surface area of polytopes (qhull);
* V_{d-2} and V_{d-3} of full-dimensional d-polytopes from one pass over
  the bent ridges of qhull's boundary triangulation
  (:func:`vm_polytope_angles`): ridge angles give V_{d-2}, the solid
  angles of the normal cones of the (d-3)-faces V_{d-3}.  With volume and
  surface area this covers every V_m of 3- and 4-polytopes and every
  m >= d - 3 in higher dimensions.  A triangulation that does not close
  up (:func:`_boundary`) raises :class:`UnsupportedMeasure`;
* V_{n-1} and V_{n-2} of every shadow K | u^perp of a full-dimensional
  polytope K from K's own boundary triangulation, with no hull of the
  shadow (:func:`vm_projection`): Cauchy's projection formula over the
  boundary simplices and the projected silhouette ridges;
* V_{n-1} and V_{n-2} of every section K ∩ e_i^perp of a full-dimensional
  polytope K from the same triangulation, with no hull of the section
  (:func:`vm_section`): each boundary simplex that crosses the plane is
  cut into a product of simplices, whose staircase triangulation tiles
  the section's boundary.  A vertex on the plane counts on the plane's
  upper side, x_i >= 0 when K has a vertex with x_i < 0 and x_i <= 0
  otherwise, so planes through a vertex and planes that K touches or
  misses take the same route.  That side rule and the cut points are
  :mod:`coordops`' (``_upper``, ``_cut_points``), which its hulled cut
  (``section_drop``) uses too;
* every V_m of a zonotope and of each of its shadows from the m x m
  minors of its generator subsets (Cauchy-Binet, :func:`vm_zonotope`),
  the coordinate shadows of one degree in the same pass;
* closed forms for balls;
* V_1 of the cross-polytope C_n and of K1 from fixed Gauss-Legendre rules
  on analytic one-dimensional integrals, whose truncation is below 1e-14
  relative (tested) and so below the nominal roundoff;
* lower-dimensional polytopes are reduced isometrically to their affine
  span first (``bodies.to_affine_coords``), which also makes e.g. V_1 of
  a planar body in R^3 exact.

V_1 of a full-dimensional polytope in d >= 5 falls back to mean-width
quadrature over the sphere.  The remaining pairs (2 <= m <= d-4) raise
:class:`UnsupportedMeasure` rather than silently degrading.

A dilate lambda K made by ``bodies.scale_body`` (:func:`bodies.dilate_source`)
is measured on K: each of :func:`vm`, :func:`vm_projection` and
:func:`vm_section` makes the same call on K and, when K's value is exact,
returns lambda^m times it, since V_m of a body, of its shadows and of its
sections is homogeneous of degree m.  An inexact value (quadrature) is
measured on the dilate itself.

Normalization conventions: V_n is the volume; V_{n-1} is half the surface
area for full-dimensional bodies and equals the (n-1)-measure (not
doubled) for bodies of dimension n-1; V_1 is mean width times
n kappa_n / (2 kappa_{n-1}), i.e. (1/kappa_{n-1}) integral of the support
function over the unit sphere.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np
from scipy.special import erf

from . import bodies as _b
from . import coordops
from .bodies import (Ball, Body, DiskHull, VPolytope, Zonotope, affine_dim,
                     resolve, to_affine_coords)
from .errors import InvalidArgument, UnsupportedMeasure, UnsupportedOperation
from .quadrature import (QuadratureEstimate, QuadratureSpec, gauss_legendre,
                         integrate_sphere_with_error)

# Relative error attributed to closed-form / exact combinatorial paths.
EXACT_REL_ERR = 1e-10
# Guard on the number of generator subsets enumerated for a zonotope.
MAX_SUBSETS = 2_000_000
# Generator subsets whose minors are taken in one block (:func:`_zonotope_sums`).
SUBSET_BLOCK = 4096
# Gauss-Legendre rules of the 1-d V_1 integrals (C_n: panels on [0, cutoff]).
CROSS_CUTOFF, CROSS_PANELS, CROSS_NODES = 12.0, 8, 32
K1_NODES = 96
# A boundary ridge lower than this times its longest edge is flat.
FLAT_TOL = 1e-12
# Relative defect past which qhull's boundary triangulation does not
# close up (:func:`_boundary`).
CLOSURE_TOL = 1e-9
# Boundary simplices of coordinate sections measured in one block
# (:func:`_sections`).
SECTION_BLOCK = 1 << 15
_dot = partial(np.einsum, "ij,ij->i")   # row-wise dot products
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)


def kappa(j: int) -> float:
    """Volume of the unit ball in R^j (kappa_0 = 1)."""
    if j < 0:
        raise InvalidArgument("kappa defined for j >= 0")
    return math.pi ** (j / 2.0) / math.gamma(j / 2.0 + 1.0)


@dataclass(frozen=True)
class Measured:
    """A measure value with an absolute error estimate.

    ``exact`` marks closed-form / combinatorial paths whose only error is
    floating-point roundoff (tracked as a nominal relative 1e-10).
    """

    value: float
    error: float
    exact: bool = True

    @staticmethod
    def of_exact(value: float) -> "Measured":
        return Measured(float(value), EXACT_REL_ERR * max(1.0, abs(value)), True)

    @staticmethod
    def of_quadrature(value: float, error: float) -> "Measured":
        return Measured(float(value), abs(error) + EXACT_REL_ERR * max(1.0, abs(value)),
                        False)


# ---------------------------------------------------------------------------
# polytope volume / surface


def volume(p: VPolytope) -> float:
    """n-dimensional volume of the hull; 0 for lower-dimensional bodies."""
    if affine_dim(p) < p.n:
        return 0.0
    if p.n == 1:
        return float(p.vertices.max() - p.vertices.min())
    return float(p.qhull.volume)


def surface_area(p: VPolytope) -> float:
    """Total (n-1)-measure of the boundary of a full-dimensional polytope
    in R^n, n >= 2.  Flat polytopes raise :class:`UnsupportedMeasure`:
    :func:`vm` reduces them to their affine span first."""
    d = affine_dim(p)
    if p.n < 2 or d < p.n:
        raise UnsupportedMeasure(
            f"surface_area takes a full-dimensional polytope in R^n, n >= 2, "
            f"not one of dimension {d} in R^{p.n}; measure it with vm")
    return float(p.qhull.area)


def v1_polytope_exact(p: VPolytope) -> float:
    """V_1 of a full-dimensional 3- or 4-polytope (:func:`vm_polytope_angles`)."""
    return vm_polytope_angles(p, 1)


def vm_polytope_angles(p: VPolytope, m: int) -> float:
    """V_{d-2} or V_{d-3} of a full-dimensional d-polytope from one pass
    over the bent ridges of qhull's boundary triangulation
    (:func:`bodies.bent_ridges`), each the (d-2)-simplex R that a simplex s
    shares with its neighbour t in another facet.

    * V_{d-2}: each R adds vol(R) * theta(n_s, n_t) / (2 pi), theta the
      angle between the outer normals (ridges inside a facet have angle 0
      and are skipped).
    * V_{d-3}: the normal cone of a (d-3)-face G cuts a convex polygon
      from the sphere whose edges are the arcs (n_s, n_t) of the
      (d-2)-faces through G.  The bent ridges that are not flat tile
      those faces, and their faces sigma in three or more facets tile G
      once per edge.  Each adds vol(sigma) Omega / (4 pi), Omega the
      solid angle (Van Oosterom and Strackee) of the triangle
      (c, n_s, n_t), so that the triangles around c, the normalized sum
      of the edge midpoints, tile the polygon; each edge is split at its
      midpoint, so no corners are nearly antipodal.  Flat ridges (qhull's
      zero-volume simplices) would cover some G twice: a ridge is flat
      when its smallest height, (d-2) vol(R) over its largest face, is
      below FLAT_TOL times its longest edge.

    A triangulation that does not close up (:func:`_boundary`) raises
    :class:`UnsupportedMeasure`: its angles would be percents off.
    """
    d = p.n
    if m < 0 or m not in (d - 2, d - 3):
        raise UnsupportedMeasure(
            f"boundary angles give V_{{d-2}} and V_{{d-3}}, not V_{m} in R^{d}")
    if affine_dim(p) != d:
        raise UnsupportedMeasure(
            f"degenerate {d}-polytope: use the quadrature path or the affine view")
    if not _boundary(p)[1]:
        raise UnsupportedMeasure(
            f"qhull's boundary triangulation of this {d}-polytope does not close "
            "up, so its ridge angles do not give V_{d-2} or V_{d-3}")
    hull = p.qhull
    pts, tri, normals = hull.points, hull.simplices, hull.equations[:, :d]
    s, t, ridge = _b.bent_ridges(p)
    if m == d - 2:
        v, angle = pts[ridge], _angle(normals[s], normals[t])
        return float(np.sum(_simplex_content(v[:, 1:] - v[:, :1]) * angle)) / (2.0 * math.pi)
    facet = _b.facets(hull)
    # the faces sigma of each ridge, one per vertex left out
    sigma = ridge[:, [[c for c in range(d - 1) if c != j] for j in range(d - 1)]]
    v, e = pts[sigma], pts[ridge[:, 1:]] - pts[ridge[:, :1]]
    size = _simplex_content(v[:, :, 1:] - v[:, :, :1])
    solid = (d - 2) * _simplex_content(e) > \
        FLAT_TOL * size.max(axis=1) * np.linalg.norm(e, axis=2).max(axis=1)
    # sigma lies in the facets whose bit is set at each of its vertices
    incidence = np.zeros((pts.shape[0], facet.max() // 64 * 64 + 64), dtype=bool)
    incidence[tri, facet[:, None]] = True
    through = np.bitwise_and.reduce(
        np.packbits(incidence, axis=1).view(np.uint64)[sigma], axis=2)
    r, j = np.nonzero((_POPCOUNT[through.view(np.uint8)].sum(axis=2) >= 3) & solid[:, None])
    # the sigmas in runs with equal facet sets, one run per (d-3)-face
    order = np.lexsort(through[r, j].T)
    r, j = r[order], j[order]
    new = np.concatenate([[True], np.any(np.diff(through[r, j], axis=0) != 0, axis=1)])
    # an edge's midpoint is p / |p|, and both halves of its triangle have
    # the numerator |c ^ a ^ b| / |p| = |c ^ a ^ p| / |p|
    a, b = normals[s[r]], normals[t[r]]
    p = a + b
    length = np.sqrt(_dot(p, p))
    c = np.add.reduceat(p / length[:, None], np.flatnonzero(new))
    c = (c / np.sqrt(_dot(c, c))[:, None])[np.cumsum(new) - 1]
    num, cm = _wedge3_norm(a, p, c) / length, 1.0 + _dot(c, p) / length
    omega = np.arctan2(num, cm + _dot(c, a) + _dot(a, p) / length) + \
        np.arctan2(num, cm + _dot(c, b) + _dot(b, p) / length)
    return float(np.dot(size[r, j], omega)) / (2.0 * math.pi)


def _boundary(p: VPolytope) -> tuple[np.ndarray, bool]:
    """The (d-1)-volume of every simplex of qhull's boundary triangulation
    of a full-dimensional polytope, once per instance, and whether the
    triangulation closes up: the outer normals n_s weighted by the
    volumes must sum to 0 (the boundary encloses K) and the volumes to
    qhull's area (it covers each facet once), both within CLOSURE_TOL of
    the total.  A hull whose input cloud holds many points on its
    lower faces can fail this, and then neither its boundary nor its
    ridges measure K."""
    def measure():
        hull = p.qhull
        normals = hull.equations[:, :p.n]
        # rows n_s and the edges of s from its first vertex
        rows = hull.points[hull.simplices]
        rows[:, 1:] -= rows[:, :1]
        rows[:, 0] = normals
        vol = np.abs(np.linalg.det(rows)) / math.factorial(p.n - 1)
        total = float(vol.sum())
        closed = (float(np.linalg.norm(vol @ normals)) <= CLOSURE_TOL * total
                  and abs(total - hull.area) <= CLOSURE_TOL * hull.area)
        return vol, closed
    return _b.derived(p, "boundary", measure)


def _angle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise angle between a and b as atan2(|a ^ b|, a . b)."""
    return np.arctan2(_wedge_norm(a, b), _dot(a, b))


def _wedge_norm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise |a ^ b| from the 2 x 2 minors, ordered like the components
    of the cross product in R^3 (so that it equals |a x b| bit for bit)."""
    i, j = np.array(list(itertools.combinations(range(a.shape[-1]), 2))[::-1]).T
    return np.linalg.norm(a[..., i] * b[..., j] - a[..., j] * b[..., i], axis=-1)


def _wedge3_norm(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Row-wise |a ^ b ^ c| from the 3 x 3 minors, each expanded along c."""
    i, j, k = np.array(list(itertools.combinations(range(a.shape[1]), 3))).T
    x, y = np.stack([j, i, i]), np.stack([k, k, j])
    terms = c[:, np.stack([i, j, k])] * (a[:, x] * b[:, y] - a[:, y] * b[:, x])
    return np.linalg.norm(terms[:, 0] - terms[:, 1] + terms[:, 2], axis=1)


def _simplex_content(e: np.ndarray) -> np.ndarray:
    """Measures of the simplices spanned by the k edges e[..., :, :] from one
    vertex: |prod diag R| / k! from a QR of the edges, for k <= 2 by norms."""
    k = e.shape[-2]
    if k == 1:
        return np.linalg.norm(e[..., 0, :], axis=-1)
    if k == 2:
        return 0.5 * _wedge_norm(e[..., 0, :], e[..., 1, :])
    r = np.linalg.qr(np.swapaxes(e, -1, -2), mode="r")
    return np.abs(np.prod(np.diagonal(r, axis1=-2, axis2=-1), axis=-1)) / math.factorial(k)


# ---------------------------------------------------------------------------
# one-dimensional width integrals


def v1_cross_polytope(n: int) -> Measured:
    """V_1 of the cross-polytope conv{+-e_i} in R^n: V_1(K) is sqrt(2 pi)
    times the mean of h_K at a standard Gaussian g (Sudakov; Tsirelson
    1985) and h_{C_n}(g) = max_i |g_i|, so V_1(C_n) = sqrt(2 pi) * integral
    over t >= 0 of 1 - erf(t/sqrt 2)^n, an integrand below n erfc(t/sqrt 2).
    """
    return Measured.of_exact(_v1_cross_rule(n, CROSS_NODES))


def _v1_cross_rule(n: int, nodes: int) -> float:
    edges = np.linspace(0.0, CROSS_CUTOFF, CROSS_PANELS + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        t, w = gauss_legendre(lo, hi, nodes)
        total += float(np.dot(w, 1.0 - erf(t / math.sqrt(2.0)) ** n))
    return math.sqrt(2.0 * math.pi) * total


def _v1_k1_rule(nodes: int) -> float:
    """V_1 of K1: 48 congruent wedges (azimuth theta in [pi/4, pi/2], polar
    angle up to arctan(csc theta)) tile (1/pi) * the sphere integral of h,
    and the polar integral over a wedge has a closed form in theta,
    analytic on (pi/4, pi/2)."""
    theta, w = gauss_legendre(math.pi / 4.0, math.pi / 2.0, nodes)
    s, c = np.sin(theta), np.cos(theta)
    log_arg = (math.sqrt(2.0) + c) * s / ((c + 1.0) * np.sqrt(1.0 + s * s))
    polar = 0.5 - s * s / (math.sqrt(2.0) * (1.0 + s * s)) - \
        s * s / (2.0 * c) * np.log(log_arg)
    return 48.0 * float(np.dot(w, polar)) / math.pi


# ---------------------------------------------------------------------------
# quadrature mean width


def v1_quadrature(body: Body, spec: QuadratureSpec | None = None) -> QuadratureEstimate:
    """V_1 via (1/kappa_{n-1}) * integral of the support function over the
    sphere.  Works for every body with a support function, including
    lower-dimensional ones."""
    body = resolve(body)
    n = body.n
    if n < 2:
        raise UnsupportedMeasure("mean-width quadrature needs ambient n >= 2")
    if spec is None:
        spec = QuadratureSpec.for_dimension(n)
    est = integrate_sphere_with_error(
        lambda pts: _b.support_many(body, pts), n, spec)
    c = 1.0 / kappa(n - 1)
    return QuadratureEstimate(c * est.value, c * est.error, est.resolution)


# ---------------------------------------------------------------------------
# zonotopes


def vm_zonotope(z: Zonotope, m: int) -> float:
    """V_m of a zonotope (McMullen): 2^m times the sum, over the m-element
    generator subsets S, of the m-volume of the box G_S spans, the root of
    the sum of the squared m x m minors of G_S (Cauchy-Binet).  One pass
    over the subsets (:func:`_zonotope_sums`) gives it and V_m of every
    coordinate shadow, once per body instance and m."""
    if not 1 <= m <= z.n:
        raise InvalidArgument(f"need 1 <= m <= {z.n}, got m={m}")
    return _zonotope_pass(z, m)[0]


def _zonotope_pass(z: Zonotope, m: int) -> list[float]:
    """[V_m(Z), V_m(Z | e_0^perp), ..., V_m(Z | e_{n-1}^perp)], once per
    body instance and m (:func:`bodies.derived`)."""
    return _b.derived(z, ("zonotope", m), lambda: _zonotope_sums(z.generators, m))


def _zonotope_sums(g: np.ndarray, m: int) -> list[float]:
    """2^m sum_S sqrt(sum_C minor_{S,C}^2) over the m-subsets S of the
    generators g (rows), with C over every m-subset of the n columns and
    then over those that avoid column i, for each i: V_m of the zonotope
    and of its shadow along each axis, whose generators are g less column
    i.  As in the shadow's :class:`Zonotope`, a generator whose entries
    off column i are all within DEDUP_TOL of 0 is none of its generators,
    so the subsets holding it are left out of that shadow's sum.  A
    subset that spans fewer than m dimensions (parallel generators) has
    minors of roundoff size, where the root of its Gram determinant would
    be about sqrt(eps) times the subset's content scale.

    The generators are scaled by a power of 2 first, exactly while no
    entry is below 1e-300 times the largest, so that no minor or square
    overflows or underflows: V_m(2^e Z) = 2^{e m} V_m(Z) bit for bit, and
    a value past the double range is inf.  Subsets are taken SUBSET_BLOCK
    at a time, so that C(k, m) up to MAX_SUBSETS stays bounded in memory.
    Each sum is exact before it is rounded (:func:`math.fsum`, carried
    between blocks by :func:`_exact_parts`), and a subset's minors and
    their sums do not depend on the subsets stacked with it, so the
    result does not depend on the block size."""
    k, n = g.shape
    if k < m:
        return [0.0] * (n + 1)
    count = math.comb(k, m)
    if count > MAX_SUBSETS:
        raise UnsupportedMeasure(f"{count} generator subsets exceed the enumeration guard")
    weights = np.column_stack([np.ones(math.comb(n, m)), _avoiding(n, m)])
    big = np.abs(g) > _b.DEDUP_TOL
    dropped = big.sum(axis=1)[:, None] == big    # generator, axis
    scale = math.frexp(float(np.max(np.abs(g))))[1]     # entries below 1
    g = np.ldexp(g, -scale)
    flat = itertools.chain.from_iterable(itertools.combinations(range(k), m))
    parts = [[] for _ in range(n + 1)]
    for start in range(0, count, SUBSET_BLOCK):
        rows = min(SUBSET_BLOCK, count - start)
        subsets = np.fromiter(flat, np.intp, rows * m).reshape(rows, m)
        # einsum, not @: BLAS sums a row differently as the row count changes
        roots = np.sqrt(np.einsum("sc,ci->is", _minors(g[subsets]) ** 2, weights))
        if dropped.any():
            roots[1:] *= ~dropped[subsets].any(axis=1).T
        roots = roots.tolist()
        if start + rows == count:
            sums = np.array([math.fsum(p + r) for p, r in zip(parts, roots)])
            return np.ldexp(sums, m * (scale + 1)).tolist()
        parts = [_exact_parts(p, r) for p, r in zip(parts, roots)]


def _exact_parts(parts: list, values: list) -> list:
    """Floats whose exact sum is that of parts and values: each
    :func:`math.fsum` rounds the exact remainder, which is 0 after a few
    terms."""
    out = []
    while s := math.fsum(itertools.chain(parts, values, [-x for x in out])):
        out.append(s)
    return out


# ---------------------------------------------------------------------------
# balls


def vm_ball(b: Ball, m: int) -> float:
    """Closed-form V_m of a (possibly flattened) ball."""
    if not 1 <= m <= b.n:
        raise InvalidArgument(f"need 1 <= m <= {b.n}, got m={m}")
    d = b.active_dim
    if b.radius == 0.0 or m > d:
        return 0.0
    return math.comb(d, m) * kappa(d) / kappa(d - m) * b.radius ** m


# ---------------------------------------------------------------------------
# central dispatcher


def vm(body: Body, m: int, spec: QuadratureSpec | None = None) -> Measured:
    """V_m of a body with an error estimate.

    Raises UnsupportedMeasure for combinations with no implemented path
    (full-dimensional d-polytopes with 2 <= m <= d-4).  Each (m, spec) is
    measured once per body instance (:func:`bodies.derived`).  A dilate
    lambda K takes lambda^m V_m(K) when that is exact (:func:`_off_source`).
    """
    body = resolve(body)
    return _b.derived(body, ("vm", m, spec), lambda: _off_source(
        body, m, lambda k: vm(k, m, spec)) or _vm(body, m, spec))


def _off_source(body: Body, m: int, measure) -> Measured | None:
    """``measure(body)`` of a dilate body = lambda K
    (:func:`bodies.dilate_source`) by homogeneity of degree m: lambda^m
    ``measure(K)`` when K's value is exact.  None for a body with no
    source, or when K's value carries an approximation error (quadrature
    V_1 at d >= 5), which is then measured on the body itself."""
    source = _b.dilate_source(body)
    if source is None:
        return None
    k, lam = source
    value = measure(k)
    return Measured.of_exact(lam ** m * value.value) if value.exact else None


def _vm(body: Body, m: int, spec: QuadratureSpec | None) -> Measured:
    n = body.n
    if m == 0:
        return Measured.of_exact(1.0)
    if not 1 <= m <= n:
        raise InvalidArgument(f"need 0 <= m <= {n}, got m={m}")
    if isinstance(body, Zonotope):
        return Measured.of_exact(vm_zonotope(body, m))
    if isinstance(body, Ball):
        return Measured.of_exact(vm_ball(body, m))
    if isinstance(body, DiskHull):
        if m == 1:
            return Measured.of_exact(_v1_k1_rule(K1_NODES))
        return with_polygon_error(
            body, _vm_polytope_measured(body.as_polytope(), m, None))
    if isinstance(body, VPolytope):
        return _vm_polytope_measured(body, m, spec)
    raise InvalidArgument(f"not a body: {type(body).__name__}")


# ---------------------------------------------------------------------------
# projections


def vm_projection(body: Body, u, m: int, spec: QuadratureSpec | None = None) -> Measured:
    """V_m(K | u^perp), 0 <= m <= n-1, for a coordinate axis ``u = i`` or
    a direction u.

    On a zonotope it comes from the minors of its generator subsets
    (:func:`_zonotope_sums`), with no projected body: along e_i from the
    pass that gives V_m(Z) and every coordinate shadow, once per body
    instance and m; along an oblique u from the projected generators
    G - (G u) u^T.  On a full-dimensional polytope with m = n-1 or m = n-2
    it is read off K's own boundary triangulation (:func:`_shadows`),
    with no hull of the projection.  Both degrees of all n coordinate
    shadows are measured together, once per body instance, since they
    read the same triangulation.  Elsewhere, or when that triangulation
    does not close up (:func:`_boundary`), it is :func:`vm` of the
    projection: ``project_drop(K, i)`` along a coordinate axis (+-e_i
    included, so that it is that coordinate's term bit for bit),
    otherwise ``project_along(K, u)``, where K1 is replaced by its
    inscribed polytope, whose error the result carries.  A dilate
    lambda K takes lambda^m V_m(K | u^perp) when that is exact
    (:func:`_off_source`).
    """
    body = resolve(body)
    if not 0 <= m < body.n:
        raise InvalidArgument(f"need 0 <= m <= {body.n - 1}, got m={m}")
    scaled = _off_source(body, m, lambda k: vm_projection(k, u, m, spec))
    if scaled is not None:
        return scaled
    top = m >= 1 and body.n - m in (1, 2)
    if isinstance(u, (int, np.integer)):
        i = coordops._check_axis(body.n, u)
        if isinstance(body, Zonotope):
            return Measured.of_exact(_zonotope_pass(body, m)[1 + i] if m else 1.0)
        if top and isinstance(body, VPolytope):
            shadows = _b.derived(body, "shadows", lambda: _coordinate_shadows(body))
            if shadows is not None:
                return shadows[m][i]
        return vm(coordops.project_drop(body, i), m, spec)
    u = _b.as_vector(u, body.n)
    norm = float(np.linalg.norm(u))
    if norm == 0:
        raise InvalidArgument("projection direction must be non-zero")
    u = u / norm
    axes = np.flatnonzero(u)
    if axes.size == 1:
        return vm_projection(body, int(axes[0]), m, spec)
    if isinstance(body, Zonotope):
        g = body.generators
        return Measured.of_exact(_zonotope_sums(g - np.outer(g @ u, u), m)[0] if m else 1.0)
    if isinstance(body, DiskHull):
        return with_polygon_error(body, vm_projection(body.as_polytope(), u, m, spec))
    if top and _on_boundary(body):
        return Measured.of_exact(_shadows(body, u, m))
    return vm(coordops.project_along(body, u), m, spec)


def _on_boundary(body: Body) -> bool:
    """Whether the shadows of body are measured on its boundary
    triangulation: a full-dimensional polytope whose triangulation
    closes up."""
    if not (isinstance(body, VPolytope) and affine_dim(body) == body.n):
        return False
    try:
        return _boundary(body)[1]
    except UnsupportedOperation:   # qhull failed on K; its shadows may hull
        return False


def _coordinate_shadows(p: VPolytope) -> dict | None:
    """{m: (V_m(K | e_i^perp) for every axis i)} for m = n-1 and n-2
    (m >= 1), or None when the boundary does not measure them."""
    if not _on_boundary(p):
        return None
    return {m: tuple(map(Measured.of_exact, _shadows(p, None, m).tolist()))
            for m in (p.n - 1, p.n - 2) if m >= 1}


def _shadows(p: VPolytope, u: np.ndarray | None, m: int):
    """V_m(K | u^perp), m = n-1 or n-2, for a unit vector u, or for every
    coordinate axis (u = None, an array of n), from the boundary
    triangulation of K.

    * V_{n-1} (Cauchy): 1/2 sum_s |n_s . u| vol(s) over the boundary
      simplices, whose projections cover the shadow twice.
    * V_{n-2}: the shadow's boundary is the projection of the silhouette,
      the bent ridges R between a simplex s facing up (sgn(n_s . u) = 1)
      and one t facing down; 1/2 sum_R vol(P_u R) |sgn(n_s . u) -
      sgn(n_t . u)| / 2 with sgn(0) = 0.  A vertical facet F gives weight
      1/2 to its upper and its lower ridges, each set projecting onto
      P_u F; any sign given to a nearly vertical facet gives the same
      shadow, so the sum is continuous in u.  Along e_i, vol(P_u R) is
      the root of the sum of the squared (n-2)-minors of R's edges that
      avoid column i (Cauchy-Binet), taken for every i at once.
    """
    hull, n = p.qhull, p.n
    normals = hull.equations[:, :n]
    up = normals if u is None else normals @ u
    if m == n - 1:
        return 0.5 * (_boundary(p)[0] @ np.abs(up))
    s, t, ridge = _b.bent_ridges(p)
    pts = hull.points
    e = pts[ridge[:, 1:]] - pts[ridge[:, :1]]
    sign = np.sign(up)
    weight = np.abs(sign[s] - sign[t])
    if u is None:
        size = np.sqrt(_minors(e) ** 2 @ _avoiding(n, n - 2)) / math.factorial(n - 2)
    else:
        size = _simplex_content(e - (e @ u)[..., None] * u)
    return 0.25 * np.sum(weight * size, axis=0)


@cache
def _avoiding(n: int, k: int) -> np.ndarray:
    """0/1 matrix whose entry (c, i) marks that the c-th k-subset of
    range(n), in itertools order, avoids column i."""
    cols = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    return (cols[:, :, None] != np.arange(n)).all(axis=1).astype(float)


@cache
def _expansion(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each k-subset of range(n), k >= 2, in itertools order: its
    columns, the index of the subset less each of them among the
    (k-1)-subsets, and the signs of the cofactors along a k x k
    matrix's last row."""
    lower = {c: r for r, c in enumerate(itertools.combinations(range(n), k - 1))}
    cols = list(itertools.combinations(range(n), k))
    rest = [[lower[c[:a] + c[a + 1:]] for a in range(k)] for c in cols]
    return (np.array(cols, dtype=np.intp), np.array(rest, dtype=np.intp),
            (-1.0) ** (k - 1 + np.arange(k)))


def _minors(e: np.ndarray) -> np.ndarray:
    """Every k x k minor of the k x n matrices e[..., :, :], one per
    k-subset of columns in itertools order: row r's minors by expanding
    along row r from those of the rows above it.  Each expansion is summed
    left to right, so that a matrix's minors do not depend on the matrices
    stacked with it (a stacked matmul's do)."""
    minors = e[..., 0, :]
    for r in range(1, e.shape[-2]):
        cols, rest, sign = _expansion(e.shape[-1], r + 1)
        terms = e[..., r, cols] * minors[..., rest] * sign
        minors = terms[..., 0]
        for j in range(1, r + 1):
            minors = minors + terms[..., j]
    return minors


# ---------------------------------------------------------------------------
# sections


def vm_section(body: Body, i: int, m: int, spec: QuadratureSpec | None = None) -> Measured:
    """V_m(K ∩ e_i^perp), 0 <= m <= n-1, measured in the n-1 coordinates
    other than i.

    A body that x_i -> -x_i maps onto itself
    (:func:`coordops.mirror_symmetric`) has its projection as section, so
    it is :func:`vm_projection`.  On any other full-dimensional polytope
    in R^n, n >= 3, with m = n-1 or m = n-2, it is read off K's own
    boundary triangulation (:func:`_sections`), with no hull of the
    section; both degrees of all n coordinate sections are measured
    together, once per body instance.  Planes through a vertex, planes
    that K touches from one side and planes that miss K take the same
    route.  Elsewhere, or when that triangulation does not close up
    (:func:`_boundary`), it is :func:`vm` of ``section_drop(K, i)``, and
    an exact 0 when the plane misses K.  A dilate lambda K takes
    lambda^m V_m(K ∩ e_i^perp) when that is exact (:func:`_off_source`).
    """
    body = resolve(body)
    if not 0 <= m < body.n:
        raise InvalidArgument(f"need 0 <= m <= {body.n - 1}, got m={m}")
    i = coordops._check_axis(body.n, i)
    scaled = _off_source(body, m, lambda k: vm_section(k, i, m, spec))
    if scaled is not None:
        return scaled
    if coordops.mirror_symmetric(body, i):
        return vm_projection(body, i, m, spec)
    if isinstance(body, VPolytope) and body.n >= 3 and body.n - m in (1, 2):
        sections = _b.derived(body, "sections", lambda: _coordinate_sections(body))
        if sections is not None:
            return sections[m][i]
    s = coordops.section_drop(body, i)
    return Measured.of_exact(0.0) if s is coordops.EMPTY else vm(s, m, spec)


def _coordinate_sections(p: VPolytope) -> dict | None:
    """{m: (V_m(K ∩ e_i^perp) for every axis i)} for m = n-1 and n-2, or
    None when the boundary does not measure them."""
    if not _on_boundary(p):
        return None
    values = _sections(p.qhull)
    return {m: tuple(map(Measured.of_exact, values[m].tolist())) for m in (p.n - 1, p.n - 2)}


def _sections(hull) -> dict:
    """{m: V_m(K ∩ e_i^perp) for every axis i} for m = n-1 and n-2 from
    qhull's boundary triangulation of K.

    The upper side of the plane x_i = 0 is x_i >= 0 when K has a vertex
    with x_i < 0, and x_i <= 0 otherwise (:func:`coordops._upper`).  A
    boundary simplex s with c vertices a on the upper side and n-c
    vertices b on the other meets the plane in the convex hull of the
    points x_ab = a + t (b - a), t = a_i / (a_i - b_i), anchored at the
    upper end (:func:`coordops._cut_points`), so that a vertex on the
    plane is its own cut point bit for bit and no edge divides 0 by 0.
    A plane through K's interior is thus cut as the limit of x_i = -eps.
    A plane that K touches in a face F is tiled by the cuts of the
    simplices around F's boundary; below dimension n-2 they are exactly
    0.  A plane that misses K crosses no simplex.

    Homogenized, x_ab is a positive multiple of e_a + f_b in a rescaled
    basis of s's vertices, so that cut is a product of simplices
    Delta^{c-1} x Delta^{n-c-1} and shares its triangulations; the
    staircase one (:func:`_staircases`) splits it into C(n-2, c-1)
    (n-2)-simplices sigma, which tile the section's boundary.  In the n-1
    coordinates other than i, for every axis in one pass:

    * V_{n-2}, half the section's boundary measure: 1/2 sum_sigma
      vol(sigma), vol(sigma) the root of the sum of sigma's squared
      (n-2)-minors over (n-2)! (Cauchy-Binet).
    * V_{n-1}: the cones over every sigma from a point o of the section
      (the mean of one cut point per crossing simplex) tile it, so it is
      sum_sigma |det(y_0 - o, edges of sigma)| / (n-1)!, y_0 a vertex of
      sigma.
    """
    pts, tri, n = hull.points, hull.simplices, hull.points.shape[1]
    up = coordops._upper(pts[hull.vertices], pts[tri])   # simplex, vertex, axis
    count = up.sum(axis=1)
    s, i = np.nonzero((count > 0) & (count < n))
    v = tri[s[:, None], np.argsort(~up[s, :, i], axis=1, kind="stable")]   # upper first
    pairs = _staircases(n).reshape(n, -1, 2)[count[s, i]]   # row, vertex, (a, b)
    a = np.take_along_axis(v, pairs[..., 0], axis=1)
    b = np.take_along_axis(v, pairs[..., 1], axis=1)
    # a point of each section: the mean of one cut point per crossing simplex
    per = i == np.arange(n)[:, None]
    o = per @ coordops._cut_points(pts, a[:, 0], b[:, 0], i)
    o /= np.maximum(per.sum(axis=1), 1)[:, None]
    cols, rest, sign = _expansion(n - 1, n - 1)
    total, blocks = np.zeros((2, n)), math.ceil(a.size / (n - 1) / SECTION_BLOCK)
    for r in np.array_split(np.arange(s.size), max(1, blocks)):
        axis = np.repeat(i[r], a.shape[1] // (n - 1))
        y = coordops._cut_points(pts, a[r], b[r], i[r]).reshape(len(axis), n - 1, n - 1)
        minors = _minors(y[:, 1:] - y[:, :1])
        cone = ((y[:, 0] - o[axis])[:, cols[0]] * minors[:, rest[0]]) @ sign
        size = np.stack([np.abs(cone), np.sqrt(_dot(minors, minors))])
        # pairwise sums along each contiguous row
        total += np.where(axis == np.arange(n)[:, None], size[:, None], 0.0).sum(axis=2)
    return {n - 1: total[0] / math.factorial(n - 1),
            n - 2: 0.5 * total[1] / math.factorial(n - 2)}


@cache
def _staircases(n: int) -> np.ndarray:
    """The staircase triangulations of the cut Delta^{k-1} x Delta^{n-k-1}
    of an (n-1)-simplex with k vertices above a hyperplane, for k = 1 ..
    n-1, as an array (k, sigma, vertex, (a, b)) of positions in the
    simplex's vertex list, its k upper vertices first: sigma runs over
    the monotone lattice paths from (0, k) to (k-1, n-1), each one of the
    C(n-2, k-1) simplices, and the rest of the C(n-2, (n-2) // 2) rows
    are degenerate, every vertex (0, k)."""
    width = math.comb(n - 2, (n - 2) // 2)
    out = np.zeros((n, width, n - 1, 2), dtype=np.intp)
    out[..., 1] = np.arange(n)[:, None, None]
    for k in range(1, n):
        for p, ups in enumerate(itertools.combinations(range(n - 2), k - 1)):
            steps = np.isin(np.arange(n - 2), ups)
            out[k, p, 1:, 0] = np.cumsum(steps)
            out[k, p, 1:, 1] = k + np.cumsum(~steps)
    return out


def with_polygon_error(body: DiskHull, val: Measured) -> Measured:
    """``val``, measured on K1's inscribed polytope (or on a projection of
    it), with the k-gon deficit added to its error.

    K1 lies inside the inscribed polytope dilated by sec(pi/k), and each
    projection of K1 inside the same projection dilated alike; V_m (m <= 3)
    thus falls short by at most sec(pi/k)^3 - 1 < 18/k^2 relative (k >= 8),
    reported as 40/k^2.
    """
    rel = 40.0 / body.fineness ** 2
    return Measured(val.value, val.error + rel * max(1.0, abs(val.value)), False)


def _vm_polytope_measured(p: VPolytope, m: int, spec) -> Measured:
    d = affine_dim(p)
    if m > d:
        return Measured.of_exact(0.0)
    if d < p.n:
        return _vm_polytope_measured(to_affine_coords(p), m, spec)
    # Full-dimensional in its ambient space from here on.
    if m == d:
        return Measured.of_exact(volume(p))
    if m == d - 1:
        return Measured.of_exact(0.5 * surface_area(p))
    if m >= d - 3:  # V_1 keeps its named entry, which perfbench/tracer.py counts
        return Measured.of_exact(
            v1_polytope_exact(p) if m == 1 else vm_polytope_angles(p, m))
    if m == 1:
        est = v1_quadrature(p, spec)
        return Measured.of_quadrature(est.value, est.error)
    raise UnsupportedMeasure(
        f"V_{m} of a full-dimensional polytope in R^{d} has no exact or "
        f"quadrature path (supported: m = 1 and m = {d - 3}..{d})")
