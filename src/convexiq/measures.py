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
  shadow (:func:`vm_shadows`, :func:`vm_projection`): Cauchy's
  projection formula over the boundary simplices and the projected
  silhouette ridges.  A signed-permutation symmetral's triangulation is
  laid out by orbits (``bodies.Triangulation``), and its volumes, V_{d-2}
  and coordinate shadows read one simplex per orbit, weighted by the
  group order;
* V_{n-1} and V_{n-2} of every section K ∩ e_i^perp of a full-dimensional
  polytope K from the same triangulation, with no hull of the section
  (:func:`vm_sections`): each boundary simplex that crosses the plane is
  cut into a product of simplices, whose staircase triangulation tiles
  the section's boundary.  A vertex on the plane counts on the plane's
  upper side, x_i >= 0 when K has a vertex with x_i < 0 and x_i <= 0
  otherwise, so planes through a vertex and planes that K touches or
  misses take the same route.  That side rule and the cut points are
  :mod:`coordops`' (``_upper``, ``_cut_points``), which its hulled cut
  (``section_drop``) uses too;
* V_{n-3} of every section K ∩ e_i^perp, n >= 4, from the bent ridges of
  the same triangulation (:func:`_ridge_sections`): each ridge that
  crosses the plane is cut and split as the simplices are, and weighted
  by its external angle in the section, under the same side rule.  Along
  a mirror plane of K this is V_{n-3} of the shadow too, so the shadows
  of an unconditional polytope take no hull at that degree either;
* every V_m of a zonotope and of each of its shadows from the m x m
  minors of its generator subsets (Cauchy-Binet, :func:`vm_zonotope`),
  the coordinate shadows of one degree in the same pass;
* V_{n-1} and V_{n-2} of every coordinate section of a zonotope in
  general position from its parallelotope facets, with no sign point and
  no hull (:func:`_zonotope_sections`): each facet's cut is a cube slice
  measured by cones over the cube's faces, under the same side rule;
  V_{n-3} of those sections from its ridges in the same way
  (:func:`_zonotope_ridges`), each ridge's cut weighted by its external
  angle in the section; a zonotope centered at the origin cuts one face
  of each antipodal pair and counts it twice (:func:`_crossings`);
* closed forms for balls;
* V_1 of the cross-polytope C_n and of K1, and V_1 and V_2 of K1's
  oblique shadows, from fixed Gauss-Legendre rules on analytic 1-d
  integrals, whose truncation is below 1e-14 relative (tested) and so
  below the nominal roundoff; V_2 and V_3 of K1 in closed form;
* lower-dimensional polytopes are reduced isometrically to their affine
  span first (``bodies.to_affine_coords``), which also makes e.g. V_1 of
  a planar body in R^3 exact.

The four section passes write each cut step once per face kind: boundary
simplices and bent ridges are cut by :func:`_face_cuts` and measured
block by block by :func:`_cut_blocks`; zonotope facets and ridges start
from :func:`_zonotope_faces` and are cut by :func:`_face_slices`; every
loop over generator subsets takes :func:`_subsets`.  A pass over
triangulated faces, the shadows' bent ridges included, takes SECTION_BLOCK
cut simplices, or one face, per block (:func:`_blocks`).

V_1 of a full-dimensional polytope in d >= 5 falls back to mean-width
quadrature over the sphere.  The remaining pairs (2 <= m <= d-4) raise
:class:`UnsupportedMeasure` rather than silently degrading.

The n coordinate shadows of one degree are measured as one tuple,
:func:`vm_shadows`, and the n coordinate sections as another,
:func:`vm_sections`, each once per body instance and (m, spec); these are
the only coordinate entry points.  :func:`vm_projection` takes a
direction, and along +-e_i it reads entry i of :func:`vm_shadows`.  V_0 of
a shadow is an exact 1 before any route runs, and V_0 of a section is 1
or 0 as the plane meets K or misses it, decided with no hull.

A dilate lambda K made by ``bodies.scale_body`` (:func:`bodies.dilate_source`)
is measured on K (:func:`_off_source`): each of :func:`vm`,
:func:`vm_shadows`, :func:`vm_sections` and an oblique
:func:`vm_projection` reads the same call on K once and returns lambda^m
times each of its values, since V_m of a body, of its shadows and of its
sections is homogeneous of degree m.  An inexact value (quadrature) is
scaled with its error, as the sphere rule is linear in the support
function and h_{lambda K} = lambda h_K, so a dilate runs no quadrature
and takes no hull of its own.

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
# Gauss-Legendre rules of the 1-d integrals (C_n: panels on [0, cutoff]).
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
      and are skipped).  On a triangulation laid out by orbits of the
      signed permutations (:class:`bodies.Triangulation`) the terms are
      the same on every ridge of an orbit, so the sum runs over the bent
      ridges of one simplex per orbit, seen from each of its slots
      (:func:`bodies.orbit_ridges`), times |G| / 2: each ridge is seen
      from both of its simplices.
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
    :class:`UnsupportedMeasure`: its angles would be percents off; so
    does one with no solid ridge for V_{d-3}, where face contents have
    underflowed (a hull at 1e-100 scale).
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
    if m == d - 2:
        order = _b.group_order(hull)
        s, t, ridge = _b.bent_ridges(p) if order == 1 else _b.orbit_ridges(p)
        v, angle = pts[ridge], _angle(normals[s], normals[t])
        total = float(np.sum(_simplex_content(v[:, 1:] - v[:, :1]) * angle))
        return (total if order == 1 else 0.5 * order * total) / (2.0 * math.pi)
    s, t, ridge = _b.bent_ridges(p)
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
    if not r.size:   # every ridge looks flat: its contents underflow
        raise UnsupportedMeasure(
            f"no ridge of this {d}-polytope is solid in floats (its face contents "
            "underflow), so its ridge angles do not give V_{d-3}")
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
    ridges measure K.

    On a triangulation laid out by orbits (:class:`bodies.Triangulation`:
    row s |G| + g is the image of row s |G| under element g), the images
    of a simplex have its volume, so det runs on the rows s |G| only and
    each volume is repeated |G| times; both closure tests read the whole
    repeated vector."""
    def measure():
        hull = p.qhull
        order, normals = _b.group_order(hull), hull.equations[:, :p.n]
        # rows n_s and the edges of s from its first vertex, one s per orbit
        rows = hull.points[hull.simplices[::order]]
        rows[:, 1:] -= rows[:, :1]
        rows[:, 0] = normals[::order]
        vol = np.repeat(np.abs(np.linalg.det(rows)) / math.factorial(p.n - 1), order)
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


def _vm_k1(m: int) -> float:
    """V_m of K1, m = 1, 2, 3.  Its boundary is 8 unit equilateral
    triangles at height 2/sqrt 6, on the normals (+-1, +-1, +-1)/sqrt 3,
    and 24 copies of the developable patch over the normals (t, t, 1),
    t in [0, 1], ruled from P = (0, t, 1)/s to Q = (t, 0, 1)/s, s =
    sqrt(1 + t^2).  As P' x (Q - P) = Q' x (Q - P) = -(t^2, t^2, t)/s^4,
    the patch has area int_0^1 t sqrt(1 + 2t^2)/s^4 dt = pi/12 + 1/2 -
    sqrt(3)/4, and at height s/sqrt(1 + 2t^2) its cone from the origin
    has volume int_0^1 t/(3 s^3) dt = (1 - 1/sqrt 2)/3."""
    if m == 1:
        return _v1_k1_rule(K1_NODES)
    triangle = math.sqrt(3.0) / 4.0
    if m == 2:
        return 4.0 * triangle + 12.0 * (math.pi / 12.0 + 0.5 - triangle)
    return 8.0 * triangle * 2.0 / math.sqrt(6.0) / 3.0 + 8.0 * (1.0 - math.sqrt(0.5))


def _k1_shadow(u: np.ndarray, m: int, nodes: int) -> float:
    """V_m(K1 | u^perp), m = 1 or 2, for a unit u off the axes, from the
    support function on the circle w = cos(theta) e + sin(theta) f of
    u^perp (e, f orthonormal): h^2 = 1 - w_k^2, k the coordinate of least
    |w_k|, so h' = -w_k w_k' / h.  Half the perimeter, V_1 = 1/2 int h,
    and the area, V_2 = 1/2 int (h^2 - h'^2), are each the integral over a
    half turn, as h(theta + pi) = h(theta).  h is analytic between the
    angles where w_i = +-w_j, w normal to e_i -+ e_j, and each panel
    between them takes a ``nodes``-point Gauss-Legendre rule."""
    e, f = np.linalg.svd(u[None, :])[2][1:]
    tie = np.cross(u, [[1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1], [0, 1, 1], [0, 1, -1]])
    cut = np.sort(np.arctan2(tie @ f, tie @ e) % math.pi)
    ends = np.append(cut[1:], cut[0] + math.pi)
    theta, weight = gauss_legendre(cut[:, None], ends[:, None], nodes)
    c, s = np.cos(theta), np.sin(theta)
    k = np.abs(np.multiply.outer(c, e) + np.multiply.outer(s, f)).argmin(axis=-1)
    wk, dwk = c * e[k] + s * f[k], c * f[k] - s * e[k]
    h2 = 1.0 - wk * wk
    return float(np.sum(weight * (np.sqrt(h2) if m == 1 else h2 - (wk * dwk) ** 2 / h2)))


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
    i.  A generator whose entries off column i are all 0.0 is none of the
    shadow's generators, and every minor avoiding column i of a subset
    holding it is exactly 0, so the sum leaves it out alike.  A subset
    that spans fewer than m dimensions (parallel generators) has minors
    of roundoff size, where the root of its Gram determinant would be
    about sqrt(eps) times the subset's content scale.

    The generators are scaled by a power of 2 first (:func:`_scaled`),
    exactly while no entry is below 1e-300 times the largest, so that no
    minor or square overflows or underflows: V_m(2^e Z) = 2^{e m} V_m(Z)
    bit for bit, and a value past the double range is inf.  Subsets are
    taken SUBSET_BLOCK at a time (:func:`_subsets`), so that C(k, m) up to
    MAX_SUBSETS stays bounded in memory.  Each sum is exact before it is
    rounded (:func:`math.fsum` on the last block, carried between blocks
    by :func:`_exact_parts`), and a subset's minors and
    their sums do not depend on the subsets stacked with it, so the
    result does not depend on the block size."""
    k, n = g.shape
    if k < m:
        return [0.0] * (n + 1)
    count = math.comb(k, m)
    if count > MAX_SUBSETS:
        raise UnsupportedMeasure(f"{count} generator subsets exceed the enumeration guard")
    weights = _pass_weights(n, m)
    g, scale = _scaled(g)
    parts, roots = [[] for _ in range(n + 1)], None
    for subsets in _subsets(k, m, SUBSET_BLOCK):
        if roots is not None:   # the last block's roots go to one fsum
            parts = [_exact_parts(p, r) for p, r in zip(parts, roots)]
        # einsum, not @: BLAS sums a row differently as the row count changes
        roots = np.sqrt(np.einsum("sc,ci->is", _minors(g[subsets]) ** 2, weights)).tolist()
    sums = np.array([math.fsum(p + r) for p, r in zip(parts, roots)])
    return np.ldexp(sums, m * (scale + 1)).tolist()


def _subsets(k: int, d: int, per: int):
    """The d-subsets of range(k) in itertools order, as arrays of at most
    ``per`` rows."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(k), d))
    count = math.comb(k, d)
    for start in range(0, count, per):
        yield np.fromiter(flat, np.intp, min(per, count - start) * d).reshape(-1, d)


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
    lambda K takes lambda^m V_m(K) (:func:`_off_source`).
    """
    body = resolve(body)
    return _b.derived(body, ("vm", m, spec), lambda: _off_source(
        body, m, lambda k: (vm(k, m, spec),), lambda: (_vm(body, m, spec),))[0])


def _off_source(body: Body, m: int, measure, own) -> tuple[Measured, ...]:
    """The values ``measure(body)``, each homogeneous of degree m in the
    body.  For a dilate body = lambda K (:func:`bodies.dilate_source`)
    ``measure(K)`` is read once and scaled by lambda^m: an exact value as
    an exact value, an inexact one (quadrature V_1 at d >= 5) with its
    error, since h_{lambda K} = lambda h_K and the sphere rule is linear
    in h.  ``own()`` measures every value of a body with no source."""
    source = _b.dilate_source(body)
    if source is None:
        return own()
    k, lam = source
    scale = lam ** m
    return tuple(Measured.of_exact(scale * v.value) if v.exact else
                 Measured(scale * v.value, scale * v.error, False) for v in measure(k))


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
        return Measured.of_exact(_vm_k1(m))
    if isinstance(body, VPolytope):
        return _vm_polytope_measured(body, m, spec)
    raise InvalidArgument(f"not a body: {type(body).__name__}")


# ---------------------------------------------------------------------------
# projections


def vm_projection(body: Body, u, m: int, spec: QuadratureSpec | None = None) -> Measured:
    """V_m(K | u^perp), 0 <= m <= n-1, for a non-zero direction u.

    Along +-e_i it is entry i of :func:`vm_shadows`, so that it is that
    coordinate's term bit for bit and refuses where any coordinate shadow
    of degree m does.  Along an oblique u, V_0 is an exact 1, a
    zonotope's V_m comes from the minors of its projected generators
    G - (G u) u^T (:func:`_zonotope_sums`), K1's from its support
    function (:func:`_k1_shadow`), and a full-dimensional polytope's with
    m = n-1 or m = n-2 from K's own boundary triangulation
    (:func:`_shadows`) when it closes up (:func:`_on_boundary`); elsewhere
    it is :func:`vm` of ``project_along(K, u)``.  A dilate lambda K takes
    lambda^m V_m(K | u^perp) (:func:`_off_source`).
    """
    body = resolve(body)
    _check_degree(body.n, m)
    unit = _b.as_vector(u, body.n)
    norm = float(np.linalg.norm(unit))
    if norm == 0:
        raise InvalidArgument("projection direction must be non-zero")
    unit = unit / norm
    axes = np.flatnonzero(unit)
    if axes.size == 1:
        return vm_shadows(body, m, spec)[int(axes[0])]
    if m == 0:
        return Measured.of_exact(1.0)
    return _off_source(body, m, lambda k: (vm_projection(k, u, m, spec),),
                       lambda: (_oblique(body, unit, m, spec),))[0]


def _oblique(body: Body, u: np.ndarray, m: int, spec: QuadratureSpec | None) -> Measured:
    """V_m(K | u^perp), m >= 1, for a unit u off the axes by the route of
    :func:`vm_projection`, on body itself."""
    if isinstance(body, Zonotope):
        g = body.generators
        return Measured.of_exact(_zonotope_sums(g - np.outer(g @ u, u), m)[0])
    if isinstance(body, DiskHull):
        return Measured.of_exact(_k1_shadow(u, m, K1_NODES))
    if body.n - m in (1, 2) and _on_boundary(body):
        return Measured.of_exact(_shadows(body, u, m))
    return vm(coordops.project_along(body, u), m, spec)


def vm_shadows(body: Body, m: int, spec: QuadratureSpec | None = None) -> tuple[Measured, ...]:
    """(V_m(K | e_0^perp), ..., V_m(K | e_{n-1}^perp)), 0 <= m <= n-1,
    once per body instance and (m, spec) (:func:`bodies.derived`).

    V_0 is an exact 1.  On a zonotope they come from the pass that gives
    V_m(Z) and every coordinate shadow (:func:`_zonotope_pass`), with no
    projected body.  On a full-dimensional polytope with m = n-1 or
    m = n-2 they are read off K's own boundary triangulation
    (:func:`_shadows`, :func:`_off_boundary`), with no hull of a
    projection; with m = n-3, along an axis whose plane x_i -> -x_i maps
    K onto itself (:func:`coordops.mirror_symmetric`), the shadow is the
    section, read off K's bent ridges (:func:`_ridge_sections`; called
    through :func:`_off_boundary`, not :func:`vm_sections`, whose mirror
    axes read this tuple).  Elsewhere, or when that triangulation does
    not close up (:func:`_on_boundary`), each is :func:`vm` of
    ``project_drop(K, i)``.
    An axis that refuses refuses the tuple.  A dilate lambda K takes each
    value off K (:func:`_off_source`).
    """
    body = resolve(body)
    _check_degree(body.n, m)
    return _b.derived(body, ("vm_shadows", m, spec), lambda: _off_source(
        body, m, lambda k: vm_shadows(k, m, spec),
        lambda: tuple(_shadow(body, i, m, spec) for i in range(body.n))))


def _shadow(body: Body, i: int, m: int, spec: QuadratureSpec | None) -> Measured:
    """V_m(K | e_i^perp) by the route of :func:`vm_shadows`, on body itself."""
    if m == 0:
        return Measured.of_exact(1.0)
    if isinstance(body, Zonotope):
        return Measured.of_exact(_zonotope_pass(body, m)[1 + i])
    # along a mirror plane the shadow is the section, whose ridges give degree n-3
    kind = "sections" if body.n - m == 3 and coordops.mirror_symmetric(body, i) else "shadows"
    return _off_boundary(body, kind, i, m) or vm(coordops.project_drop(body, i), m, spec)


def _check_degree(n: int, m: int) -> None:
    """Shadows and sections of a body in R^n have degrees 0..n-1."""
    if not 0 <= m < n:
        raise InvalidArgument(f"need 0 <= m <= {n - 1}, got m={m}")


def _on_boundary(body: Body) -> bool:
    """Whether the shadows and sections of body are read off its boundary
    triangulation: a full-dimensional polytope whose triangulation
    closes up."""
    if not (isinstance(body, VPolytope) and affine_dim(body) == body.n):
        return False
    try:
        return _boundary(body)[1]
    except UnsupportedOperation:   # qhull failed on K; its shadows and sections may hull
        return False


def _off_boundary(body: Body, kind: str, i: int, m: int) -> Measured | None:
    """V_m of the coordinate shadow (``kind`` "shadows", :func:`_shadows`)
    or section ("sections", :func:`_sections`, n >= 3) along e_i of a
    polytope K in R^n, m >= 1 and m = n-1 or n-2, read off K's boundary
    triangulation, or for a section with m = n-3, n >= 4, off its bent
    ridges (:func:`_ridge_sections`); or of the section of a zonotope in
    general position read off its facets (:func:`_zonotope_sections`), or
    for m = n-3, n >= 4, off its ridges (:func:`_zonotope_ridges`).  The
    degrees of one pass are measured together for all n axes, once per
    body instance and kind, the ridges under a key of their own
    ("ridges"), so a body never asked for degree n-3 does not pay for
    them, and None is kept when the triangulation does not measure them
    (:func:`_on_boundary`) or the zonotope is not in general position.
    None for any other body, degree or kind."""
    n, zonotope = body.n, isinstance(body, Zonotope) and kind == "sections"
    either = zonotope or isinstance(body, VPolytope)
    ridges = either and kind == "sections" and n - m == 3 and n >= 4
    if not (ridges or either and n - m in (1, 2) and (n >= 3 or kind == "shadows")):
        return None

    def measure():
        if zonotope:
            values = (_zonotope_ridges if ridges else _zonotope_sections)(body)
        elif not _on_boundary(body):
            return None
        elif ridges:
            values = _ridge_sections(body)
        else:
            values = _sections(body.qhull) if kind == "sections" else \
                {d: _shadows(body, None, d) for d in range(max(1, n - 2), n)}
        return None if values is None else \
            {d: tuple(map(Measured.of_exact, v.tolist())) for d, v in values.items()}
    values = _b.derived(body, "ridges" if ridges else kind, measure)
    return None if values is None else values[m][i]


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

    The bent ridges are taken SECTION_BLOCK at a time (:func:`_blocks`).
    Along the axes of a triangulation laid out by orbits of the signed
    permutations, the sums run over one simplex per orbit, weighted by
    |G| / n and |G| / (2 n) (:func:`_orbit_shadows`).
    """
    hull, n = p.qhull, p.n
    order, normals = _b.group_order(hull), hull.equations[:, :n]
    if u is None and order > 1:
        return _orbit_shadows(p, m, order)
    up = normals if u is None else normals @ u
    if m == n - 1:
        return 0.5 * (_boundary(p)[0] @ np.abs(up))
    s, t, ridge = _b.bent_ridges(p)
    pts, sign, total = hull.points, np.sign(up), np.zeros(n) if u is None else 0.0
    for c in _blocks(len(s), 1):
        e = pts[ridge[c, 1:]] - pts[ridge[c, :1]]
        weight = np.abs(sign[s[c]] - sign[t[c]])
        if u is None:
            # np.sum adds the rows down axis 0 in order, so with the running
            # totals as the first row the blocks sum as one pass, bit for bit
            total = np.sum(np.vstack([total, weight * _axis_contents(e)]), axis=0)
        else:
            total = total + np.sum(weight * _simplex_content(e - (e @ u)[..., None] * u))
    return 0.25 * total


def _orbit_shadows(p: VPolytope, m: int, order: int) -> np.ndarray:
    """:func:`_shadows` along every axis of a polytope whose triangulation is
    laid out by orbits of the signed permutations, |G| = order
    (:class:`bodies.Triangulation`).  G maps the axes onto each other,
    each |G| / n times, so entry i is 1/n times the sum of the terms over
    all n axes, which G leaves unchanged: |G| times that sum over the
    simplices s |G|, one per orbit, for V_{n-1}, and |G| / 2 times it over
    their bent ridges (:func:`bodies.orbit_ridges`), each seen from both
    of its simplices, for V_{n-2}.  So the n entries are equal bit for bit."""
    hull, n = p.qhull, p.n
    normals = hull.equations[:, :n]
    if m == n - 1:
        total = 0.5 * order * float(_boundary(p)[0][::order] @ np.abs(normals[::order]).sum(axis=1))
    else:
        s, t, ridge = _b.orbit_ridges(p)
        pts, total = hull.points, 0.0
        for c in _blocks(len(s), 1):
            e = pts[ridge[c, 1:]] - pts[ridge[c, :1]]
            weight = np.abs(np.sign(normals[s[c]]) - np.sign(normals[t[c]]))
            total += float(np.sum(weight * _axis_contents(e)))
        total *= 0.125 * order
    return np.full(n, total / n)


def _axis_contents(e: np.ndarray) -> np.ndarray:
    """The content of the shadow along every axis e_i of each (n-2)-simplex
    spanned by the edges e[r, :, :] in R^n: the root of the sum of its
    squared (n-2)-minors that avoid column i over (n-2)! (Cauchy-Binet)."""
    n = e.shape[-1]
    return np.sqrt(_minors(e) ** 2 @ _avoiding(n, n - 2)) / math.factorial(n - 2)


@cache
def _avoiding(n: int, k: int) -> np.ndarray:
    """0/1 matrix whose entry (c, i) marks that the c-th k-subset of
    range(n), in itertools order, avoids column i."""
    cols = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    return (cols[:, :, None] != np.arange(n)).all(axis=1).astype(float)


@cache
def _pass_weights(n: int, m: int) -> np.ndarray:
    """[1 | _avoiding(n, m)]: column 0 sums every m-subset of range(n),
    column 1 + i those that avoid column i (:func:`_zonotope_sums`)."""
    return np.column_stack([np.ones(math.comb(n, m)), _avoiding(n, m)])


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


def vm_sections(body: Body, m: int, spec: QuadratureSpec | None = None) -> tuple[Measured, ...]:
    """(V_m(K ∩ e_0^perp), ..., V_m(K ∩ e_{n-1}^perp)), 0 <= m <= n-1,
    each measured in the n-1 coordinates other than its axis, once per
    body instance and (m, spec) (:func:`bodies.derived`).

    Along an axis i that x_i -> -x_i maps onto itself
    (:func:`coordops.mirror_symmetric`) the section is the projection, so
    it is entry i of :func:`vm_shadows`.  Along any other, V_0 is 1 or 0
    as the plane meets K or misses it, with no hull: for a zonotope 1
    exactly when |c_i| <= sum_l |g_li| (:func:`_reach`), for a ball by its
    closed form, and for a polytope exactly when min_v v_i <= 0 <= max_v
    v_i over its vertices v, the side rule of ``section_drop``
    (``coordops._upper``), with no skeleton.  In R^n, n >= 3, with
    m = n-1 or m = n-2, the sections of any other full-dimensional
    polytope are read off K's own boundary triangulation
    (:func:`_sections`), and those of a zonotope in general position off
    its facets (:func:`_zonotope_sections`); with m = n-3, n >= 4, those
    of such a polytope are read off the bent ridges of its triangulation
    (:func:`_ridge_sections`) and those of such a zonotope off its ridges
    (:func:`_zonotope_ridges`).  A zonotope centered at the origin cuts
    one facet and one ridge of each antipodal pair, and counts it twice,
    save where a vertex lies on the plane (:func:`_crossings`).
    Each takes no hull of the section and no sign point, so past 16
    generators too (all :func:`_off_boundary`).  Planes through a vertex,
    planes that K touches from one side and planes that miss K take the
    same route.  Elsewhere, or when that triangulation does not close up
    (:func:`_on_boundary`) or the zonotope is not in general position, it
    is :func:`vm` of ``section_drop(K, i)``, and an exact 0 when the
    plane misses K.  An axis that refuses refuses the tuple.  A dilate
    lambda K takes each value off K (:func:`_off_source`).
    """
    body = resolve(body)
    _check_degree(body.n, m)
    return _b.derived(body, ("vm_sections", m, spec), lambda: _off_source(
        body, m, lambda k: vm_sections(k, m, spec),
        lambda: tuple(_section(body, i, m, spec) for i in range(body.n))))


def _section(body: Body, i: int, m: int, spec: QuadratureSpec | None) -> Measured:
    """V_m(K ∩ e_i^perp) by the route of :func:`vm_sections`, on body itself."""
    if coordops.mirror_symmetric(body, i):
        return vm_shadows(body, m, spec)[i]
    if m == 0 and not isinstance(body, Ball):   # a ball's section_drop hulls nothing
        low, high = (_reach(body.center, body.generators) if isinstance(body, Zonotope)
                     else (body.vertices.min(axis=0), body.vertices.max(axis=0)))
        return Measured.of_exact(float(low[i] <= 0.0 <= high[i]))
    value = _off_boundary(body, "sections", i, m)
    if value is not None:
        return value
    s = coordops.section_drop(body, i)
    return Measured.of_exact(0.0) if s is coordops.EMPTY else vm(s, m, spec)


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
    pts, n = hull.points, hull.points.shape[1]
    i, a, b = _face_cuts(hull, hull.simplices)[1:]
    # a point of each section: the mean of one cut point per crossing simplex
    per = i == np.arange(n)[:, None]
    o = per @ coordops._cut_points(pts, a[:, 0, 0], b[:, 0, 0], i)
    o /= np.maximum(per.sum(axis=1), 1)[:, None]
    cols, rest, sign = _expansion(n - 1, n - 1)
    total = np.zeros((2, n))
    for c, y, minors in _cut_blocks(pts, a, b, i):
        axis = np.repeat(i[c], a.shape[1])
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


def _zonotope_sections(z: Zonotope) -> dict | None:
    """{m: V_m(Z ∩ e_i^perp) for every axis i} for m = n-1 and n-2 from
    the facets of a zonotope Z = c + sum_l [-1, 1] g_l in R^n, n >= 3, in
    general position (:func:`_generic_dets`); None for any other.

    Each (n-1)-subset T of the generators, with cofactor normal nu_T,
    gives two facets (McMullen 1971), the parallelotopes x_F + sum_{j in
    T} t_j g_j, t in [-1, 1]^{n-1}, x_F = c + s sum_{l not in T} sigma_l
    g_l, s = +-1 and sigma_l = sgn(nu_T . g_l) = sgn det(T, l), the sign
    of a determinant of :func:`_generic_dets`.  A facet's vertex
    c + sum_l eps_l g_l takes its x_i summed over l in order, so a vertex
    of several facets has the same x_i in each, and the side rule of the
    plane x_i = 0 is :mod:`coordops`' (``_upper``): the vertex c - sum_l
    |g_l| that is lowest on every axis, to the bit, says whether Z has a
    point with x_i < 0.  In t the facet's cut is the cube slice w . t =
    const, w the i-th coordinates of T, and by :func:`_cube_slices` its
    (n-2)-volume is D |nu_T with entry i dropped|.  Planes through a
    vertex, touching planes and missed planes take the same route.  In
    the n-1 coordinates other than i, for every axis in one pass:

    * V_{n-2}: half the sum of the facet cuts' (n-2)-volumes.
    * V_{n-1}: the cones over the facet cuts from the point o = c +
      sum_l lambda_l g_l, lambda_l = -r sgn(g_li), r = c_i / sum_l |g_li|,
      of the section, each D times nu_F . (x_F - o) = sum_{l not in T}
      |det(T, l)| (1 - s sigma_l lambda_l) over n-1, every term >= 0.

    When c = 0 the facets (T, 1) and (T, -1) are antipodal, and only
    (T, 1) is built: its cut counts twice, as (T, -1)'s has the same D,
    |nu_T with entry i dropped| and height (lambda = 0), except where a
    vertex lies on the plane, and there (T, -1) is cut too
    (:func:`_crossings`).

    The scaling, the general-position test, the guard and the blocks are
    :func:`_zonotope_faces`', and each facet's cut is :func:`_face_slices`,
    as for the ridges."""
    n = z.n
    setup = _zonotope_faces(z, n - 1, 2)
    if setup is None:
        return None
    det, g, c, scale, low, centered, subsets = setup
    lam = -np.clip(c / np.abs(g).sum(axis=0), -1.0, 1.0) * np.sign(g)   # o = c + lam^T g, o_i = 0
    sides = np.array([1.0] if centered else [1.0, -1.0])   # s of the facets cut
    total = np.zeros((2, n))
    for t in subsets:
        # det(T, l) for every l and |nu_T with entry i dropped| for every i
        dets = _facet_dets(t, det, len(g))
        rest = np.sqrt(np.einsum("tj,ji->ti", _minors(g[t])[:, ::-1] ** 2, 1.0 - np.eye(n)))
        # the facets (T, s), s in sides, of subset r in a row each: s sigma_l off T
        t, dets = np.repeat(t, len(sides), axis=0), np.repeat(dets, len(sides), axis=0)
        signs = np.sign(dets) * np.tile(sides, len(t) // len(sides))[:, None]
        height = np.einsum("fl,fli->fi", np.abs(dets), 1.0 - signs[:, :, None] * lam)
        f, i, size = _face_slices(signs, t, g, c, low, centered)
        total += np.stack([np.bincount(i, size * height[f, i], n),
                           np.bincount(i, size * rest[f // len(sides), i], n)])
    return {n - 1: np.ldexp(total[0] / (n - 1), (n - 1) * scale),
            n - 2: np.ldexp(0.5 * total[1], (n - 2) * scale)}


def _zonotope_ridges(z: Zonotope) -> dict | None:
    """{n-3: V_{n-3}(Z ∩ e_i^perp) for every axis i} from the ridges of a
    zonotope Z = c + sum_l [-1, 1] g_l in R^n, n >= 4, in general position
    (:func:`_generic_dets`); None for any other.

    The (n-3)-faces of a section S = Z ∩ e_i^perp are the cuts of Z's
    (n-2)-faces R (McMullen 1971), and V_{n-3}(S) = sum_R vol(R ∩ H)
    theta_R / (2 pi), theta_R the angle between the outer normals of S's
    two facets at R ∩ H (Schneider, Convex Bodies, 4.2).  Each (n-2)-subset
    U of the generators gives the ridges R = x_R + sum_{j in U} t_j g_j,
    t in [-1, 1]^{n-2}, x_R = c + sum_{l not in U} sigma_l g_l, one per
    sector of the 2-plane U^perp that the lines g_l^perp, l not in U,
    split it into.  The sector is bounded by two rays s nu_T, the normals
    of the facets (T, s) of :func:`_zonotope_sections` with T = U + {l}
    that hold R: R is the face t_l = tau of facet (T, s), so its signs
    are sigma_l = tau and sigma_m = s sgn det(T, m) for m not in T, signs
    of determinants of :func:`_generic_dets`.  Each ridge is the face of
    two facets, and the two incidences with the same signs are paired by
    sorting them.  The normals nu_T are T's cofactors, so nu_T . g_l =
    det(T, l).  A ridge vertex takes its x_i summed over l in order, and
    the side rule is :mod:`coordops`' (``_upper``), as for the facets, so
    planes through a vertex, touching planes and missed planes take the
    same route.  In t the cut is the cube slice w . t = const, w the i-th
    coordinates of U, and its (n-3)-volume is :func:`_cube_slices`' D
    times the root of the sum of the squared (n-2)-minors of g_U over
    the column sets that hold i (the facet route's |nu_T with entry i
    dropped| is the case n-1 of this rule).  theta_R is the angle
    between the two normals with coordinate i dropped.  Every axis is
    measured in one pass.  When c = 0 the ridges come in antipodal pairs
    +-R, with negated signs and normals, and only the one whose first
    nonzero sign is +1 is built: its cut counts twice, as -R's has the
    same slice, content and angle, except where a vertex lies on the
    plane, and there -R is cut too (:func:`_crossings`).

    The scaling, the general-position test, the guard and the blocks are
    :func:`_zonotope_faces`', and each ridge's cut is :func:`_face_slices`,
    as for the facets."""
    k, n = z.generators.shape
    lines = k - n + 2
    setup = _zonotope_faces(z, n - 2, 2 * lines)
    if setup is None:
        return None
    det, g, c, scale, low, centered, subsets = setup
    rest, sign = _expansion(n, n)[1:]
    holds = 1.0 - _avoiding(n, n - 2)   # column set C holds column i
    total = np.zeros(n)
    for u in subsets:
        out = np.ones((len(u), k), dtype=bool)
        out[np.arange(len(u))[:, None], u] = False
        l = np.nonzero(out)[1]   # the lines l not in U, U by U
        group = np.repeat(np.arange(len(u)), lines)
        t = np.sort(np.column_stack([u[group], l]), axis=1)
        nu = _minors(g[t])[:, rest[0]] * sign
        # incidences (T, s, tau) of each U, four per line, and their signs
        inc = np.repeat(np.arange(len(t)), 4)
        s, tau = np.tile([1.0, 1.0, -1.0, -1.0], len(t)), np.tile([1.0, -1.0], 2 * len(t))
        sigma = s[:, None] * np.sign(_facet_dets(t, det, k))[inc]
        sigma[np.arange(len(inc)), l[inc]] = tau
        if centered:   # of each pair +-R, the ridge whose first nonzero sign is +1
            keep = sigma[np.arange(len(inc)), np.argmax(sigma != 0.0, axis=1)] > 0.0
            inc, s, sigma = inc[keep], s[keep], sigma[keep]
        pair = np.lexsort(np.vstack([sigma.T, group[inc]])).reshape(-1, 2)
        a, b = inc[pair[:, 0]], inc[pair[:, 1]]
        ridge_u = group[a]
        r, i, size = _face_slices(sigma[pair[:, 0]], u[ridge_u], g, c, low, centered)
        content = np.sqrt(_minors(g[u]) ** 2 @ holds)[ridge_u[r], i]
        total += _bent_sum(size * content, (s[pair[:, 0], None] * nu[a])[r],
                           (s[pair[:, 1], None] * nu[b])[r], i)
    return {n - 3: np.ldexp(total / (2.0 * math.pi), (n - 3) * scale)}


def _zonotope_faces(z: Zonotope, d: int, faces: int) -> tuple | None:
    """What the d-face pass of a zonotope Z in R^n with ``faces`` d-faces
    per d-subset of its k generators (:func:`_zonotope_sections`,
    :func:`_zonotope_ridges`) starts from: (the determinants of
    :func:`_general_position`, Z's generators and centre scaled by
    :func:`_scaled` and the exponent, Z's lowest vertex (:func:`_reach`),
    whether the centre is 0, and the d-subsets of the generators about
    SECTION_BLOCK cube vertices at a time).  None for k < n or out of
    general position; past MAX_SUBSETS faces or generator subsets the
    sections are refused."""
    k, n = z.generators.shape
    if k < n:
        return None
    count = max(faces * math.comb(k, d), math.comb(k, n))
    if count > MAX_SUBSETS:
        raise UnsupportedMeasure(f"{count} faces or generator subsets exceed the enumeration guard")
    det = _general_position(z)
    if det is None:
        return None
    g, c, scale = _scaled(z.generators, z.center)
    per = max(1, (SECTION_BLOCK >> d) // (faces * n))
    return det, g, c, scale, _reach(c, g)[0], not np.any(c), _subsets(k, d, per)


def _face_slices(signs: np.ndarray, span: np.ndarray, g: np.ndarray, c: np.ndarray,
                 low: np.ndarray, centered: bool) -> tuple:
    """(f, i, D x weight) of the faces c + sum_l sigma_l g_l + sum_{j in
    span} t_j g_j, t in [-1, 1]^d, of a zonotope pass (``signs`` sigma_l
    per face, any value on ``span``) that cross the planes x_i = 0
    (:func:`_crossings`): each cube vertex sums its terms in generator
    order, and D is the cube slice of :func:`_cube_slices`."""
    d = span.shape[1]
    eps = np.repeat(signs[:, None, :], 1 << d, axis=1)
    eps[np.arange(len(span))[:, None, None], np.arange(1 << d)[:, None], span[:, None, :]] = \
        _cube_faces(d)[0]
    x = c
    for l in range(len(g)):
        x = x + eps[:, :, l, None] * g[l]
    f, i, x, up, weight = _crossings(x, low, centered)
    return f, i, _cube_slices(x, up, g[span[f], i[:, None]]) * weight


def _crossings(x: np.ndarray, low: np.ndarray, centered: bool) -> tuple:
    """The faces (f, i) of a zonotope pass that cross the planes x_i = 0,
    from their cube vertices' sums x (face, vertex, axis) and Z's lowest
    vertex ``low`` (:func:`coordops._upper`), with each cut's x_i and
    labels at the vertices, in the rows :func:`_cube_slices` reads, and
    the weight it counts with.

    A ``centered`` pass (c = 0) holds one face F of each antipodal pair
    +-F.  The vertex v of -F is the negation of F's vertex 2^d - 1 - v,
    bit for bit, as its terms are F's negated and summed in the same
    order; so a plane that no vertex of F lies on cuts -F as the mirror
    image of F's cut, of the same measure, and F's cut counts twice.  A
    vertex on the plane is upper in both, so there -F's cut is the limit
    from the other side: it is cut from those negated sums, which is -F's
    own cut to the bit, and each counts once."""
    up = coordops._upper(low[None], x)   # face, vertex, axis
    source, weight = np.arange(len(x)), np.ones((len(x), x.shape[2]))
    if centered:
        on = (x == 0.0).any(axis=1)
        weight += ~on
        mirrored = np.nonzero(on.any(axis=1))[0]
        mirror = -x[mirrored, ::-1]
        x, source = np.concatenate([x, mirror]), np.concatenate([source, mirrored])
        up = np.concatenate([up, coordops._upper(low[None], mirror)])
        weight = np.concatenate([weight, on[mirrored]])
    f, i = np.nonzero(up.any(axis=1) & ~up.all(axis=1) & (weight > 0.0))
    return source[f], i, x[f, :, i], up[f, :, i], weight[f, i]


def _bent_sum(size: np.ndarray, a: np.ndarray, b: np.ndarray, i: np.ndarray) -> np.ndarray:
    """sum size * theta over the rows of each axis i, theta the angle
    between the outer normals a and b (rows in R^n) of the two facets at a
    cut ridge with coordinate i dropped: in e_i^perp they are the normals
    of the section's two facets there, as the normal cone of a face of
    K ∩ e_i^perp is the projection of K's (:func:`_ridge_sections`,
    :func:`_zonotope_ridges`)."""
    n = a.shape[1]
    keep, rows = coordops._others(n)[i], np.arange(len(i))[:, None]
    return np.bincount(i, size * _angle(a[rows, keep], b[rows, keep]), n)


def _ridge_sections(p: VPolytope) -> dict:
    """{n-3: V_{n-3}(K ∩ e_i^perp) for every axis i} from the bent ridges
    of qhull's boundary triangulation of a full-dimensional polytope K in
    R^n, n >= 4 (:func:`bodies.bent_ridges`).

    A section S = K ∩ H, H = e_i^perp, is an (n-1)-polytope whose
    (n-3)-faces are the cuts of K's (n-2)-faces, so V_{n-3}(S) = sum_R
    vol(R ∩ H) theta_R / (2 pi) over the bent ridges R (Schneider, Convex
    Bodies, 4.2), theta_R the angle between the outer normals of R's two
    simplices with coordinate i dropped (:func:`_bent_sum`).  A ridge with
    c of its n-1 points on the upper side (:func:`coordops._upper`) is cut
    in Delta^{c-1} x Delta^{n-c-2}, split by :func:`_staircases` into
    C(n-3, c-1) (n-3)-simplices, each of content the root of the sum of
    its squared (n-3)-minors over (n-3)! in the n-1 coordinates other than
    i, as in :func:`_sections`.  So planes through a vertex and planes
    that K touches take the same route, as limits from inside K, and a
    plane that misses K crosses no ridge and gives an exact 0.  Every axis
    is measured in one pass, SECTION_BLOCK cut simplices at a time."""
    hull, n = p.qhull, p.n
    normals = hull.equations[:, :n]
    s, t, ridge = _b.bent_ridges(p)
    r, i, a, b = _face_cuts(hull, ridge)
    total = np.zeros(n)
    for c, _, minors in _cut_blocks(hull.points, a, b, i):
        size = np.sqrt(_dot(minors, minors)).reshape(-1, a.shape[1]).sum(axis=1)
        total += _bent_sum(size, normals[s[r[c]]], normals[t[r[c]]], i[c])
    return {n - 3: total / (math.factorial(n - 3) * 2.0 * math.pi)}


def _face_cuts(hull, faces: np.ndarray) -> tuple:
    """(f, i, a, b) of the faces (rows of k indices into ``hull.points``:
    boundary simplices or bent ridges) that cross the planes x_i = 0 by
    the side rule of :func:`coordops._upper`: with c of its k points on
    the upper side, face f is cut in Delta^{c-1} x Delta^{k-c-1}, and
    a, b (crossing, sigma, vertex) are the upper and the lower ends of
    the edges whose cut points are the vertices of the staircase
    simplices sigma (:func:`_staircases`), the face's upper points first."""
    pts, k = hull.points, faces.shape[1]
    up = coordops._upper(pts[hull.vertices], pts[faces])   # face, vertex, axis
    count = up.sum(axis=1)
    f, i = np.nonzero((count > 0) & (count < k))
    v = faces[f[:, None], np.argsort(~up[f, :, i], axis=1, kind="stable")]   # upper first
    pairs = _staircases(k)[count[f, i]]   # crossing, sigma, vertex, (a, b)
    rows = np.arange(len(f))[:, None, None]
    return f, i, v[rows, pairs[..., 0]], v[rows, pairs[..., 1]]


def _cut_blocks(pts: np.ndarray, a: np.ndarray, b: np.ndarray, i: np.ndarray):
    """(rows, y, minors) for the crossings of :func:`_face_cuts`, about
    SECTION_BLOCK cut simplices at a time (:func:`_blocks`): the slice of
    crossings, the vertices y (simplex, vertex, coordinate) of their cut
    simplices in the n-1 coordinates other than i, and the minors of each
    simplex's edges from its first vertex (:func:`_minors`)."""
    for c in _blocks(len(i), a.shape[1]):
        y = coordops._cut_points(pts, a[c], b[c], i[c]).reshape(-1, a.shape[2], pts.shape[1] - 1)
        yield c, y, _minors(y[:, 1:] - y[:, :1])


def _blocks(count: int, per: int):
    """Slices of range(count), each of rows with ``per`` simplices, that
    hold SECTION_BLOCK simplices or one row."""
    step = max(1, SECTION_BLOCK // per)
    return (slice(start, start + step) for start in range(0, count, step))


def _scaled(g: np.ndarray, *points: np.ndarray) -> tuple:
    """The generators g and each of ``points`` times 2^-e, and e, the
    exponent that puts every entry of g below 1 exactly."""
    scale = math.frexp(float(np.max(np.abs(g))))[1]
    return (*(np.ldexp(x, -scale) for x in (g, *points)), scale)


def _general_position(z: Zonotope) -> np.ndarray | None:
    """:func:`_generic_dets` of Z's scaled generators (:func:`_scaled`),
    k >= n of them, once per body instance, so that the facet and the
    ridge pass decide general position once."""
    return _b.derived(z, "generic_dets", lambda: _generic_dets(_scaled(z.generators)[0]))


def _reach(c: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c - |g_0| - |g_1| - ... and c + |g_0| + |g_1| + ..., summed in
    generator order: the least and the greatest x_i of the zonotope's
    vertices c + sum_l eps_l g_l on every axis i, when each vertex is
    summed in that order too (rounding is monotone), so the plane x_i = 0
    meets Z exactly when the two enclose 0."""
    low, high = c, c
    for row in np.abs(g):
        low, high = low - row, high + row
    return low, high


def _generic_dets(g: np.ndarray) -> np.ndarray | None:
    """det(g_S) of every n-subset S of the k >= n generators g (rows, no
    entry of 1 or more), in itertools order, SUBSET_BLOCK subsets at a
    time; None when some determinant is not told from 0.

    :func:`_minors` expands det(g_S) into its n! signed products, each
    with at most N = (n-1)(n+2)/2 roundings (row r adds one product and r
    sums), so the computed value is within gamma_N per(|g_S|) of the
    exact one (Higham 2002, lemma 3.1), gamma_N = N u / (1 - N u) <= 2 N u
    with u the unit roundoff, and per(|g_S|) is at most the product of
    the rows' 1-norms; products that underflow add less than 2^-1022.  A
    determinant above 2 N u times that product plus 2^-1022 in absolute
    value has the sign of the exact one, so Z is in general position
    (every n generators independent) and its facets are those of the
    exact generators."""
    k, n = g.shape
    norm, out = np.abs(g).sum(axis=1), []
    for s in _subsets(k, n, SUBSET_BLOCK):
        det = _minors(g[s])[:, 0]
        bound = (n - 1) * (n + 2) * np.finfo(float).epsneg * np.prod(norm[s], axis=1)
        if np.any(np.abs(det) <= bound + np.finfo(float).tiny):
            return None
        out.append(det)
    return np.concatenate(out)


def _facet_dets(t: np.ndarray, det: np.ndarray, k: int) -> np.ndarray:
    """det(T, l), the determinant of T's rows with row l appended, for the
    sorted (n-1)-subsets T of range(k) in the rows of t and every l in
    range(k), from the determinants ``det`` of the n-subsets in
    itertools order: the sorted subset T + {l} has index C(k, n) - 1 -
    sum_j C(k - 1 - s_j, n - j), and moving row l to its place p flips
    the sign n-1-p times.  0 where l is in T."""
    b, m = t.shape
    n, l = m + 1, np.arange(k)
    binom = np.array([[math.comb(a, r) for r in range(n + 1)] for a in range(k + 1)],
                     dtype=np.intp)
    less = t[:, None, :] < l[:, None]   # subset, l, j
    p = less.sum(axis=2)
    at = math.comb(k, n) - 1 - binom[k - 1 - l, n - p] - \
        binom[k - 1 - t[:, None, :], n - np.arange(m) - ~less].sum(axis=2)
    inside = (t[:, None, :] == l[:, None]).any(axis=2)
    return np.where(inside, 0.0, np.where((m - p) % 2, -1.0, 1.0) * det[np.where(inside, 0, at)])


@cache
def _cube_faces(d: int) -> tuple:
    """The cube [-1, 1]^d, d >= 2, for :func:`_cube_slices`: its vertices
    in itertools.product order; its edges as rows (vertex at t_j = -1,
    vertex at t_j = 1, j); and for each k = 2..d its k-faces as an array
    (3, face, 2k): the index among the (k-1)-faces (the edges for k = 2)
    of each facet t_j = sigma of the face, its j and its sigma."""
    faces = [[f for f in itertools.product((-1, 0, 1), repeat=d) if f.count(0) == k]
             for k in range(d + 1)]
    index = [{f: r for r, f in enumerate(level)} for level in faces]

    def vertex(f, j, s):
        return sum(1 << (d - 1 - a) for a, x in enumerate(f[:j] + (s,) + f[j + 1:]) if x > 0)

    edges = np.array([[vertex(f, f.index(0), -1), vertex(f, f.index(0), 1), f.index(0)]
                      for f in faces[1]], dtype=np.intp)
    levels = [np.array([[(index[k - 1][f[:j] + (s,) + f[j + 1:]], j, s)
                         for j in range(d) if f[j] == 0 for s in (-1, 1)] for f in faces[k]],
                       dtype=np.intp).transpose(2, 0, 1) for k in range(2, d + 1)]
    return np.array(list(itertools.product((-1.0, 1.0), repeat=d))), edges, levels


def _cube_slices(x: np.ndarray, up: np.ndarray, w: np.ndarray) -> np.ndarray:
    """D = vol_{d-1}(C ∩ L) / |w| for the cube C = [-1, 1]^d, d >= 2, of
    each row, cut by the plane L where the affine x = x_0 + w . t is 0:
    x (rows, 2^d) and the side labels ``up`` (:func:`coordops._upper`) at
    its vertices, in the order of :func:`_cube_faces`.

    An edge crosses L when its ends have different labels, at its cut
    point anchored at the upper end, and gives D = 1 / |w_j|.  A k-face
    phi's slice is the union of the cones over its facets' slices from a
    point p of it, the mean of phi's edges' cut points, with heights
    (1 - sigma p_j) |w_J| / |w_{J-j}| over the facet t_j = sigma, so
    D(phi) = sum (1 - sigma p_j) D(facet) / (k - 1): every term is
    nonnegative and nothing cancels.  A face whose edges do not cross,
    one parallel to L included, has D = 0; a plane through a vertex or
    along a face is the limit that the labels choose."""
    vertices, edges, levels = _cube_faces(w.shape[1])
    x, up, w = x.T, up.T, w.T   # pairs last, so that faces gather whole rows
    lo, hi, j = edges.T
    first, ends = up[lo], np.arange(len(edges))
    cross = first != up[hi]
    a = np.where(first, x[lo], x[hi])   # upper end, then lower
    b = np.where(first, x[hi], x[lo])
    tau = np.divide(a, a - b, out=np.zeros_like(a), where=cross)
    total = vertices[lo][:, :, None] * cross[:, None, :]   # edge, coordinate, pair
    total[ends, j] = np.where(first, -1.0 + 2.0 * tau, 1.0 - 2.0 * tau) * cross
    count = cross.astype(float)
    size = np.divide(1.0, np.abs(w[j]), out=np.zeros_like(a), where=cross)
    for k, (facet, axis, sigma) in enumerate(levels, start=2):
        # each edge of a k-face lies in k - 1 of its facets
        total, count = total[facet].sum(axis=1), count[facet].sum(axis=1)
        p = total / np.maximum(count, 1.0)[:, None]
        at = p[np.arange(len(facet))[:, None], axis]   # p_j of each facet t_j = sigma
        size = ((1.0 - sigma[..., None] * at) * size[facet]).sum(axis=1) / (k - 1)
    return size[0]


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
