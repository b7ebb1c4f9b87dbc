"""Intrinsic volumes V_m of bodies.

Exact paths:

* volume and surface area of polytopes (qhull);
* V_{d-2} and V_{d-3} of full-dimensional d-polytopes from one pass over
  the ridges of qhull's boundary triangulation (:func:`vm_polytope_angles`):
  ridge angles give V_{d-2}, the solid angles of the normal cones of the
  (d-3)-faces V_{d-3}.  With volume and surface area this covers every
  V_m of 3- and 4-polytopes and every m >= d - 3 in higher dimensions;
* every V_m of a zonotope via subset Gram determinants;
* closed forms for balls;
* V_1 of the cross-polytope C_n and of K1 from fixed Gauss-Legendre rules
  on analytic one-dimensional integrals, whose truncation is below 1e-14
  relative (tested) and so below the nominal roundoff;
* lower-dimensional polytopes are reduced isometrically to their affine
  span first, which also makes e.g. V_1 of a planar body in R^3 exact.

V_1 of a full-dimensional polytope in d >= 5 falls back to mean-width
quadrature over the sphere.  The remaining pairs (2 <= m <= d-4) raise
:class:`UnsupportedMeasure` rather than silently degrading.

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
from functools import partial

import numpy as np
from scipy.special import erf

from . import bodies as _b
from .bodies import (Ball, Body, DiskHull, VPolytope, Zonotope, affine_dim,
                     constant_axes, drop_axes, resolve, to_affine_coords)
from .errors import InvalidArgument, UnsupportedMeasure
from .quadrature import (QuadratureEstimate, QuadratureSpec, gauss_legendre,
                         integrate_sphere_with_error)

# Relative error attributed to closed-form / exact combinatorial paths.
EXACT_REL_ERR = 1e-10
# Guard on the number of generator subsets enumerated for a zonotope.
MAX_SUBSETS = 2_000_000
# Generator subsets whose Gram determinants are taken in one stacked call.
DET_BATCH = 4096
# Gauss-Legendre rules of the 1-d V_1 integrals (C_n: panels on [0, cutoff]).
CROSS_CUTOFF, CROSS_PANELS, CROSS_NODES = 12.0, 8, 32
K1_NODES = 96
# A boundary ridge lower than this times its longest edge is flat.
FLAT_TOL = 1e-12
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
    over the ridges of qhull's boundary triangulation, each the
    (d-2)-simplex R that a simplex s shares with its neighbour t.

    * V_{d-2}: each R adds vol(R) * theta(n_s, n_t) / (2 pi), theta the
      angle between the outer normals (0 inside a facet).
    * V_{d-3}: the normal cone of a (d-3)-face G cuts a convex polygon
      from the sphere whose edges are the arcs (n_s, n_t) of the
      (d-2)-faces through G.  The ridges between two facets that are not
      flat tile those faces, and their faces sigma in three or more
      facets tile G once per edge.  Each adds vol(sigma) Omega / (4 pi),
      Omega the solid angle (Van Oosterom and Strackee) of the triangle
      (c, n_s, n_t), so that the triangles around c, the normalized sum
      of the edge midpoints, tile the polygon; each edge is split at its
      midpoint, so no corners are nearly antipodal.  Flat ridges (qhull's
      zero-volume simplices) would cover some G twice: a ridge is flat
      when its smallest height, (d-2) vol(R) over its largest face, is
      below FLAT_TOL times its longest edge.
    """
    d = p.n
    if m < 0 or m not in (d - 2, d - 3):
        raise UnsupportedMeasure(
            f"boundary angles give V_{{d-2}} and V_{{d-3}}, not V_{m} in R^{d}")
    if affine_dim(p) != d:
        raise UnsupportedMeasure(
            f"degenerate {d}-polytope: use the quadrature path or the affine view")
    hull = p.qhull
    pts, tri, normals = hull.points, hull.simplices, hull.equations[:, :d]
    # Each ridge once: simplex s and its neighbour t > s across the ridge
    # opposite vertex k of s.
    s, k = np.nonzero(hull.neighbors > np.arange(tri.shape[0])[:, None])
    t = hull.neighbors[s, k]
    ridge = tri[s[:, None], (k[:, None] + np.arange(1, d)) % d]
    if m == d - 2:
        v, angle = pts[ridge], _angle(normals[s], normals[t])
        return float(np.sum(_simplex_content(v[:, 1:] - v[:, :1]) * angle)) / (2.0 * math.pi)
    facet = _b.facets(hull)
    keep = facet[s] != facet[t]
    s, t, ridge = s[keep], t[keep], ridge[keep]
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
    """V_m of a zonotope: sum over m-element generator subsets of the
    m-volume 2^m sqrt(det(G^T G)) of the spanned box."""
    if not 1 <= m <= z.n:
        raise InvalidArgument(f"need 1 <= m <= {z.n}, got m={m}")
    g = z.generators
    k = g.shape[0]
    if k < m:
        return 0.0
    if math.comb(k, m) > MAX_SUBSETS:
        raise UnsupportedMeasure(
            f"{math.comb(k, m)} generator subsets exceed the enumeration guard")
    if m == 1:
        return 2.0 * float(np.sum(np.linalg.norm(g, axis=1)))
    gram = g @ g.T
    total = 0.0
    subsets = itertools.combinations(range(k), m)
    # Determinants in stacked batches; the square roots are summed one by
    # one in subset order, which keeps the rounding of a plain loop.
    for _ in range(0, math.comb(k, m), DET_BATCH):
        idx = np.array(list(itertools.islice(subsets, DET_BATCH)))
        for d in np.linalg.det(gram[idx[:, :, None], idx[:, None, :]]).tolist():
            if d > 0.0:
                total += math.sqrt(d)
    return (2.0 ** m) * total


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
    measured once per body instance (:func:`bodies.derived`).
    """
    body = resolve(body)
    return _b.derived(body, ("vm", m, spec), lambda: _vm(body, m, spec))


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
        # Reduce to the affine span; prefer exact coordinate drops.
        const = constant_axes(p)
        q = drop_axes(p, const) if const else to_affine_coords(p)
        if affine_dim(q) < q.n:
            q = to_affine_coords(q)
        return _vm_polytope_measured(q, m, spec)
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
