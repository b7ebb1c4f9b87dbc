"""Intrinsic volumes V_m of bodies.

Exact paths:

* volume and surface area of polytopes (qhull);
* V_{d-2} and V_{d-3} of full-dimensional d-polytopes, d in {3, 4}, from
  one pass over qhull's triangulated boundary (:func:`vm_polytope_angles`):
  ridge angles give V_{d-2}, angle defects at (d-3)-faces V_{d-3}, every
  angle taken as atan2(|a ^ b|, a . b) so that nearly coplanar facets keep
  their share.  With volume and surface area this covers every V_m of
  3- and 4-polytopes;
* every V_m of a zonotope via subset Gram determinants;
* closed forms for balls;
* V_1 of the cross-polytope C_n and of K1 from fixed Gauss-Legendre rules
  on analytic one-dimensional integrals, whose truncation is below 1e-14
  relative (tested) and so below the nominal roundoff;
* lower-dimensional polytopes are reduced isometrically to their affine
  span first, which also makes e.g. V_1 of a planar body in R^3 exact.

V_1 of a full-dimensional polytope in d >= 5 falls back to mean-width
quadrature over the sphere.  The remaining pairs (d >= 5 with
2 <= m <= d-2) raise :class:`UnsupportedMeasure` rather than silently
degrading.

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
    """V_1 of a full-dimensional 3- or 4-polytope from boundary angles
    (:func:`vm_polytope_angles`)."""
    return vm_polytope_angles(p, 1)


def vm_polytope_angles(p: VPolytope, m: int) -> float:
    """V_{d-2} or V_{d-3} of a full-dimensional d-polytope, d in {3, 4},
    from one pass over qhull's triangulated boundary.

    * V_{d-2}: every ridge R between adjacent boundary simplices s and t
      contributes vol(R) * theta(n_s, n_t) / (2 pi), theta the angle
      between their outer normals; a ridge inside a facet has angle 0.
    * V_{d-3}: every (d-3)-face f of the triangulation contributes
      vol(f) * (2 pi - sum over simplices T containing f of theta_T(f))
      / (4 pi), theta_T(f) the angle inside T between its two faces
      through f.  For a face of P the bracket is the area of the spherical
      polygon its normal cone cuts from the sphere (Girard; Descartes'
      angle defect at d = 3).  Inside a facet the angles around f sum to
      2 pi and inside a 2-face to pi + pi, so triangulation faces drop out.

    Every angle is atan2(|a ^ b|, a . b) with |a ^ b| from the 2 x 2
    minors, which stays accurate near 0 and pi, where qhull's zero-volume
    simplices inside merged facets sit.
    """
    d = p.n
    if d not in (3, 4) or m not in (d - 2, d - 3):
        raise UnsupportedMeasure(
            f"the boundary-angle path gives V_{{d-2}} and V_{{d-3}} for d in "
            f"{{3, 4}}, not V_{m} in R^{d}")
    if affine_dim(p) != d:
        raise UnsupportedMeasure(
            f"degenerate {d}-polytope: use the quadrature path or the affine view")
    hull = p.qhull
    pts, tri = hull.points, hull.simplices
    if m == d - 2:
        normals = hull.equations[:, :d]
        # Each ridge once: simplex s and its neighbour t > s across the
        # ridge opposite vertex k of s.
        s, k = np.nonzero(hull.neighbors > np.arange(tri.shape[0])[:, None])
        t = hull.neighbors[s, k]
        angle = _angle(normals[s], normals[t])
        ridge = tri[s[:, None], (k[:, None] + np.arange(1, d)) % d]
        return float(np.sum(_simplex_content(pts[ridge]) * angle)) / (2.0 * math.pi)
    # The (d-3)-faces of each simplex, one per pair of its vertices left out.
    out = np.array(list(itertools.combinations(range(d), 2)))
    keep = np.array([[c for c in range(d) if c not in pair] for pair in out])
    face = np.sort(tri[:, keep].reshape(-1, d - 2), axis=1)
    other = tri[:, out].reshape(-1, 2)
    base = pts[face[:, 0]]
    a, b = pts[other[:, 0]] - base, pts[other[:, 1]] - base
    if d == 4:  # f is an edge e: keep the parts of a and b orthogonal to it
        e = pts[face[:, 1]] - base
        ee = np.einsum("ij,ij->i", e, e)
        a = a - (np.einsum("ij,ij->i", a, e) / ee)[:, None] * e
        b = b - (np.einsum("ij,ij->i", b, e) / ee)[:, None] * e
    key = face[:, 0] if d == 3 else face[:, 0] * pts.shape[0] + face[:, 1]
    faces, first, where = np.unique(key, return_index=True, return_inverse=True)
    defect = 2.0 * math.pi - np.bincount(where, weights=_angle(a, b),
                                         minlength=faces.size)
    return float(np.dot(_simplex_content(pts[face[first]]), defect)) / (4.0 * math.pi)


def _angle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise angle between a and b as atan2(|a ^ b|, a . b)."""
    return np.arctan2(_wedge_norm(a, b), np.einsum("ij,ij->i", a, b))


def _wedge_norm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise |a ^ b| from the 2 x 2 minors, ordered like the components
    of the cross product in R^3 (so that it equals |a x b| bit for bit)."""
    i, j = np.array(list(itertools.combinations(range(a.shape[1]), 2))[::-1]).T
    return np.linalg.norm(a[:, i] * b[:, j] - a[:, j] * b[:, i], axis=1)


def _simplex_content(v: np.ndarray) -> np.ndarray:
    """Measures of the simplices v[r] (rows of at most 3 vertices)."""
    if v.shape[1] == 1:
        return np.ones(v.shape[0])
    if v.shape[1] == 2:
        return np.linalg.norm(v[:, 1] - v[:, 0], axis=1)
    return 0.5 * _wedge_norm(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])


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
    if b.radius == 0.0 or d == 0:
        return 0.0
    if m > d:
        return 0.0
    return math.comb(d, m) * kappa(d) / kappa(d - m) * b.radius ** m


# ---------------------------------------------------------------------------
# central dispatcher


def vm(body: Body, m: int, spec: QuadratureSpec | None = None) -> Measured:
    """V_m of a body with an error estimate.

    Raises UnsupportedMeasure for combinations with no implemented path
    (full-dimensional polytopes in d >= 5 with 2 <= m <= d-2).  Each
    (m, spec) is measured once per body instance (:func:`bodies.derived`).
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
    if d <= 4:  # so m is d - 2 or d - 3; V_1 keeps its named entry, which
        # perfbench/tracer.py counts
        return Measured.of_exact(
            v1_polytope_exact(p) if m == 1 else vm_polytope_angles(p, m))
    if m == 1:
        est = v1_quadrature(p, spec)
        return Measured.of_quadrature(est.value, est.error)
    raise UnsupportedMeasure(
        f"V_{m} of a full-dimensional polytope in R^{d} has no exact or "
        f"quadrature path (supported for d >= 5: m in {{1, {d-1}, {d}}}; "
        f"boundary angles give every m only for d <= 4)")
