"""Product quadrature on the unit sphere S^(n-1).

The rule is Gauss-Legendre in each polar angle and a periodic trapezoid
rule in the azimuth, applied to the usual spherical parametrization

    u = (cos p1, sin p1 cos p2, ..., sin p1 ... sin p_{n-2} cos t,
         sin p1 ... sin p_{n-2} sin t)

with surface element  prod_j sin^(n-1-j)(p_j) dp_1 ... dp_{n-2} dt.

For n >= 4 the per-angle resolution is clamped so that the full tensor
grid stays below a node budget; the clamp is reported through the
effective resolution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgument

MIN_RESOLUTION = 16
MAX_RESOLUTION = 4096
# Cap on the total number of tensor-grid nodes (memory / time guard).
NODE_BUDGET = 4_000_000


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution request for sphere integration.

    ``resolution`` is the nominal number of points per angle.  When
    ``target_error`` is set, integration doubles the resolution until two
    successive estimates agree to the target (or ``max_resolution`` is
    reached).
    """

    resolution: int = 512
    target_error: float | None = None
    max_resolution: int = MAX_RESOLUTION

    def __post_init__(self):
        r = int(self.resolution)
        if not (MIN_RESOLUTION <= r <= MAX_RESOLUTION):
            raise InvalidArgument(
                f"resolution must be in [{MIN_RESOLUTION}, {MAX_RESOLUTION}]")
        if self.target_error is not None and not self.target_error > 0:
            raise InvalidArgument("target_error must be positive")
        m = int(self.max_resolution)
        if m < r or m > MAX_RESOLUTION:
            raise InvalidArgument("max_resolution must lie in [resolution, 4096]")
        object.__setattr__(self, "resolution", r)
        object.__setattr__(self, "max_resolution", m)

    @classmethod
    def for_dimension(cls, n: int) -> "QuadratureSpec":
        """Dimension-aware default resolutions (cost grows like res^(n-1))."""
        table = {2: 1024, 3: 512, 4: 96, 5: 48, 6: 24, 7: 16, 8: 16}
        return cls(resolution=table.get(n, 512))


class QuadratureEstimate(NamedTuple):
    value: float
    error: float  # |estimate - previous coarser estimate|
    resolution: int


def effective_resolution(n: int, resolution: int) -> int:
    """Per-angle resolution after the node-budget clamp."""
    if n <= 3:
        return resolution
    cap = int(NODE_BUDGET ** (1.0 / (n - 1)))
    return max(8, min(resolution, cap))


_leggauss = lru_cache(maxsize=32)(np.polynomial.legendre.leggauss)


def gauss_legendre(lo: float, hi: float, nodes: int):
    """Gauss-Legendre nodes and weights of ``nodes`` points on [lo, hi]."""
    x, w = _leggauss(nodes)
    return 0.5 * (hi - lo) * (x + 1.0) + lo, 0.5 * (hi - lo) * w


@lru_cache(maxsize=32)
def _polar_nodes(res: int):
    return gauss_legendre(0.0, math.pi, res)


@lru_cache(maxsize=32)
def _azimuth_nodes(res: int):
    t = 2.0 * math.pi * np.arange(res) / res
    return t, np.full(res, 2.0 * math.pi / res)


def _grid_blocks(n: int, res: int):
    """Yield (points, weights) blocks covering the product grid.

    Blocks iterate over the first polar angle so that memory stays at
    res^(n-2) nodes per block.
    """
    if n == 2:
        t, wt = _azimuth_nodes(res)
        pts = np.stack([np.cos(t), np.sin(t)], axis=1)
        yield pts, wt.copy()
        return
    phi, wphi = _polar_nodes(res)
    t, wt = _azimuth_nodes(res)
    # Tensor grid over the remaining n-3 polar angles and the azimuth.
    inner_polars = n - 3
    shapes = [res] * inner_polars + [res]
    inner_count = int(np.prod(shapes))
    idx = np.indices(shapes).reshape(len(shapes), inner_count)
    inner_angles = [phi[idx[k]] for k in range(inner_polars)]
    inner_az = t[idx[-1]]
    inner_w = np.ones(inner_count)
    for k in range(inner_polars):
        # angle p_{k+2} carries sin^(n-3-k)
        inner_w *= wphi[idx[k]] * np.sin(inner_angles[k]) ** (n - 3 - k)
    inner_w *= wt[idx[-1]]
    # Precompute the inner unit vectors on S^(n-2).
    sub = np.empty((inner_count, n - 1))
    running = np.ones(inner_count)
    for k in range(inner_polars):
        sub[:, k] = running * np.cos(inner_angles[k])
        running = running * np.sin(inner_angles[k])
    sub[:, n - 3] = running * np.cos(inner_az)
    sub[:, n - 2] = running * np.sin(inner_az)
    for p1, w1 in zip(phi, wphi):
        pts = np.empty((inner_count, n))
        pts[:, 0] = math.cos(p1)
        pts[:, 1:] = math.sin(p1) * sub
        yield pts, (w1 * math.sin(p1) ** (n - 2)) * inner_w


def _integrate_raw(f, n: int, res: int) -> float:
    total = 0.0
    for pts, w in _grid_blocks(n, res):
        total += float(np.dot(np.asarray(f(pts), dtype=float), w))
    return total


def integrate_sphere_with_error(f, n: int, spec: QuadratureSpec) -> QuadratureEstimate:
    """Integrate ``f`` (vectorized over (N, n) point blocks) over S^(n-1),
    with an error estimate from comparing successive resolutions.

    Without a target error: one comparison at (res/2, res).  With a target:
    resolution doubles until two successive estimates agree, capped at
    ``spec.max_resolution`` (and at the node budget).
    """
    if n < 2:
        raise InvalidArgument("sphere integration requires n >= 2")
    eff = effective_resolution(n, spec.resolution)
    if spec.target_error is None:
        coarse = _integrate_raw(f, n, max(6, eff // 2))
        fine = _integrate_raw(f, n, eff)
        return QuadratureEstimate(fine, abs(fine - coarse), eff)
    res = eff
    prev = _integrate_raw(f, n, res)
    err = float("inf")
    while True:
        nxt_res = effective_resolution(n, min(2 * res, spec.max_resolution))
        if nxt_res <= res:
            return QuadratureEstimate(prev, err, res)
        nxt = _integrate_raw(f, n, nxt_res)
        err = abs(nxt - prev)
        if err <= spec.target_error:
            return QuadratureEstimate(nxt, err, nxt_res)
        res, prev = nxt_res, nxt
