"""Spherical quadrature: exactness on known integrals and error reporting."""
from __future__ import annotations

import math

import numpy as np
import pytest

from convexiq import QuadratureSpec
from convexiq.errors import InvalidArgument
from convexiq.measures import kappa
from convexiq.quadrature import (_polar_nodes, effective_resolution,
                                 gauss_legendre, integrate_sphere_with_error)


def _integral(f, n: int, res: int) -> float:
    return integrate_sphere_with_error(f, n, QuadratureSpec(resolution=res)).value


def _surface(n: int) -> float:
    """Surface measure of S^(n-1)."""
    return n * kappa(n)


def test_surface_measure_closed_forms():
    assert _surface(2) == pytest.approx(2 * math.pi)
    assert _surface(3) == pytest.approx(4 * math.pi)
    assert _surface(4) == pytest.approx(2 * math.pi ** 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_constant_integrates_to_surface_measure(n):
    res = QuadratureSpec.for_dimension(n).resolution
    got = _integral(lambda u: np.ones(u.shape[0]), n, res)
    assert got == pytest.approx(_surface(n), rel=1e-8)


def test_absolute_coordinate_integral():
    """int_{S^2} |u_1| = 2pi (split the sphere into polar caps).

    The integrand has a kink on a great circle, so the rule converges at
    O(res^-2) rather than spectrally.
    """
    got = _integral(lambda u: np.abs(u[:, 0]), 3, 256)
    assert got == pytest.approx(2 * math.pi, rel=2e-4)


def test_quadratic_moment():
    # int u_1^2 over S^{n-1} = surface / n
    for n in (2, 3, 4):
        res = QuadratureSpec.for_dimension(n).resolution
        got = _integral(lambda u: u[:, 0] ** 2, n, res)
        assert got == pytest.approx(_surface(n) / n, rel=1e-7)


def test_error_estimate_brackets_truth():
    spec = QuadratureSpec(resolution=64)
    est = integrate_sphere_with_error(lambda u: np.abs(u[:, 0]) ** 3, 3, spec)
    truth = math.pi  # 2pi * int_0^1 t^3 dt * 2 = pi
    assert abs(est.value - truth) <= 10 * est.error + 1e-9
    assert est.resolution == 64


def test_refinement_reduces_error():
    f = lambda u: np.maximum.reduce(np.abs(u).T)
    coarse = integrate_sphere_with_error(f, 3, QuadratureSpec(resolution=32))
    fine = integrate_sphere_with_error(f, 3, QuadratureSpec(resolution=256))
    assert fine.error < coarse.error


def test_spec_validation():
    with pytest.raises(InvalidArgument):
        QuadratureSpec(resolution=2)
    with pytest.raises(InvalidArgument):
        _integral(lambda u: np.ones(u.shape[0]), 1, 64)


def test_effective_resolution_is_monotone():
    lo = effective_resolution(5, 16)
    hi = effective_resolution(5, 64)
    assert lo <= hi


def test_dimension_table():
    assert QuadratureSpec.for_dimension(3).resolution == 512
    assert QuadratureSpec.for_dimension(5).resolution == 48


def test_gauss_legendre_interval_rule():
    # exact on polynomials of degree 2 * nodes - 1
    x, w = gauss_legendre(1.0, 3.0, 4)
    assert np.all((1.0 < x) & (x < 3.0))
    assert float(np.dot(w, x ** 7)) == pytest.approx((3.0 ** 8 - 1.0) / 8.0, rel=1e-14)


@pytest.mark.parametrize("res", [6, 8, 44, 48, 64, 96, 158, 512])
def test_polar_nodes_are_the_half_pi_mapping(res):
    """The sphere rule's polar nodes keep the bits of (x + 1) * pi/2."""
    x, w = np.polynomial.legendre.leggauss(res)
    phi, wphi = _polar_nodes(res)
    assert np.array_equal(phi, (x + 1.0) * (math.pi / 2.0))
    assert np.array_equal(wphi, w * (math.pi / 2.0))
