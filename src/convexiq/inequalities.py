"""Catalog of coordinate projection/section inequalities for convex
bodies, with oriented slack reports, constructors for extremal bodies,
and an equality-case classifier.

Every catalog entry evaluates to one or more ordered links
``lhs >= rhs``; the report's oriented slack is the worst link slack, so
``oriented_slack >= -tolerance`` means the inequality held.  Tolerances
are ten times the propagated measure error: closed-form paths carry a
nominal 1e-10 relative error (so exact comparisons resolve at 1e-9 on
normalized bodies), quadrature paths carry their self-reported bounds.
"""
from __future__ import annotations

import functools
import hashlib
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bodies as _b
from . import measures
from .bodies import (Ball, Body, DiskHull, VPolytope, Zonotope, affine_dim,
                     as_vector, convex_hull, resolve)
from .errors import InvalidArgument, UndefinedValue
from .measures import Measured, vm
from .quadrature import QuadratureSpec

PROVEN = "proven"
CONJECTURE = "conjecture"
CONDITIONAL = "conditional"
OPEN = "open"

# Classifier tolerance, relative to the body's size, and near-equality band.
CLASSIFY_TOL = 1e-7
NEAR_EQUALITY_FACTOR = 1e-6
# Depth of the origin inside a body, relative to the body's size, below
# which the origin check counts it as on the boundary.
INTERIOR_TOL = 1e-12


# ---------------------------------------------------------------------------
# measured arithmetic (first-order error propagation)


def m_const(c: float) -> Measured:
    return Measured(float(c), 0.0, True)


def m_add(*xs: Measured) -> Measured:
    return Measured(sum(x.value for x in xs), sum(x.error for x in xs),
                    all(x.exact for x in xs))


def m_scale(x: Measured, c: float) -> Measured:
    return Measured(c * x.value, abs(c) * x.error, x.exact)


def _no_underflow(v: float) -> float:
    """v, the product or power of nonzero values; FloatingPointError when
    it fell below the least normal float, where it has lost precision
    or reads 0 (``evaluate`` refuses the report)."""
    if abs(v) < sys.float_info.min:
        raise FloatingPointError("underflow")
    return v


def m_mul(x: Measured, y: Measured) -> Measured:
    v = x.value * y.value
    return Measured(_no_underflow(v) if x.value and y.value else v,
                    abs(x.value) * y.error + abs(y.value) * x.error,
                    x.exact and y.exact)


def m_pow(x: Measured, p: float) -> Measured:
    v = x.value ** p
    if x.value == 0.0:
        return Measured(0.0, x.error if p <= 1 else 0.0, x.exact)
    return Measured(_no_underflow(v), abs(p) * abs(x.value) ** (p - 1.0) * x.error, x.exact)


def m_prod(xs) -> Measured:
    return functools.reduce(m_mul, xs, m_const(1.0))


def m_sum_sq(xs) -> Measured:
    return m_add(*[m_mul(x, x) for x in xs])


def m_max(xs) -> Measured:
    best = max(xs, key=lambda x: x.value)
    return Measured(best.value, max(x.error for x in xs), all(x.exact for x in xs))


# ---------------------------------------------------------------------------
# report structure


@dataclass(frozen=True)
class Link:
    """One ordered comparison lhs >= rhs inside an inequality report."""

    name: str
    lhs: Measured
    rhs: Measured

    @property
    def slack(self) -> float:
        return self.lhs.value - self.rhs.value

    @property
    def tolerance(self) -> float:
        scale = max(1.0, abs(self.lhs.value), abs(self.rhs.value))
        return 10.0 * (self.lhs.error + self.rhs.error) + 1e-16 * scale


@dataclass(frozen=True)
class IneqReport:
    """Outcome of evaluating one catalog inequality on one body.

    ``body`` is the body as it was passed to :func:`evaluate`, before
    :func:`~convexiq.bodies.resolve` (a named body stays named); equality
    and ``repr`` ignore it.  ``body_fingerprint`` hashes it on first read.
    """

    id: str
    params: dict
    n: int
    lhs: float
    rhs: float
    oriented_slack: float
    tolerance: float
    satisfied: bool
    equality_flag: str            # strict | near-equality | equality-case-matched
    status: str                   # proven | conjecture | conditional | open
    quadrature_error: float | None
    body: Body = field(repr=False, compare=False)
    warnings: tuple = ()
    links: tuple = ()             # (name, lhs, rhs, slack) per link

    @functools.cached_property
    def body_fingerprint(self) -> str:
        # The module function, looked up at call time, so that wrappers
        # of it see the computation.
        return body_fingerprint(resolve(self.body))

    def summary_line(self) -> str:
        mark = "PASS" if self.satisfied else "VIOLATION"
        extra = f" [{self.equality_flag}]" if self.equality_flag != "strict" else ""
        return (f"{mark} {self.id} ({self.status}) slack={self.oriented_slack:+.6e} "
                f"tol={self.tolerance:.2e}{extra}")


def body_fingerprint(body: Body) -> str:
    """Stable short hash of the canonical serialized body, computed once
    per body instance.  A report computes it when its ``body_fingerprint``
    is first read, not when it is evaluated."""
    from . import io as _io  # local import to avoid a cycle
    return _b.derived(body, "fingerprint", lambda: hashlib.sha256(
        _io.dumps_body(body).encode()).hexdigest()[:16])


# ---------------------------------------------------------------------------
# measure helpers


def _origin_interior(body: Body) -> bool:
    """Whether the origin lies inside the body by more than INTERIOR_TOL
    times its size: a ball's radius, a polytope's largest vertex
    coordinate.  A dilate lambda K answers as K does, since both sides
    scale by lambda (:func:`bodies.dilate_source`), and takes no hull of
    its own."""
    body = resolve(body)
    source = _b.dilate_source(body)
    if source is not None:
        return _origin_interior(source[0])
    if isinstance(body, Ball):
        return (body.active_dim == body.n and
                float(np.linalg.norm(body.center)) < body.radius * (1.0 - INTERIOR_TOL))
    if isinstance(body, DiskHull):
        return True  # K1 contains the cross-polytope conv{+-e_i}
    if affine_dim(body) < body.n:
        return False
    p = _b.as_vpolytope(body)
    size = float(np.max(np.abs(p.vertices)))
    return bool(np.max(p.qhull.equations[:, -1]) < -INTERIOR_TOL * size)


# ---------------------------------------------------------------------------
# catalog evaluators


def _ev_loomis_whitney(body, n, m, params, spec):
    projs = measures.vm_shadows(body, n - 1, spec)
    vol = vm(body, n, spec)
    return [Link("projection-product", m_prod(projs), m_pow(vol, n - 1))]


def _ev_meyer(body, n, m, params, spec):
    sects = measures.vm_sections(body, n - 1, spec)
    vol = vm(body, n, spec)
    c = math.factorial(n - 1) / float(n ** (n - 1))
    return [Link("dual-product", m_pow(vol, n - 1), m_scale(m_prod(sects), c))]


def _ev_bm_upper(body, n, m, params, spec):
    projs = measures.vm_shadows(body, n - 1, spec)
    top = vm(body, n - 1, spec)
    return [Link("projection-sum", m_add(*projs), top)]


def _ev_cg_upper(body, n, m, params, spec):
    projs = measures.vm_shadows(body, m, spec)
    val = vm(body, m, spec)
    return [Link("scaled-projection-sum",
                 m_scale(m_add(*projs), 1.0 / (n - m)), val)]


def _ev_sqrt_n_lower(body, n, m, params, spec):
    projs = measures.vm_shadows(body, n - 1, spec)
    sects = measures.vm_sections(body, n - 1, spec)
    top = vm(body, n - 1, spec)
    psum = m_scale(m_add(*projs), 1.0 / math.sqrt(n))
    ssum = m_scale(m_add(*sects), 1.0 / math.sqrt(n))
    return [Link("projections", top, psum), Link("sections", psum, ssum)]


def _ev_weighted_bm(body, n, m, params, spec):
    a = params["a"]
    projs = measures.vm_shadows(body, n - 1, spec)
    top = vm(body, n - 1, spec)
    if top.value <= 0:
        raise InvalidArgument("weighted bound needs a body with positive V_{n-1}")
    ratio = m_mul(m_add(*[m_scale(p, ai) for p, ai in zip(projs, a)]),
                  m_pow(top, -1.0))
    return [Link("lower", ratio, m_const(min(a))),
            Link("upper", m_const(math.sqrt(sum(ai * ai for ai in a))), ratio)]


def _ev_square_lower(body, n, m, params, spec):
    projs = measures.vm_shadows(body, n - 1, spec)
    sects = measures.vm_sections(body, n - 1, spec)
    top = vm(body, n - 1, spec)
    return [Link("projections", m_mul(top, top), m_sum_sq(projs)),
            Link("sections", m_sum_sq(projs), m_sum_sq(sects))]


def _ev_pythagorean(body, n, m, params, spec):
    u = params["u"]
    projs = measures.vm_shadows(body, m, spec)
    mu = measures.vm_projection(body, u, m, spec)
    return [Link("direction-split", m_sum_sq(projs), m_mul(mu, mu))]


def _ev_zonoid_lower(body, n, m, params, spec):
    if not isinstance(resolve(body), Zonotope):
        raise InvalidArgument("this bound is stated for zonotopes")
    projs = measures.vm_shadows(body, m, spec)
    val = vm(body, m, spec)
    return [Link("zonotope-square", m_mul(val, val),
                 m_scale(m_sum_sq(projs), 1.0 / (n - m)))]


def mth_lower_constant(n: int, m: int) -> float:
    """(1/pi) * (Gamma((n-m)/2) / Gamma((n-m+1)/2))^2."""
    if not 1 <= m <= n - 1:
        raise InvalidArgument("need 1 <= m <= n-1")
    g = math.gamma((n - m) / 2.0) / math.gamma((n - m + 1) / 2.0)
    return g * g / math.pi


def _ev_mth_lower(body, n, m, params, spec):
    projs = measures.vm_shadows(body, m, spec)
    val = vm(body, m, spec)
    c = mth_lower_constant(n, m)
    return [Link("gamma-square", m_mul(val, val), m_scale(m_sum_sq(projs), c))]


def _ev_reverse_cs(body, n, m, params, spec):
    projs = measures.vm_shadows(body, m, spec)
    total = m_add(*projs)
    return [Link("sum-square", m_scale(m_mul(total, total),
                                       1.0 / math.sqrt(n - m)),
                 m_sum_sq(projs))]


def _ev_cond_eq111(body, n, m, params, spec):
    projs = measures.vm_shadows(body, m, spec)
    total = m_add(*projs)
    bound = total.value / (n - m)
    tol = 10.0 * total.error + 1e-12 * max(1.0, total.value)
    if any(p.value > bound + tol for p in projs):
        return None  # hypothesis fails: conditional inequality inapplicable
    return [Link("conditional-sum-square",
                 m_scale(m_mul(total, total), 1.0 / (n - m)), m_sum_sq(projs))]


def _ev_easy_bounds(body, n, m, params, spec):
    p = params["p"]
    projs = measures.vm_shadows(body, m, spec)
    sects = measures.vm_sections(body, m, spec)
    val = vm(body, m, spec)
    pmean = lambda xs: m_pow(m_scale(m_add(*[m_pow(x, p) for x in xs]), 1.0 / n),
                             1.0 / p)
    mp = pmean(projs)
    ms = pmean(sects)
    return [Link("projections", val, mp), Link("sections", mp, ms)]


def _ev_trivmax(body, n, m, params, spec):
    projs = measures.vm_shadows(body, m, spec)
    sects = measures.vm_sections(body, m, spec)
    val = vm(body, m, spec)
    return [Link("projections", val, m_max(projs)),
            Link("sections", m_max(projs), m_max(sects))]


def _ev_bm_v1_lower(body, n, m, params, spec):
    projs = measures.vm_shadows(body, 1, spec)
    val = vm(body, 1, spec)
    c0 = min_mean_width_ratio(n)
    return [Link("width-sum", val, m_mul(c0, m_add(*projs)))]


def _ev_heron(body, n, m, params, spec):
    if n != 3:
        raise InvalidArgument("the Heron-type bound is three-dimensional")
    a = measures.vm_sections(body, 1, spec)
    top = vm(body, 2, spec)
    sq = m_sum_sq(a)
    quads = m_add(*[m_pow(x, 4.0) for x in a])
    rhs = m_add(m_scale(m_mul(sq, sq), 1.0 / 16.0), m_scale(quads, -1.0 / 8.0))
    return [Link("heron", m_mul(top, top), rhs)]


def _ev_prob4(body, n, m, params, spec):
    c2 = params["c2"]
    projs = measures.vm_shadows(body, m, spec)
    sects = measures.vm_sections(body, m, spec)
    val = vm(body, m, spec)
    return [Link("projections", m_mul(val, val), m_scale(m_sum_sq(projs), c2)),
            Link("sections", m_scale(m_sum_sq(projs), c2),
                 m_scale(m_sum_sq(sects), c2))]


def _ev_prob5(body, n, m, params, spec):
    c3 = params["c3"]
    sects = measures.vm_sections(body, m, spec)
    val = vm(body, m + 1, spec)
    lhs = m_pow(val, float(m * n))
    rhs = m_scale(m_prod([m_pow(s, float(m + 1)) for s in sects]), c3)
    return [Link("section-product", lhs, rhs)]


# ---------------------------------------------------------------------------
# catalog table


def _real(what: str, value) -> float:
    """value as a float if it is a real number (not a bool or a string)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidArgument(
            f"{what} must be a real number, not {type(value).__name__}")
    return float(value)


def _reals(what: str, value) -> list[float]:
    """value as a list of floats if it is a sequence of real numbers."""
    if isinstance(value, (str, bytes)):
        raise InvalidArgument(f"{what} must be a sequence of real numbers, not str")
    try:
        items = list(value)
    except TypeError:
        raise InvalidArgument(f"{what} must be a sequence of real numbers, "
                              f"not {type(value).__name__}") from None
    return [_real(what, x) for x in items]


def _positive_real(what: str):
    def coerce(value, n):
        value = _real(what, value)
        if not 0 < value < math.inf:
            raise InvalidArgument(f"{what} must be positive and finite")
        return value
    return coerce


def _weights(value, n):
    a = _reals("weights a", value)
    if len(a) != n or not all(0 < x < math.inf for x in a):
        raise InvalidArgument("weights a must be n positive finite reals")
    return a


@dataclass(frozen=True)
class ParamRule:
    """Default, coercion and validation of one named parameter.

    ``default`` maps the dimension n to the value used when the caller
    omits the parameter; ``None`` makes it required.  ``scalar`` marks a
    single real (a vector otherwise).
    """

    default: Callable[[int], object] | None
    coerce: Callable[[object, int], object]
    scalar: bool = True
    missing: str = "{id} requires parameter {name!r}"


PARAM_RULES: dict[str, ParamRule] = {
    "a": ParamRule(lambda n: [1.0] * n, _weights, scalar=False),
    "p": ParamRule(lambda n: 2.0, _positive_real("exponent p")),
    "u": ParamRule(None, lambda u, n: as_vector(_reals("direction u", u), n).tolist(),
                   scalar=False, missing="{id} requires a direction u"),
    "c2": ParamRule(None, _positive_real("constant c2")),
    "c3": ParamRule(None, _positive_real("constant c3")),
}


@dataclass(frozen=True)
class CatalogEntry:
    """Everything the library states about one inequality.

    ``status`` holds for every admissible m except those in
    ``proven_m``, where it is proven; entries there count from n when
    not positive (-2 means m = n-2).  ``m_below`` bounds the index to
    1..n-m_below; ``None`` means the entry takes no m.  ``params`` names
    the :data:`PARAM_RULES` the entry reads.  ``origin_check`` warns when
    the origin is not interior (section bounds may then fail
    legitimately).
    """

    id: str
    evaluator: object
    status: str
    proven_m: tuple = ()
    m_below: int | None = None
    params: tuple = ()
    origin_check: bool = False
    equality_families: tuple = ()

    @property
    def needs_m(self) -> bool:
        return self.m_below is not None

    @property
    def m_range(self) -> str:
        return f"1..n-{self.m_below}"

    def accepts_m(self, n: int, m: int) -> bool:
        return 1 <= m <= n - self.m_below

    @property
    def constant(self) -> str | None:
        """Name of the required scalar parameter, if the entry has one."""
        for name in self.params:
            rule = PARAM_RULES[name]
            if rule.default is None and rule.scalar:
                return name
        return None

    def status_at(self, n: int, m: int | None) -> str:
        if m is not None and m in {k if k > 0 else n + k for k in self.proven_m}:
            return PROVEN
        return self.status


CATALOG: dict[str, CatalogEntry] = {entry.id: entry for entry in (
    CatalogEntry("loomis_whitney", _ev_loomis_whitney, PROVEN,
                 equality_families=("coordinate-box",)),
    CatalogEntry("meyer", _ev_meyer, PROVEN, origin_check=True,
                 equality_families=("coordinate-cross-polytope",)),
    CatalogEntry("bm_upper", _ev_bm_upper, PROVEN,
                 equality_families=("coordinate-box",)),
    CatalogEntry("cg_upper", _ev_cg_upper, CONJECTURE, proven_m=(1, -2, -1),
                 m_below=1, equality_families=("coordinate-box",)),
    CatalogEntry("sqrt_n_lower", _ev_sqrt_n_lower, PROVEN,
                 equality_families=("regular-coordinate-cross-polytope",)),
    CatalogEntry("weighted_bm", _ev_weighted_bm, PROVEN, params=("a",)),
    CatalogEntry("square_lower", _ev_square_lower, PROVEN,
                 equality_families=("coordinate-cross-polytope", "flat")),
    CatalogEntry("pythagorean", _ev_pythagorean, PROVEN, m_below=1,
                 params=("u",)),
    CatalogEntry("zonoid_lower", _ev_zonoid_lower, PROVEN, m_below=2,
                 equality_families=("diagonal-generators", "flat")),
    CatalogEntry("mth_lower", _ev_mth_lower, PROVEN, m_below=2),
    CatalogEntry("reverse_cs", _ev_reverse_cs, CONJECTURE, proven_m=(1, -2),
                 m_below=2),
    CatalogEntry("cond_eq111", _ev_cond_eq111, CONDITIONAL, m_below=2),
    CatalogEntry("easy_bounds", _ev_easy_bounds, PROVEN, m_below=1,
                 params=("p",)),
    CatalogEntry("trivmax", _ev_trivmax, PROVEN, m_below=1),
    CatalogEntry("bm_v1_lower", _ev_bm_v1_lower, PROVEN,
                 equality_families=("regular-coordinate-cross-polytope",)),
    CatalogEntry("heron_n3", _ev_heron, CONJECTURE,
                 equality_families=("o-symmetric-coordinate-cross-polytope",)),
    CatalogEntry("prob4_family", _ev_prob4, OPEN, m_below=2, params=("c2",)),
    CatalogEntry("prob5_family", _ev_prob5, OPEN, m_below=2, params=("c3",)),
)}


def catalog_ids() -> list[str]:
    return sorted(CATALOG)


def _catalog_entry(ineq_id: str) -> CatalogEntry:
    if ineq_id not in CATALOG:
        raise InvalidArgument(
            f"unknown inequality id {ineq_id!r}; known: {', '.join(catalog_ids())}")
    return CATALOG[ineq_id]


def inequality_status(ineq_id: str, n: int, m: int | None) -> str:
    """Proof status of a catalog inequality at the given (n, m)."""
    return _catalog_entry(ineq_id).status_at(n, m)


def _check_m(entry: CatalogEntry, n: int, m) -> int | None:
    if not entry.needs_m:
        return None
    if m is None:
        raise InvalidArgument(f"{entry.id} requires the index m ({entry.m_range})")
    m = int(m)
    if not entry.accepts_m(n, m):
        raise InvalidArgument(
            f"{entry.id}: m={m} outside {entry.m_range} for n={n}")
    return m


def _check_params(entry: CatalogEntry, n: int, params: dict | None) -> dict:
    """Reject parameters the entry does not take, fill its defaults, then
    coerce and validate each of its parameters."""
    params = dict(params or {})
    unknown = [name for name in params if name not in entry.params]
    if unknown:
        raise InvalidArgument(
            f"{entry.id} does not take parameter(s) {', '.join(map(repr, unknown))} "
            f"(takes: {', '.join(entry.params) or 'none'})")
    for name in entry.params:
        rule = PARAM_RULES[name]
        if name not in params:
            if rule.default is None:
                raise InvalidArgument(rule.missing.format(id=entry.id, name=name))
            params[name] = rule.default(n)
        params[name] = rule.coerce(params[name], n)
    return params


def evaluate(ineq_id: str, body: Body, m: int | None = None,
             params: dict | None = None,
             spec: QuadratureSpec | None = None,
             tolerance: float | None = None) -> IneqReport:
    """Evaluate one catalog inequality on one body.

    ``tolerance`` only raises the links' propagated-error tolerances; the
    report states the largest tolerance a link was held to.
    Violated conjectures do not raise; callers inspect ``satisfied`` and
    ``status``.  A power of a measure that overflows a float, a product
    or power of nonzero measures that underflows below the least normal
    float, or a slack or tolerance that comes out inf or NaN, raises
    :class:`~convexiq.errors.UndefinedValue` naming the entry.
    """
    entry = _catalog_entry(ineq_id)
    if tolerance is not None and not 0.0 <= float(tolerance) < math.inf:
        raise InvalidArgument(f"tolerance must be finite and >= 0, got {tolerance!r}")
    given = body
    body = resolve(body)
    n = body.n
    if n < 2:
        raise InvalidArgument("inequalities need ambient dimension >= 2")
    m_checked = _check_m(entry, n, m)
    params = _check_params(entry, n, params)
    warnings: list[str] = []
    if entry.origin_check and not _origin_interior(body):
        warnings.append("origin not interior: the section bound may fail legitimately")

    try:
        links = entry.evaluator(body, n, m_checked, params, spec)
    except OverflowError:
        raise UndefinedValue(f"{ineq_id}: a power of a measure overflows a float") from None
    except FloatingPointError:
        raise UndefinedValue(f"{ineq_id}: a product or power of nonzero measures "
                             "underflows below the least normal float") from None
    status = entry.status_at(n, m_checked)

    if links is None:  # conditional hypothesis failed
        return IneqReport(
            id=ineq_id, params=_param_payload(params, m_checked), n=n,
            lhs=0.0, rhs=0.0, oriented_slack=0.0,
            tolerance=tolerance if tolerance is not None else 0.0,
            satisfied=True, equality_flag="strict", status=status,
            quadrature_error=None, body=given,
            warnings=tuple(warnings + ["hypothesis not met: inequality inapplicable"]),
            links=())

    primary = links[0]
    floor = float(tolerance) if tolerance is not None else 0.0
    tol = max(floor, *(l.tolerance for l in links))
    slack = min(l.slack for l in links)
    if not (math.isfinite(slack) and math.isfinite(tol)):
        raise UndefinedValue(f"{ineq_id}: the slack {slack} or the tolerance {tol} "
                             "is not a finite float")
    satisfied = all(l.slack >= -max(l.tolerance, floor) for l in links)
    quad_err = None
    if any(not (l.lhs.exact and l.rhs.exact) for l in links):
        quad_err = max(l.lhs.error + l.rhs.error for l in links
                       if not (l.lhs.exact and l.rhs.exact))
    scale = max(1.0, abs(primary.lhs.value), abs(primary.rhs.value))
    near = abs(slack) <= max(tol, NEAR_EQUALITY_FACTOR * scale)
    flag = "strict"
    if satisfied and near:
        flag = "near-equality"
        matched = equality_case_classifier(body, m=m_checked)
        if _implied_families(matched) & set(entry.equality_families):
            flag = "equality-case-matched"
    return IneqReport(
        id=ineq_id, params=_param_payload(params, m_checked), n=n,
        lhs=primary.lhs.value, rhs=primary.rhs.value,
        oriented_slack=slack, tolerance=tol, satisfied=satisfied,
        equality_flag=flag, status=status, quadrature_error=quad_err,
        body=given, warnings=tuple(warnings),
        links=tuple((l.name, l.lhs.value, l.rhs.value, l.slack) for l in links))


def _param_payload(params: dict, m: int | None) -> dict:
    out = dict(params)
    if m is not None:
        out["m"] = m
    return out


def _implied_families(matched: str) -> set:
    """A classifier label implies every strictly weaker family label
    (regular cross-polytopes are o-symmetric, which are coordinate
    cross-polytopes)."""
    out = {matched}
    if matched == "regular-coordinate-cross-polytope":
        out |= {"o-symmetric-coordinate-cross-polytope",
                "coordinate-cross-polytope"}
    elif matched == "o-symmetric-coordinate-cross-polytope":
        out.add("coordinate-cross-polytope")
    return out


# ---------------------------------------------------------------------------
# extremal constructors


def cross_polytope_from_sections(s) -> VPolytope:
    """Coordinate cross-polytope whose hyperplane sections have the given
    (n-1)-measures: half-diagonals t_i = ((n-1)! prod s)^(1/(n-1)) / (2 s_i)."""
    s = [float(x) for x in s]
    n = len(s)
    if not _b.MIN_DIM <= n <= _b.MAX_DIM:
        raise InvalidArgument(f"need {_b.MIN_DIM} <= n <= {_b.MAX_DIM} target sections")
    if any(x <= 0 for x in s):
        raise InvalidArgument("section measures must be positive")
    prod = math.prod(s)
    root = (math.factorial(n - 1) * prod) ** (1.0 / (n - 1))
    t = [root / (2.0 * si) for si in s]
    pts = np.zeros((2 * n, n))
    for i, ti in enumerate(t):
        pts[2 * i, i] = ti
        pts[2 * i + 1, i] = -ti
    return convex_hull(pts)


@dataclass(frozen=True)
class SegmentResult:
    """Outcome of the segment reconstruction: either the segment or the
    index (1-based) where feasibility fails."""

    feasible: bool
    segment: VPolytope | None
    violating_index: int | None
    half_extents: tuple


def segment_from_projections(a) -> SegmentResult:
    """Origin-centered segment whose projection widths V_1(L | e_i^perp)
    equal a_i, when one exists.

    The squared coordinates are x_i^2 = (sum a^2 - (n-1) a_i^2) / (n-1);
    infeasibility (some x_i^2 < 0) is reported as a value, not an error.
    """
    a = [float(x) for x in a]
    n = len(a)
    if not _b.MIN_DIM <= n <= _b.MAX_DIM:
        raise InvalidArgument(f"need {_b.MIN_DIM} <= n <= {_b.MAX_DIM} projection widths")
    if any(x < 0 for x in a):
        raise InvalidArgument("projection widths must be non-negative")
    total = sum(x * x for x in a)
    sq = [(total - (n - 1) * ai * ai) / (n - 1) for ai in a]
    for i, v in enumerate(sq):
        if v < -1e-12 * total:
            return SegmentResult(False, None, i + 1, ())
    x = np.sqrt(np.maximum(sq, 0.0))
    seg = convex_hull(np.vstack([x / 2.0, -x / 2.0]))
    return SegmentResult(True, seg, None, tuple(float(v) / 2.0 for v in x))


@functools.cache
def min_mean_width_ratio(n: int) -> Measured:
    """The sharp constant min_K V_1(K) / sum_i V_1(K|e_i^perp), attained by
    the cross-polytope C_n, whose coordinate projections are C_{n-1}:
    c0(n) = V_1(C_n) / (n V_1(C_{n-1})), exact (arccos(1/3)/pi at n = 3)."""
    if n < 3:
        raise InvalidArgument("the width-ratio constant needs n >= 3 "
                              "(segments make the ratio degenerate at n = 2)")
    if n > _b.MAX_DIM:
        raise InvalidArgument(f"dimension {n} outside supported range")
    v1 = measures.v1_cross_polytope
    return Measured.of_exact(v1(n).value / (n * v1(n - 1).value))


# ---------------------------------------------------------------------------
# equality-case classifier


def equality_case_classifier(body: Body, m: int | None = None) -> str:
    """Match a body against the extremal families of the catalog.

    Returns one of ``coordinate-box``, ``coordinate-cross-polytope``,
    ``o-symmetric-coordinate-cross-polytope``,
    ``regular-coordinate-cross-polytope``, ``diagonal-generators``,
    ``flat`` (dimension <= m), or ``unmatched``.  A polytope is compared
    within ``CLASSIFY_TOL`` times its largest |coordinate|, at any scale.
    """
    body = resolve(body)
    if m is not None and affine_dim(body) <= m:
        return "flat"
    if isinstance(body, Zonotope):
        g = body.generators
        if g.shape[0] >= 1:
            # rows divided by their largest |entry| first: norms of tiny or
            # huge generators underflow or overflow
            g = g / np.max(np.abs(g), axis=1)[:, None]
            norms = np.linalg.norm(g, axis=1)
            pattern = np.abs(g) / norms[:, None]
            if np.max(np.abs(pattern - pattern[0])) <= CLASSIFY_TOL:
                return "diagonal-generators"
        return "unmatched"
    if not isinstance(body, VPolytope):
        return "unmatched"
    v = body.vertices
    tol = CLASSIFY_TOL * float(np.max(np.abs(v)))
    if _is_coordinate_box(v, tol):
        return "coordinate-box"
    cross_kind = _cross_polytope_kind(v, tol)
    if cross_kind is not None:
        return cross_kind
    return "unmatched"


def _is_coordinate_box(v: np.ndarray, tol: float) -> bool:
    lo = v.min(axis=0)
    hi = v.max(axis=0)
    wide = hi - lo > tol
    d = int(np.sum(wide))
    at_hi = np.abs(v - hi) <= tol
    if v.shape[0] != 2 ** d or not np.all((np.abs(v - lo) <= tol) | at_hi):
        return False
    # All corner combinations must be present for the wide axes.
    return len({tuple(row) for row in at_hi[:, wide].tolist()}) == 2 ** d


def _cross_polytope_kind(v: np.ndarray, tol: float) -> str | None:
    n = v.shape[1]
    # Candidate common point: per coordinate, the most frequent value.
    center = np.zeros(n)
    for j in range(n):
        vals = np.sort(v[:, j])
        best_val, best_count = vals[0], 1
        i = 0
        while i < len(vals):
            k = i
            while k + 1 < len(vals) and vals[k + 1] - vals[i] <= tol:
                k += 1
            if k - i + 1 > best_count:
                best_count, best_val = k - i + 1, vals[(i + k) // 2]
            i = k + 1
        center[j] = best_val
    diffs = v - center
    axes = []
    for row in diffs:
        big = np.abs(row) > tol
        if int(np.sum(big)) != 1:
            return None
        axes.append((int(np.argmax(np.abs(row))), float(row[np.argmax(np.abs(row))])))
    covered = {a for a, _ in axes}
    if len(covered) < 2:
        return None
    lengths = [abs(t) for _, t in axes]
    o_symmetric = (float(np.max(np.abs(center))) <= tol and
                   len(axes) == 2 * len(covered) and
                   all(any(a == b and abs(t + s) <= tol for b, s in axes)
                       for a, t in axes))
    regular = o_symmetric and (max(lengths) - min(lengths) <= tol) and \
        len(covered) == v.shape[1]
    if regular:
        return "regular-coordinate-cross-polytope"
    if o_symmetric:
        return "o-symmetric-coordinate-cross-polytope"
    return "coordinate-cross-polytope"
