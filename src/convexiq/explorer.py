"""Width-ratio functionals, numeric reproductions of the disk-hull and
cross-polytope computations, and a seeded randomized search harness for
the open lower-bound questions.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import bodies as _b
from . import inequalities as ineq
from . import measures, symmetry
from .bodies import (Body, Zonotope, convex_hull, cross_polytope, resolve,
                     scale_body, support_many, unconditional_hull)
from .errors import InvalidArgument, UndefinedValue, UnsupportedMeasure
from .measures import vm
from .quadrature import QuadratureSpec, gauss_legendre

J_GRID_POINTS = 64
GL_NODES = 96


# ---------------------------------------------------------------------------
# width-ratio functional


def mean_width_ratio(body: Body, spec: QuadratureSpec | None = None) -> float:
    """V_1(K) divided by the summed V_1 of its coordinate-hyperplane
    projections; scale-invariant, minimized by regular coordinate
    cross-polytopes.
    """
    body = resolve(body)
    den = sum(p.value for p in measures.vm_shadows(body, 1, spec))
    if den == 0.0:
        raise UndefinedValue("projection widths all vanish (point-like body)")
    return vm(body, 1, spec).value / den


def support_ratio_profile(body: Body, points: int = J_GRID_POINTS) -> np.ndarray:
    """Sample the equatorial support ratio h_K(x1, x2, 0)/x1, x1 =
    sqrt(1 - x2^2), of a three-dimensional body with the full
    coordinate-cube symmetry group on an even grid over [0, 1/sqrt(2)];
    returns an array of shape (points, 2) with columns (x2, ratio).

    The ratio is nondecreasing in x2 for such bodies and identically 1 on
    the standard cross-polytope.  A body that fails
    :func:`symmetry.is_group_invariant` raises :class:`InvalidArgument`."""
    if points < 2:
        raise InvalidArgument("need at least two grid points")
    body = resolve(body)
    if body.n != 3:
        raise InvalidArgument("the equatorial support ratio is defined for n = 3")
    if not symmetry.is_group_invariant(body, np.random.default_rng(20240)):
        raise InvalidArgument(
            "body lacks the signed-permutation symmetries this ratio assumes")
    x2 = np.linspace(0.0, 1.0 / math.sqrt(2.0), points)
    x1 = np.sqrt(np.maximum(1.0 - x2 * x2, 0.0))
    return np.column_stack(
        [x2, support_many(body, np.column_stack([x1, x2, np.zeros_like(x2)])) / x1])


# ---------------------------------------------------------------------------
# numeric reproductions


@dataclass(frozen=True)
class ReproRow:
    """One line of a reproduction table: a computed quantity against its
    reference value, or a bare assertion when ``reference`` is None (the
    assertion passes when ``computed`` > 0)."""

    name: str
    computed: float
    reference: float | None = None
    tolerance: float | None = None
    note: str = ""

    @property
    def passed(self) -> bool:
        if self.reference is None:
            return self.computed > 0.0
        return abs(self.computed - self.reference) <= (self.tolerance or 0.0)

    def table_line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        if self.reference is None:
            return f"{mark:4s}  {self.name:34s} {self.computed:+.9f}  (assert > 0)"
        return (f"{mark:4s}  {self.name:34s} {self.computed:.9f}  "
                f"ref {self.reference:.6f} tol {self.tolerance:.0e}")


@dataclass(frozen=True)
class ReproReport:
    target: str
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def table(self) -> str:
        head = f"[{self.target}]"
        return "\n".join([head] + ["  " + r.table_line() for r in self.rows])


def _wedge_quadrature_mean_width(nodes: int) -> float:
    """Mean width of the three-disk hull by tensor quadrature over the
    symmetry wedge (48 congruent copies tile the sphere integral).

    The wedge orders the coordinates: the azimuth range [pi/4, pi/2]
    enforces |u1| <= |u2| and the polar range [0, arctan(csc theta)]
    enforces |u2| <= |u3| (octants x min-coordinate x swap = 48).
    """
    body = _b.k1()
    total = 0.0
    for th, wth in zip(*gauss_legendre(math.pi / 4.0, math.pi / 2.0, nodes)):
        phi, wphi = gauss_legendre(0.0, math.atan(1.0 / math.sin(th)), nodes)
        sp = np.sin(phi)
        u = np.column_stack([math.cos(th) * sp, math.sin(th) * sp, np.cos(phi)])
        total += wth * float(np.sum(wphi * support_many(body, u) * sp))
    return 48.0 * total / math.pi


def disk_hull_mean_width_report() -> ReproReport:
    """Mean width of the hull of the three unit coordinate disks by wedge
    tensor quadrature and by ``vm``'s one-dimensional rule, compared with
    the scaled cross-polytope of equal section areas."""
    v_2d = _wedge_quadrature_mean_width(GL_NODES)
    v_inner = vm(_b.k1(), 1).value
    v_k2 = 6.0 * math.acos(1.0 / 3.0) / math.sqrt(math.pi)
    v_k2_path = measures.v1_polytope_exact(_b.as_vpolytope(_b.k2()))
    rows = (
        ReproRow("disk-hull-width-quadrature", v_2d, 3.8663, 1e-3),
        ReproRow("disk-hull-width-inner-route", v_inner, 3.8663, 1e-3),
        ReproRow("route-agreement", abs(v_2d - v_inner), 0.0, 1e-5,
                 note="two independent routes"),
        ReproRow("scaled-cross-width", v_k2, 4.1669, 1e-4),
        ReproRow("scaled-cross-width-edge-route", v_k2_path, v_k2, 1e-9),
        ReproRow("scaled-cross-exceeds-disk-hull", v_k2 - v_2d, None, None,
                 note="equal section areas, larger mean width"),
    )
    return ReproReport("k1", rows)


def cross_ratio_falsification_report() -> ReproReport:
    """The cross-polytope ratio that falsifies the squared lower bound
    for general bodies at (n, m) = (3, 1), with the zonoid-route context
    constants."""
    closed = 12.0 * math.sqrt(2.0) * math.acos(1.0 / 3.0) / (2.0 * math.pi)
    edge_route = measures.v1_polytope_exact(cross_polytope(3))
    ratio = closed * closed / (3.0 * (2.0 * math.sqrt(2.0)) ** 2)
    gamma_const = ineq.mth_lower_constant(3, 1)
    four_over_pi2 = 4.0 / math.pi ** 2
    rows = (
        ReproRow("cross-width-closed-form", closed, 3.324758543877433, 1e-12),
        ReproRow("cross-width-edge-route", edge_route, closed, 1e-12),
        ReproRow("squared-bound-ratio", ratio, 0.46058, 1e-4),
        ReproRow("ratio-below-half", 0.5 - ratio, None, None,
                 note="falsifies the zonoid bound for general bodies"),
        ReproRow("gamma-ratio-constant", gamma_const, 0.40528, 1e-4),
        ReproRow("gamma-ratio-closed-form", gamma_const, four_over_pi2, 1e-9),
        ReproRow("constant-below-ratio", ratio - gamma_const, None, None,
                 note="proven constant sits below the probable best bound"),
    )
    return ReproReport("eq1-c3", rows)


# The sharp width-ratio constants c0(n), n = 3..8, to ten digits.
C0_REFERENCE = (0.3918265520, 0.2760748280, 0.2143515707, 0.1756020710,
                0.1488907530, 0.1293154618)


def min_width_ratio_report() -> ReproReport:
    """The sharp width-ratio constants for n = 3..8, and the
    three-dimensional one against its closed form and against the
    functional evaluated on the cross-polytope."""
    c0 = ineq.min_mean_width_ratio(3).value
    at_cross = mean_width_ratio(cross_polytope(3))
    rows = tuple(
        ReproRow(f"min-width-ratio-n{n}", ineq.min_mean_width_ratio(n).value,
                 ref, 1e-9)
        for n, ref in enumerate(C0_REFERENCE, start=3)) + (
        ReproRow("width-ratio-at-cross", at_cross, c0, 1e-9),
        ReproRow("closed-form-match",
                 c0, math.acos(1.0 / 3.0) / math.pi, 1e-12),
    )
    return ReproReport("c0", rows)


def octahedron_equality_report() -> ReproReport:
    """Equality of the dual volume-product bound on the unit
    cross-polytope: both sides equal 16/9."""
    rep = ineq.evaluate("meyer", cross_polytope(3))
    rows = (
        ReproRow("volume-power", rep.lhs, 16.0 / 9.0, 1e-9),
        ReproRow("section-product-bound", rep.rhs, 16.0 / 9.0, 1e-9),
        ReproRow("equality-slack", 1e-9 - abs(rep.oriented_slack), None, None,
                 note="slack within 1e-9 of zero"),
        ReproRow("equality-case-recognized",
                 1.0 if rep.equality_flag == "equality-case-matched" else -1.0,
                 None, None),
    )
    return ReproReport("meyer-octahedron", rows)


_REPRO_TABLE = {
    "k1": disk_hull_mean_width_report,
    "eq1-c3": cross_ratio_falsification_report,
    "c0": min_width_ratio_report,
    "meyer-octahedron": octahedron_equality_report,
}
REPRO_TARGETS = tuple(_REPRO_TABLE)


def run_repro(target: str) -> list[ReproReport]:
    if target == "all":
        return [run_repro(t)[0] for t in REPRO_TARGETS]
    if target not in _REPRO_TABLE:
        raise InvalidArgument(
            f"unknown reproduction target {target!r}; "
            f"known: {', '.join(REPRO_TARGETS + ('all',))}")
    return [_REPRO_TABLE[target]()]


# ---------------------------------------------------------------------------
# randomized search


SEARCH_FAMILIES = ("zonotope", "unconditional-polytope", "cross-perturbation")
_PROBLEM_TABLE = {
    # problem -> (inequality id, normalization degree fn)
    "cg33": ("cg_upper", lambda n, m: m),
    "prob4": ("prob4_family", lambda n, m: m),
    "prob5": ("prob5_family", lambda n, m: m + 1),
    "heron_n3": ("heron_n3", lambda n, m: 2),
    "eq11_midrange": ("reverse_cs", lambda n, m: m),
}
SEARCH_PROBLEMS = tuple(_PROBLEM_TABLE)


@dataclass(frozen=True)
class SearchConfig:
    """Configuration of one randomized search run; fully determines the
    result byte-for-byte."""

    problem: str
    n: int
    m: int | None = None
    family: str = "zonotope"
    iterations: int = 1000
    proposal_scale: float = 0.1
    seed: int = 0
    restarts: int = 4
    family_size: int | None = None
    constant: float | None = None
    quad_resolution: int | None = None

    def canonical_payload(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_payload(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ViolationRecord:
    inequality_id: str
    params: dict
    slack: float
    tolerance: float
    lhs: float
    rhs: float
    body: Body
    restart: int
    iteration: int


@dataclass(frozen=True)
class SearchResult:
    config: SearchConfig
    best_slack: float
    best_body: Body
    best_report: ineq.IneqReport
    trajectory: tuple          # (chunk_index, count, q0, q25, q50, q75, q100)
    violations: tuple
    evaluations: int
    stamp: dict                # {"seed": ..., "config_hash": ...}


def validate_config(config: SearchConfig) -> SearchConfig:
    """Normalize defaults and reject invalid problem/family pairings.

    A pairing whose bodies have no measure route is rejected by
    :func:`search` at its first evaluation, with the same error type.
    """
    if config.problem not in SEARCH_PROBLEMS:
        raise InvalidArgument(
            f"unknown problem {config.problem!r}; known: {', '.join(SEARCH_PROBLEMS)}")
    if config.family not in SEARCH_FAMILIES:
        raise InvalidArgument(
            f"unknown family {config.family!r}; known: {', '.join(SEARCH_FAMILIES)}")
    # Each numeric field by its annotation, a string such as "int | None"
    # under ``from __future__ import annotations``.
    for f in fields(SearchConfig):
        value = getattr(config, f.name)
        if f.type == "str" or (value is None and f.default is None):
            continue
        integral = f.type.startswith("int")
        valid = isinstance(value, numbers.Integral) if integral else (
            isinstance(value, numbers.Real) and math.isfinite(value))
        if isinstance(value, bool) or not valid:
            raise InvalidArgument(
                f"{f.name} must be {'an integer' if integral else 'a finite number'}, "
                f"got {value!r}")
    n = int(config.n)
    if not _b.MIN_DIM <= n <= _b.MAX_DIM:
        raise InvalidArgument(f"n must lie in [{_b.MIN_DIM}, {_b.MAX_DIM}]")
    if config.iterations < 1:
        raise InvalidArgument("iterations must be >= 1")
    if config.restarts < 1:
        raise InvalidArgument("restarts must be >= 1")
    if config.proposal_scale < 0:
        raise InvalidArgument("proposal scale must be >= 0")
    if not 0 <= int(config.seed) < 2 ** 64:
        raise InvalidArgument("seed must be an unsigned 64-bit integer")

    entry = ineq.CATALOG[_PROBLEM_TABLE[config.problem][0]]
    m = config.m
    if config.problem == "heron_n3" and n != 3:
        raise InvalidArgument("heron_n3 is a three-dimensional problem")
    if config.problem == "eq11_midrange":
        if m is None or not 2 <= m <= n - 3:
            raise InvalidArgument(
                "eq11_midrange targets m in 2..n-3 (needs n >= 5)")
    elif not entry.needs_m:
        m = None
    elif m is None or not entry.accepts_m(n, m):
        raise InvalidArgument(f"{config.problem} needs m in {entry.m_range}")

    if config.problem == "prob4" and config.family == "zonotope":
        raise InvalidArgument(
            "prob4 is already settled for zonotopes; search over "
            "unconditional-polytope or cross-perturbation families instead")

    needs_constant = entry.constant is not None
    if needs_constant and config.constant is None:
        raise InvalidArgument(f"{config.problem} needs a candidate constant")
    if not needs_constant and config.constant is not None:
        raise InvalidArgument(f"{config.problem} does not take a constant")
    if needs_constant:  # checked only: the config keeps the value it was given
        ineq.PARAM_RULES[entry.constant].coerce(config.constant, n)

    family_size = config.family_size
    if config.family == "cross-perturbation":
        if family_size is not None and family_size != 2 * n:
            raise InvalidArgument(
                "cross-perturbation bodies have exactly 2n vertices")
        family_size = 2 * n
    elif family_size is None:
        family_size = max(n + 2, 6)
    elif family_size < n:
        raise InvalidArgument("family size must be at least n")

    return replace(config, n=n, m=m, family_size=int(family_size),
                   seed=int(config.seed), iterations=int(config.iterations),
                   restarts=int(config.restarts),
                   proposal_scale=float(config.proposal_scale))


def _initial_state(config: SearchConfig, rng: np.random.Generator) -> np.ndarray:
    n, k = config.n, config.family_size
    if config.family == "zonotope":
        return rng.standard_normal((k, n))
    if config.family == "unconditional-polytope":
        return np.abs(rng.standard_normal((k, n))) + 0.1
    return cross_polytope(config.n).vertices.copy()


def _state_body(config: SearchConfig, state: np.ndarray) -> Body:
    if config.family == "zonotope":
        return Zonotope(np.zeros(config.n), state)
    if config.family == "unconditional-polytope":
        return unconditional_hull(state)
    return convex_hull(state)


def _quad_spec(config: SearchConfig) -> QuadratureSpec | None:
    if config.quad_resolution is None:
        return None
    return QuadratureSpec(resolution=config.quad_resolution)


def _objective(config: SearchConfig, state: np.ndarray):
    """Evaluate the problem inequality on the unit-normalized body of a
    state; returns (slack, report, normalized state) or None for a
    degenerate state.  The report holds the normalized body.

    The state body K is measured once, for its size: the normalized body
    is the dilate ``scale_body(K, lam)``, and ``evaluate`` reads its
    measures off K by homogeneity, a quadrature estimate with its error
    (``measures._off_source``), so it hulls and integrates nothing of its
    own."""
    ineq_id, degree_fn = _PROBLEM_TABLE[config.problem]
    deg = degree_fn(config.n, config.m)
    body = _state_body(config, state)
    spec = _quad_spec(config)
    size = vm(body, deg, spec).value
    if not size > 1e-9:
        return None
    lam = size ** (-1.0 / deg)
    state = state * lam
    body = scale_body(body, lam)
    constant = ineq.CATALOG[ineq_id].constant
    params = {} if constant is None else {constant: config.constant}
    report = ineq.evaluate(ineq_id, body, m=config.m, params=params, spec=spec)
    return report.oriented_slack, report, state


def _run_restart(config: SearchConfig, restart: int, seed_seq) -> dict:
    rng = np.random.default_rng(seed_seq)
    current = None
    try:
        for _ in range(65):
            state = _initial_state(config, rng)
            current = _objective(config, state)
            if current is not None:
                break
    except UnsupportedMeasure as exc:
        # The family's bodies have no measure route for this problem.
        raise InvalidArgument(
            f"problem/family pairing not computable: {exc}") from exc
    if current is None:
        raise InvalidArgument(
            "could not draw a non-degenerate starting body for the search family")
    cur_slack, cur_report, cur_state = current
    best = (cur_slack, cur_report)
    slack_log = np.empty(config.iterations)
    evaluations = 1
    violations = []

    def _note_violation(report, iteration):
        if report.quadrature_error is not None:
            return
        if report.oriented_slack < -10.0 * report.tolerance:
            violations.append(ViolationRecord(
                inequality_id=report.id, params=report.params,
                slack=report.oriented_slack, tolerance=report.tolerance,
                lhs=report.lhs, rhs=report.rhs, body=report.body,
                restart=restart, iteration=iteration))

    _note_violation(cur_report, 0)
    for it in range(config.iterations):
        proposal = cur_state + config.proposal_scale * \
            rng.standard_normal(cur_state.shape)
        if config.family == "unconditional-polytope":
            proposal = np.abs(proposal)
        outcome = _objective(config, proposal)
        evaluations += 1
        if outcome is not None:
            slack, report, norm_state = outcome
            if slack < cur_slack:
                cur_slack, cur_report, cur_state = slack, report, norm_state
                if slack < best[0]:
                    best = (slack, report)
                    _note_violation(report, it + 1)
        slack_log[it] = cur_slack
    return {
        "restart": restart,
        "best": best,
        "slacks": slack_log,
        "evaluations": evaluations,
        "violations": violations,
    }


def _trajectory_summary(slack_arrays) -> tuple:
    """Quantiles of the pooled restart slacks per chunk of 1000 iterations."""
    chunk = 1000
    total = max(arr.size for arr in slack_arrays)
    out = []
    for start in range(0, total, chunk):
        pooled = np.concatenate(
            [arr[start:start + chunk] for arr in slack_arrays
             if arr.size > start])
        qs = np.quantile(pooled, [0.0, 0.25, 0.5, 0.75, 1.0])
        out.append((start // chunk, int(pooled.size)) + tuple(float(q) for q in qs))
    return tuple(out)


def search(config: SearchConfig) -> SearchResult:
    """Random-restart hill descent on the oriented slack of the
    configured problem; deterministic for a fixed config.

    Violations are only recorded when the slack clears ten times the
    report tolerance on exact (non-quadrature) measure routes.
    """
    config = validate_config(config)
    streams = np.random.SeedSequence(config.seed).spawn(config.restarts)
    results = [_run_restart(config, r, s) for r, s in enumerate(streams)]

    def _tie_break(res):
        slack, report = res["best"]
        return (slack, report.body_fingerprint)

    winner = min(results, key=_tie_break)
    best_slack, best_report = winner["best"]
    violations = sorted((v for res in results for v in res["violations"]),
                        key=lambda v: (v.restart, v.iteration))
    return SearchResult(
        config=config,
        best_slack=best_slack,
        best_body=best_report.body,
        best_report=best_report,
        trajectory=_trajectory_summary([r["slacks"] for r in results]),
        violations=tuple(violations),
        evaluations=sum(r["evaluations"] for r in results),
        stamp={"seed": config.seed, "config_hash": config.config_hash()},
    )
