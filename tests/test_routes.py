"""Independent routes to the same measure agree.

A row of ``ROUTE_ROWS`` measures a seeded family of bodies (``FAMILIES``)
by a route of :mod:`convexiq.measures` named in ``ROUTES`` and by a
reference route or closed form (both keys of ``MEASURES``), and
``test_route`` holds each value to its reference by one rule,
:func:`_agree`.  A row of ``SCALING_ROWS`` hands a family's values at
scale, and signed-permuted, to ``_assert_homogeneous``.  A new route adds
its name to ``ROUTES`` and its rows; ``pytest -k`` picks rows by id,
route-reference-family-n or route-family-n.
"""
from __future__ import annotations

import inspect
import math
from functools import cache, partial
from itertools import combinations, product
from typing import Callable, NamedTuple

import numpy as np
import pytest
from scipy.optimize import linprog

from convexiq import Zonotope, measures
from convexiq.bodies import (as_vpolytope, convex_hull, cross_polytope, dilate_source, scale_body,
                             unconditional_hull)
from convexiq.coordops import _cut, mirror_symmetric, project_along, project_drop
from convexiq.measures import Measured, _on_boundary, vm, vm_sections, vm_shadows

from conftest import RNG_SEED, random_polytope, random_zonotope, shared_cube
from test_coordops import _section_cases
from test_measures import (_assert_homogeneous, _betke_henk, _cut_route, _cut_taken,
                           _hulls_counted, _on_plane_bodies, _scaled_coordinates,
                           _shadow_bodies)

ROUTES = ("vm_polytope_angles", "vm_zonotope", "vm_shadows", "vm_projection", "vm_sections")
ANGLES, SECTIONS, N = "vm_polytope_angles", "vm_sections", range(3, 7)


class Case(NamedTuple):
    """A body; what an oblique route or a closed form reads besides it
    (directions by degree, or a box's sides); degrees that replace the
    row's; and the axes where the route gives the reference's Measured."""
    body: object
    data: object = None
    degrees: tuple | None = None
    equal: frozenset = frozenset()


def _box(sides, m: int) -> float:
    return sum(np.prod(c) for c in combinations(sides, m))


def _gram_loop(z, m: int) -> float:
    """V_m(Z) by one Gram determinant per generator subset."""
    gram = z.generators @ z.generators.T
    dets = [np.linalg.det(gram[np.ix_(s, s)]) for s in combinations(range(len(gram)), m)]
    return 2.0 ** m * sum(math.sqrt(d) for d in dets if d > 0.0)


def _along(z, u) -> Zonotope:
    """The zonotope of G B^T, B an orthonormal basis of u^perp."""
    b = np.linalg.svd(u[None, :])[2][1:]
    return Zonotope(z.center @ b.T, z.generators @ b.T)


def _extreme(points: np.ndarray) -> np.ndarray:
    """The points of a cloud that no convex combination of the others
    gives (an infeasible linprog), among the vertices of its hull."""
    cloud = convex_hull(points).vertices
    keep = []
    for j, x in enumerate(cloud):
        rest = np.delete(cloud, j, axis=0)
        fit = linprog(np.zeros(len(rest)), A_eq=np.vstack([rest.T, np.ones(len(rest))]),
                      b_eq=np.append(x, 1.0), method="highs")
        keep.append(fit.status == 2)
    return cloud[keep]


def _axes(f):
    return lambda c, m: tuple(f(c, i, m) for i in range(c.body.n))


def _directions(f):
    return lambda c, m: tuple(f(c.body, u, m) for u in c.data[m])


# (case, m) -> one value, or one per axis or direction; the routes first
MEASURES = {
    ANGLES: lambda c, m: (vm(as_vpolytope(c.body), m),),
    "vm_zonotope": lambda c, m: (measures.vm_zonotope(c.body, m),),
    "vm_shadows": lambda c, m: vm_shadows(c.body, m),
    "vm_projection": _directions(measures.vm_projection),
    SECTIONS: lambda c, m: vm_sections(c.body, m),
    "project_drop": _axes(lambda c, i, m: vm(project_drop(c.body, i), m)),
    "project_along": _directions(lambda p, u, m: vm(project_along(p, u / np.linalg.norm(u)), m)),
    "zonotope_along": _directions(lambda z, u, m: vm(_along(z, u), m)),
    "section_drop": _axes(lambda c, i, m: _cut_route(c.body, i, m)),
    # the hull of the skeleton cut's extreme points, which qhull keeps
    # among other points of its faces at n = 6 (ROADMAP item 5)
    "lp_extreme": _axes(lambda c, i, m: vm(convex_hull(_extreme(_cut(c.body, i))), m)),
    "gram_loop": lambda c, m: (_gram_loop(c.body, m),),
    "hull_volume": lambda c, m: (measures.volume(as_vpolytope(c.body)),),
    "box": lambda c, m: (_box(c.data, m),),
    "box_slices": _axes(lambda c, i, m: _box(np.delete(c.data, i), m)),
    "betke_henk": lambda c, m: (_betke_henk(c.body.n, m),),
    "v1_cross_polytope": lambda c, m: (measures.v1_cross_polytope(c.body.n),),
    # the cube's shadow along its diagonal, a regular hexagon of side 2 sqrt(2/3)
    "hexagon": lambda c, m: ({2: 4.0 * math.sqrt(3.0), 1: 2.0 * math.sqrt(6.0)}[m],),
}


def _value(x) -> float:
    return x.value if isinstance(x, Measured) else x


def _agree(got, want, tol: float, floor: float = 0.0) -> bool:
    """The rule every row holds a route's value to: exact, and within tol
    of the reference relative to it, or to floor where it is 0."""
    exact = not isinstance(got, Measured) or got.exact
    return exact and abs(_value(got) - _value(want)) <= tol * (abs(_value(want)) or floor)


# ---------------------------------------------------------------------------
# seeded families: n -> cases


def _zonotopes(d: int) -> list:
    """21 zonotopes with 5, 6 and 8 generators in R^4."""
    rng = np.random.default_rng(RNG_SEED)
    return [Case(random_zonotope(rng, 4, k)) for k in (5, 6, 8) * 7]


def _corner_cut_cube(d: int) -> list:
    """cube(d) cut at the corner (1, ..., 1) to depth 1e-7, whose V_m, m >= 2,
    is the cube's to O(1e-14).  The ridges around the tiny simplex have one
    tiny face and long edges: a flat-ridge cut not relative to each ridge's
    own shape drops some (one at 1e-6 misses by 3%)."""
    v = as_vpolytope(shared_cube(d)).vertices
    return [Case(convex_hull(np.vstack([v[np.any(v != 1.0, axis=1)], 1.0 - 1e-7 * np.eye(d)])),
                 np.full(d, 2.0))]


def _mixed_zonotopes(n: int) -> list:
    """Those of 60 zonotopes (dimension 2..8, degree m, m..14 generators)
    in R^n, each in its own degree."""
    rng, out = np.random.default_rng(RNG_SEED), []
    for _ in range(60):
        d = int(rng.integers(2, 9))
        m = int(rng.integers(2, d + 1))
        z = Zonotope(np.zeros(d), rng.standard_normal((int(rng.integers(m, 15)), d)))
        if d == n:
            out.append(Case(z, degrees=(m,)))
    return out


def _top_zonotopes(n: int) -> list:
    """A zonotope with n + 2 generators in R^3, then one in R^4; the one in R^n."""
    rng = np.random.default_rng(RNG_SEED)
    z = {d: Zonotope(np.zeros(d), rng.standard_normal((d + 2, d))) for d in (3, 4)}
    return [Case(z[n])]


@cache
def _oblique_zonotopes(n: int) -> list:
    """k = 0..12 generators, each with a unit direction."""
    rng, out = np.random.default_rng(80 + n), []
    for k in range(13):
        z = Zonotope(rng.standard_normal(n), rng.standard_normal((k, n)))
        u = rng.standard_normal(n)
        out.append(Case(z, dict.fromkeys(range(1, n), [u / np.linalg.norm(u)])))
    return out


@cache
def _polytopes(n: int) -> list:
    """_shadow_bodies, with two directions for each degree; 4n or more of
    their axes are not mirror planes."""
    rng = np.random.default_rng(n)
    out = [Case(p, {m: rng.standard_normal((2, n)) for m in (n - 1, n - 2)})
           for p in _shadow_bodies(n)]
    assert sum(not mirror_symmetric(c.body, i) for c in out for i in range(n)) >= 4 * n
    return out


def _boxes(n: int, seed: int, shifted: bool) -> list:
    """The cube of side 2 and a box of random sides, moved by a normal
    vector, or, ``shifted``, by up to 0.4 of each side (every x_i = 0 cuts)."""
    rng, out = np.random.default_rng(seed), []
    for sides in (np.full(n, 2.0), rng.uniform(0.2, 3.0, n)):
        shift = rng.uniform(-0.4, 0.4, n) * sides if shifted else rng.standard_normal(n)
        out.append(Case(convex_hull(as_vpolytope(shared_cube(n)).vertices * sides / 2.0 + shift),
                        sides))
    return out


def _on_plane(n: int) -> list:
    """_on_plane_bodies, none mirror symmetric, with a vertex on 4n or more
    planes; an exact 0 where a plane touches below dimension n-2 or misses."""
    out = [Case(p, equal=frozenset(zero)) for p, zero in _on_plane_bodies(n)]
    assert not any(mirror_symmetric(c.body, i) for c in out for i in range(n))
    assert sum(np.any(c.body.vertices[:, i] == 0.0) for c in out for i in range(n)) >= 4 * n
    return out


def _ridge_polytopes(n: int) -> list:
    """Random and half-integer clouds, _on_plane_bodies, whose planes
    through a vertex, touching planes and missed planes the ridge pass
    takes as it takes the others, and below n = 6 the translated
    unconditional hulls."""
    rng = np.random.default_rng(400 + n)
    out = [convex_hull(rng.standard_normal((n + 6, n))) for _ in range(2)]
    out += [convex_hull(np.round(2.0 * rng.standard_normal((3 * n + 6, n))) / 2.0)
            for _ in range(2)]
    out = [Case(p) for p in out + [p for p, _ in _on_plane_bodies(n)]]
    return out + (_translated_unconditional(n) if n < 6 else [])


def _translated_unconditional(n: int) -> list:
    """Unconditional hulls of two points moved off the origin by 0.05 N(n),
    seeds 0-2 (ROADMAP item 1's bodies at n = 6, where qhull keeps other
    points of their cuts' faces with the vertices, and the cut hulls
    refuse their V_3)."""
    out = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        base = unconditional_hull(rng.standard_normal((2, n))).vertices
        out.append(Case(convex_hull(base + 0.05 * rng.standard_normal(n))))
    return out


def _unconditional(n: int) -> list:
    """Unconditional hulls of two and of three points: every axis is a
    mirror plane."""
    rng = np.random.default_rng(410 + n)
    return [Case(unconditional_hull(rng.standard_normal((k, n)))) for k in (2, 2, 3)]


def _generic_zonotopes(n: int) -> list:
    rng = np.random.default_rng(300 + n)
    return [Zonotope(0.4 * rng.standard_normal(n), rng.standard_normal((k, n)))
            for k in range(n, n + 4)]


def _centered_zonotopes(n: int) -> tuple:
    """Zonotopes about the origin with n to n + 3 generators, whose facets
    and ridges come in antipodal pairs, and the signed permutation drawn
    after them."""
    rng = np.random.default_rng(340 + n)
    out = [Zonotope(np.zeros(n), rng.standard_normal((k, n))) for k in range(n, n + 4)]
    return out, (rng.permutation(n), rng.choice([-1.0, 1.0], n))


# integer generators about the origin on which pairing each face with its
# antipode, with no on-plane exception, gave V_{n-3} of the section by
# x_0 = 0 as 21.4058 and 297.78, not 21.6963 and 320.34
ON_PLANE_GENERATORS = {
    4: [[0, -2, -1, -2], [-1, -1, 1, 2], [-1, -1, -1, -1], [-2, 2, 1, -2], [2, -1, -1, -1]],
    5: [[0, -1, 2, -2, 2], [1, 0, 0, 1, -2], [-1, -1, -2, -2, 1], [0, -2, 1, 0, 0],
        [1, 0, 1, 2, 2], [-1, -1, -1, 2, -1]],
}


def _centered_on_plane(n: int) -> list:
    """Integer zonotopes about the origin in general position, with n + 2
    generators of which the first 1 to n - 1 lie in e_0^perp, so that
    vertices, and edges and higher faces along them, lie on x_0 = 0 and
    on other planes; ON_PLANE_GENERATORS first."""
    rng = np.random.default_rng(350 + n)
    out = [np.array(g, dtype=float) for d, g in ON_PLANE_GENERATORS.items() if d == n]
    while len(out) < 4:
        g = rng.integers(-2, 3, (n + 2, n)).astype(float)
        g[:rng.integers(1, n), 0] = 0.0
        dets = [np.linalg.det(g[list(s)]) for s in combinations(range(n + 2), n)]
        if min(abs(d) for d in dets) >= 0.5 and _vertices_on_planes(g)[0] > 0:
            out.append(g)
    assert all(_vertices_on_planes(g)[0] > 0 for g in out)
    assert sum(_vertices_on_planes(g).sum() for g in out) >= 4 * n
    return [Case(Zonotope(np.zeros(n), g)) for g in out]


def _vertices_on_planes(g: np.ndarray) -> np.ndarray:
    """How many vertices of the zonotope of g about the origin lie on each
    plane x_i = 0, expanded on a zonotope of its own, so that the case
    keeps no expansion."""
    return (as_vpolytope(Zonotope(np.zeros(g.shape[1]), g)).vertices == 0.0).sum(axis=0)


def _integer_zonotopes(n: int) -> list:
    """Zonotopes with n + 2 integer generators in general position (every
    n x n determinant a nonzero integer), the first with coordinate 0, 1 or
    2 zeroed, or none; centered so that a vertex, neither lowest nor
    highest on x_0, lies on x_0 = 0, x_1 = 0 touches Z from above (in a
    vertex or along a face) and x_2 = 0 misses it."""
    rng, out = np.random.default_rng(320 + n), []
    for flat in (None, 0, 1, 2):
        while True:
            g = rng.integers(-3, 4, (n + 2, n)).astype(float)
            if flat is not None:
                g[0, flat] = 0.0
            dets = [np.linalg.det(g[list(s)]) for s in combinations(range(n + 2), n)]
            if min(abs(d) for d in dets) < 0.5 or not np.all(np.any(g != 0.0, axis=1)):
                continue
            vertex, reach = np.sign(g @ rng.standard_normal(n)) @ g, np.abs(g).sum(axis=0)
            if abs(vertex[0]) != reach[0]:
                break
        c = np.zeros(n)
        c[:3] = -vertex[0], reach[1], reach[2] + 1.0
        out.append(Case(Zonotope(c, g)))
    return out


def _generic(z: Zonotope) -> bool:
    g = z.generators
    return len(g) >= z.n and \
        min(abs(np.linalg.det(g[list(s)])) for s in combinations(range(len(g)), z.n)) >= 1e-9


def _degenerate_zonotopes(n: int) -> list:
    """test_coordops' section cases: the parallel-generator one and the
    integer one for n <= 5 have zero determinants; their sections are the
    cut route's bytes.  At n = 6 the boundary triangulations of the
    parallel-generator one's 5-d cuts do not close up, so both routes
    refuse its V_3, and it is measured at n-1 and n-2 only."""
    out = [Case(z, equal=frozenset(() if _generic(z) else range(n)),
                degrees=(n - 1, n - 2) if (n, j) == (6, 1) else None)
           for j, z in enumerate(_section_cases(n, np.random.default_rng(200 + n)))]
    assert sum(bool(c.equal) for c in out) == (2 if n <= 5 else 1)
    return out


def _few_generators(n: int) -> list:
    """Flat zonotopes with 1 and n - 1 generators, which the facet route
    declines: their sections are the cut route's bytes."""
    rng = np.random.default_rng(390 + n)
    return [Case(Zonotope(0.3 * rng.standard_normal(n), rng.standard_normal((k, n))),
                 equal=frozenset(range(n))) for k in (1, n - 1)]


FAMILIES = {
    "zonotopes": _zonotopes,
    "cube": lambda d: [Case(shared_cube(d), np.full(d, 2.0))],
    "cross": lambda d: [Case(cross_polytope(d))],
    "diagonal": lambda n: [Case(shared_cube(n), dict.fromkeys((1, 2), [np.ones(n)]))],
    "corner_cut": _corner_cut_cube,
    "mixed_zonotopes": _mixed_zonotopes,
    "top_zonotopes": _top_zonotopes,
    "oblique_zonotopes": _oblique_zonotopes,
    "polytopes": _polytopes,
    "boxes": lambda n: _boxes(n, n, False),
    "crossed_boxes": lambda n: _boxes(n, 40 + n, True),
    "on_plane": _on_plane,
    "ridge_polytopes": _ridge_polytopes,
    "translated_unconditional": _translated_unconditional,
    "unconditional": _unconditional,
    "generic_zonotopes": lambda n: list(map(Case, _generic_zonotopes(n))),
    "centered_zonotopes": lambda n: list(map(Case, _centered_zonotopes(n)[0])),
    "centered_on_plane": _centered_on_plane,
    "integer_zonotopes": _integer_zonotopes,
    "degenerate_zonotopes": _degenerate_zonotopes,
    "few_generators": _few_generators,
}


# ---------------------------------------------------------------------------
# route-taken checks: (case, {m: the route's values})


def _boundary_shadows(case, got) -> None:
    assert _on_boundary(case.body)


def _boundary(case, got) -> None:
    """Read off K's triangulation with no section hulled; along a mirror
    plane a section is the shadow."""
    p = case.body
    assert _on_boundary(p) and not any(_cut_taken(p, i) for i in range(p.n))
    for m, values in got.items():
        assert all(values[i] == vm_shadows(p, m)[i] for i in range(p.n) if mirror_symmetric(p, i))


def _ridges(case, got) -> None:
    """Read off K's bent ridges (its source's, for a dilate), with no
    section hulled."""
    p = (dilate_source(case.body) or (case.body,))[0]
    assert vars(p)["_derived"]["ridges"] is not None
    assert not any(_cut_taken(p, i) for i in range(p.n))


def _ridge_shadows(case, got) -> None:
    """Every axis a mirror plane, so each shadow is the section the
    ridges give, and no shadow is hulled."""
    p = case.body
    assert all(mirror_symmetric(p, i) for i in range(p.n))
    assert not any(("project_drop", i) in vars(p)["_derived"] for i in range(p.n))
    _ridges(case, got)


def _facets(case, got) -> None:
    """Read off the zonotope's facets and, for n >= 4, its ridges (its
    source's, for a dilate): no skeleton, no hulled cut."""
    z = (dilate_source(case.body) or (case.body,))[0]
    assert "skeleton" not in vars(z)["_derived"] and not any(_cut_taken(z, i) for i in range(z.n))
    assert vars(z)["_derived"]["sections"] is not None
    assert z.n < 4 or vars(z)["_derived"]["ridges"] is not None


def _vertex_planes(case, got) -> None:
    _facets(case, got)
    assert all(values[0].value > 0.0 for values in got.values())
    one, zero = Measured.of_exact(1.0), Measured.of_exact(0.0)
    assert vm_sections(case.body, 0)[:3] == (one, one, zero)


def _cut_unless_generic(case, got) -> None:
    """Out of general position the facet and the ridge route keep None
    and every section is a hulled cut; in it, none is."""
    z, generic = case.body, _generic(case.body)
    assert (vars(z)["_derived"]["sections"] is None) != generic
    assert z.n - 3 not in got or (vars(z)["_derived"]["ridges"] is None) != generic
    assert all(_cut_taken(z, i) for i in range(z.n)) != generic


# ---------------------------------------------------------------------------
# the route table


class Row(NamedTuple):
    """``taken(case, {m: values})`` asserts the route that ran; ``floor``
    scales tol by the body's extent^m where the reference is 0;
    ``hull_free``: the route hulls nothing; ``nonzero``: at least that
    many nonzero reference values per unit of n; ``zeros``: the route
    gives the reference's Measured where that is an exact 0."""
    route: str
    reference: str
    family: str
    n: int
    degrees: tuple
    tol: float = 1e-12
    taken: Callable = lambda case, got: None
    floor: bool = False
    hull_free: bool = False
    nonzero: int = 0
    zeros: bool = False


def _low(d: int) -> tuple:
    """Every degree of a 4-polytope's angle route; m = d-3, d-2 above."""
    return (1, 2) if d == 4 else (d - 3, d - 2)


def _top(n: int) -> tuple:
    return tuple(m for m in (n - 1, n - 2) if m >= 1)


def _faces(n: int) -> tuple:
    """The degrees a zonotope's facets (n-1, n-2) and ridges (n-3) give."""
    return tuple(m for m in (n - 1, n - 2, n - 3) if m >= 1)


def _ridge(n: int) -> tuple:
    return (n - 3,)


def _below(n: int) -> tuple:
    return tuple(range(1, n))


def _rows(route, reference, family, ns, degrees=_top, **kw) -> list:
    return [Row(route, reference, family, n, degrees(n), **kw) for n in ns]


ROUTE_ROWS = (
    _rows(ANGLES, "vm_zonotope", "zonotopes", (4,), _low)
    + _rows(ANGLES, "box", "cube", (4,), _low, tol=1e-13)
    + _rows(ANGLES, "box", "cube", range(5, 9), _low)
    # 2.5e-14 relative is 1e-13 absolute or less: V_1(C_4) = 3.67
    + _rows(ANGLES, "v1_cross_polytope", "cross", (4,), lambda d: (1,), tol=2.5e-14)
    + _rows(ANGLES, "betke_henk", "cross", range(5, 9), _low)
    + _rows(ANGLES, "box", "corner_cut", (5, 6), _low)
    + _rows("vm_zonotope", "gram_loop", "mixed_zonotopes", range(2, 9), lambda n: ())
    + _rows("vm_zonotope", "hull_volume", "top_zonotopes", (3, 4), lambda n: (n,))
    + _rows("vm_shadows", "project_drop", "oblique_zonotopes", range(2, 9), _below)
    + _rows("vm_projection", "zonotope_along", "oblique_zonotopes", range(2, 9), _below)
    + _rows("vm_shadows", "project_drop", "polytopes", N, taken=_boundary_shadows)
    + _rows("vm_projection", "project_along", "polytopes", N, taken=_boundary_shadows)
    + _rows("vm_shadows", "box_slices", "boxes", range(2, 7), tol=1e-13)
    + _rows("vm_projection", "hexagon", "diagonal", (3,), tol=1e-14)
    + _rows(SECTIONS, "section_drop", "polytopes", N, taken=_boundary)
    + _rows(SECTIONS, "box_slices", "crossed_boxes", N, tol=1e-13, taken=_boundary)
    + _rows(SECTIONS, "section_drop", "on_plane", N, taken=_boundary, floor=True)
    + _rows(SECTIONS, "section_drop", "ridge_polytopes", range(4, 7), _ridge, taken=_ridges,
            floor=True, hull_free=True, zeros=True, nonzero=7)
    + _rows(SECTIONS, "lp_extreme", "translated_unconditional", (6,), _ridge,
            taken=_ridges, hull_free=True, nonzero=3)
    + _rows("vm_shadows", "project_drop", "unconditional", range(4, 7), _ridge,
            taken=_ridge_shadows, hull_free=True, nonzero=3)
    + _rows(SECTIONS, "section_drop", "generic_zonotopes", N, _faces, taken=_facets,
            hull_free=True, nonzero=7)
    + _rows(SECTIONS, "section_drop", "centered_zonotopes", N, _faces, taken=_facets,
            hull_free=True, nonzero=7)
    + _rows(SECTIONS, "section_drop", "centered_on_plane", N, _faces, taken=_facets,
            hull_free=True, nonzero=7)
    + _rows(SECTIONS, "section_drop", "integer_zonotopes", N, _faces, taken=_vertex_planes,
            zeros=True)
    + _rows(SECTIONS, "section_drop", "degenerate_zonotopes", N, _faces,
            taken=_cut_unless_generic)
    + _rows(SECTIONS, "section_drop", "few_generators", N, _faces, taken=_cut_unless_generic)
)


@pytest.mark.parametrize("row", ROUTE_ROWS,
                         ids=lambda r: f"{r.route}-{r.reference}-{r.family}-{r.n}")
def test_route(row, monkeypatch):
    """Each value of the row's route meets its reference (``_agree``), or
    equals it where the case says so, by the route the row names."""
    cases = FAMILIES[row.family](row.n)
    hulls = _hulls_counted(monkeypatch) if row.hull_free else []
    got = [{m: MEASURES[row.route](c, m) for m in c.degrees or row.degrees} for c in cases]
    assert hulls == []
    monkeypatch.undo()
    nonzero, zero = 0, Measured.of_exact(0.0)
    for case, values in zip(cases, got):
        row.taken(case, values)
        for m, route in values.items():
            reference = MEASURES[row.reference](case, m)
            floor = np.ptp(case.body.vertices, axis=0).max() ** m if row.floor else 0.0
            assert len(route) == len(reference)
            for i, (a, b) in enumerate(zip(route, reference)):
                assert i not in case.equal and not (row.zeros and b == zero) or a == b, \
                    (i, m, a, b)
                assert _agree(a, b, row.tol, floor), (i, m, a, b)
                nonzero += _value(b) != 0.0
    assert nonzero >= row.nonzero * row.n


# ---------------------------------------------------------------------------
# the scaling table


class Scaling(NamedTuple):
    """``bodies()`` gives bodies and the signed permutation drawn after
    them, or None; ``builds`` make the dilates by ``scales``, and ``taken``
    asserts a dilate's route; ``nonzero`` and ``hull_free`` as in Row."""
    route: str
    family: str
    n: int
    bodies: Callable[[], tuple]
    degrees: tuple
    scales: tuple = (1e-8, 1e-3, 1e3, 1e8)
    builds: tuple = (_scaled_coordinates,)
    taken: Callable = lambda case, got: None
    nonzero: int = 0
    hull_free: bool = False


def _measure(route: str, body, degrees: tuple) -> dict:
    """{(call, axis, m): value}, keyed as _assert_homogeneous reads them."""
    call = {ANGLES: "vm", "vm_shadows": "projection", SECTIONS: "section"}[route]
    return {(call, i, m): v
            for m in degrees for i, v in enumerate(MEASURES[route](Case(body), m))}


def _signed(n: int, seed: int) -> tuple:
    """A polytope with 2n + 2 random points and a signed permutation
    (perm, signs)."""
    rng = np.random.default_rng(seed)
    body = convex_hull(rng.standard_normal((2 * n + 2, n)))
    return [body], (rng.permutation(n), rng.choice([-1.0, 1.0], n))


def _permuted(body, perm, signs):
    """The body whose axis j is axis perm[j] of body, times signs[j]."""
    if isinstance(body, Zonotope):
        return Zonotope(body.center[perm] * signs, body.generators[:, perm] * signs)
    return convex_hull(body.vertices[:, perm] * signs)


def _shadow_zonotopes(n: int) -> tuple:
    """A zonotope with a N(0, 1) center and n + 3 generators, and the
    signed permutation drawn after it."""
    rng = np.random.default_rng(90 + n)
    z = Zonotope(rng.standard_normal(n), rng.standard_normal((n + 3, n)))
    return [z], (rng.permutation(n), rng.choice([-1.0, 1.0], n))


def _vertex_clouds(n: int) -> tuple:
    """Clouds with the point 5 e_0, for n > 3 one more on the x_0 axis, and
    one on a random plane."""
    rng, out = np.random.default_rng(7), []
    for _ in range(10):
        cloud = rng.standard_normal((2 * n + 4, n))
        cloud[0] = 0.0
        cloud[0, 0] = 5.0
        if n > 3:
            cloud[1, 1:] = 0.0
        cloud[2, rng.integers(0, n)] = 0.0
        out.append(convex_hull(cloud))
    return out, None


def _random_polytopes(n: int) -> tuple:
    """A hull of 14 random points in R^4, of 2n + 2 in R^5 and R^6."""
    rng = np.random.default_rng(RNG_SEED)
    return [random_polytope(rng, n, 14 if n == 4 else 2 * n + 2)], None


def _scalings(route, family, ns, bodies, degrees=_top, **kw) -> list:
    return [Scaling(route, family, n, partial(bodies, n), degrees(n), **kw) for n in ns]


SCALING_ROWS = (
    _scalings(ANGLES, "random_polytopes", (4, 5, 6), _random_polytopes, _low, scales=(1e-8, 1e8))
    + _scalings("vm_shadows", "signed_polytopes", N, lambda n: _signed(n, 20 + n))
    # no vertex lies on a plane, though at 1e-8 some lie within 1e-10 of one (n = 5, 6)
    + _scalings(SECTIONS, "signed_polytopes", N, lambda n: _signed(n, 30 + n), hull_free=True,
                nonzero=2)
    + _scalings("vm_shadows", "signed_zonotopes", (3, 5, 8), _shadow_zonotopes, _below)
    # the hulled cuts of these sections, with their absolute tolerances,
    # are up to 2.35e-2 off at 1e-8
    + _scalings(SECTIONS, "vertex_clouds", N, _vertex_clouds, _faces,
                scales=(1e-8, 1e-6, 1e6, 1e8), nonzero=15)
    + _scalings(SECTIONS, "signed_clouds", range(4, 7), lambda n: _signed(n, 50 + n), _ridge,
                scales=(1e-8, 1e-4, 1e4, 1e8), builds=(scale_body, _scaled_coordinates),
                taken=_ridges, hull_free=True, nonzero=1)
    + _scalings(SECTIONS, "generic_zonotopes", N, lambda n: (_generic_zonotopes(n), None), _faces,
                scales=(1e-8, 1e8), builds=(scale_body, _scaled_coordinates), taken=_facets,
                hull_free=True)
    + _scalings(SECTIONS, "centered_zonotopes", N, _centered_zonotopes, _faces,
                scales=(1e-8, 1e8), builds=(scale_body, _scaled_coordinates), taken=_facets,
                hull_free=True)
)


@pytest.mark.parametrize("row", SCALING_ROWS, ids=lambda r: f"{r.route}-{r.family}-{r.n}")
def test_scaling(row, monkeypatch):
    """V_m of each dilate is lam^m times the body's, exact, within 1e-12,
    and a signed permutation permutes the values."""
    bodies, signed = row.bodies()
    hulls = _hulls_counted(monkeypatch) if row.hull_free else []
    base = [_measure(row.route, body, row.degrees) for body in bodies]
    for body, values in zip(bodies, base):
        for lam, build in product(row.scales, row.builds):
            scaled = build(body, lam)
            _assert_homogeneous(values, lam, _measure(row.route, scaled, row.degrees))
            row.taken(Case(scaled), {})
        if signed is not None:
            image = _measure(row.route, _permuted(body, *signed), row.degrees)
            _assert_homogeneous(values, 1.0, {}, image=image, perm=signed[0])
    assert hulls == []
    assert sum(v.value != 0.0 for values in base for v in values.values()) >= row.nonzero * row.n


def test_every_route_has_rows():
    """ROUTES names functions of convexiq.measures; each has a row, and
    every row's route is one of them."""
    assert [name for name in ROUTES if not inspect.isfunction(getattr(measures, name, None))] == []
    named = {row.route for row in ROUTE_ROWS + SCALING_ROWS}
    assert [name for name in ROUTES if name not in named] == []
    assert sorted(named - set(ROUTES)) == []
