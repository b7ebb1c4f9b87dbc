"""Signed permutations (the symmetry group of the cube) and their action
on bodies."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import bodies
from .bodies import Ball, Body, DiskHull, VPolytope, Zonotope, resolve
from .errors import InvalidArgument, UnsupportedOperation

# Full group enumeration is 2^n * n! elements; refuse beyond this.
MAX_ENUM_DIM = 6


@dataclass(frozen=True)
class SignedPermutation:
    """Coordinate permutation composed with sign flips.

    Acts on a vector by ``(g x)[i] = signs[i] * x[perm[i]]``.
    """

    perm: tuple
    signs: tuple

    def __post_init__(self):
        p = tuple(int(i) for i in self.perm)
        s = tuple(int(x) for x in self.signs)
        if sorted(p) != list(range(len(p))):
            raise InvalidArgument(f"not a permutation: {p}")
        if len(s) != len(p) or any(x not in (-1, 1) for x in s):
            raise InvalidArgument("signs must be +-1 and match the permutation length")
        object.__setattr__(self, "perm", p)
        object.__setattr__(self, "signs", s)

    @property
    def n(self) -> int:
        return len(self.perm)

    def apply(self, x) -> np.ndarray:
        v = bodies.as_vector(x, self.n)
        return np.array(self.signs, dtype=float) * v[list(self.perm)]

    def apply_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return pts[:, list(self.perm)] * np.array(self.signs, dtype=float)

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        for i, (j, s) in enumerate(zip(self.perm, self.signs)):
            m[i, j] = s
        return m


def hyperoctahedral_group(n: int) -> list[SignedPermutation]:
    """All 2^n n! signed permutations of R^n (n <= 6)."""
    if n > MAX_ENUM_DIM:
        raise UnsupportedOperation(
            f"full group enumeration refused for n={n} (cap {MAX_ENUM_DIM})")
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((-1, 1), repeat=n):
            out.append(SignedPermutation(perm, signs))
    return out


def random_signed_permutation(n: int, rng: np.random.Generator) -> SignedPermutation:
    perm = tuple(int(i) for i in rng.permutation(n))
    signs = tuple(int(s) for s in rng.choice((-1, 1), size=n))
    return SignedPermutation(perm, signs)


def apply_symmetry(body: Body, g: SignedPermutation) -> Body:
    """Image of a body under a signed permutation.

    Vertices map to vertices under any isometry, so polytopes only need
    re-canonicalization, not a fresh hull.
    """
    body = resolve(body)
    if g.n != body.n:
        raise InvalidArgument("signed permutation size does not match body dimension")
    if isinstance(body, VPolytope):
        return VPolytope(bodies._lexsorted(g.apply_points(body.vertices)))
    if isinstance(body, Zonotope):
        return Zonotope(g.apply(body.center), g.apply_points(body.generators))
    if isinstance(body, Ball):
        zeroed = frozenset(i for i in range(body.n) if g.perm[i] in body.zeroed)
        return Ball(g.apply(body.center), body.radius, zeroed)
    if isinstance(body, DiskHull):
        return body  # invariant under every signed permutation
    raise InvalidArgument(f"not a body: {type(body).__name__}")


def _defect_and_scale(body: Body, group_elements,
                      directions: np.ndarray) -> tuple[float, float]:
    """(max |h(g u) - h(u)|, max |h(u)|) over the supplied elements and
    directions."""
    body = resolve(body)
    worst = 0.0
    base = bodies.support_many(body, directions)
    for g in group_elements:
        moved = bodies.support_many(body, directions @ g.matrix().T)
        worst = max(worst, float(np.max(np.abs(moved - base))))
    return worst, float(np.max(np.abs(base)))


def invariance_defect(body: Body, group_elements, directions: np.ndarray) -> float:
    """max |h(g u) - h(u)| over the supplied elements and directions."""
    return _defect_and_scale(body, group_elements, directions)[0]


def _is_invariant(body: Body, group_elements, directions: np.ndarray,
                  tol: float) -> bool:
    """Whether the invariance defect is at most tol times max |h(u)| over
    the directions: relative, so a dilation of the body never changes
    the answer."""
    defect, scale = _defect_and_scale(body, group_elements, directions)
    return defect <= tol * scale


def is_signflip_invariant(body: Body, rng: np.random.Generator,
                          pairs: int = 16, tol: float = 1e-8) -> bool:
    """Support-function check of invariance under coordinate sign flips,
    relative to the body's size (see :func:`_is_invariant`)."""
    body = resolve(body)
    n = body.n
    dirs = rng.standard_normal((pairs, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    flips = []
    for _ in range(pairs):
        signs = tuple(int(s) for s in rng.choice((-1, 1), size=n))
        flips.append(SignedPermutation(tuple(range(n)), signs))
    return _is_invariant(body, flips, dirs, tol)


def is_group_invariant(body: Body, rng: np.random.Generator,
                       pairs: int = 16, tol: float = 1e-8) -> bool:
    """Support-function check of full signed-permutation invariance on
    random (element, direction) pairs, relative to the body's size (see
    :func:`_is_invariant`)."""
    body = resolve(body)
    n = body.n
    dirs = rng.standard_normal((pairs, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    elems = [random_signed_permutation(n, rng) for _ in range(pairs)]
    return _is_invariant(body, elems, dirs, tol)
