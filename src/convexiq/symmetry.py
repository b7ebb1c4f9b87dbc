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
        m[np.arange(self.n), list(self.perm)] = self.signs
        return m


def hyperoctahedral_group(n: int) -> list[SignedPermutation]:
    """All 2^n n! signed permutations of R^n (n <= 6)."""
    if n > MAX_ENUM_DIM:
        raise UnsupportedOperation(
            f"full group enumeration refused for n={n} (cap {MAX_ENUM_DIM})")
    return [SignedPermutation(perm, signs) for perm in itertools.permutations(range(n))
            for signs in itertools.product((-1, 1), repeat=n)]


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


def is_group_invariant(body: Body, rng: np.random.Generator) -> bool:
    """Support-function check of full signed-permutation invariance: 16
    random elements g, each on the same 16 random unit directions u, so
    256 (element, direction) pairs.  max |h(g u) - h(u)| must be at most
    1e-8 times max |h(u)| over the directions, relative to the body's
    size, so a dilation of the body never changes the answer.  The 16
    elements are drawn as two arrays, the permutations (row e acts as
    (g u)[i] = signs[e, i] u[perms[e, i]]) and then the signs, and the 16
    directions and their 256 images take one support call."""
    body = resolve(body)
    n = body.n
    dirs = rng.standard_normal((16, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    perms = rng.permuted(np.tile(np.arange(n), (16, 1)), axis=1)
    signs = rng.choice((-1.0, 1.0), size=(16, n))
    images = (dirs[:, perms].transpose(1, 0, 2) * signs[:, None, :]).reshape(-1, n)
    h = bodies.support_many(body, np.concatenate([dirs, images]))
    base, moved = h[:16], h[16:].reshape(16, 16)
    return float(np.max(np.abs(moved - base))) <= 1e-8 * float(np.max(np.abs(base)))
