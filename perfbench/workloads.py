"""The four benchmark workloads.

Each workload makes its inputs from a seed during set-up, then runs
*rounds*: fixed batches of ops with the same composition every time, so
every run sees the same mix.  Every op is one call into the
library's public interface (``inequalities.evaluate``, ``cli.main``,
``coordops.g_symmetral``, ``explorer.*``); its result is checked, and
each round's canonical artifacts are hashed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import math
import shutil
from pathlib import Path

import numpy as np

from convexiq import (bodies, cli, coordops, explorer, inequalities, io,
                      quadrature, symmetry)

C0 = math.acos(1.0 / 3.0) / math.pi          # sharp 3-d width-ratio constant
PROB5_C3 = 1.2 * 24.0 * math.sqrt(3.0) / 512.0   # 1.2x the cross-polytope value
# Largest width-ratio drift between a body and its sign-symmetral
# (criterion 9's tolerance); V_1 is invariant under the group average.
DRIFT_TOL = 1e-6


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sign_cloud(base: np.ndarray) -> np.ndarray:
    n = base.shape[1]
    signs = np.array(np.meshgrid(*([[-1.0, 1.0]] * n),
                                 indexing="ij")).reshape(n, -1).T
    return (base[:, None, :] * signs[None, :, :]).reshape(-1, n)


def _unconditional(rng, n: int, k: int = 4) -> bodies.VPolytope:
    return bodies.convex_hull(_sign_cloud(np.abs(rng.standard_normal((k, n))) + 0.1))


def _random_polytope(rng, n: int, k: int) -> bodies.VPolytope:
    return bodies.convex_hull(rng.standard_normal((k, n)))


def _random_zonotope(rng, n: int) -> bodies.Zonotope:
    return bodies.Zonotope(np.zeros(n), rng.standard_normal((n + 3, n)))


def _interleave(groups: list[list]) -> list:
    """Merge groups so that every prefix holds each group in proportion."""
    keyed = [((j + 0.5) / len(g), gi, item)
             for gi, g in enumerate(groups) for j, item in enumerate(g)]
    return [item for _, _, item in sorted(keyed, key=lambda t: t[:2])]


class Workload:
    """Base: subclasses define ``setup``, ``warmup`` and ``run_round``."""

    name = ""
    rounds = 1      # distinct rounds made at set-up; runs cycle through them
    # Nominal seconds per round on the 2-core machine the benchmark was
    # defined on.  It fixes how many rounds a run of --seconds makes, so
    # every commit does the same work.
    round_s = 1.0
    # Op kinds whose time goes to large arrays; run.HostClock scales them
    # by its ``stream`` kernel.
    STREAM_OPS: frozenset = frozenset()

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.tiny = tiny

    def rng(self, *key) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, *key]))

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run_round(self, r: int, runner) -> dict:
        """Run round ``r`` through ``runner``; return artifact digests."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# proven-corpus


class ProvenCorpus(Workload):
    """Acceptance criterion 7's 1000-body battery, as ``convexiq check``
    runs it: body/1 files read back, evaluated, reported.

    One round is a tenth of the corpus with the same group mix: 100
    bodies, 574 evaluations, 10 ``pythagorean`` directions.
    """

    name = "proven-corpus"
    rounds = 10
    round_s = 2.9
    EVALS_PER_ROUND = 574

    def _round_bodies(self, r: int):
        rng = self.rng(7, r)
        groups = []     # per body family: [(body, battery), ...]

        def pyth(n):
            return ("pythagorean", n - 1, {"u": [float(x) for x in rng.standard_normal(n)]})

        g = []
        for j in range(20):     # n = 3 polytopes: every listed bound is exact
            battery = [("bm_upper", None, {}), ("cg_upper", 1, {}),
                       ("cg_upper", 2, {}), ("square_lower", None, {}),
                       ("easy_bounds", 1, {}), ("trivmax", 2, {}),
                       ("reverse_cs", 1, {})]
            body = _random_polytope(rng, 3, int(rng.integers(5, 13)))
            if j % 10 in (0, 3, 6):
                battery.append(pyth(3))
            g.append((body, battery))
        groups.append(g)
        groups.append([(_random_zonotope(rng, 3),
                      [("zonoid_lower", 1, {}), ("bm_upper", None, {})])
                     for _ in range(14)])
        groups.append([(_unconditional(rng, 3),
                      [("square_lower", None, {}), ("bm_upper", None, {}),
                       ("trivmax", 1, {})]) for _ in range(6)])
        g = []
        for j in range(15):     # n = 4 polytopes: top-degree routes
            battery = [("bm_upper", None, {}), ("cg_upper", 3, {}),
                       ("square_lower", None, {}), ("easy_bounds", 3, {}),
                       ("trivmax", 3, {}), ("reverse_cs", 2, {})]
            body = _random_polytope(rng, 4, int(rng.integers(6, 14)))
            if j % 4 == 0:
                battery.append(pyth(4))
            g.append((body, battery))
        groups.append(g)
        groups.append([(_random_zonotope(rng, 4),
                      [("cg_upper", 1, {}), ("cg_upper", 2, {}),
                       ("zonoid_lower", 1, {}), ("zonoid_lower", 2, {}),
                       ("reverse_cs", 1, {}), ("easy_bounds", 2, {}),
                       ("trivmax", 1, {})]) for _ in range(15)])
        groups.append([(_random_polytope(rng, 5, int(rng.integers(7, 15))),
                      [("bm_upper", None, {}), ("cg_upper", 4, {}),
                       ("square_lower", None, {}), ("trivmax", 4, {}),
                       ("reverse_cs", 3, {})]) for _ in range(15)])
        g = []
        for j in range(15):     # n = 5 zonotopes; slab sections kept rare
            battery = [("cg_upper", 1, {}), ("cg_upper", 3, {}),
                       ("zonoid_lower", 1, {}), ("zonoid_lower", 2, {}),
                       ("zonoid_lower", 3, {}), ("reverse_cs", 1, {}),
                       ("reverse_cs", 3, {})]
            body = _random_zonotope(rng, 5)
            if j % 5 == 0:
                battery.append(("easy_bounds", 3, {}))
            g.append((body, battery))
        groups.append(g)
        return _interleave(groups)

    def setup(self) -> None:
        self.spec3 = quadrature.QuadratureSpec.for_dimension(3)
        corpus = self.workdir / "corpus"
        corpus.mkdir(parents=True, exist_ok=True)
        self.plan = []          # per round: [(path, battery), ...]
        total = pyth = 0
        for r in range(self.rounds):
            entries = []
            for i, (body, battery) in enumerate(self._round_bodies(r)):
                path = corpus / f"r{r:02d}-b{i:03d}.json"
                io.write_body(path, body)
                entries.append((path, battery))
                total += len(battery)
                pyth += sum(1 for b in battery if b[0] == "pythagorean")
            self.plan.append(entries[:8] if self.tiny else entries)
        if (total, pyth) != (self.EVALS_PER_ROUND * self.rounds, 10 * self.rounds):
            raise RuntimeError(f"corpus battery is {total} evaluations with "
                               f"{pyth} directions")
        self.out = self.workdir / "check"

    def warmup(self) -> None:
        path, battery = self.plan[0][0]
        body = io.read_body(path)
        for ineq_id, m, params in battery:
            inequalities.evaluate(ineq_id, body, m=m, params=params, spec=self.spec3)

    @staticmethod
    def _check(report) -> str | None:
        if report.satisfied:
            return None
        return (f"{report.status} bound {report.id} violated: slack "
                f"{report.oriented_slack:+.3e}")

    def run_round(self, r: int, runner) -> dict:
        plan = self.plan[r % self.rounds]
        entries = []
        for path, battery in plan:
            body = io.read_body(path)
            for ineq_id, m, params in battery:
                rep = runner.op("evaluate", self._check, inequalities.evaluate,
                                ineq_id, body, m=m, params=params, spec=self.spec3)
                if rep is not None:
                    entries.append((path.stem, rep))
        expected = sum(len(b) for _, b in plan)
        if len(entries) != expected:
            runner.problem(f"{len(entries)} reports for {expected} evaluations")
        self.out.mkdir(parents=True, exist_ok=True)
        io.write_report(self.out / "report.json", entries)
        io.write_report_csv(self.out / "report.csv", entries)
        return {name: _sha256(self.out / name) for name in ("report.json", "report.csv")}


# ---------------------------------------------------------------------------
# searches through the CLI


class _Search(Workload):
    """``cli.main(["search", ...])`` runs in-process; one op is one run.

    ``pairs`` maps a name to (config, weight): a round runs each pair
    ``weight`` times, each with its own seed derived from the workload seed.
    """

    pairs: dict = {}
    iterations = 40
    restarts = 2

    def setup(self) -> None:
        cfg_dir = self.workdir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        iterations = 3 if self.tiny else self.iterations
        restarts = 1 if self.tiny else self.restarts
        self.expected_evals = restarts * (iterations + 1)
        self.configs = {}
        order = []
        for name, (cfg, weight) in self.pairs.items():
            path = cfg_dir / f"{name}.json"
            path.write_text(json.dumps(dict(cfg, iterations=iterations,
                                            restarts=restarts)), encoding="utf-8")
            self.configs[name] = path
            order.append([name] * weight)
        self.order = _interleave(order)
        self.run_seeds = self.rng(11).integers(0, 2 ** 63, size=(self.rounds, len(self.order)))
        self.out = self.workdir / "search"

    def warmup(self) -> None:
        for name in self.configs:
            self._search(name, 0)

    def _search(self, name: str, run_seed: int) -> int:
        if self.out.exists():
            shutil.rmtree(self.out)
        argv = ["search", "--config", str(self.configs[name]),
                "--seed", str(int(run_seed)), "--out", str(self.out)]
        with contextlib.redirect_stdout(_stdio.StringIO()):
            return cli.main(argv)

    def _check(self, code: int) -> str | None:
        if code != 0:
            return f"search exited {code}"
        result = json.loads((self.out / "search-result.json").read_text(encoding="utf-8"))
        if result["evaluations"] != self.expected_evals:
            return f"{result['evaluations']} evaluations, expected {self.expected_evals}"
        return None

    def run_round(self, r: int, runner) -> dict:
        h = hashlib.sha256()
        seeds = self.run_seeds[r % self.rounds]
        for name, run_seed in zip(self.order, seeds):
            code = runner.op(f"search.{name}", self._check, self._search, name, run_seed)
            if code != 0:
                continue
            for path in sorted(self.out.iterdir()):
                h.update(path.name.encode())
                h.update(path.read_bytes())
        return {"search-artifacts": h.hexdigest()}


class SearchExact(_Search):
    """Many small bodies, each evaluated once, on exact measure routes."""

    name = "search-exact"
    rounds = 64
    round_s = 1.05
    # eq11_midrange runs twice per round so that the median op falls inside
    # one pair's latency group rather than on the edge between two.
    pairs = {
        "heron_n3": ({"problem": "heron_n3", "n": 3,
                      "family": "cross-perturbation"}, 1),
        "cg33": ({"problem": "cg33", "n": 4, "m": 2, "family": "zonotope"}, 1),
        "eq11_midrange": ({"problem": "eq11_midrange", "n": 6, "m": 2,
                           "family": "zonotope"}, 2),
        "prob5": ({"problem": "prob5", "n": 3, "m": 1,
                   "family": "unconditional-polytope", "constant": PROB5_C3}, 1),
    }


class SearchQuadrature(_Search):
    """The prob4 search on 4-d unconditional polytopes: V_1 by sphere
    quadrature, twice per evaluation."""

    name = "search-quadrature"
    rounds = 256
    round_s = 0.5
    iterations = 2
    restarts = 1
    STREAM_OPS = frozenset({"search.prob4"})
    pairs = {
        "prob4": ({"problem": "prob4", "n": 4, "m": 1,
                   "family": "unconditional-polytope", "constant": 1.0,
                   "quad_resolution": 64}, 1),
    }


# ---------------------------------------------------------------------------
# width-symmetral


class WidthSymmetral(Workload):
    """Acceptance criterion 9's mix: width ratios of 500 random 3-bodies,
    sign-symmetrals of 3-polytopes with 5, 6 and 8 vertices, support-ratio
    profiles of 100 symmetric bodies, and ``run_repro("all")``.

    g_symmetral's cost (3-11 s) and memory (1.2-2.1 GB) swing by a quarter
    with the shape of a random body, more than one run can average out.
    So each symmetral body is a fixed general-position configuration with
    k vertices, jittered by the seed: every seed's bodies differ, the
    work they make barely does (over seeds 101-110, the points hulled for
    the 5- and 6-vertex bodies varied by 0.3%).
    ``run_repro("all")`` runs at REPRO_EVERY-op intervals as a recurring
    correctness op.
    """

    name = "width-symmetral"
    rounds = 2
    round_s = 20.0
    RATIO_BODIES = 500
    ORBIT_BODIES = 96
    SYMMETRAL_VERTICES = (5, 6, 8)
    SYMMETRAL_JITTER = 1e-3
    STREAM_OPS = frozenset({"g_symmetral"})
    REPRO_EVERY = 50

    @staticmethod
    def _symmetral_base(k: int) -> np.ndarray:
        """The first standard-normal draw of k points in convex position."""
        attempt = 0
        while True:
            pts = np.random.default_rng(
                np.random.SeedSequence([20240809, k, attempt])).standard_normal((k, 3))
            if bodies.convex_hull(pts).vertex_count == k:
                return pts
            attempt += 1

    def _round_inputs(self, r: int):
        rng = self.rng(9, r)
        count = 10 if self.tiny else self.RATIO_BODIES
        ratio_bodies = []
        for i in range(count):
            if i % 5 == 4:
                ratio_bodies.append(_random_zonotope(rng, 3))
            elif i % 5 == 3:
                ratio_bodies.append(_unconditional(rng, 3))
            else:
                ratio_bodies.append(_random_polytope(rng, 3, int(rng.integers(4, 12))))
        mats = [g.matrix() for g in symmetry.hyperoctahedral_group(3)]
        orbit_bodies = []
        for _ in range(4 if self.tiny else self.ORBIT_BODIES):
            base = rng.standard_normal((int(rng.integers(1, 4)), 3)) * rng.uniform(0.5, 2.0)
            orbit_bodies.append(bodies.convex_hull(
                np.concatenate([base @ m.T for m in mats], axis=0)))
        orbit_bodies += [bodies.cube(3), bodies.cross_polytope(3), bodies.k1(), bodies.k2()]
        ks = (4,) if self.tiny else self.SYMMETRAL_VERTICES
        symmetral_bodies = [bodies.convex_hull(
            self._symmetral_base(k) + self.SYMMETRAL_JITTER * rng.standard_normal((k, 3)))
            for k in ks]
        return ratio_bodies, orbit_bodies, symmetral_bodies

    def setup(self) -> None:
        self.spec3 = quadrature.QuadratureSpec.for_dimension(3)
        self.group = [g.matrix() for g in symmetry.hyperoctahedral_group(3)]
        u = self.rng(9, 1 << 20).standard_normal((64, 3))
        self.directions = u / np.linalg.norm(u, axis=1, keepdims=True)
        self.inputs = [self._round_inputs(r) for r in range(self.rounds)]
        self.out = self.workdir / "width"
        self.out.mkdir(parents=True, exist_ok=True)

    def warmup(self) -> None:
        ratio_bodies, orbit_bodies, _ = self.inputs[0]
        explorer.mean_width_ratio(ratio_bodies[0], self.spec3)
        explorer.support_ratio_profile(orbit_bodies[0], points=64)
        explorer.run_repro("all")

    @staticmethod
    def _check_ratio(ratio: float) -> str | None:
        return None if ratio >= C0 - 1e-6 else f"width ratio {ratio!r} below c0"

    @staticmethod
    def _check_profile(prof) -> str | None:
        scale = max(1.0, float(np.max(np.abs(prof[:, 1]))))
        if np.all(np.diff(prof[:, 1]) >= -1e-6 * scale):
            return None
        return "support-ratio profile decreases"

    def _check_symmetral(self, body, sym) -> str | None:
        """The Minkowski average over the group has the averaged support
        function: h_sym(u) = mean over g of h_K(g^T u)."""
        u = self.directions
        h_avg = np.mean([np.max((u @ g) @ body.vertices.T, axis=1)
                         for g in self.group], axis=0)
        h_sym = np.max(u @ sym.vertices.T, axis=1)
        err = float(np.max(np.abs(h_sym - h_avg)))
        if err <= 1e-9 * max(1.0, float(np.max(np.abs(h_avg)))):
            return None
        return f"support function off the group average by {err:.3e}"

    def _check_symmetral_ratio(self, before: float, after: float) -> str | None:
        drift = abs(after - before)
        if drift > DRIFT_TOL:
            return f"symmetral moved the width ratio by {drift:.3e}"
        return self._check_ratio(after)

    @staticmethod
    def _check_repro(reports) -> str | None:
        bad = [rep.target for rep in reports if not rep.passed]
        return f"repro targets failed: {bad}" if bad else None

    def run_round(self, r: int, runner) -> dict:
        ratio_bodies, orbit_bodies, symmetral_bodies = self.inputs[r % self.rounds]
        results = {"ratios": [], "profiles": [], "repro": [], "drift": [],
                   "symmetral_vertices": []}

        def repro():
            reports = runner.op("run_repro", self._check_repro, explorer.run_repro, "all")
            results["repro"].append([[row.name, row.computed] for rep in reports or ()
                                     for row in rep.rows])

        def cheap_op(i, kind, body):
            if i % self.REPRO_EVERY == 0:
                repro()
            if kind == "ratio":
                results["ratios"].append(runner.op(
                    "mean_width_ratio", self._check_ratio,
                    explorer.mean_width_ratio, body, self.spec3))
            else:
                prof = runner.op("support_ratio_profile", self._check_profile,
                                 explorer.support_ratio_profile, body, points=64)
                results["profiles"].append(None if prof is None else prof[:, 1].tolist())

        def symmetral(body):
            sym = runner.op("g_symmetral", lambda sym: self._check_symmetral(body, sym),
                            coordops.g_symmetral, body)
            before = runner.op("mean_width_ratio", self._check_ratio,
                               explorer.mean_width_ratio, body, self.spec3)
            if sym is None or before is None:
                return
            after = runner.op(
                "mean_width_ratio",
                lambda ratio: self._check_symmetral_ratio(before, ratio),
                explorer.mean_width_ratio, sym, self.spec3)
            if after is None:
                return
            drift = abs(after - before)
            runner.note_max("symmetral_drift_max", drift)
            results["drift"].append(drift)
            results["symmetral_vertices"].append(sym.vertex_count)

        # The cheap ops run in chunks between the symmetrals, so their
        # latencies sample the whole round rather than its first second.
        cheap = _interleave([[("ratio", b) for b in ratio_bodies],
                             [("profile", b) for b in orbit_bodies]])
        cuts = np.linspace(0, len(cheap), len(symmetral_bodies) + 2).astype(int)
        for c in range(len(cuts) - 1):
            if c > 0:
                symmetral(symmetral_bodies[c - 1])
            for i in range(cuts[c], cuts[c + 1]):
                cheap_op(i, *cheap[i])
        path = self.out / "width-results.json"
        path.write_text(io.canonical_json(results), encoding="utf-8")
        return {"width-results.json": _sha256(path)}


WORKLOADS = {w.name: w for w in (ProvenCorpus, SearchExact, SearchQuadrature,
                                 WidthSymmetral)}
