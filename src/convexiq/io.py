"""Serialization of bodies, reports, and findings, plus deterministic
corpus generation.

All JSON artifacts are canonical: sorted keys, two-space indent, a
trailing newline, and shortest round-trip float repr — reading a file
and writing it back is byte-identical, and reruns under the same seed
produce identical bytes (no timestamps anywhere).
"""
from __future__ import annotations

import csv
import io as _stdio
import json
import platform
import sys
from dataclasses import dataclass

import numpy as np
import scipy

from .bodies import (MAX_DIM, MIN_DIM, Ball, Body, DiskHull, NamedBody,
                     VPolytope, Zonotope, convex_hull, unconditional_hull)
from .errors import InvalidArgument, ParseError

BODY_SCHEMA = "body/1"
REPORT_SCHEMA = "report/1"
FINDING_SCHEMA = "finding/1"


# ---------------------------------------------------------------------------
# canonical JSON


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


def _float_list(arr) -> list:
    a = np.asarray(arr, dtype=float)
    if a.ndim == 1:
        return [float(x) for x in a]
    return [[float(x) for x in row] for row in a]


# ---------------------------------------------------------------------------
# body serialization


# Named and disk-hull payloads carry a fixed "fineness": 256, which no
# measure reads, so that body/1 files keep their bytes; readers ignore it.
def body_payload(body: Body) -> dict:
    if isinstance(body, NamedBody):
        return {"schema": BODY_SCHEMA, "kind": "named",
                "name": body.name, "dimension": body.n, "fineness": 256}
    if isinstance(body, VPolytope):
        return {"schema": BODY_SCHEMA, "kind": "polytope",
                "vertices": _float_list(body.vertices)}
    if isinstance(body, Zonotope):
        return {"schema": BODY_SCHEMA, "kind": "zonotope",
                "center": _float_list(body.center),
                "generators": _float_list(body.generators)}
    if isinstance(body, Ball):
        return {"schema": BODY_SCHEMA, "kind": "ball",
                "center": _float_list(body.center),
                "radius": float(body.radius),
                "zeroed": sorted(int(i) for i in body.zeroed)}
    if isinstance(body, DiskHull):
        return {"schema": BODY_SCHEMA, "kind": "disk-hull", "fineness": 256}
    raise InvalidArgument(f"not a serializable body: {type(body).__name__}")


def dumps_body(body: Body) -> str:
    return canonical_json(body_payload(body))


def body_from_payload(payload, context: str = "<payload>") -> Body:
    if not isinstance(payload, dict):
        raise ParseError(f"{context}: body payload must be a JSON object")
    schema = payload.get("schema")
    if schema != BODY_SCHEMA:
        raise ParseError(f"{context}: unsupported schema {schema!r} "
                         f"(expected {BODY_SCHEMA!r})")
    kind = payload.get("kind")
    try:
        if kind == "named":
            return NamedBody(str(payload["name"]), int(payload["dimension"]))
        if kind == "polytope":
            verts = np.asarray(payload["vertices"], dtype=float)
            return VPolytope(verts)
        if kind == "zonotope":
            return Zonotope(np.asarray(payload["center"], dtype=float),
                            np.asarray(payload["generators"], dtype=float))
        if kind == "ball":
            return Ball(np.asarray(payload["center"], dtype=float),
                        float(payload["radius"]),
                        frozenset(int(i) for i in payload.get("zeroed", ())))
        if kind == "disk-hull":
            return DiskHull()
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, InvalidArgument) as exc:
        raise ParseError(f"{context}: malformed {kind!r} body: {exc}") from exc
    raise ParseError(f"{context}: unknown body kind {kind!r}")


def loads_body(text: str, context: str = "<string>") -> Body:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{context}: invalid JSON: {exc}") from exc
    return body_from_payload(payload, context)


def write_body(path, body: Body) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_body(body))


def read_body(path) -> Body:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return loads_body(text, context=str(path))


# ---------------------------------------------------------------------------
# environment fingerprint (versions only — reruns must be byte-identical)


def environment_fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": sys.platform,
    }


# ---------------------------------------------------------------------------
# reports


def report_payload(report) -> dict:
    return {
        "id": report.id,
        "params": report.params,
        "n": report.n,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "oriented_slack": report.oriented_slack,
        "tolerance": report.tolerance,
        "satisfied": report.satisfied,
        "equality_flag": report.equality_flag,
        "status": report.status,
        "quadrature_error": report.quadrature_error,
        "body_fingerprint": report.body_fingerprint,
        "warnings": list(report.warnings),
        "links": [{"name": nm, "lhs": lh, "rhs": rh, "slack": sl}
                  for nm, lh, rh, sl in report.links],
    }


def dumps_report(entries) -> str:
    """entries: iterable of (body name, IneqReport)."""
    payload = {
        "schema": REPORT_SCHEMA,
        "environment": environment_fingerprint(),
        "reports": [dict(report_payload(rep), body=name)
                    for name, rep in entries],
    }
    return canonical_json(payload)


def write_report(path, entries) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_report(entries))


REPORT_CSV_COLUMNS = ("body", "inequality", "params", "n", "lhs", "rhs",
                      "oriented_slack", "tolerance", "satisfied",
                      "equality_flag", "status")


def report_csv_text(entries) -> str:
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_CSV_COLUMNS)
    for name, rep in entries:
        params = json.dumps(rep.params, sort_keys=True)
        writer.writerow([name, rep.id, params, rep.n,
                         repr(rep.lhs), repr(rep.rhs),
                         repr(rep.oriented_slack), repr(rep.tolerance),
                         int(rep.satisfied), rep.equality_flag, rep.status])
    return buf.getvalue()


def write_report_csv(path, entries) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report_csv_text(entries))


# ---------------------------------------------------------------------------
# findings


def finding_payload(*, inequality_id: str, params: dict, slack: float,
                    tolerance: float, lhs: float, rhs: float, body: Body,
                    config: dict | None = None, context: dict | None = None) -> dict:
    payload = {
        "schema": FINDING_SCHEMA,
        "inequality": inequality_id,
        "params": params,
        "lhs": lhs,
        "rhs": rhs,
        "slack": slack,
        "tolerance": tolerance,
        "witness": body_payload(body),
        "environment": environment_fingerprint(),
    }
    if config is not None:
        payload["config"] = config
    if context is not None:
        payload["context"] = context
    return payload


def dumps_finding(**kwargs) -> str:
    return canonical_json(finding_payload(**kwargs))


def write_finding(path, **kwargs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_finding(**kwargs))


def load_finding(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: a finding must be a JSON object")
    if payload.get("schema") != FINDING_SCHEMA:
        raise ParseError(f"{path}: unsupported schema {payload.get('schema')!r}")
    return payload


# ---------------------------------------------------------------------------
# corpus generation


CORPUS_FAMILIES = ("random-polytope", "random-zonotope", "unconditional",
                   "named")


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic recipe for a batch of bodies."""

    family: str
    count: int
    n: int
    seed: int
    size: int | None = None     # vertices / generators / base points
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in CORPUS_FAMILIES:
            raise InvalidArgument(
                f"unknown corpus family {self.family!r}; "
                f"known: {', '.join(CORPUS_FAMILIES)}")
        if self.count < 1:
            raise InvalidArgument("count must be >= 1")
        if not MIN_DIM <= self.n <= MAX_DIM:
            raise InvalidArgument(f"n must lie in [{MIN_DIM}, {MAX_DIM}]")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise InvalidArgument("seed must be an unsigned 64-bit integer")
        if self.size is not None and self.size < 1:
            raise InvalidArgument("size must be >= 1 when given")
        if not (self.scale > 0 and np.isfinite(self.scale)):
            raise InvalidArgument("scale must be positive and finite")
        object.__setattr__(self, "count", int(self.count))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "seed", int(self.seed))
        if self.size is not None:
            object.__setattr__(self, "size", int(self.size))
        object.__setattr__(self, "scale", float(self.scale))


def _default_size(spec: CorpusSpec) -> int:
    if spec.family == "random-polytope":
        return 2 * spec.n + 4
    return spec.n + 3  # generators / base points


def generate_corpus(spec: CorpusSpec) -> list[tuple[str, Body]]:
    """Expand a corpus spec into (name, body) pairs, deterministically."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    size = spec.size or _default_size(spec)
    out: list[tuple[str, Body]] = []
    if spec.family == "named":
        available = [("cross", NamedBody("cross", spec.n)),
                     ("cube", NamedBody("cube", spec.n))]
        if spec.n == 3:
            available += [("K1", NamedBody("K1", 3)),
                          ("K2", NamedBody("K2", 3))]
        return available[:spec.count]
    for idx in range(spec.count):
        name = f"{spec.family}-{spec.n}d-{idx:03d}"
        if spec.family == "random-polytope":
            pts = spec.scale * rng.standard_normal((size, spec.n))
            out.append((name, convex_hull(pts)))
        elif spec.family == "random-zonotope":
            gens = spec.scale * rng.standard_normal((size, spec.n))
            out.append((name, Zonotope(np.zeros(spec.n), gens)))
        else:  # unconditional
            base = spec.scale * (np.abs(rng.standard_normal((size, spec.n))) + 0.1)
            out.append((name, unconditional_hull(base)))
    return out
