"""Command-line front end: corpus generation, inequality checking,
numeric reproductions, randomized search, and equatorial support-ratio
sampling.

Exit codes: 0 success, 2 proven-inequality violation (numerical-defect
signal), 64 unknown id / invalid configuration, 65 parse error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import explorer, inequalities, io
from .errors import (InvalidArgument, ParseError, UndefinedValue,
                     UnsupportedMeasure, UnsupportedOperation)
from .explorer import SearchConfig
from .quadrature import QuadratureSpec

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_USAGE = 64
EXIT_PARSE = 65


def _quad_spec(args) -> QuadratureSpec | None:
    res = getattr(args, "quad_res", None)
    if res is None:
        return None
    return QuadratureSpec(resolution=res)


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# make


def cmd_make(args) -> int:
    spec = io.CorpusSpec(family=args.family, count=args.count, n=args.n,
                         seed=args.seed, size=args.size, scale=args.scale)
    out = _out_dir(args)
    bodies = io.generate_corpus(spec)
    for name, body in bodies:
        path = out / f"{name}.json"
        io.write_body(path, body)
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check


def _parse_float_list(raw: str, flag: str) -> list[float]:
    try:
        return [float(x) for x in raw.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise InvalidArgument(f"{flag} expects comma-separated reals") from exc


def _check_params(args, ineq_id: str) -> dict:
    """The given flags among the parameters the entry takes; vector
    parameters arrive as comma-separated strings."""
    params: dict = {}
    for name in inequalities.CATALOG[ineq_id].params:
        raw = getattr(args, name)
        if isinstance(raw, str):
            raw = _parse_float_list(raw, f"--{name}")
        if raw is not None:
            params[name] = raw
    return params


def cmd_check(args) -> int:
    ids = [s.strip() for s in args.ineq.split(",") if s.strip()]
    if not ids:
        raise InvalidArgument("no inequality ids given")
    known = inequalities.catalog_ids()
    for ineq_id in ids:
        if ineq_id not in known:
            print(f"unknown inequality id {ineq_id!r}", file=sys.stderr)
            print(f"known ids: {', '.join(known)}", file=sys.stderr)
            return EXIT_USAGE
    loaded = [(Path(p).stem, io.read_body(p)) for p in args.bodies]
    spec = _quad_spec(args)
    out = _out_dir(args)

    entries = []
    for name, body in loaded:
        for ineq_id in ids:
            needs_m = inequalities.CATALOG[ineq_id].needs_m
            report = inequalities.evaluate(
                ineq_id, body, m=args.m if needs_m else None,
                params=_check_params(args, ineq_id), spec=spec,
                tolerance=args.tolerance)
            entries.append((name, report))
            print(f"{name}: {report.summary_line()}")

    io.write_report(out / "report.json", entries)
    io.write_report_csv(out / "report.csv", entries)

    exit_code = EXIT_OK
    finding_idx = 0
    for name, report in entries:
        if report.satisfied:
            continue
        if report.status == inequalities.PROVEN:
            print(f"PROVEN inequality {report.id} violated on {name}: "
                  f"slack {report.oriented_slack:+.3e} — numerical defect",
                  file=sys.stderr)
            exit_code = EXIT_VIOLATION
        else:
            path = out / f"finding-{finding_idx:03d}.json"
            io.write_finding(
                path, inequality_id=report.id, params=report.params,
                slack=report.oriented_slack, tolerance=report.tolerance,
                lhs=report.lhs, rhs=report.rhs, body=report.body,
                context={"body": name, "status": report.status})
            print(f"{report.status} violation recorded: {path}")
            finding_idx += 1
    return exit_code


# ---------------------------------------------------------------------------
# repro


def cmd_repro(args) -> int:
    reports = explorer.run_repro(args.target)
    out = _out_dir(args)
    rows = []
    for rep in reports:
        print(rep.table())
        for row in rep.rows:
            rows.append([rep.target, row.name, repr(row.computed),
                         "" if row.reference is None else repr(row.reference),
                         "" if row.tolerance is None else repr(row.tolerance),
                         int(row.passed)])
    csv_path = out / "repro.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("target,name,computed,reference,tolerance,passed\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")
    print(f"wrote {csv_path}")
    if not all(rep.passed for rep in reports):
        print("reproduction mismatch — numerical defect", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# search


_CONFIG_KEYS = {f.name for f in fields(SearchConfig)}


def _load_search_config(path, seed_override, quad_override) -> SearchConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: search config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise InvalidArgument(
            f"unknown search config keys: {', '.join(sorted(unknown))}")
    if "problem" not in raw or "n" not in raw:
        raise InvalidArgument("search config needs at least 'problem' and 'n'")
    if seed_override is not None:
        raw["seed"] = seed_override
    if quad_override is not None:
        raw["quad_resolution"] = quad_override
    try:
        return SearchConfig(**raw)
    except TypeError as exc:
        raise InvalidArgument(f"bad search config: {exc}") from exc


def cmd_search(args) -> int:
    config = _load_search_config(args.config, args.seed, args.quad_res)
    result = explorer.search(config)
    out = _out_dir(args)

    for chunk in result.trajectory:
        idx, count, q0, q25, q50, q75, q100 = chunk
        last = min((idx + 1) * 1000, config.iterations) - 1
        print(f"iterations {idx * 1000}..{last} "
              f"({count} samples): slack quantiles {q0:+.6e} {q25:+.6e} "
              f"{q50:+.6e} {q75:+.6e} {q100:+.6e}")
    print(f"best oriented slack {result.best_slack:+.9e} "
          f"({result.evaluations} evaluations, "
          f"config {result.stamp['config_hash']})")

    finding_paths = []
    for idx, vio in enumerate(result.violations):
        path = out / f"finding-{idx:03d}.json"
        io.write_finding(
            path, inequality_id=vio.inequality_id, params=vio.params,
            slack=vio.slack, tolerance=vio.tolerance, lhs=vio.lhs,
            rhs=vio.rhs, body=vio.body,
            config=result.config.canonical_payload(),
            context={"restart": vio.restart, "iteration": vio.iteration})
        finding_paths.append(str(path.name))
        print(f"violation witness recorded: {path}")

    payload = {
        "schema": "search-result/1",
        "config": result.config.canonical_payload(),
        "stamp": result.stamp,
        "best_slack": result.best_slack,
        "best_body": io.body_payload(result.best_body),
        "best_report": io.report_payload(result.best_report),
        "evaluations": result.evaluations,
        "trajectory": [list(chunk) for chunk in result.trajectory],
        "findings": finding_paths,
    }
    result_path = out / "search-result.json"
    with open(result_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(io.canonical_json(payload))

    traj_path = out / "trajectory.csv"
    with open(traj_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("chunk,count,q0,q25,q50,q75,q100\n")
        for chunk in result.trajectory:
            fh.write(",".join(repr(x) for x in chunk) + "\n")
    print(f"wrote {result_path}")
    print(f"wrote {traj_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# jcurve


def cmd_jcurve(args) -> int:
    body = io.read_body(args.body)
    profile = explorer.support_ratio_profile(body, points=args.points)
    out_path = Path(args.out or "jcurve.csv")
    if out_path.parent and not out_path.parent.exists():
        out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x2,ratio\n")
        for x2, val in profile:
            fh.write(f"{float(x2)!r},{float(val)!r}\n")
    diffs = np.diff(profile[:, 1])
    scale = max(1.0, float(np.max(np.abs(profile[:, 1]))))
    monotone = bool(np.all(diffs >= -1e-6 * scale))
    print(f"sampled {len(profile)} points on [0, 1/sqrt(2)]; "
          f"ratio range [{profile[:, 1].min():.9f}, {profile[:, 1].max():.9f}]; "
          f"nondecreasing: {monotone}")
    print(f"wrote {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to exit 64
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="convexiq",
                     description="Coordinate projection/section inequality lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_make = sub.add_parser("make", help="generate a deterministic body corpus")
    p_make.add_argument("--family", required=True, choices=io.CORPUS_FAMILIES)
    p_make.add_argument("--count", type=int, required=True)
    p_make.add_argument("--n", type=int, required=True)
    p_make.add_argument("--seed", type=int, default=0)
    p_make.add_argument("--size", type=int, default=None,
                        help="vertices / generators per body")
    p_make.add_argument("--scale", type=float, default=1.0)
    p_make.add_argument("--out", default=".")
    p_make.set_defaults(func=cmd_make)

    p_check = sub.add_parser("check", help="evaluate catalog inequalities on bodies")
    p_check.add_argument("--ineq", required=True,
                         help="comma-separated inequality ids")
    p_check.add_argument("--bodies", nargs="+", required=True,
                         help="body/1 JSON files")
    p_check.add_argument("--m", type=int, default=None)
    for name, rule in inequalities.PARAM_RULES.items():
        takers = [e.id for e in inequalities.CATALOG.values() if name in e.params]
        p_check.add_argument(
            f"--{name}", type=float if rule.scalar else str, default=None,
            help=f"{'' if rule.scalar else 'comma-separated '}parameter of "
                 f"{', '.join(takers)}")
    p_check.add_argument("--tolerance", type=float, default=None)
    p_check.add_argument("--quad-res", type=int, default=None)
    p_check.add_argument("--out", default=".")
    p_check.set_defaults(func=cmd_check)

    p_repro = sub.add_parser("repro", help="reproduce the published numerics")
    p_repro.add_argument("target",
                         choices=explorer.REPRO_TARGETS + ("all",))
    p_repro.add_argument("--out", default=".")
    p_repro.set_defaults(func=cmd_repro)

    p_search = sub.add_parser("search",
                              help="randomized search on an open problem")
    p_search.add_argument("--config", required=True, help="search config JSON")
    p_search.add_argument("--seed", type=int, default=None,
                          help="override the config seed")
    p_search.add_argument("--quad-res", type=int, default=None,
                          help="sphere-quadrature resolution; only V_1 of "
                               "polytopes of dimension >= 5 uses it")
    p_search.add_argument("--out", default=".")
    p_search.set_defaults(func=cmd_search)

    p_jcurve = sub.add_parser(
        "jcurve", help="sample the equatorial support ratio of a 3-body")
    p_jcurve.add_argument("--body", required=True, help="body/1 JSON file")
    p_jcurve.add_argument("--points", type=int, default=explorer.J_GRID_POINTS)
    p_jcurve.add_argument("--out", default=None, help="output CSV path")
    p_jcurve.set_defaults(func=cmd_jcurve)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return EXIT_OK if code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InvalidArgument, UnsupportedMeasure, UnsupportedOperation,
            UndefinedValue) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
