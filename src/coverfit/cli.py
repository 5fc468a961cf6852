"""Batch command line front end.

Exit codes: 0 success, 2 search did not converge or a record failed
verification, 3 invalid input.  All outputs are JSON (records, bracket
lists, bounds reports) except the dense scan table, which is CSV for
plotting.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from .bodies import load_body, make_ball, make_perturbed_ball, make_reuleaux_polygon, save_body
from .errors import CoverfitError, InputError
from .polytopes import PRESET_NAMES, preset, resolve_polytope, save_polytope, load_polytope
from .records import build_solve_record, digest_inputs, load_record, verify_record, write_record
from .search import SearchConfig, minimize, scan_2d, scan_residual_2d
from . import topology

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_BAD_INPUT = 3


def cmd_gen_body(args: argparse.Namespace) -> int:
    if args.kind == "ball":
        body = make_ball(args.dim)
    elif args.kind == "reuleaux_polygon":
        if args.dim != 2:
            raise InputError("reuleaux_polygon bodies are two dimensional")
        body = make_reuleaux_polygon(args.k, args.phase)
    elif args.kind == "perturbed_ball":
        body = make_perturbed_ball(args.dim, args.degree, args.epsilon, args.seed)
    else:
        raise InputError(f"unknown kind {args.kind!r}")
    save_body(body, args.out)
    print(f"wrote {args.kind} body to {args.out}")
    if body.perturbation is not None and body.perturbation.epsilon < args.epsilon:
        print(f"note: epsilon shrunk from {args.epsilon} to {body.perturbation.epsilon}", file=sys.stderr)
    return EXIT_OK


def cmd_make_polytope(args: argparse.Namespace) -> int:
    if args.preset is not None:
        P = preset(args.preset)
    else:
        P = load_polytope(args.normals)
    save_polytope(P, args.out)
    flag = " (beyond the covering bound)" if P.beyond_theorem_bound else ""
    print(f"wrote polytope with {P.n_facets} facets to {args.out}{flag}")
    return EXIT_OK


def _load_inputs(args: argparse.Namespace):
    body = load_body(args.body)
    source = args.polytope if args.polytope is not None else args.preset
    P = resolve_polytope(source)
    return body, P, digest_inputs(body, P, body_file=args.body, polytope_source=source)


def cmd_solve(args: argparse.Namespace) -> int:
    body, P, digests = _load_inputs(args)
    cfg = SearchConfig(
        restarts=args.restarts, tol=args.tol, max_iters=args.max_iters, seed=args.seed
    )
    t0 = time.perf_counter()
    outcome = minimize(body, P, cfg)
    wall = time.perf_counter() - t0
    record = build_solve_record(body, P, cfg, outcome, wall, input_digests=digests)
    if args.out:
        write_record(record, args.out)
    print(json.dumps(record["outcome"], indent=2, sort_keys=True))
    if P.beyond_theorem_bound:
        print("note: polytope exceeds the covering bound; no zero is guaranteed", file=sys.stderr)
    return EXIT_OK if outcome.converged else EXIT_NOT_CONVERGED


def cmd_verify(args: argparse.Namespace) -> int:
    record = load_record(args.record)
    result = verify_record(record)
    print(f"{'ok' if result.matches else 'MISMATCH'}: {result.detail}")
    return EXIT_OK if result.matches else EXIT_NOT_CONVERGED


def cmd_scan2d(args: argparse.Namespace) -> int:
    body = load_body(args.body)
    P = resolve_polytope(args.preset)
    brackets = scan_2d(body, P, args.samples)
    if args.csv:
        thetas, values = scan_residual_2d(body, P, args.samples)
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["angle", "residual"])
            for t, v in zip(thetas[: args.samples], values[: args.samples]):
                writer.writerow([repr(float(t)), repr(float(v))])
    print(json.dumps([b.to_dict() for b in brackets], indent=2, sort_keys=True))
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.dim % 2 != 0:
        raise InputError("even dimensions only")
    report = topology.bounds_report(args.dim)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_presets_list(args: argparse.Namespace) -> int:
    rows = []
    for name in PRESET_NAMES:
        P = preset(name)
        rows.append(
            {
                "name": name,
                "dim": P.dim,
                "strips": P.n_strips,
                "facets": P.n_facets,
                "beyond_theorem_bound": P.beyond_theorem_bound,
            }
        )
    print(json.dumps(rows, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coverfit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-body", help="generate a constant-width body file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--kind", required=True, choices=["ball", "reuleaux_polygon", "perturbed_ball"])
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--phase", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_body)

    p = sub.add_parser("make-polytope", help="write a validated polytope file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=list(PRESET_NAMES))
    group.add_argument("--normals", help="JSON file with dim and strip_normals")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_polytope)

    p = sub.add_parser("solve", help="search for a circumscribing congruence")
    p.add_argument("--body", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--polytope", help="polytope file (or preset name)")
    group.add_argument("--preset", choices=list(PRESET_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument("--out", help="write the run record here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="recompute a stored record and compare")
    p.add_argument("--record", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan2d", help="brute-force angle scan of the scalar residual")
    p.add_argument("--body", required=True)
    p.add_argument("--preset", default="hexagon2d", help="polytope preset or file")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--csv", help="write (angle, residual) rows here")
    p.set_defaults(func=cmd_scan2d)

    p = sub.add_parser("bounds", help="index and facet bounds for an even dimension")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("presets-list", help="list built-in polytopes")
    p.set_defaults(func=cmd_presets_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags; map to the invalid-input code
        return EXIT_BAD_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except CoverfitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
