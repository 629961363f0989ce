"""Command-line front end.

Subcommands:
  fit       fit a spline path through waypoints and write it as JSON
  check     validate path assumptions (smoothness, framing) and report
  project   closest-point table for query outputs against a path
  dlambda   allowable descent-window table for a path segment
  run       execute a closed-loop scenario, write CSV log + JSON summary
  portrait  zero-dynamics phase portrait for the planar 3R plant

Exit codes: 0 success, 1 validation failure, 2 runtime failure (any
library error raised during a control period, or a numerical failure).
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import control, curves, dynamics, projection, sim
from .errors import NumericalFailure, SplineFollowError, from_json, integer, reals


def _load_json(path):
    with open(path) as f:
        return json.load(f)


def _cmd_fit(args):
    data = _load_json(args.waypoints)
    path = from_json("waypoints file", lambda waypoints, closed=False:
                     curves.fit_spline(waypoints, closed, args.smoothness_order), data)
    with open(args.out, "w") as f:
        json.dump(path.to_dict(), f, indent=2)
    print(f"fit {len(data['waypoints'])} waypoints -> {path.n_segments} segments "
          f"-> {args.out}")
    return 0


def _cmd_check(args):
    path = curves.SplinePath.from_dict(_load_json(args.path))
    report = curves.check_assumptions(path, grid_density=args.grid_density)
    out = {
        "smooth_ok": bool(report.smooth_ok),
        "worst_junction_error": float(report.worst_junction_error),
        "framed_ok": bool(report.framed_ok),
        "min_gram_determinant": float(report.min_gram_determinant),
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_project(args):
    path = curves.SplinePath.from_dict(_load_json(args.path))
    queries = reals("queries", _load_json(args.queries), (None, None))
    rows = []
    for y in queries:
        st = projection.global_initialize(path, y)
        sigma = path.evaluate(st.k_star, st.lambda_star, 0)
        rows.append(
            [st.k_star, st.lambda_star, float(np.linalg.norm(y - sigma))]
        )
    sim.write_table(args.out or sys.stdout, rows, "k_star,lambda_star,distance")
    return 0


def _cmd_dlambda(args):
    path = curves.SplinePath.from_dict(_load_json(args.path))
    lam, delta, dmin = projection.allowable_delta_lambda(
        path, args.segment, samples=args.samples
    )
    sim.write_table(args.out or sys.stdout, np.column_stack([lam, delta]),
                    "lambda_star,delta_lambda")
    print(f"minimum delta over segment {args.segment}: {dmin:.6g}",
          file=sys.stderr)
    return 0


def _cmd_run(args):
    scenario = sim.Scenario.from_file(args.scenario)
    overrides = {"duration": args.duration, "dt": args.dt}
    scenario = dataclasses.replace(   # validates the overridden scenario
        scenario, **{k: v for k, v in overrides.items() if v is not None})
    log = sim.run(scenario)
    log.to_csv(args.out)
    summary = log.summary()
    summary_file = args.summary or (args.out + ".summary.json")
    with open(summary_file, "w") as f:
        json.dump(summary, f, indent=2)
    print(f"run '{scenario.name}': {len(log.t)} steps -> {args.out}")
    return 0


def _cmd_portrait(args):
    system = dynamics.make_example2(
        damping=tuple(args.damping) if args.damping else (2.0, 2.0, 2.0)
    )
    radius = args.radius
    path = curves.circle_path(radius, span=(-np.pi * radius, np.pi * radius))
    q0 = sim.ik_planar3r((radius, 0.0), 0.0)
    width = args.joint_window
    limits = dynamics.Limits(
        q_min=q0 - width, q_max=q0 + width,
        u_min=[-args.u_max] * 3, u_max=[args.u_max] * 3,
    )
    gains = control.OuterLoopGains(
        tangential_mode="position", K_P=20.0, K_D=9.0,
        eta1_ref=np.pi * radius, xi_Kp=(40.0,), xi_Kd=(13.0,),
    )
    n = integer("grid", args.grid, 1)
    z1 = np.linspace(args.zeta1_min, args.zeta1_max, n)
    z2 = np.linspace(args.zeta2_min, args.zeta2_max, n)
    g1, g2 = np.meshgrid(z1, z2)
    grid = np.column_stack([g1.ravel(), g2.ravel()])
    portrait = sim.zero_dynamics_portrait(
        system, path, gains, grid, limits=limits,
        eta1_ref=np.pi * radius, sim_duration=args.duration,
    )
    sim.portrait_to_files(portrait, args.out, args.equilibria)
    print(f"portrait: {len(grid)} grid points, "
          f"{len(portrait.equilibria)} equilibria -> {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="splinefollow",
        description="Spline path following for redundant mechanical systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a spline path through waypoints")
    p.add_argument("--waypoints", required=True,
                   help="JSON file: {waypoints: [[...]], closed: bool}")
    p.add_argument("--out", required=True, help="output path JSON")
    p.add_argument("--smoothness-order", type=int, default=4)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("check", help="validate path assumptions")
    p.add_argument("path", help="path JSON file")
    p.add_argument("--grid-density", type=int, default=64)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("project", help="closest-point table for queries")
    p.add_argument("path", help="path JSON file")
    p.add_argument("--queries", required=True,
                   help="JSON array of output-space points")
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("dlambda", help="allowable descent-window table")
    p.add_argument("path", help="path JSON file")
    p.add_argument("--segment", type=int, default=0)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_dlambda)

    p = sub.add_parser("run", help="execute a closed-loop scenario")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--out", required=True, help="output log CSV")
    p.add_argument("--summary", help="summary JSON (default: <out>.summary.json)")
    p.add_argument("--duration", type=float)
    p.add_argument("--dt", type=float)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("portrait", help="3R zero-dynamics phase portrait")
    p.add_argument("--out", required=True, help="flows CSV")
    p.add_argument("--equilibria", required=True, help="equilibria JSON")
    p.add_argument("--grid", type=int, default=10)
    p.add_argument("--radius", type=float, default=2.2)
    p.add_argument("--u-max", type=float, default=10.0)
    p.add_argument("--joint-window", type=float, default=1.0)
    p.add_argument("--zeta1-min", type=float, default=-0.6)
    p.add_argument("--zeta1-max", type=float, default=1.25)
    p.add_argument("--zeta2-min", type=float, default=-0.8)
    p.add_argument("--zeta2-max", type=float, default=0.8)
    p.add_argument("--duration", type=float, default=5.0)
    p.add_argument("--damping", type=float, nargs=3)
    p.set_defaults(func=_cmd_portrait)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SplineFollowError, FileNotFoundError, KeyError, ValueError) as exc:
        if isinstance(exc, NumericalFailure) or getattr(exc, "time", None) is not None:
            print(f"runtime failure: {exc}", file=sys.stderr)
            return 2
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
