"""Command line surface.

Subcommands read a scene file and emit JSON (default) or prose (--human).
Exit codes: 0 success, 1 verification failure, 2 input or parse error,
3 construction failure.  The environment variable AVOIDANCE_SEED overrides
the default sampling seed; an explicit --seed wins over both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .arrangement import RealSubspace, classify, realify
from .curves import (
    ConstructionError,
    witness_constant_projection,
    witness_dim4_subspace,
    witness_three_hyperplanes,
)
from .diagonals import enumerate_diagonals
from .projective import ComplexHyperplane, dependent_subset
from .scene import (
    COMPLEX_VARS,
    ParseError,
    Scene,
    format_complex_form,
    format_real_form,
    parse_constant,
    parse_scene,
)
from .verifier import SamplingPlan, VerificationReport, projective_value, verify


def _emit(payload: dict, human_lines: list[str], human: bool) -> None:
    if human:
        for line in human_lines:
            print(line)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


def _gq_str_vector(coords) -> list[str]:
    return [str(c) for c in coords]


def _the_real_hyperplane(scene: Scene) -> tuple[str, RealSubspace]:
    reals = [(n, s) for n, s in scene.reals.items() if s.dimension == 5]
    if len(reals) != 1:
        raise ValueError("the scene must declare exactly one 5-dimensional real subspace")
    return reals[0]


def _witness_scene(
    hyperplanes: Sequence[tuple[str, ComplexHyperplane]],
    reals: Sequence[tuple[str, RealSubspace]],
) -> Scene:
    order = [("hyperplane", n) for n, _ in hyperplanes] + [("real", n) for n, _ in reals]
    return Scene(dict(hyperplanes), dict(reals), {}, tuple(order))


def _plan_from_args(args: argparse.Namespace) -> SamplingPlan:
    seed = args.seed
    if seed is None:
        env = os.environ.get("AVOIDANCE_SEED")
        seed = int(env) if env else 0
    return SamplingPlan(
        disk_radius=args.radius,
        grid_points=args.grid,
        random_points=args.random,
        seed=seed,
        tolerance=args.tolerance,
    )


def _report_lines(report: VerificationReport) -> list[str]:
    lines = [f"curve {report.curve}"]
    for r in report.results:
        margin = "" if r.min_margin is None else f", min margin {r.min_margin:.3e}"
        where = (
            ""
            if r.violation_sample is None
            else f" at z = {r.violation_sample[0]:.6g} + {r.violation_sample[1]:.6g}i"
        )
        lines.append(f"  {r.set}: {r.verdict} ({r.method}{margin}){where}")
    if report.projection_constant:
        lines.append("  projection: constant")
    else:
        lines.append("  projection: non-constant")
    for value in report.projection_values:
        coords = " : ".join(f"{re:.6g}{im:+.6g}i" for re, im in value)
        lines.append(f"    value [{coords}]")
    return lines


def _finish_verification(report: VerificationReport, payload: dict, human: bool, extra_lines: list[str] | None = None) -> int:
    _emit(payload, (extra_lines or []) + _report_lines(report), human)
    return 0 if report.all_avoided() else 1


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gp_check(args: argparse.Namespace, scene: Scene) -> int:
    members = [(name, realify(h)) for name, h in scene.hyperplanes.items()]
    members += [(n, s) for n, s in scene.reals.items() if s.dimension == 4]
    subset = dependent_subset([s.forms for _, s in members], 3)
    failing = None if subset is None else [members[i][0] for i in subset]
    ok = failing is None
    payload = {
        "members": [n for n, _ in members],
        "general_position": ok,
        "failing_triple": failing,
    }
    lines = [f"members: {', '.join(payload['members']) or '(none)'}"]
    if len(members) < 3:
        lines.append("general position: yes (fewer than three members)")
    elif ok:
        lines.append("general position: yes")
    else:
        lines.append(f"general position: no (triple {', '.join(failing)})")
    _emit(payload, lines, args.human)
    return 0 if ok else 1


def _cmd_diagonals(args: argparse.Namespace, scene: Scene) -> int:
    hyperplanes = list(scene.hyperplanes.values())
    diagonals = enumerate_diagonals(hyperplanes)
    entries = []
    lines = [f"{len(diagonals)} diagonals of {len(hyperplanes)} hyperplanes"]
    for d in diagonals:
        entry = {
            "partition": [list(d.partition.left), list(d.partition.right)],
            "p": _gq_str_vector(d.p.coords),
            "q": _gq_str_vector(d.q.coords),
            "line": format_complex_form(d.form.coefficients, COMPLEX_VARS),
        }
        entries.append(entry)
        blocks = (
            ",".join(map(str, d.partition.left))
            + " | "
            + ",".join(map(str, d.partition.right))
        )
        lines.append(
            f"  {blocks}: through [{' : '.join(entry['p'])}] and [{' : '.join(entry['q'])}]"
            f"; line {entry['line']} = 0"
        )
    _emit({"count": len(diagonals), "diagonals": entries}, lines, args.human)
    return 0


def _cmd_classify(args: argparse.Namespace, scene: Scene) -> int:
    plan = _plan_from_args(args)
    hyperplanes = list(scene.hyperplanes.items())
    real_name, real = _the_real_hyperplane(scene)
    verdict = classify([h for _, h in hyperplanes], real)
    payload = {
        "verdict": verdict.tag,
        "triple_ranks": [
            {"pair": list(t.pair), "rank": t.rank} for t in verdict.evidence
        ],
        "witness": None,
        "report": None,
    }
    lines = [f"verdict: {verdict.tag}"]
    lines += [f"  triple (H~, H{j}, H{k}): rank {t.rank}" for t in verdict.evidence for j, k in [t.pair]]
    if verdict.witness is None:
        _emit(payload, lines, args.human)
        return 0
    report = verify(
        verdict.witness,
        _witness_scene(hyperplanes, [(real_name, real)]),
        plan,
    )
    payload["witness"] = report.curve
    payload["report"] = report.to_dict()
    return _finish_verification(report, payload, args.human, lines)


def _cmd_witness(args: argparse.Namespace, scene: Scene) -> int:
    hyperplanes = list(scene.hyperplanes.items())
    plan = _plan_from_args(args)
    payload: dict = {"construction": args.construction}
    extra: list[str] = []
    if args.construction == "constant-projection":
        curve = witness_constant_projection([h for _, h in hyperplanes])
        sets = _witness_scene(hyperplanes, [])
    elif args.construction == "dim4-subspace":
        subspace, curve = witness_dim4_subspace([h for _, h in hyperplanes])
        sets = _witness_scene(hyperplanes, [("H", subspace)])
        payload["subspace"] = [format_real_form(f) for f in subspace.forms]
        extra.append(
            "subspace H: " + "; ".join(f"{form} = 0" for form in payload["subspace"])
        )
    elif args.construction == "degenerate-pair":
        real_name, real = _the_real_hyperplane(scene)
        verdict = classify([h for _, h in hyperplanes], real)
        if verdict.witness is None:
            raise ValueError("every triple is in general position; nothing to construct")
        curve = verdict.witness
        pair = next(t.pair for t in verdict.evidence if t.rank < 6)
        sets = _witness_scene(hyperplanes, [(real_name, real)])
        payload["pair"] = list(pair)
        extra.append(f"degenerate pair: {pair}")
    else:
        real_name, real = _the_real_hyperplane(scene)
        curve = witness_three_hyperplanes([h for _, h in hyperplanes], real)
        sets = _witness_scene(hyperplanes, [(real_name, real)])
    report = verify(curve, sets, plan)
    payload["curve"] = report.curve
    payload["report"] = report.to_dict()
    return _finish_verification(report, payload, args.human, extra)


def _cmd_verify(args: argparse.Namespace, scene: Scene) -> int:
    if args.curve not in scene.curves:
        raise ValueError(f"no curve named {args.curve!r} in the scene")
    report = verify(
        scene.curves[args.curve], scene, _plan_from_args(args), curve_name=args.curve
    )
    return _finish_verification(report, report.to_dict(), args.human)


def _cmd_project(args: argparse.Namespace, scene: Scene) -> int:
    if args.curve not in scene.curves:
        raise ValueError(f"no curve named {args.curve!r} in the scene")
    at = parse_constant(args.at).to_complex()
    value = projective_value(scene.curves[args.curve], at)
    payload = {
        "curve": args.curve,
        "at": [at.real, at.imag],
        "value": None if value is None else [list(c) for c in value],
    }
    if value is None:
        lines = ["undefined (all components vanish at this point)"]
    else:
        lines = ["[" + " : ".join(f"{re:.6g}{im:+.6g}i" for re, im in value) + "]"]
    _emit(payload, lines, args.human)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--json", dest="human", action="store_false", help="JSON output (default)")
    group.add_argument("--human", dest="human", action="store_true", help="prose output")
    sp.set_defaults(human=False)


def _add_plan_flags(sp: argparse.ArgumentParser) -> None:
    default = SamplingPlan()
    sp.add_argument("--radius", type=float, default=default.disk_radius, help="sampling disk radius")
    sp.add_argument("--grid", type=int, default=default.grid_points, help="grid points per axis")
    sp.add_argument("--random", type=int, default=default.random_points, help="random sample count")
    sp.add_argument("--seed", type=int, default=None, help="random seed")
    sp.add_argument("--tolerance", type=float, default=default.tolerance, help="hit tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curveavoid",
        description="Avoidance of hyperplane arrangements by exponential curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name: str, help_text: str, handler, plan: bool = False):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("scene", help="path to a scene file")
        _add_output_flags(sp)
        if plan:
            _add_plan_flags(sp)
        sp.set_defaults(handler=handler)
        return sp

    subcommand(
        "gp-check",
        "test the family of codimension-2 subspaces for general position",
        _cmd_gp_check,
    )
    subcommand("diagonals", "enumerate the diagonals of the listed hyperplanes", _cmd_diagonals)
    subcommand(
        "classify",
        "decide whether nonconstant-projection curves can avoid the arrangement",
        _cmd_classify,
        plan=True,
    )
    witness = subcommand(
        "witness", "construct a witness curve and verify it", _cmd_witness, plan=True
    )
    witness.add_argument(
        "--construction",
        required=True,
        choices=[
            "constant-projection",
            "dim4-subspace",
            "degenerate-pair",
            "three-hyperplanes",
        ],
        help="which construction to run",
    )
    verify_sp = subcommand(
        "verify", "verify a named curve against the scene", _cmd_verify, plan=True
    )
    verify_sp.add_argument("--curve", required=True, help="curve name")
    project = subcommand(
        "project", "evaluate the projectivised curve at a point", _cmd_project
    )
    project.add_argument("--curve", required=True, help="curve name")
    project.add_argument("--at", required=True, help="point of evaluation, e.g. '1/2 + i'")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = Path(args.scene).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        scene = parse_scene(text)
    except ParseError as exc:
        print(f"error: {args.scene}: {exc}", file=sys.stderr)
        return 2
    try:
        return args.handler(args, scene)
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
