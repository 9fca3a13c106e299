"""Command line front end.

Subcommands: list-models, verify, construct, foliation, invariants,
probe-looseness.  Exit status 0 means every requested certificate passed,
1 means a certificate failed, 2 means the request itself was invalid.
Errors go to stderr as ``error[CODE] message`` lines.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .foliation import construct_xi_prime
from .invariants import Path
from .models import (
    MIN_TURN_SAMPLES,
    _form_check,
    assemble,
    build_binding_engel,
    build_collar_engel,
    list_models,
    looseness_probe,
    model_catalog,
)
from .modelfile import _parse_value, dump_model
from .reports import (
    TOLERANCE_DEFAULTS,
    construct_document,
    json_document,
    portrait_rows,
    render_csv,
    render_json,
    render_svg,
)

__all__ = ["build_parser", "main", "run"]


def _add_tolerance_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_argument_group("tolerances")
    group.add_argument(
        "--rank-tol",
        type=float,
        default=TOLERANCE_DEFAULTS["rank"],
        help="rank and residual tolerance for pointwise certificates (default 1e-9)",
    )
    group.add_argument(
        "--zero-tol",
        type=float,
        default=TOLERANCE_DEFAULTS["zero"],
        help="coefficient tolerance for symbolic equality (default 1e-12)",
    )
    group.add_argument(
        "--slope-tol",
        type=float,
        default=TOLERANCE_DEFAULTS["slope"],
        help="tolerance for torus slope comparisons (default 1e-9)",
    )
    group.add_argument(
        "--residual-tol",
        type=float,
        default=TOLERANCE_DEFAULTS["residual"],
        help="recorded in the report; no command applies another value (default 0.25)",
    )


def _tolerance_config(args: argparse.Namespace) -> dict:
    return {
        "rank": args.rank_tol,
        "zero": args.zero_tol,
        "slope": args.slope_tol,
        "residual": args.residual_tol,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="engelbook",
        description="verify and construct the packaged geometric structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-models", help="print the model catalog with summaries")

    verify = sub.add_parser("verify", help="run every certificate of a catalog model")
    verify.add_argument("--model", required=True, help="catalog model name")
    verify.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="model parameter override, repeatable",
    )
    verify.add_argument("--samples", type=int, default=1000, help="minimum grid points")
    verify.add_argument("--seed", type=int, default=0, help="seed for the sampled re-check")
    verify.add_argument("--out", help="write the JSON report here instead of stdout")
    _add_tolerance_flags(verify)

    construct = sub.add_parser(
        "construct", help="assemble the collar and binding pieces and certify them"
    )
    construct.add_argument("--lambda", dest="lam", type=int, required=True, help="y twist count")
    construct.add_argument("--k", type=int, required=True, help="angular twist count, odd")
    construct.add_argument(
        "--a", type=float, default=math.pi / 4, help="interface angle in (0, pi/2)"
    )
    construct.add_argument(
        "--r0", type=float, default=None, help="binding radius; derived from --a when unset"
    )
    construct.add_argument("--samples", type=int, default=1000, help="minimum grid points")
    construct.add_argument(
        "--turn-samples", type=int, default=512, help="path samples for turn counting"
    )
    construct.add_argument("--seed", type=int, default=0, help="recorded in the config block")
    construct.add_argument("--out", help="write the JSON report here instead of stdout")
    construct.add_argument("--model-out", help="also write the assembled model file here")
    _add_tolerance_flags(construct)

    foliation = sub.add_parser(
        "foliation", help="export the page foliation portrait of the interior disk"
    )
    foliation.add_argument("--k", type=int, required=True, help="boundary twist count, odd")
    foliation.add_argument("--grid", type=int, default=41, help="portrait grid per axis, at least 3")
    foliation.add_argument("--out", help="write the CSV here instead of stdout")
    foliation.add_argument("--svg", help="also write an SVG sketch here")

    invariants = sub.add_parser(
        "invariants", help="compute the turn counts and singularity data of an assembly"
    )
    invariants.add_argument("--lambda", dest="lam", type=int, required=True)
    invariants.add_argument("--k", type=int, required=True)
    invariants.add_argument("--a", type=float, default=math.pi / 4)
    invariants.add_argument("--r0", type=float, default=None)
    invariants.add_argument(
        "--turn-samples", type=int, default=512, help="path samples for turn counting"
    )
    invariants.add_argument("--seed", type=int, default=0, help="recorded in the config block")
    invariants.add_argument("--out", help="write the JSON report here instead of stdout")
    _add_tolerance_flags(invariants)

    probe = sub.add_parser(
        "probe-looseness", help="count field turns along a probe path on one piece"
    )
    probe.add_argument("--model", help="catalog model name; alternative to --lambda/--k")
    probe.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="model parameter override, repeatable",
    )
    probe.add_argument("--lambda", dest="lam", type=int, help="y twist count for built pieces")
    probe.add_argument("--k", type=int, help="angular twist count for built pieces")
    probe.add_argument("--a", type=float, default=math.pi / 4)
    probe.add_argument("--piece", required=True, help="piece name, e.g. collar or binding")
    probe.add_argument("--circle", help="angular coordinate for a closed probe circle")
    probe.add_argument(
        "--segment",
        nargs=3,
        metavar=("COORD", "LO", "HI"),
        help="open probe segment along a coordinate",
    )
    probe.add_argument("--turns", type=int, default=1, help="turns of the probe circle")
    probe.add_argument(
        "--base",
        default="",
        metavar="NAME=VALUE,...",
        help="base point overrides; defaults to each interval midpoint",
    )
    probe.add_argument("--samples", type=int, default=512, help="path samples")

    return parser


def _check_ranges(args: argparse.Namespace) -> None:
    """Reject counts below their least useful value and negative (or NaN)
    tolerances.  A portrait grid of 1 or 2 points per axis has no point
    inside the 0.98 disk, so ``--grid`` starts at 3, and turn counts take
    the looseness probe's floor of path samples."""
    for dest, least in (("samples", 1), ("turn_samples", MIN_TURN_SAMPLES), ("grid", 3)):
        value = getattr(args, dest, None)
        if value is not None and value < least:
            raise ValueError(f"--{dest.replace('_', '-')} must be at least {least}, got {value}")
    for dest in ("rank_tol", "zero_tol", "slope_tol", "residual_tol"):
        value = getattr(args, dest, None)
        if value is not None and not value >= 0:
            raise ValueError(f"--{dest.replace('_', '-')} must be nonnegative, got {value}")


# Tolerance flags that decide no check of a command: no verify check reads
# the last three, and the winding residuals of construct and invariants are
# float rounding on closed loops (at most 1.8e-15 over the construct sweep).
_UNREAD_TOLERANCES = {
    "verify": ("zero", "slope", "residual"),
    "construct": ("residual",),
    "invariants": ("residual",),
}


def _check_unread_tolerances(args: argparse.Namespace) -> None:
    """Reject an unread tolerance flag off its default, which would be
    recorded in the report and then ignored."""
    for name in _UNREAD_TOLERANCES.get(args.command, ()):
        value = getattr(args, f"{name}_tol")
        if value != TOLERANCE_DEFAULTS[name]:
            raise ValueError(
                f"--{name}-tol is not applied by {args.command}; "
                f"leave it at its default {TOLERANCE_DEFAULTS[name]:g}, got {value:g}"
            )


def _fail(code: str, message: str) -> None:
    print(f"error[{code}] {message}", file=sys.stderr)


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_params(entries: list[str]) -> dict:
    params: dict = {}
    for entry in entries:
        name, sep, value = entry.partition("=")
        if not sep or not name.strip():
            raise ValueError(f"parameter override must look like NAME=VALUE, got {entry!r}")
        params[name.strip()] = _parse_value(value)
    return params


def _sampled_form_checks(model, samples: int, seed: int) -> list:
    """Re-run each piece's form certificate on seeded random points."""
    out = []
    rng = np.random.default_rng(seed)

    def visit(piece):
        if piece.form is not None:
            pts = piece.chart.sample_random(max(samples, 8), rng)
            out.append(_form_check(piece, ("sampled_contact", "sampled_even_contact"), points=pts))
        if piece.core is not None:
            visit(piece.core)

    for piece in model.pieces:
        visit(piece)
    return out


def _cmd_list_models(_args: argparse.Namespace) -> int:
    for name, summary in list_models():
        print(f"{name:24s} {summary}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    params = _parse_params(args.param)
    model = model_catalog(args.model, **params)
    checks = list(model.checks(min_points=args.samples, tol=args.rank_tol))
    checks.extend(_sampled_form_checks(model, args.samples, args.seed))
    config = {
        "command": "verify",
        "model": args.model,
        "params": params,
        "samples": args.samples,
        "seed": args.seed,
        "tolerances": _tolerance_config(args),
    }
    document = json_document(config, checks)
    _write_text(args.out, render_json(document))
    if not document["overall_pass"]:
        _fail("EB-VERIFY", f"model {args.model!r} failed verification")
        return 1
    return 0


def _assemble(args: argparse.Namespace, min_points: int):
    return assemble(
        args.lam,
        args.k,
        a=args.a,
        r0=args.r0,
        min_points=min_points,
        n_samples=args.turn_samples,
        rank_tol=args.rank_tol,
        symbol_tol=args.zero_tol,
        slope_tol=args.slope_tol,
    )


def _cmd_construct(args: argparse.Namespace) -> int:
    report = _assemble(args, args.samples)
    config = {
        "command": "construct",
        "samples": args.samples,
        "turn_samples": args.turn_samples,
        "seed": args.seed,
        "tolerances": _tolerance_config(args),
    }
    _write_text(args.out, render_json(construct_document(report, config)))
    if args.model_out:
        _write_text(args.model_out, dump_model(report.model))
    if not report.overall_pass:
        _fail("EB-VERIFY", "assembly failed verification")
        return 1
    return 0


def _cmd_foliation(args: argparse.Namespace) -> int:
    disk = construct_xi_prime(args.k)
    _write_text(args.out, render_csv(portrait_rows(disk, args.grid)))
    if args.svg:
        _write_text(args.svg, render_svg(disk, min(args.grid, 29)))
    if not disk.passed:
        _fail("EB-VERIFY", f"interior disk for k = {args.k} failed verification")
        return 1
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    report = _assemble(args, 256)
    config = {
        "command": "invariants",
        "turn_samples": args.turn_samples,
        "seed": args.seed,
        "tolerances": _tolerance_config(args),
    }
    config.update(report.params)
    wanted = ("twisting_invariants", "boundary_euler_chain", "gluing")
    checks = [c for c in report.checks if c.name in wanted]
    document = json_document(
        config,
        checks,
        invariants=report.invariants,
        singularities=report.singularities,
    )
    _write_text(args.out, render_json(document))
    if not document["overall_pass"]:
        _fail("EB-VERIFY", "invariant checks failed")
        return 1
    return 0


def _probe_piece(args: argparse.Namespace):
    if args.model:
        model = model_catalog(args.model, **_parse_params(args.param))
        return model.piece(args.piece)
    if args.lam is None or args.k is None:
        raise ValueError("probe-looseness needs either --model or both --lambda and --k")
    if args.piece == "collar":
        return build_collar_engel(args.lam, args.k, a=args.a)
    if args.piece == "binding":
        return build_binding_engel(args.k + args.lam, args.k, r0=math.sqrt(math.tan(args.a)))
    raise ValueError(f"built pieces are named collar and binding, got {args.piece!r}")


def _cmd_probe(args: argparse.Namespace) -> int:
    piece = _probe_piece(args)
    chart = piece.chart
    base = {
        c.name: 0.0 if c.is_angular else 0.5 * (b.lo + b.hi)
        for c, b in zip(chart.coords, chart.bounds)
    }
    if args.base:
        for name, value in _parse_params(args.base.split(",")).items():
            if name not in chart.coord_names():
                raise ValueError(f"unknown base coordinate {name!r}")
            base[name] = float(value)
    if bool(args.circle) == bool(args.segment):
        raise ValueError("pass exactly one of --circle or --segment")
    if args.circle:
        path = Path.coordinate_circle(
            chart, args.circle, base, turns=args.turns, label="probe"
        )
    else:
        coord, lo, hi = args.segment
        path = Path.coordinate_segment(chart, coord, base, float(lo), float(hi), label="probe")
    print(looseness_probe(piece, path, n_samples=args.samples))
    return 0


_COMMANDS = {
    "list-models": _cmd_list_models,
    "verify": _cmd_verify,
    "construct": _cmd_construct,
    "foliation": _cmd_foliation,
    "invariants": _cmd_invariants,
    "probe-looseness": _cmd_probe,
}


def _shield_negative_numbers(argv: list[str]) -> list[str]:
    """Prefix a space to every argument that is a negative number.

    argparse takes an argument that starts with ``-`` for an option unless
    it looks like a plain decimal, so negative numbers in scientific
    notation would stop in a usage error instead of reaching the range
    checks.  An argument that starts with a space is always a value, for
    single- and multi-value options alike, and ``int`` and ``float`` ignore
    the space; ``_unshield`` takes it off the values kept as strings.
    """
    return [f" {arg}" if arg.startswith("-") and _is_number(arg) else arg for arg in argv]


def _unshield(value):
    if isinstance(value, list):
        return [_unshield(v) for v in value]
    if isinstance(value, str) and value.startswith(" -") and _is_number(value):
        return value[1:]
    return value


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


def run(argv=None) -> int:
    argv = _shield_negative_numbers(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for dest, value in vars(args).items():
        setattr(args, dest, _unshield(value))
    try:
        _check_ranges(args)
        _check_unread_tolerances(args)
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        _fail("EB-PARAM", str(exc))
        return 2
    except OSError as exc:
        _fail("EB-IO", str(exc))
        return 2


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
