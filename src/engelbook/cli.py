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

from . import DEFAULT_MIN_POINTS, MIN_TURN_SAMPLES, TOLERANCE_DEFAULTS

__all__ = ["build_parser", "main", "run"]


_TOLERANCE_HELP = {
    "rank": "rank and residual tolerance for pointwise certificates (default 1e-9)",
    "zero": "coefficient tolerance for symbolic equality (default 1e-12)",
    "slope": "tolerance for torus slope comparisons (default 1e-9)",
}


def _add_tolerance_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    """The tolerance flags that some check of the command reads."""
    group = sub.add_argument_group("tolerances")
    for name in names:
        group.add_argument(
            f"--{name}-tol", type=float, default=TOLERANCE_DEFAULTS[name], help=_TOLERANCE_HELP[name]
        )


def _tolerance_config(args: argparse.Namespace) -> dict:
    """Every tolerance, as the command's flags set it or at its default."""
    return {name: getattr(args, f"{name}_tol", value) for name, value in TOLERANCE_DEFAULTS.items()}


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
    verify.add_argument("--samples", type=int, default=DEFAULT_MIN_POINTS, help="minimum grid points")
    verify.add_argument("--seed", type=int, default=0, help="seed for the sampled re-check")
    verify.add_argument("--out", help="write the JSON report here instead of stdout")
    _add_tolerance_flags(verify, "rank")

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
    construct.add_argument("--samples", type=int, default=DEFAULT_MIN_POINTS, help="minimum grid points")
    construct.add_argument(
        "--turn-samples", type=int, default=512, help="path samples for turn counting"
    )
    construct.add_argument("--seed", type=int, default=0, help="recorded in the config block")
    construct.add_argument("--out", help="write the JSON report here instead of stdout")
    construct.add_argument("--model-out", help="also write the assembled model file here")
    _add_tolerance_flags(construct, "rank", "zero", "slope")

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
    _add_tolerance_flags(invariants, "zero", "slope")

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
    probe.add_argument("--a", type=float, help="interface angle for built pieces (default pi/4)")
    probe.add_argument("--piece", required=True, help="piece name, e.g. collar or binding")
    probe.add_argument("--circle", help="angular coordinate for a closed probe circle")
    probe.add_argument(
        "--segment",
        nargs=3,
        metavar=("COORD", "LO", "HI"),
        help="open probe segment along a coordinate",
    )
    probe.add_argument("--turns", type=int, help="turns of the probe circle (default 1)")
    probe.add_argument(
        "--base",
        default="",
        metavar="NAME=VALUE,...",
        help="base point overrides; defaults to each interval midpoint",
    )
    probe.add_argument("--samples", type=int, default=512, help="path samples")

    return parser


def _check_ranges(args: argparse.Namespace) -> None:
    """Reject counts below their least useful value, negative seeds and
    negative (or NaN) tolerances.  A portrait grid of 1 or 2 points per axis
    has no point inside the 0.98 disk, so ``--grid`` starts at 3, turn
    counts take the looseness probe's floor of path samples, and a seed is
    what numpy's generator accepts."""
    limits = (("samples", 1), ("turn_samples", MIN_TURN_SAMPLES), ("grid", 3), ("seed", 0))
    for dest, least in limits:
        value = getattr(args, dest, None)
        if value is not None and value < least:
            raise ValueError(f"--{dest.replace('_', '-')} must be at least {least}, got {value}")
    for name in TOLERANCE_DEFAULTS:
        value = getattr(args, f"{name}_tol", None)
        if value is not None and not value >= 0:
            raise ValueError(f"--{name}-tol must be nonnegative, got {value}")


def _fail(code: str, message: str) -> None:
    print(f"error[{code}] {message}", file=sys.stderr)


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_params(entries: list[str]) -> dict:
    if not entries:
        return {}
    from .modelfile import _parse_value

    params: dict = {}
    for entry in entries:
        name, sep, value = entry.partition("=")
        if not sep or not name.strip():
            raise ValueError(f"parameter override must look like NAME=VALUE, got {entry!r}")
        params[name.strip()] = _parse_value(value)
    return params


def _sampled_form_checks(model, samples: int, seed: int) -> list:
    """Re-run each piece's form certificate on seeded random points."""
    import numpy as np

    from .models import _form_check

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
    from .models import list_models

    for name, summary in list_models():
        print(f"{name:24s} {summary}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .models import model_catalog
    from .reports import json_document, render_json

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
    from .models import assemble

    tol = _tolerance_config(args)
    return assemble(
        args.lam,
        args.k,
        a=args.a,
        r0=args.r0,
        min_points=min_points,
        n_samples=args.turn_samples,
        rank_tol=tol["rank"],
        symbol_tol=tol["zero"],
        slope_tol=tol["slope"],
    )


def _cmd_construct(args: argparse.Namespace) -> int:
    from .reports import construct_document, render_json

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
        from .modelfile import dump_model

        _write_text(args.model_out, dump_model(report.model))
    if not report.overall_pass:
        _fail("EB-VERIFY", "assembly failed verification")
        return 1
    return 0


def _cmd_foliation(args: argparse.Namespace) -> int:
    from .foliation import construct_xi_prime
    from .reports import portrait_rows, render_csv, render_svg

    disk = construct_xi_prime(args.k)
    _write_text(args.out, render_csv(portrait_rows(disk, args.grid)))
    if args.svg:
        _write_text(args.svg, render_svg(disk, min(args.grid, 29)))
    if not disk.passed:
        _fail("EB-VERIFY", f"interior disk for k = {args.k} failed verification")
        return 1
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    from .reports import json_document, render_json

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


def _check_probe_flags(args: argparse.Namespace) -> None:
    """Refuse a probe flag that the chosen piece or path would ignore."""
    if args.model:
        built = [f"--{n}" for n, v in (("lambda", args.lam), ("k", args.k), ("a", args.a)) if v is not None]
        if built:
            raise ValueError(f"{', '.join(built)} set built pieces and are not read with --model")
    elif args.param:
        raise ValueError("--param sets catalog model parameters and needs --model")
    if args.segment and args.turns is not None:
        raise ValueError("--turns sets the turns of a --circle and is not read with --segment")


def _probe_piece(args: argparse.Namespace):
    from .models import build_binding_engel, build_collar_engel, model_catalog

    if args.model:
        model = model_catalog(args.model, **_parse_params(args.param))
        return model.piece(args.piece)
    if args.lam is None or args.k is None:
        raise ValueError("probe-looseness needs either --model or both --lambda and --k")
    a = math.pi / 4 if args.a is None else args.a
    if args.piece == "collar":
        return build_collar_engel(args.lam, args.k, a=a)
    if args.piece == "binding":
        return build_binding_engel(args.k + args.lam, args.k, r0=math.sqrt(math.tan(a)))
    raise ValueError(f"built pieces are named collar and binding, got {args.piece!r}")


def _cmd_probe(args: argparse.Namespace) -> int:
    from .invariants import Path
    from .models import looseness_probe

    _check_probe_flags(args)
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
            chart, args.circle, base, turns=1 if args.turns is None else args.turns, label="probe"
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
