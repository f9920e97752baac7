"""Command-line front end.

Subcommands: transform, gram, invert, verify.  Exit codes:

    0  success
    1  verification suite ran but at least one record failed
    2  usage or file parse error (message carries a line number when known)
    3  validation error (constraint violations, bad parameters)
    4  numeric error (coverage loss, zero signals, non-finite output)

stderr messages always start with the error class name.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import io as nio
from .errors import BadParam, CoverageError, GridMismatch, NSLCTError, ZeroSignal
from .grids import SampledSignal, Spectrum, norm_l2, output_lattice
from .shorttime import WindowSpec, stnslct_gram, stnslct_reconstruct
from .transform import nslct_direct, nslct_fast, nslct_inverse
from .verify import SUITE_NAMES, run_suite

_NUMERIC_ERRORS = (CoverageError, ZeroSignal)


class UsageError(Exception):
    """Options that do not fit together or do not fit the input files."""


def _cmd_transform(args) -> int:
    sig = nio.read_signal(args.signal)
    m = nio.read_matrix(args.matrix)
    if args.method == "fast":
        if args.wpoints:
            raise UsageError("--wpoints requires --method direct")
        spec = nslct_fast(sig, m)
        nio.write_spectrum(args.out, spec)
        return 0
    if args.wpoints:
        pts = nio.read_wpoints(args.wpoints, m.n)
        vals = nslct_direct(sig, m, pts)
        nio.write_points(args.out, pts, vals, m.n)
        return 0
    # direct quadrature over the full warped lattice, same file shape as fast
    pts = output_lattice(sig.grid, m).flat_points()
    vals = nslct_direct(sig, m, pts).reshape(sig.grid.counts)
    nio.write_spectrum(args.out, Spectrum(m, vals, sig.grid))
    return 0


def _cmd_gram(args) -> int:
    sig = nio.read_signal(args.signal)
    window = nio.read_signal(args.window)
    m = nio.read_matrix(args.matrix)
    try:  # every BadParam here is the library's verdict on --stride
        wspec = WindowSpec(window, stride=args.stride)
        gram = stnslct_gram(sig, wspec, m)
    except BadParam as exc:
        raise UsageError(str(exc)) from None
    nio.write_gram(args.out, gram, sig.grid, args.stride, m,
                   os.path.basename(args.window))
    return 0


def _cmd_invert(args) -> int:
    kind = nio.read_kind(args.input)
    m = nio.read_matrix(args.matrix)
    if kind == "spectrum":
        if args.window or args.denominator:
            raise UsageError("--window and --denominator apply to gram input only")
        spec = nio.read_spectrum(args.input)
        rec = nslct_inverse(spec, m)
    elif kind == "gram":
        if not args.window:
            raise UsageError("gram inversion needs --window")
        gram, _ = nio.read_gram(args.input)
        window = nio.read_signal(args.window)
        wspec = WindowSpec(window, stride=gram.stride)
        rec = stnslct_reconstruct(gram, wspec, m, denominator=args.denominator or "pointwise")
    else:
        raise UsageError(f"cannot invert a file of kind {kind!r}")
    nio.write_signal(args.out, rec)
    if args.reference:
        ref = nio.read_signal(args.reference)
        if ref.grid != rec.grid:
            raise GridMismatch("reference signal is on another grid")
        den = norm_l2(ref)
        if den == 0.0:
            raise ZeroSignal("reference signal has zero energy")
        num = norm_l2(SampledSignal(rec.grid, rec.values - ref.values))
        print(f"relative_l2_residual={num / den:.6e}")
    return 0


def _cmd_verify(args) -> int:
    try:  # every BadParam here is the library's verdict on --seed
        records, floors = run_suite(args.suite, seed=args.seed)
    except BadParam as exc:
        raise UsageError(str(exc)) from None
    if args.out:
        nio.write_report(args.out, records, floors)
    failures = [r for r in records if not r.passed]
    for suite in sorted(floors):
        count = sum(1 for r in records if r.suite == suite)
        bad = sum(1 for r in records if r.suite == suite and not r.passed)
        status = "ok" if bad == 0 else f"{bad} FAILED"
        print(f"{suite}: {count} records, min relative margin "
              f"{floors[suite]:.3e}, {status}")
    if failures:
        for r in failures:
            print(f"FAIL {r.suite}/{r.name} margin={r.margin!r}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nslct",
        description="Non-separable linear canonical transforms on sampled grids.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="apply a transform to a signal file")
    p.add_argument("--signal", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--method", choices=("fast", "direct"), default="fast")
    p.add_argument("--wpoints", help="evaluation points file (direct method only)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("gram", help="short-time transform against a window")
    p.add_argument("--signal", required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("invert", help="invert a spectrum or gram file")
    p.add_argument("--input", required=True, help="spectrum or gram file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--window", help="window signal file (gram input only)")
    p.add_argument("--denominator", choices=("pointwise", "constant"),
                   help="overlap-add normalization (gram input only; default pointwise)")
    p.add_argument("--reference", help="signal file to report a residual against")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("verify", help="run the seeded identity/inequality suite")
    p.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="report CSV path")
    p.set_defaults(func=_cmd_verify)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (nio.ParseError, UsageError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except NSLCTError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
