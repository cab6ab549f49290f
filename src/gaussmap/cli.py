"""Command-line harness for the exact Gaussian-map computations.

Subcommands: `rank-table`, `kernel`, `verify`, `rho`, `scan`.  Output goes
to stdout (or `--out PATH`) and is byte-identical across reruns of the same
configuration; wall-clock timing is printed to stderr only.  Exit codes:
0 = all checks pass (a BeyondThreshold payload from `rho` is a legitimate
outcome, still 0), 1 = some check was falsified, 2 = usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from .curve import Curve, curve_from_json, default_curve, new_curve
from .errors import BeyondThreshold, Falsified, GaussmapError
from .gaussian import (
    kernel_dimension_formula,
    kernel_via_equations,
    kernel_via_polynomial_oracle,
    max_level,
    rank_formula,
    rank_table,
)
from .quadrics import basis_quadric, quadric_from_a, vector_to_json
from .rationals import rat_from_string
from .reports import (
    RunConfig,
    VerificationReport,
    canonical_json_bytes,
    check,
    rank_table_csv,
)
from .rho import rho_pair
from .suites import THEOREM_IDS, scan_report, verify_theorem

DEFAULT_MAX_GENUS = 12


class UsageError(Exception):
    """Configuration problem; maps to exit code 2."""


def hard_genus_cap() -> int:
    raw = os.environ.get("GAUSSMAP_MAX_GENUS")
    if raw is None:
        return DEFAULT_MAX_GENUS
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(
            f"GAUSSMAP_MAX_GENUS must be an integer, got {raw!r}"
        ) from None
    if cap < 3:
        raise UsageError(f"GAUSSMAP_MAX_GENUS must be at least 3, got {cap}")
    return cap


def sample_count(text: str) -> int:
    """A `--samples` value: a non-negative integer (0 draws none)."""
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {count}")
    return count


def parse_genus_range(text: str, cap: int) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(
            f"--g expects N or A..B with integers, got {text!r}"
        ) from None
    if lo < 3:
        raise UsageError(f"genus must be at least 3, got {lo}")
    if lo > hi:
        raise UsageError(f"empty genus range {lo}..{hi}")
    if hi > cap:
        raise UsageError(
            f"genus {hi} exceeds the hard cap {cap} "
            "(override with GAUSSMAP_MAX_GENUS)"
        )
    return lo, hi


def parse_curve_argument(value: str) -> Curve:
    try:
        if os.path.isfile(value):
            with open(value, encoding="utf-8") as handle:
                return curve_from_json(json.load(handle))
        stripped = value.strip()
        if stripped.startswith("{"):
            return curve_from_json(json.loads(stripped))
        points = [rat_from_string(tok.strip()) for tok in stripped.split(",")]
        return new_curve(points)
    except (GaussmapError, ValueError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad --curve value: {exc}") from None


def resolve_scope(args, cap: int) -> tuple[int, int, Curve | None, str]:
    """Genus range + optional explicit curve from --g / --curve flags."""
    curve = None
    source = "default"
    if getattr(args, "curve", None):
        curve = parse_curve_argument(args.curve)
        source = args.curve
        if curve.genus > cap:
            raise UsageError(
                f"curve genus {curve.genus} exceeds the hard cap {cap}"
            )
    if args.g is not None:
        lo, hi = parse_genus_range(args.g, cap)
        if curve is not None and (lo, hi) != (curve.genus, curve.genus):
            raise UsageError(
                f"--curve has genus {curve.genus}, which conflicts with "
                f"--g {args.g}"
            )
        return lo, hi, curve, source
    if curve is not None:
        return curve.genus, curve.genus, curve, source
    raise UsageError("--g (or --curve) is required")


def open_output(out_path: str | None):
    """Stdout, or the `--out` file opened before anything is computed, so an
    unwritable path is a usage error at once; like a shell redirection, the
    file is created (or emptied) before the run."""
    if out_path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out_path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write --out {out_path}: {exc.strerror}") from None


# -- subcommands -----------------------------------------------------------------


def cmd_rank_table(args, cap: int, out) -> int:
    lo, hi, _, _ = resolve_scope(args, cap)
    if args.k is not None and not 0 <= args.k <= max_level(hi):
        raise UsageError(
            f"--k {args.k} is outside 0..{max_level(hi)} for genus {hi}"
        )
    config = RunConfig(
        command="rank-table",
        genus_min=lo,
        genus_max=hi,
        k=args.k,
        samples=None,
        seed=None,
        output_format=args.format,
        output_path=args.out,
    )
    table = rank_table(lo, hi, k_filter=args.k)
    if not table.rows:
        raise UsageError(f"no (g,k) rows in range with --k {args.k}")
    if args.format == "csv":
        out.write(rank_table_csv(table))
    else:
        items = [
            check(
                f"g={row.genus} k={row.k}",
                f"rank={rank_formula(row.genus, row.k)} dim_ker="
                f"{kernel_dimension_formula(row.genus, row.k)}",
                f"rank={row.rank} dim_ker={row.dim_ker}",
                row.rank_formula_ok,
            )
            for row in table.rows
        ]
        report = VerificationReport(
            theorem="T3.1",
            genus=config.genus_label(),
            k=args.k if args.k is not None else "all",
            curve=None,
            checks=tuple(items),
            seed=None,
            config=config.to_json(),
        )
        out.write(report.render(args.format).decode())
    return 0 if all(row.rank_formula_ok for row in table.rows) else 1


def cmd_kernel(args, cap: int, out) -> int:
    lo, hi, _, _ = resolve_scope(args, cap)
    if lo != hi:
        raise UsageError("kernel expects a single genus, not a range")
    genus, k = lo, args.k
    if not 0 <= k <= max_level(genus):
        raise UsageError(
            f"--k {k} is outside 0..{max_level(genus)} for genus {genus}"
        )
    payload = {
        "genus": genus,
        "k": k,
        "method": args.method,
        "map": f"mu_{2 * k}",
    }
    basis = oracle_basis = None
    if args.method in ("equations", "both"):
        basis = kernel_via_equations(genus).level(k).basis
    if args.method in ("oracle", "both"):
        oracle_basis = kernel_via_polynomial_oracle(genus, k)
    agree = True
    if args.method == "both":
        agree = basis == oracle_basis
        payload["methods_agree"] = agree
    vectors = basis if basis is not None else oracle_basis
    payload["dimension"] = len(vectors)
    payload["basis"] = [vector_to_json(genus, vec) for vec in vectors]
    out.write(canonical_json_bytes(payload).decode())
    return 0 if agree else 1


def cmd_verify(args, cap: int, out) -> int:
    lo, hi, curve, source = resolve_scope(args, cap)
    config = RunConfig(
        command="verify",
        genus_min=lo,
        genus_max=hi,
        k=args.k,
        curve_source=source,
        samples=args.samples,
        seed=args.seed,
        output_format=args.format,
        output_path=args.out,
    )
    report = verify_theorem(args.theorem, config, curve)
    out.write(report.render(args.format).decode())
    if report.timing_seconds is not None:
        print(f"# elapsed {report.timing_seconds:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


def parse_quadric_argument(spec: str, genus: int):
    try:
        if spec.startswith("basis:"):
            i_text, j_text = spec[len("basis:"):].split(",", 1)
            return basis_quadric(genus, int(i_text), int(j_text))
        if spec.startswith("kernel:"):
            k_text, idx_text = spec[len("kernel:"):].split(",", 1)
            level = kernel_via_equations(genus).level(int(k_text))
            index = int(idx_text)
            if not 0 <= index < len(level.basis):
                raise UsageError(
                    f"kernel basis index {index} outside "
                    f"0..{len(level.basis) - 1}"
                )
            return level.quadrics[index]
        entries = json.loads(spec)
        if not isinstance(entries, dict) or not entries:
            raise UsageError(
                "a-coordinate quadric JSON must be a nonempty object"
            )
        return quadric_from_a(genus, entries)
    except UsageError:
        raise
    except (GaussmapError, ValueError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad --quadric value {spec!r}: {exc}") from None


def cmd_rho(args, cap: int, out) -> int:
    lo, hi, curve, source = resolve_scope(args, cap)
    if lo != hi:
        raise UsageError("rho expects a single genus, not a range")
    genus = lo
    if curve is None:
        curve = default_curve(genus)
    quadric = parse_quadric_argument(args.quadric, genus)
    n, r = args.pair
    base = {
        "genus": genus,
        "curve": curve.to_json(),
        "quadric": quadric.to_json(),
        "curve_source": source,
    }
    try:
        value = rho_pair(quadric, curve, n, r)
    except BeyondThreshold as exc:
        base["error"] = exc.payload()
        out.write(canonical_json_bytes(base).decode())
        return 0
    base.update(value.to_json())
    out.write(canonical_json_bytes(base).decode())
    return 0


def cmd_scan(args, cap: int, out) -> int:
    lo, hi, curve, source = resolve_scope(args, cap)
    config = RunConfig(
        command="scan",
        genus_min=lo,
        genus_max=hi,
        curve_source=source,
        samples=args.samples,
        seed=args.seed,
        output_format=args.format,
        output_path=args.out,
    )
    report = scan_report(config, curve)
    out.write(report.render(args.format).decode())
    if report.timing_seconds is not None:
        print(f"# elapsed {report.timing_seconds:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


# -- argument parsing --------------------------------------------------------------


COMMANDS = ("rank-table", "kernel", "verify", "rho", "scan")


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser; with `only`, that subcommand's arguments
    alone (the usage still names every subcommand)."""
    parser = argparse.ArgumentParser(
        prog="gaussmap",
        description=(
            "Exact rank, kernel, and second-fundamental-form computations "
            "for the Gaussian maps of hyperelliptic curves."
        ),
    )
    metavar = None if only is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def common(p, with_curve=True):
        p.add_argument("--g", help="genus N or range A..B")
        if with_curve:
            p.add_argument(
                "--curve",
                help=(
                    "branch points: JSON file, inline JSON object, or "
                    "comma-separated rationals starting with 0"
                ),
            )
        p.add_argument("--out", help="write output to this path")

    if only in (None, "rank-table"):
        p = sub.add_parser("rank-table", help="rank/kernel-dimension table")
        common(p, with_curve=False)
        p.add_argument("--k", type=int, help="restrict to one level")
        p.add_argument("--format", choices=("csv", "json", "md"), default="csv")
        p.set_defaults(handler=cmd_rank_table)

    if only in (None, "kernel"):
        p = sub.add_parser("kernel", help="canonical kernel basis at one level")
        common(p, with_curve=False)
        p.add_argument("--k", type=int, required=True, help="level of mu_2k")
        p.add_argument(
            "--method", choices=("equations", "oracle", "both"), default="equations"
        )
        p.add_argument("--format", choices=("json",), default="json")
        p.set_defaults(handler=cmd_kernel)

    if only in (None, "verify"):
        p = sub.add_parser("verify", help="run one theorem suite")
        common(p)
        p.add_argument(
            "--theorem", required=True, choices=THEOREM_IDS, metavar="ID",
            help=f"one of {', '.join(THEOREM_IDS)}",
        )
        p.add_argument("--k", type=int, help="restrict to one level")
        p.add_argument("--samples", type=sample_count, help="random curves or directions")
        p.add_argument("--seed", type=int, help="PRNG seed (recorded)")
        p.add_argument("--format", choices=("json", "md"), default="json")
        p.set_defaults(handler=cmd_verify)

    if only in (None, "rho"):
        p = sub.add_parser("rho", help="one exact second-fundamental-form value")
        common(p)
        p.add_argument(
            "--quadric", required=True,
            help='basis:i,j | kernel:k,index | JSON {"i,j": "p/q", ...}',
        )
        p.add_argument(
            "--pair", nargs=2, type=int, required=True, metavar=("N", "R"),
            help="odd Schiffer orders",
        )
        p.add_argument("--format", choices=("json",), default="json")
        p.set_defaults(handler=cmd_rho)

    if only in (None, "scan"):
        p = sub.add_parser("scan", help="asymptotic classification of invariant directions")
        common(p)
        p.add_argument("--samples", type=sample_count, help="random directions per genus")
        p.add_argument("--seed", type=int, help="PRNG seed (recorded)")
        p.add_argument("--format", choices=("json", "md"), default="json")
        p.set_defaults(handler=cmd_scan)

    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    argv = sys.argv[1:] if argv is None else list(argv)
    only = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser(only).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cap = hard_genus_cap()
        with open_output(args.out) as out:
            code = args.handler(args, cap, out)
    except UsageError as exc:
        print(f"gaussmap: error: {exc}", file=sys.stderr)
        return 2
    except Falsified as exc:
        print(f"gaussmap: falsified: {exc}", file=sys.stderr)
        return 1
    except GaussmapError as exc:
        print(f"gaussmap: error: {exc}", file=sys.stderr)
        return 2
    print(
        f"# total elapsed {time.perf_counter() - started:.3f}s",
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
