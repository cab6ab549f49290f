"""Command-line harness for the exact Gaussian-map computations.

Subcommands: `rank-table`, `kernel`, `verify`, `rho`, `scan`, with options
declared once in `COMMANDS`: `parse_strict` reads well-formed calls, and the
argparse parser built from it (imported only then) all others and every help
text and usage error.  Output goes to stdout (or `--out PATH`) and is
byte-identical across reruns of the same configuration; wall-clock timing is
printed to stderr only.  Exit codes: 0 = all checks pass (a BeyondThreshold
payload from `rho` is a legitimate outcome, still 0), 1 = some check was
falsified, 2 = usage error.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from types import SimpleNamespace

from .curve import Curve, curve_from_json, default_curve, new_curve
from .errors import BeyondThreshold, Falsified, GaussmapError, InvalidIndex
from .gaussian import (
    kernel_dimension_formula,
    kernel_via_equations,
    kernel_via_polynomial_oracle,
    max_level,
    rank_formula,
    rank_table,
)
from .quadrics import basis_quadric, quadric_from_a, vector_to_json
from .rationals import bounded_repr, check_digits, int_from_string, rat_from_string
from .reports import (
    RunConfig,
    VerificationReport,
    canonical_json_bytes,
    check,
    rank_table_csv,
)
from .rho import Pairing
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
        check_digits(raw, "GAUSSMAP_MAX_GENUS")
        raise UsageError(
            f"GAUSSMAP_MAX_GENUS must be an integer, got {bounded_repr(raw)}"
        ) from None
    if cap < 3:
        raise UsageError(f"GAUSSMAP_MAX_GENUS must be at least 3, got {cap}")
    return cap


def _option_int(text: str, name: str) -> int:
    """`int(text)` for an option of `type` `name`, or an argparse error: the
    digit count and the limit for an integer literal too long for the
    interpreter, else `invalid <name> value` with `bounded_repr` of it."""
    try:
        return int(text)
    except ValueError:
        import argparse

        try:
            check_digits(text)
        except InvalidIndex as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        raise argparse.ArgumentTypeError(f"invalid {name} value: {bounded_repr(text)}") from None


def integer(text: str) -> int:
    return _option_int(text, "int")


def sample_count(text: str) -> int:
    """A `--samples` value: a non-negative integer (0 draws none)."""
    count = _option_int(text, "sample_count")
    if count < 0:
        import argparse

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
        for part in text.split("..", 1):
            check_digits(part, "--g value")
        raise UsageError(f"--g expects N or A..B with integers, got {bounded_repr(text)}") from None
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
                return curve_from_json(json.load(handle, parse_int=int_from_string))
        stripped = value.strip()
        if stripped.startswith("{"):
            return curve_from_json(json.loads(stripped, parse_int=int_from_string))
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


def cmd_report(args, cap: int, out) -> int:
    """`verify` (one theorem suite) and `scan`: a report, its time on stderr."""
    if getattr(args, "theorem", None) in ("R4.1", "T6.12") and args.k is not None:
        raise UsageError(f"--k does not apply to --theorem {args.theorem}")
    lo, hi, curve, source = resolve_scope(args, cap)
    config = RunConfig(
        command=args.command,
        genus_min=lo,
        genus_max=hi,
        k=getattr(args, "k", None),
        curve_source=source,
        samples=args.samples,
        seed=args.seed,
        output_format=args.format,
        output_path=args.out,
    )
    if args.command == "scan":
        report = scan_report(config, curve)
    else:
        report = verify_theorem(args.theorem, config, curve)
    out.write(report.render(args.format).decode())
    if report.timing_seconds is not None:
        print(f"# elapsed {report.timing_seconds:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


def parse_quadric_argument(spec: str, genus: int):
    try:
        if spec.startswith("basis:"):
            i_text, j_text = spec[len("basis:"):].split(",", 1)
            return basis_quadric(genus, int_from_string(i_text), int_from_string(j_text))
        if spec.startswith("kernel:"):
            k_text, idx_text = spec[len("kernel:"):].split(",", 1)
            level = kernel_via_equations(genus).level(int_from_string(k_text))
            index = int_from_string(idx_text)
            if not 0 <= index < len(level.basis):
                raise UsageError(
                    f"kernel basis index {index} outside "
                    f"0..{len(level.basis) - 1}"
                )
            return level.quadrics[index]
        entries = json.loads(spec, parse_int=int_from_string)
        if not isinstance(entries, dict) or not entries:
            raise UsageError(
                "a-coordinate quadric JSON must be a nonempty object"
            )
        return quadric_from_a(genus, entries)
    except UsageError:
        raise
    except (GaussmapError, ValueError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad --quadric value {bounded_repr(spec)}: {exc}") from None


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
        base.update(Pairing(quadric, curve).rho(n, r).to_json())
    except BeyondThreshold as exc:
        base["error"] = exc.payload()
    out.write(canonical_json_bytes(base).decode())
    return 0


# -- argument parsing --------------------------------------------------------------


G = ("--g", {"help": "genus N or range A..B"})
CURVE = ("--curve", {"help": "branch points: JSON file, inline JSON object, or "
                             "comma-separated rationals starting with 0"})
OUT = ("--out", {"help": "write output to this path"})
K = ("--k", {"type": integer, "help": "restrict to one level"})
SEED = ("--seed", {"type": integer, "help": "PRNG seed (recorded)"})
REPORT = ("--format", {"choices": ("json", "md"), "default": "json"})
JSON = ("--format", {"choices": ("json",), "default": "json"})

# subcommand -> (help, handler, options as (flag, `add_argument` keywords)):
# the one option table, which both parsers below read
COMMANDS = {
    "rank-table": ("rank/kernel-dimension table", cmd_rank_table, (
        G, OUT, K, ("--format", {"choices": ("csv", "json", "md"), "default": "csv"}),
    )),
    "kernel": ("canonical kernel basis at one level", cmd_kernel, (
        G, OUT, ("--k", {"type": integer, "required": True, "help": "level of mu_2k"}),
        ("--method", {"choices": ("equations", "oracle", "both"),
                      "default": "equations"}),
        JSON,
    )),
    "verify": ("run one theorem suite", cmd_report, (
        G, CURVE, OUT,
        ("--theorem", {"required": True, "choices": THEOREM_IDS, "metavar": "ID",
                       "help": f"one of {', '.join(THEOREM_IDS)}"}),
        K, ("--samples", {"type": sample_count, "help": "random curves or directions"}),
        SEED, REPORT,
    )),
    "rho": ("one exact second-fundamental-form value", cmd_rho, (
        G, CURVE, OUT,
        ("--quadric", {"required": True, "help": (
            'basis:i,j | kernel:k,index | JSON {"i,j": "p/q", ...}')}),
        ("--pair", {"nargs": 2, "type": integer, "required": True, "metavar": ("N", "R"),
                    "help": "odd Schiffer orders"}),
        JSON,
    )),
    "scan": ("asymptotic classification of invariant directions", cmd_report, (
        G, CURVE, OUT,
        ("--samples", {"type": sample_count, "help": "random directions per genus"}),
        SEED, REPORT,
    )),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The argparse parser of `COMMANDS`, the one renderer of help texts and
    usage errors; with `only`, that subcommand's arguments alone (the usage
    still names every subcommand)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="gaussmap",
        description=(
            "Exact rank, kernel, and second-fundamental-form computations "
            "for the Gaussian maps of hyperelliptic curves."
        ),
    )
    metavar = None if only is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, handler, options) in COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flag, spec in options:
                p.add_argument(flag, **spec)
            p.set_defaults(handler=handler)
    return parser


def parse_strict(argv: list[str]) -> SimpleNamespace | None:
    """`build_parser().parse_args(argv)`, same `vars()`, for a subcommand and
    whole `--flag value` groups: flags in full and once each, no value starting
    with "-", values through `type` and `choices`, every required flag given.
    Anything else is None, and argparse parses, accepts or reports it."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, handler, options = COMMANDS[argv[0]]
    table, given, at = dict(options), {}, 1
    while at < len(argv):
        flag, spec = argv[at], table.get(argv[at], {})
        width = spec.get("nargs", 1)
        values = argv[at + 1:at + 1 + width]
        if not spec or flag in given or len(values) < width:
            return None
        if any(value.startswith("-") for value in values):
            return None
        try:
            values = [spec.get("type", str)(value) for value in values]
        except Exception:
            return None
        if "choices" in spec and values[0] not in spec["choices"]:
            return None
        given[flag] = values if "nargs" in spec else values[0]
        at += 1 + width
    if any(spec.get("required") and flag not in given for flag, spec in options):
        return None
    dests = {flag[2:]: given.get(flag, spec.get("default")) for flag, spec in options}
    return SimpleNamespace(command=argv[0], **dests, handler=handler)


def main(argv=None) -> int:
    started = time.perf_counter()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_strict(argv)
    if args is None:
        only = argv[0] if argv and argv[0] in COMMANDS else None
        try:
            args = build_parser(only).parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        cap = hard_genus_cap()
        with open_output(args.out) as out:
            code = args.handler(args, cap, out)
    except Falsified as exc:
        print(f"gaussmap: falsified: {exc}", file=sys.stderr)
        return 1
    except (UsageError, GaussmapError) as exc:
        print(f"gaussmap: error: {exc}", file=sys.stderr)
        return 2
    print(
        f"# total elapsed {time.perf_counter() - started:.3f}s",
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
