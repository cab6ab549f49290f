"""Run configuration and deterministic machine-readable reports.

A fully specified `RunConfig` determines the output bytes exactly: JSON is
serialized with sorted keys and a fixed indent, CSV rows follow the
deterministic row order of the underlying tables, and wall-clock timing is
kept out of the canonical payload (it goes to stderr at the CLI layer).
"""

from __future__ import annotations

import json

from . import __version__
from .errors import InvalidIndex
from .record import Record


class RunConfig(Record):
    """Echoable description of one CLI invocation."""

    command: str
    genus_min: int
    genus_max: int
    k: int | None = None
    curve_source: str = "default"
    samples: int | None = None
    seed: int | None = None
    output_format: str = "json"
    output_path: str | None = None

    def genus_label(self):
        if self.genus_min == self.genus_max:
            return self.genus_min
        return f"{self.genus_min}..{self.genus_max}"

    def to_json(self) -> dict:
        out = {
            "command": self.command,
            "genus": self.genus_label(),
            "curve_source": self.curve_source,
            "format": self.output_format,
        }
        if self.k is not None:
            out["k"] = self.k
        if self.samples is not None:
            out["samples"] = self.samples
        if self.seed is not None:
            out["seed"] = self.seed
        if self.output_path is not None:
            out["out"] = self.output_path
        return out


class CheckItem(Record):
    """One verified fact: what was checked, what was expected, what came out."""

    item: str
    expected: str
    got: str
    ok: bool

    def to_json(self) -> dict:
        return {
            "item": self.item,
            "expected": self.expected,
            "got": self.got,
            "ok": self.ok,
        }


def check(item: str, expected: str, got: str, ok: bool) -> CheckItem:
    return CheckItem(item=item, expected=expected, got=got, ok=ok)


class VerificationReport(Record):
    """Suite outcome; fails exactly when some item failed.

    `timing_seconds` is informational and deliberately excluded from the
    canonical byte stream so reruns with identical configs are
    byte-identical.
    """

    theorem: str
    genus: object
    k: object
    curve: object
    checks: tuple[CheckItem, ...]
    seed: int | None
    config: dict
    version: str = __version__
    timing_seconds: float | None = None

    @property
    def passed(self) -> bool:
        return all(item.ok for item in self.checks)

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "genus": self.genus,
            "k": self.k,
            "curve": self.curve,
            "checks": [item.to_json() for item in self.checks],
            "seed": self.seed,
            "passed": self.passed,
            "version": self.version,
            "config": self.config,
        }

    def to_json_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_json())

    def to_markdown(self) -> str:
        lines = [
            f"# Verification report: {self.theorem}",
            "",
            f"* genus: {self.genus}",
            f"* k: {self.k}",
            f"* seed: {self.seed}",
            f"* version: {self.version}",
            f"* passed: {'yes' if self.passed else 'NO'}",
            "",
            "| item | expected | got | ok |",
            "| --- | --- | --- | --- |",
        ]
        for item in self.checks:
            mark = "yes" if item.ok else "NO"
            lines.append(
                f"| {item.item} | {item.expected} | {item.got} | {mark} |"
            )
        lines.append("")
        return "\n".join(lines)

    def render(self, output_format: str) -> bytes:
        if output_format == "json":
            return self.to_json_bytes()
        if output_format == "md":
            return self.to_markdown().encode()
        raise InvalidIndex(f"report format {output_format!r} not supported")


def canonical_json_bytes(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def rank_table_csv(table) -> str:
    """CSV of a rank table: g, k, rank, dim_ker, rank_formula_ok."""
    lines = ["g,k,rank,dim_ker,rank_formula_ok"]
    for row in table.rows:
        lines.append(
            f"{row.genus},{row.k},{row.rank},{row.dim_ker},"
            f"{'true' if row.rank_formula_ok else 'false'}"
        )
    return "\n".join(lines) + "\n"
