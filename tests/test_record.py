"""`gaussmap.record.Record` against `dataclasses`, and the cold import and
calls, which load neither `dataclasses` nor `argparse`.

The reference implementation lives here: `Twin` is the
`@dataclass(frozen=True)` form of the `Sample` record, and every record
behaviour the program relies on must come out the same for both.
"""

import dataclasses
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

import gaussmap
from gaussmap.curve import default_curve
from gaussmap.errors import IndexOutOfRange
from gaussmap.quadrics import QuadricI2
from gaussmap.record import Record, replace
from gaussmap.rho import isotropy_suite

PACKAGE = Path(gaussmap.__file__).parent


class Sample(Record):
    genus: int
    coords: tuple
    label: str = "q"

    def __post_init__(self):
        if len(self.coords) != self.genus:
            raise IndexOutOfRange(f"expected {self.genus} coordinates")

    @cached_property
    def total(self):
        return sum(self.coords)


@dataclasses.dataclass(frozen=True)
class Twin:
    genus: int
    coords: tuple
    label: str = "q"

    def __post_init__(self):
        if len(self.coords) != self.genus:
            raise IndexOutOfRange(f"expected {self.genus} coordinates")

    @cached_property
    def total(self):
        return sum(self.coords)


COORDS = (Fraction(1, 2), 3, -1)
CALLS = (
    ((3, COORDS), {}),
    ((3, COORDS, "r"), {}),
    ((3,), {"coords": COORDS}),
    ((), {"label": "r", "coords": COORDS, "genus": 3}),
    ((), {"genus": 3, "coords": COORDS}),
)


def both(*args, **kwargs):
    return Sample(*args, **kwargs), Twin(*args, **kwargs)


def same_repr(record, twin):
    return repr(record) == repr(twin).replace("Twin", "Sample", 1)


@pytest.mark.parametrize("args, kwargs", CALLS)
def test_construction_eq_hash_and_repr_match_the_dataclass(args, kwargs):
    record, twin = both(*args, **kwargs)
    assert vars(record) == vars(twin)
    assert same_repr(record, twin)
    assert hash(record) == hash(twin)
    again, twin_again = both(*args, **kwargs)
    assert (record == again) is (twin == twin_again) is True
    other, twin_other = both(3, COORDS, "other")
    assert (record == other) is (twin == twin_other)
    assert record.__eq__(twin) is twin.__eq__(record) is NotImplemented
    assert record != twin


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((), {}),  # missing
        ((3,), {}),  # missing
        ((3, COORDS), {"extra": 1}),  # unknown
        ((3, COORDS, "r", 4), {}),  # too many
        ((3, COORDS), {"genus": 3}),  # twice
    ],
)
def test_bad_arguments_raise_type_error_on_both(args, kwargs):
    for cls in (Sample, Twin):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_post_init_runs_on_both():
    for cls in (Sample, Twin):
        with pytest.raises(IndexOutOfRange):
            cls(2, COORDS)


def test_assignment_and_deletion_raise_attribute_error_on_both():
    for obj in both(3, COORDS):
        for name in ("genus", "label", "unknown"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 1)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert obj.genus == 3


def test_cached_property_and_replace_match_the_dataclass():
    record, twin = both(3, COORDS)
    assert record.total == twin.total == Fraction(5, 2)
    assert vars(record) == vars(twin)
    changed, twin_changed = replace(record, label="r"), dataclasses.replace(twin, label="r")
    assert vars(changed) == vars(twin_changed) and same_repr(changed, twin_changed)
    assert replace(record) == record
    for call in (lambda: replace(record, genus=2), lambda: dataclasses.replace(twin, genus=2)):
        with pytest.raises(IndexOutOfRange):
            call()
    for call in (lambda: replace(record, extra=1), lambda: dataclasses.replace(twin, extra=1)):
        with pytest.raises(TypeError):
            call()


def test_real_records_keep_their_dataclass_behaviour():
    one, two = default_curve(5), default_curve(5)
    assert one is not two and one == two and hash(one) == hash(two)
    result, again = isotropy_suite(5, 1, one), isotropy_suite(5, 1, two)
    assert again is not result and again == result and hash(again) == hash(result)
    assert repr(again) == repr(result)
    assert replace(result, evaluations=0) != result
    with pytest.raises(IndexOutOfRange):
        QuadricI2(genus=5, row=(((6, 1),), 1))


WELL_FORMED = (
    ["verify", "--theorem", "T3.1", "--g", "3"],
    ["scan", "--g", "4", "--samples", "2", "--seed", "1"],
    ["rank-table", "--g", "3..4"],
    ["kernel", "--g", "5", "--k", "1"],
    ["rho", "--g", "3", "--quadric", "basis:1,2", "--pair", "1", "3"],
)


def test_the_cli_imports_without_dataclasses_inspect_or_generated_code():
    # well-formed calls are read without argparse, which loads gettext and locale
    probe = (
        "import contextlib, io, json, sys\n"
        "from gaussmap.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {WELL_FORMED!r}]\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [0] * len(WELL_FORMED)
    assert not set(loaded) & {"dataclasses", "inspect", "argparse", "gettext", "locale"}
    banned = re.compile(r"\b(exec|compile|eval)\(|^\s*(import|from)\s+dataclasses\b", re.M)
    offenders = [
        path.name for path in sorted(PACKAGE.rglob("*.py")) if banned.search(path.read_text())
    ]
    assert offenders == []
