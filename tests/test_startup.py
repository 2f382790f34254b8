"""Start-up footprint of the package and the result records it returns.

Every CLI call is a fresh process, so what ``import chipfire.cli`` loads is
paid on every request: no ``dataclasses`` (it pulls in ``inspect``, ``ast``,
``dis`` and ``tokenize``), no ``oracle`` until the ``oracle`` subcommand
runs, and no ``fixtures`` at all.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chipfire.arithmetical import ArithmeticalGraph, EuclideanSequence, GoodRepresentation
from chipfire.rank_extremes import ExtremeClass, ExtremeClassSet
from chipfire.reduction import DharTrace
from chipfire.riemann_roch import RRReport

SRC = Path(__file__).resolve().parents[1] / "src"

NOT_AT_START = ("dataclasses", "chipfire.oracle", "chipfire.fixtures")


def test_import_loads_no_dataclasses_oracle_or_fixtures():
    code = (
        "import json, sys, chipfire, chipfire.cli\n"
        f"print(json.dumps([chipfire.__file__, [m for m in {NOT_AT_START!r} if m in sys.modules]]))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    origin, loaded = json.loads(proc.stdout)
    assert Path(origin).resolve().is_relative_to(SRC)
    assert loaded == []


def test_no_module_under_src_imports_dataclasses():
    importers = set()
    for path in (SRC / "chipfire").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "dataclasses" in names:
                importers.add(path.name)
    assert importers == set()


RECORDS = [
    (DharTrace, ("steps", "terminal", "reduced_witnesses")),
    (ExtremeClass, ("rep", "degree", "all_reps")),
    (ExtremeClassSet, ("classes", "g_min", "g_max")),
    (RRReport, ("extremes", "uniform", "reflection_invariant", "rr_property", "canonical",
                "natural_rr", "g", "reflection_witness", "pairing")),
    (ArithmeticalGraph, ("adjacency", "multiplicities", "deltas")),
    (EuclideanSequence, ("values", "deltas")),
    (GoodRepresentation, ("coefficients",)),
]


@pytest.mark.parametrize("cls,fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_are_immutable_values_with_their_fields_in_order(cls, fields):
    values = [(i, -i) for i in range(len(fields))]
    record = cls(*values)
    assert cls._fields == fields
    assert [getattr(record, name) for name in fields] == values
    same = cls(**dict(zip(fields, [tuple(v) for v in values])))
    assert same == record and hash(same) == hash(record) and same is not record
    assert cls(*[(i + 1, -i) for i in range(len(fields))]) != record
    assert repr(record).startswith(f"{cls.__name__}({fields[0]}=(0, 0)")
    for name in (fields[0], fields[-1], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert record._replace(**{fields[0]: None}) != record


def test_the_suite_writes_no_bytecode():
    """conftest.py turns bytecode writing off in this process and, through
    the environment, in every subprocess the tests start, so a test run
    leaves no __pycache__ under src/."""
    assert sys.dont_write_bytecode is True
    assert os.environ["PYTHONDONTWRITEBYTECODE"] == "1"
