import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from chipfire.cli import main


@pytest.fixture
def t3_file(tmp_path):
    path = tmp_path / "t3.json"
    path.write_text(json.dumps({
        "type": "digraph",
        "vertices": 3,
        "arcs": [[0, 1, 1], [1, 2, 1], [2, 0, 1]],
    }))
    return str(path)


@pytest.fixture
def exa_file(tmp_path):
    edges = [[i, (i + 1) % 6, 1] for i in range(6)] + [[0, 3, 2]]
    path = tmp_path / "exa.json"
    path.write_text(json.dumps({
        "type": "arithmetical",
        "vertices": 6,
        "edges": edges,
        "multiplicities": [1, 2, 1, 2, 1, 2],
    }))
    return str(path)


@pytest.fixture
def exb_file(tmp_path):
    """K4 with edge v2v3 subdivided twice, R = (2,4,3,3,3,3) (fixtures.ex_b)."""
    edges = [[0, 1, 1], [0, 2, 1], [0, 3, 1], [1, 2, 1], [1, 3, 1],
             [2, 4, 1], [4, 5, 1], [5, 3, 1]]
    path = tmp_path / "exb.json"
    path.write_text(json.dumps({
        "type": "arithmetical",
        "vertices": 6,
        "edges": edges,
        "multiplicities": [2, 4, 3, 3, 3, 3],
    }))
    return str(path)


@pytest.fixture
def two_vertex_file(tmp_path):
    path = tmp_path / "tv.json"
    path.write_text(json.dumps({
        "type": "arithmetical",
        "vertices": 2,
        "edges": [[0, 1, 6]],
        "multiplicities": [2, 3],
    }))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_info_digraph(capsys, t3_file):
    code, doc = run(capsys, ["info", t3_file])
    assert code == 0
    assert doc["strongly_connected"] is True
    assert doc["period_vector"] == [1, 1, 1]


def test_info_arithmetical(capsys, exa_file):
    code, doc = run(capsys, ["info", exa_file])
    assert code == 0
    assert doc["multiplicities"] == [1, 2, 1, 2, 1, 2]
    assert doc["g0"] == 4


def test_reduce_roundtrip(capsys, t3_file):
    code, doc = run(capsys, ["reduce", t3_file, "--divisor", "3,1,1"])
    assert code == 0
    assert sum(doc["reduced"]) == 5


def test_dhar_reports_reducedness(capsys, t3_file):
    code, doc = run(capsys, ["dhar", t3_file, "--divisor", "0,0,0"])
    assert code == 0
    assert doc["reduced"] is True
    assert doc["witnesses"] == [[0, 0, 0]]


@pytest.mark.parametrize("divisor,terminal,steps", [
    ("0,0,0,0,0,0", [0, 0, 0, 0, 0, 0], 18),
    ("2,1,1,1,1,1", [0, 2, 2, 2, 3, 3], 6),
])
def test_dhar_steps_count_unit_decrements(capsys, exb_file, divisor, terminal, steps):
    """steps is sum(S) - sum(terminal), whatever the loop's step size."""
    code, doc = run(capsys, ["dhar", exb_file, f"--divisor={divisor}"])
    assert code == 0
    assert doc["terminal"] == terminal
    assert doc["steps"] == steps


@pytest.mark.parametrize("base", ["7", "-1"])
@pytest.mark.parametrize("command,divisor", [
    (["dhar"], "0,0,0"),
    (["reduce"], "0,0,0"),
    (["rank"], "-1,0,0"),
    (["extremes"], None),
    (["sandpile", "recurrent"], "0,0,0"),
    (["sandpile", "stabilize"], "1,1,1"),
], ids=["dhar", "reduce", "rank", "extremes", "sandpile-recurrent", "sandpile-stabilize"])
def test_base_outside_the_vertex_range_exits_2(t3_file, command, divisor, base):
    """Run in a subprocess with a timeout: an unchecked base once made
    stabilize fire every vertex forever."""
    package_root = Path(importlib.import_module("chipfire").__file__).resolve().parents[1]
    argv = [sys.executable, "-m", "chipfire.cli", *command, t3_file, f"--base={base}"]
    if divisor is not None:
        argv.append(f"--divisor={divisor}")
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=20,
                          env=dict(os.environ, PYTHONPATH=str(package_root)))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"base {base} is not in range(3)" in proc.stderr


def test_rank_command(capsys, t3_file):
    code, doc = run(capsys, ["rank", t3_file, "--divisor=-1,0,0"])
    assert code == 0
    assert doc["rank"] == -1


def test_extremes_on_two_vertex(capsys, two_vertex_file):
    code, doc = run(capsys, ["extremes", two_vertex_file])
    assert code == 0
    assert [c["rep"] for c in doc["classes"]] == [[-1, 1]]
    assert doc["g_min"] == doc["g_max"] == 2


def test_rr_check_exa(capsys, exa_file):
    code, doc = run(capsys, ["rr-check", exa_file])
    assert code == 0
    assert doc["uniform"] is False
    assert doc["reflection_invariant"] is False
    assert doc["rr"] is False


def test_sandpile_stabilize(capsys, t3_file):
    code, doc = run(capsys, ["sandpile", "stabilize", t3_file,
                             "--divisor", "0,3,0"])
    assert code == 0
    assert all(0 <= doc["stable"][v] < 1 for v in (1, 2))


def test_arith_star(capsys):
    code, doc = run(capsys, ["arith", "star", "--r0", "4", "--r1", "3"])
    assert code == 0
    assert doc["g0"] == 3


def test_oracle_rank(capsys, t3_file):
    code, doc = run(capsys, ["oracle", "rank", t3_file, "--divisor", "0,0,0"])
    assert code == 0
    assert doc["rank"] == 0


def test_invalid_graph_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"type\": \"nope\"}")
    code, _ = run(capsys, ["info", str(bad)])
    assert code == 2


def test_missing_file_exits_2(capsys):
    code, _ = run(capsys, ["info", "/nonexistent/graph.json"])
    assert code == 2


def test_bad_divisor_exits_2(capsys, t3_file):
    code, _ = run(capsys, ["rank", t3_file, "--divisor", "1,2"])
    assert code == 2


def test_budget_exceeded_exits_3(capsys, exa_file):
    code, _ = run(capsys, ["extremes", exa_file, "--budget", "1"])
    assert code == 3


def test_budget_env_variable(capsys, exa_file, monkeypatch):
    monkeypatch.setenv("CHIPFIRE_BUDGET", "1")
    code, _ = run(capsys, ["extremes", exa_file])
    assert code == 3


def test_output_is_deterministic(capsys, exa_file):
    main(["rr-check", exa_file])
    first = capsys.readouterr().out
    main(["rr-check", exa_file])
    second = capsys.readouterr().out
    assert first == second


def test_console_script_installed(t3_file):
    """The declared console script resolves and runs without an install.

    The script exists on PATH only after an install, so this checks what
    the repo controls: the ``[project.scripts]`` entry, its target, and a
    run of that target the way the generated wrapper runs it.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts.get("chipfire") == "chipfire.cli:main"
    module_name, attr = scripts["chipfire"].split(":")
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr))

    package_root = Path(module.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    wrapper = [sys.executable, "-c",
               f"import sys\nfrom {module_name} import {attr}\n"
               f"sys.exit({attr}())"]

    def run_script(command, *args):
        return subprocess.run([*command, *args], capture_output=True,
                              text=True, env=env, timeout=60)

    ok = run_script(wrapper, "info", t3_file)
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["period_vector"] == [1, 1, 1]
    missing = run_script(wrapper, "info", "/nonexistent/graph.json")
    assert missing.returncode == 2
    assert "Traceback" not in missing.stderr

    installed = shutil.which("chipfire")
    if installed:
        assert run_script([installed], "info", t3_file).stdout == ok.stdout
