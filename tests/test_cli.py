import argparse
import contextlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chipfire.cli import build_parser, main

HELP_GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden" / "cli_help.json").read_text()
)


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


def test_reduce_of_a_huge_divisor_returns(tmp_path):
    """Run in a subprocess with a timeout: reduce once took a Dhar run per
    chip or two of imbalance, so this request never returned."""
    path = tmp_path / "k4u.json"
    arcs = [[i, j, 1] for i in range(4) for j in range(4) if i != j]
    path.write_text(json.dumps({"type": "digraph", "vertices": 4, "arcs": arcs}))
    m = 10**20
    package_root = Path(importlib.import_module("chipfire").__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "chipfire.cli", "reduce", str(path), f"--divisor={m},0,0,{-m}"],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=str(package_root)),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc == {"reduced": [0, 0, 0, 0], "strategy": [0, -m // 4, -m // 4, -m // 2]}


def test_rank_of_a_huge_divisor_returns(tmp_path):
    """Run in a subprocess with a timeout: rank once searched one degree at
    a time up to deg D, so this request never returned."""
    path = tmp_path / "k4u.json"
    arcs = [[i, j, 1] for i in range(4) for j in range(4) if i != j]
    path.write_text(json.dumps({"type": "digraph", "vertices": 4, "arcs": arcs}))
    m = 10**20
    package_root = Path(importlib.import_module("chipfire").__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "chipfire.cli", "rank", str(path), f"--divisor={m},0,0,0"],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=str(package_root)),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"rank": m - 3}


def test_stabilize_of_a_huge_divisor_returns(tmp_path):
    """Run in a subprocess with a timeout: stabilize once fired the
    lowest-index overfull vertex and scanned again, passing the chips round
    the cycle a few at a time, so this request never returned."""
    from chipfire import fixtures
    from chipfire.arithmetical import chip_game

    path = tmp_path / "ec5.json"
    edges = [[i, (i + 1) % 10, 1] for i in range(10)]
    mults = [1, 2] * 5
    path.write_text(json.dumps({"type": "arithmetical", "vertices": 10, "edges": edges,
                                "multiplicities": mults}))
    d = (0,) + (10**20,) * 9
    package_root = Path(importlib.import_module("chipfire").__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "chipfire.cli", "sandpile", "stabilize", str(path),
         "--divisor=" + ",".join(map(str, d))],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=str(package_root)),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    game = chip_game(fixtures.ec(5))
    assert all(doc["stable"][v] < game.threshold(v) for v in range(1, 10))
    assert min(doc["fired"]) >= 0 and doc["fired"][0] == 0
    assert game.apply(d, doc["fired"]) == tuple(doc["stable"])


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


def test_dhar_prints_the_full_trace_terminal_and_witnesses(capsys, exb_file):
    """The command burns without recording steps; what it prints matches
    reduction.dhar's full trace."""
    from chipfire import fixtures
    from chipfire.arithmetical import chip_game
    from chipfire.reduction import dhar

    game = chip_game(fixtures.ex_b())
    for divisor in [(0,) * 6, (2, 1, 1, 1, 1, 1), (-3, 0, 5, 2, 0, 7), (40, 1, 0, 9, 3, 2)]:
        trace = dhar(game, 0, divisor)
        code, doc = run(capsys, ["dhar", exb_file, "--divisor=" + ",".join(map(str, divisor))])
        assert code == 0
        assert doc == {
            "terminal": list(trace.terminal),
            "reduced": not any(trace.terminal),
            "witnesses": [list(w) for w in trace.reduced_witnesses],
            "steps": sum(game.period) - sum(trace.terminal),
        }


@pytest.mark.parametrize("literal", ["1_0,0,0", "\u0663,0,0", "1.0,0,0", "+-1,0,0", "1 0,0,0"],
                         ids=["underscore", "arabic-indic-digit", "point", "two-signs", "inner-space"])
def test_divisor_literal_takes_only_ascii_integers(capsys, t3_file, literal):
    """int() reads '1_0' as 10 and the Arabic-Indic digit three as 3;
    neither is a divisor literal."""
    assert main(["rank", t3_file, f"--divisor={literal}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad divisor literal" in captured.err


def test_divisor_literal_takes_signs_and_surrounding_spaces(capsys, t3_file):
    _, plain = run(capsys, ["dhar", t3_file, "--divisor=1,0,2"])
    _, spaced = run(capsys, ["dhar", t3_file, "--divisor= +1 ,-0,  2 "])
    assert plain is not None and spaced == plain


@pytest.mark.parametrize("base", ["7", "-1"])
@pytest.mark.parametrize("command,divisor", [
    (["dhar"], "0,0,0"),
    (["reduce"], "0,0,0"),
    (["rank"], "-1,0,0"),
    (["extremes"], None),
    (["sandpile", "recurrent"], "0,0,0"),
    (["sandpile", "stabilize"], "1,1,1"),
    (["oracle", "rank"], "1,1,1"),
    (["oracle", "effective"], "1,1,1"),
    (["oracle", "reduced"], "1,1,1"),
], ids=["dhar", "reduce", "rank", "extremes", "sandpile-recurrent", "sandpile-stabilize",
        "oracle-rank", "oracle-effective", "oracle-reduced"])
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


T3_ARCS = [[0, 1, 1], [1, 2, 1], [2, 0, 1]]
TV_GRAPH = {"type": "arithmetical", "vertices": 2, "edges": [[0, 1, 6]],
            "multiplicities": [2, 3]}


@pytest.mark.parametrize("graph", [
    {"type": "digraph", "vertices": 3, "arcs": [[0, 1, 1.5]] + T3_ARCS[1:]},
    {"type": "digraph", "vertices": 3, "arcs": [[0, 1, 3.0]] + T3_ARCS[1:]},
    {"type": "digraph", "vertices": 3, "arcs": [[0, 1, True]] + T3_ARCS[1:]},
    {"type": "digraph", "vertices": 3, "arcs": [[0.0, 1, 1]] + T3_ARCS[1:]},
    {"type": "digraph", "vertices": True, "arcs": T3_ARCS},
    dict(TV_GRAPH, multiplicities=[2, 3.0]),
    dict(TV_GRAPH, multiplicities=[True, 1]),
    dict(TV_GRAPH, edges=[[0, 1, 6.0]]),
    dict(TV_GRAPH, vertices=2.0),
], ids=["arc-mult-1.5", "arc-mult-3.0", "arc-mult-true", "arc-tail-0.0", "vertices-true",
        "mult-3.0", "mult-true", "edge-mult-6.0", "vertices-2.0"])
def test_non_integer_graph_numbers_exit_2(tmp_path, graph):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    package_root = Path(importlib.import_module("chipfire").__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "chipfire.cli", "info", str(path)],
                          capture_output=True, text=True, timeout=20,
                          env=dict(os.environ, PYTHONPATH=str(package_root)))
    assert proc.returncode == 2, proc.stdout
    assert "Traceback" not in proc.stderr
    assert "must be integers" in proc.stderr


def test_arith_validate_rejects_disconnected_graph(tmp_path):
    path = tmp_path / "two_components.json"
    path.write_text(json.dumps({"type": "arithmetical", "vertices": 4,
                                "edges": [[0, 1, 1], [2, 3, 1]],
                                "multiplicities": [1, 1, 1, 1]}))
    package_root = Path(importlib.import_module("chipfire").__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "chipfire.cli", "arith", "validate", str(path)],
                          capture_output=True, text=True, timeout=20,
                          env=dict(os.environ, PYTHONPATH=str(package_root)))
    assert proc.returncode == 2, proc.stdout
    assert "Traceback" not in proc.stderr
    assert "base graph must be connected" in proc.stderr


def test_arith_star_needs_r0_and_r1(capsys):
    assert main(["arith", "star", "--r0", "3"]) == 2
    assert "--r0 and --r1" in capsys.readouterr().err


def test_oracle_negative_box_exits_2(capsys, t3_file):
    assert main(["oracle", "rank", t3_file, "--divisor=1,1,1", "--box", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--box must be nonnegative" in captured.err


def test_extremes_has_no_json_flag(capsys, two_vertex_file):
    assert main(["extremes", two_vertex_file, "--json"]) == 2


def test_sandpile_minimal_budget_exceeded_exits_3(capsys, exa_file):
    """The budget is checked before each Dhar run of the walk."""
    assert main(["sandpile", "minimal", exa_file, "--budget", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the walk reached 2 Dhar runs, budget is 1" in captured.err


def test_sandpile_minimal_checks_base_before_scanning(capsys, exa_file, monkeypatch):
    """The base is checked before the budget and before any candidate."""
    from chipfire import sandpile

    def no_scan(*args):
        raise AssertionError("scanned a candidate")

    monkeypatch.setattr(sandpile, "is_reduced", no_scan)
    assert main(["sandpile", "minimal", exa_file, "--base", "7", "--budget", "1"]) == 2
    assert "base 7 is not in range(6)" in capsys.readouterr().err


def test_extremes_output_matches_rr_check(capsys, exa_file, two_vertex_file):
    for path in (exa_file, two_vertex_file):
        assert main(["extremes", path]) == 0
        extremes_out = capsys.readouterr().out
        code, report = run(capsys, ["rr-check", path])
        assert code == 0
        subset = {key: report[key] for key in ("classes", "g_min", "g_max")}
        assert extremes_out == json.dumps(subset, sort_keys=True) + "\n"


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
    assert doc == {"rank_lower_bound": 0}


def test_oracle_rank_reports_a_lower_bound(capsys, tmp_path):
    """On k4u the box-3 effectivity search misses effective translates of
    D - E, so the oracle's value is below the rank."""
    path = tmp_path / "k4u.json"
    arcs = [[i, j, 1] for i in range(4) for j in range(4) if i != j]
    path.write_text(json.dumps({"type": "digraph", "vertices": 4, "arcs": arcs}))
    argv = [str(path), "--divisor=8,8,8,8"]
    assert run(capsys, ["oracle", "rank", *argv, "--box", "3"]) == (0, {"rank_lower_bound": 17})
    assert run(capsys, ["rank", *argv]) == (0, {"rank": 29})


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


@pytest.mark.parametrize("argv", [
    ["extremes"], ["rr-check"], ["sandpile", "minimal"], ["arith", "check"],
], ids=["extremes", "rr-check", "sandpile-minimal", "arith-check"])
def test_negative_budget_exits_2(capsys, monkeypatch, exa_file, argv):
    """A negative budget is invalid input, from the flag or the environment,
    and so is an environment value that is not an integer."""
    assert main([*argv, exa_file, "--budget", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--budget must be nonnegative, got -5" in captured.err
    monkeypatch.setenv("CHIPFIRE_BUDGET", "-3")
    assert main([*argv, exa_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "CHIPFIRE_BUDGET must be nonnegative, got -3" in captured.err
    monkeypatch.setenv("CHIPFIRE_BUDGET", "abc")
    assert main([*argv, exa_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "CHIPFIRE_BUDGET must be a nonnegative integer, got 'abc'" in captured.err


def test_zero_budget_is_valid(capsys, monkeypatch, exa_file):
    assert main(["rr-check", exa_file, "--budget", "0"]) == 3
    monkeypatch.setenv("CHIPFIRE_BUDGET", "0")
    assert main(["extremes", exa_file]) == 3
    assert "budget is 0" in capsys.readouterr().err


def test_rr_check_formula_is_a_flag(capsys, t3_file, exa_file):
    """--formula takes no value, and a game without the Riemann-Roch
    property reports no formula verdict."""
    assert main(["rr-check", t3_file, "--formula", "1"]) == 2
    assert main(["rr-check", t3_file, "--formula-box", "1"]) == 2
    capsys.readouterr()
    code, doc = run(capsys, ["rr-check", t3_file, "--formula"])
    assert code == 0
    assert doc["formula_ok"] is True
    code, doc = run(capsys, ["rr-check", exa_file, "--formula"])
    assert code == 0
    assert doc["rr"] is False and "formula_ok" not in doc


@pytest.mark.skipif(sys.version_info >= (3, 13),
                    reason="Python 3.13 wraps argparse usage lines differently")
@pytest.mark.parametrize("command", sorted(HELP_GOLDEN))
def test_help_matches_golden(capsys, monkeypatch, command):
    """--help text at 80 columns, as recorded before the parser was shared."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = [] if command == "chipfire" else [command]
    assert main([*argv, "--help"]) == 0
    assert capsys.readouterr().out == HELP_GOLDEN[command]


def test_trace_does_not_carry_over_to_next_request(capsys, t3_file):
    argv = ["reduce", t3_file, "--base", "1", "--divisor=2,0,0"]
    assert main([*argv, "--trace"]) == 0
    traced = capsys.readouterr()
    assert len(traced.err.splitlines()) == 3
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert plain.out == traced.out


def test_parse_error_does_not_affect_next_request(capsys, t3_file):
    assert main(["rank", t3_file, "--base", "x", "--divisor=-1,0,0"]) == 2
    assert "invalid int value" in capsys.readouterr().err
    code, doc = run(capsys, ["rank", t3_file, "--divisor=-1,0,0"])
    assert code == 0
    assert doc == {"rank": -1}


def test_main_reuses_one_parser(capsys, monkeypatch, t3_file):
    main(["info", t3_file])
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in [["info", t3_file], ["rank", t3_file, "--divisor=-1,0,0"],
                 ["dhar", t3_file, "--divisor=0,0,0"], ["bogus"], ["extremes", t3_file]] * 2:
        main(argv)
    assert built == []
    build_parser()
    assert len(built) == 10  # the counter sees the top level and nine subcommands


def _streamed_json(payload):
    buf = io.StringIO()
    json.dump(payload, buf, sort_keys=True)
    return buf.getvalue() + "\n"


@pytest.mark.parametrize("argv,key", [
    (["dhar", "exb", "--divisor=0,0,0,0,0,0"], "witnesses"),
    (["rr-check", "t3"], "reflection_witness"),
], ids=["dhar", "rr-check"])
def test_stdout_matches_streaming_encoder(capsys, monkeypatch, t3_file, exb_file, argv, key):
    """One-shot json.dumps writes the bytes the pure-Python json.dump wrote."""
    files = {"t3": t3_file, "exb": exb_file}
    payloads = []
    real_dumps = json.dumps

    def spy(obj, **kwargs):
        payloads.append(obj)
        return real_dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", spy)
    assert main([argv[0], files[argv[1]], *argv[2:]]) == 0
    out = capsys.readouterr().out
    assert len(payloads) == 1 and payloads[0][key]
    assert out == _streamed_json(payloads[0])


@pytest.mark.parametrize("argv,builds", [
    (["reduce", "--divisor=5,0,0,0,0,0"], 0),
    (["dhar", "--divisor=0,0,0,0,0,0"], 0),
    (["sandpile", "stabilize", "--divisor=0,7,1,2,3,4"], 0),
    (["sandpile", "recurrent", "--divisor=0,1,2,2,1,1"], 0),
    (["rank", "--divisor=1,1,1,1,1,1"], 1),
    (["rr-check", "--formula"], 1),
    (["rank", "--game=column", "--divisor=-1,0,0"], 1),
], ids=["reduce", "dhar", "sandpile-stabilize", "sandpile-recurrent", "rank", "rr-check",
        "rank-column"])
def test_only_lattice_queries_build_a_basis(capsys, lattice_builds, exb_file, t3_file, argv,
                                            builds):
    """The column game keeps the basis behind its period vector as its lattice."""
    graph = t3_file if "--game=column" in argv else exb_file
    code, doc = run(capsys, argv[:-1] + [graph, argv[-1]])
    assert code == 0 and doc
    assert lattice_builds[0] == builds


def test_readme_rr_check_example(capsys, tmp_path):
    """The README's rr-check example is what the CLI prints for the triangle."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("$ chipfire rr-check triangle.json --formula\n", 1)[1]
    path = tmp_path / "triangle.json"
    arcs = [[i, j, 1] for i in range(3) for j in range(3) if i != j]
    path.write_text(json.dumps({"type": "digraph", "vertices": 3, "arcs": arcs}))
    code, doc = run(capsys, ["rr-check", str(path), "--formula"])
    assert code == 0
    assert doc == json.loads(block.split("```", 1)[0])


@pytest.mark.parametrize("action", ["validate", "g0", "digraph", "check"])
def test_arith_without_a_graph_file_exits_2(capsys, action):
    assert main(["arith", action]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"arith {action} needs a graph file" in captured.err


def test_directory_as_graph_file_exits_2(capsys, tmp_path):
    assert main(["info", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_request_inputs_are_checked_in_one_order(capsys, tmp_path, t3_file):
    """Of two bad inputs, the one earlier in the request order is reported."""
    assert main(["reduce", t3_file, "--base", "9", "--divisor=x"]) == 2
    assert "base 9 is not in range(3)" in capsys.readouterr().err
    missing = str(tmp_path / "missing.json")
    assert main(["oracle", "effective", missing, "--box", "-1", "--divisor=x"]) == 2
    assert "missing.json" in capsys.readouterr().err
    assert main(["oracle", "effective", t3_file, "--divisor=x", "--budget", "0"]) == 2
    assert "bad divisor literal" in capsys.readouterr().err


def test_rr_check_formula_window_is_budgeted(capsys, exb_file):
    """ex_b (g = 5) has 4 classes per degree, so degrees 0..8 hold 36."""
    assert main(["rr-check", exb_file, "--formula", "--budget", "35"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "degree window 0..8 holds 36 classes, budget is 35" in captured.err
    code, doc = run(capsys, ["rr-check", exb_file, "--formula", "--budget", "36"])
    assert code == 0
    assert doc["formula_ok"] is True


def test_rr_check_formula_on_star_5_3(capsys, tmp_path):
    """star(5,3) has 5^16 points in a radius-2 sample box, but 1,375
    classes in its degree window."""
    from chipfire import fixtures

    ag = fixtures.star(5, 3)
    n = ag.n_vertices
    edges = [[i, j, ag.adjacency[i][j]] for i in range(n) for j in range(i + 1, n)
             if ag.adjacency[i][j]]
    path = tmp_path / "star53.json"
    path.write_text(json.dumps({"type": "arithmetical", "vertices": n, "edges": edges,
                                "multiplicities": list(ag.multiplicities)}))
    code, doc = run(capsys, ["rr-check", str(path), "--formula"])
    assert code == 0
    assert doc["rr"] is True and doc["g"] == 6 and doc["formula_ok"] is True
    assert main(["rr-check", str(path), "--formula", "--budget", "1374"]) == 3
    assert "holds 1375 classes, budget is 1374" in capsys.readouterr().err


@pytest.mark.parametrize("argv,count", [
    (["effective", "--divisor=-1,0,0,0", "--box=40"], 81**3),
    (["rank", "--divisor=0,0,0,0", "--box=1000"], 2001**3),
    (["reduced", "--divisor=0,0,0,0"], 8),
], ids=["effective", "rank", "reduced"])
def test_oracle_counts_its_strategies_against_the_budget(capsys, tmp_path, argv, count):
    """k4u has period (1, 1, 1, 1): an effectivity search walks one base
    value times (2 box + 1)^3 strategies, and the reducedness check
    2^3 - 1 valid strategies plus the zero one."""
    path = tmp_path / "k4u.json"
    arcs = [[i, j, 1] for i in range(4) for j in range(4) if i != j]
    path.write_text(json.dumps({"type": "digraph", "vertices": 4, "arcs": arcs}))
    command = ["oracle", argv[0], str(path), *argv[1:]]
    assert main([*command, f"--budget={count - 1}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"oracle {argv[0]} searches {count} strategies, budget is {count - 1}" in captured.err
    if count <= 1000:
        assert main([*command, f"--budget={count}"]) == 0


@pytest.mark.parametrize("command", [["reduce"], ["dhar"], ["rank"]])
def test_queries_take_no_budget(capsys, t3_file, command):
    """reduce, dhar and rank read no budget, so they do not accept one."""
    assert main([*command, t3_file, "--divisor=0,0,0", "--budget", "-5"]) == 2
    assert "unrecognized arguments: --budget -5" in capsys.readouterr().err


def _run_capped(argv, tmp_path):
    """Run the CLI in a subprocess under an 800 MB address-space cap."""
    resource = pytest.importorskip("resource")
    package_root = Path(importlib.import_module("chipfire").__file__).resolve().parents[1]
    cap = 800 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run([sys.executable, "-m", "chipfire.cli", *argv],
                          capture_output=True, text=True, timeout=20, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(package_root)),
                          preexec_fn=limit)


@pytest.mark.parametrize("graph,message", [
    ({"type": "digraph", "vertices": 200000, "arcs": [[0, 1, 1], [1, 0, 1]]},
     "vertex 2 lies on no arc"),
    ({"type": "digraph", "vertices": 10**18, "arcs": [[0, 1, 1], [1, 0, 1]]},
     "vertex 2 lies on no arc"),
    ({"type": "arithmetical", "vertices": 200000, "edges": [[0, 1, 1]],
      "multiplicities": [1, 1]}, "vertex 2 lies on no edge"),
    ({"type": "digraph", "vertices": 3, "arcs": [[0, 1, 1], [1, 0, 1]]},
     "vertex 2 lies on no arc"),
], ids=["digraph-200000", "digraph-1e18", "arithmetical-200000", "digraph-3"])
def test_graph_with_an_isolated_vertex_exits_2_before_allocating(tmp_path, graph, message):
    """The vertex count once sized an n x n matrix before any check: 200,000
    vertices printed a MemoryError traceback under this cap."""
    (tmp_path / "g.json").write_text(json.dumps(graph))
    proc = _run_capped(["info", "g.json"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


def test_arith_star_checks_its_matrix_against_the_budget(tmp_path):
    """star(r0, 1) has 1 + r0 vertices; at r0 = 300,000 its matrix once
    raised MemoryError under this cap."""
    proc = _run_capped(["arith", "star", "--r0", "300000", "--r1", "1"], tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "star(300000,1) needs a 300001 x 300001 matrix" in proc.stderr
    proc = _run_capped(["arith", "star", "--r0", "10000000000", "--r1", "9999999999"], tmp_path)
    assert proc.returncode == 3, proc.stderr
    proc = _run_capped(["arith", "star", "--r0", "5", "--r1", "3", "--budget", "120"], tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert "star(5,3) needs a 11 x 11 matrix, budget is 120" in proc.stderr
    proc = _run_capped(["arith", "star", "--r0", "5", "--r1", "3", "--budget", "121"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["vertices"] == 11
    proc = _run_capped(["arith", "star", "--r0", "3", "--r1", "5"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "arith star needs --r0 > --r1 >= 1, got 3 and 5" in proc.stderr


COMMANDS = (
    [["info"], ["reduce"], ["dhar"], ["rank"], ["extremes"], ["rr-check"]]
    + [["sandpile", a] for a in ("stabilize", "recurrent", "minimal")]
    + [["arith", a] for a in ("validate", "g0", "digraph", "star", "check")]
    + [["oracle", a] for a in ("rank", "effective", "reduced")]
)
GAME_COMMANDS = {"reduce", "dhar", "rank", "extremes", "rr-check", "sandpile", "oracle"}
DIVISOR_COMMANDS = {"reduce", "dhar", "rank", "sandpile", "oracle"}
BUDGET_COMMANDS = {"extremes", "rr-check", "sandpile", "arith", "oracle"}


@st.composite
def graph_documents(draw, arithmetical):
    """JSON text of a graph with at most 4 vertices, valid or with one bad number."""
    n = draw(st.integers(2, 4))
    mults = draw(st.lists(st.sampled_from([1, 2, 3, 0]), min_size=n * n, max_size=n * n))
    if not arithmetical:
        rows = [[i, j, mults[i * n + j]] for i in range(n) for j in range(n)
                if i != j and mults[i * n + j]]
        doc = {"type": "digraph", "vertices": n, "arcs": rows}
    else:
        rows = [[i, j, mults[i * n + j]] for i in range(n) for j in range(i + 1, n)
                if mults[i * n + j]]
        r = draw(st.sampled_from([[1] * n, [1] * n, [1] * (n - 1) + [2], [2, 3, 3, 3][:n]]))
        doc = {"type": "arithmetical", "vertices": n, "edges": rows, "multiplicities": r}
    bad = draw(st.sampled_from([None] * 20 + [1.5, 2.0, True]))
    if bad is not None:
        if rows and draw(st.booleans()):
            rows[0][2] = bad
        else:
            doc["vertices"] = bad
    return json.dumps(doc), n


@st.composite
def cli_requests(draw, workdir):
    """argv for one request on a graph file written into workdir."""
    command = draw(st.sampled_from(COMMANDS))
    name = command[0]
    source = draw(st.sampled_from(
        ["graph"] * 12 + ["[1, 2]", "3", "not json", "missing", "directory", "none"]
    ))
    n = 3
    if source == "graph":
        text, n = draw(graph_documents(name == "arith" or draw(st.booleans())))
        path = workdir / "g.json"
        path.write_text(text)
    elif source in ("[1, 2]", "3", "not json"):
        path = workdir / "g.json"
        path.write_text(source)
    elif source == "directory":
        path = workdir
    else:
        path = workdir / "missing.json"
    argv = list(command) + ([] if source == "none" else [str(path)])
    if name in GAME_COMMANDS or name == "arith":
        argv.append(f"--base={draw(st.sampled_from([*range(n)] * 3 + [*range(-2, 6)]))}")
    if name in BUDGET_COMMANDS and draw(st.booleans()):
        argv.append(f"--budget={draw(st.integers(-1, 50))}")
    if name in GAME_COMMANDS:
        argv.append(f"--game={draw(st.sampled_from(['row', 'column']))}")
    if name in DIVISOR_COMMANDS:
        length = n + draw(st.sampled_from([0] * 6 + [-1, 1]))
        bound = 10**18 if name in ("reduce", "sandpile", "rank") else 6
        entries = draw(st.lists(st.integers(-bound, bound) | st.integers(-6, 6),
                                min_size=length, max_size=length))
        literal = draw(st.sampled_from([",".join(map(str, entries))] * 6 + ["x", "1,,2", ""]))
        if draw(st.sampled_from([True] * 9 + [False])):
            argv.append(f"--divisor={literal}")
    if name == "oracle":
        argv.append(f"--box={draw(st.integers(-1, 1))}")
    if name == "rr-check" and draw(st.booleans()):
        argv.append("--formula")
    if name == "reduce" and draw(st.booleans()):
        argv.append("--trace")
    if command == ["arith", "star"]:
        argv += [f"--r0={draw(st.integers(-1, 6))}", f"--r1={draw(st.integers(-1, 6))}"]
    return argv


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_requests_exit_0_to_3_without_raising(tmp_path, data):
    """Any argv and graph file: an exit code in {0, 1, 2, 3}, never an exception.

    Exit 1 means a requested property check failed, so only ``rr-check
    --formula`` and ``arith check`` may return it.  Divisor entries of
    ``reduce``, ``sandpile`` and ``rank`` go up to 10**18; those of ``dhar``
    and the oracles stay within 6.
    """
    argv = data.draw(cli_requests(tmp_path))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert argv[:2] == ["arith", "check"] or (
            argv[0] == "rr-check" and "--formula" in argv
        )
