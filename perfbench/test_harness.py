"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from run import end_to_end  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_the_op_list(name, tmp_path):
    first, _ = workloads.build(name, 3, str(tmp_path))
    again, _ = workloads.build(name, 3, str(tmp_path))
    other, _ = workloads.build(name, 4, str(tmp_path))
    assert first == again
    assert first["ops"] != other["ops"]


def test_self_time_on_a_synthetic_span_tree():
    # a [0,10] holds b [1,4] (which holds c [2,3]) and d [5,9]; a second a [10,12].
    names = ["a", "b", "c", "d"]
    span_name = [0, 1, 2, 3, 0]
    parent = [-1, 0, 1, 0, -1]
    start = [0.0, 1.0, 2.0, 5.0, 10.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    got = tracing.self_times(names, span_name, parent, start, end)
    assert got == {"a": [2, 5.0], "b": [1, 2.0], "c": [1, 1.0], "d": [1, 4.0]}


def _small_spec(name, tmp_path):
    spec, _ = workloads.build(name, 5, str(tmp_path))
    if name == "rr-ladder":
        spec["ops"] = ["k4u", "ex_a", "ex_c", "ec(4)", "star(4,3)"]
    else:
        spec["ops"] = spec["ops"][:60]
    return spec


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_answers_unchanged(name, tmp_path):
    import chipfire

    spec = _small_spec(name, tmp_path)
    load = worker.Workload(name, spec)
    load.import_modules()
    _, _, plain, errors = worker.run_pass(load, spec["ops"], load.build())
    assert not errors
    original_rank = chipfire.rank
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, _, traced, errors = worker.run_pass(load, spec["ops"], load.build(), tracer)
    finally:
        tracer.uninstall()
    assert not errors
    assert traced == plain
    assert chipfire.rank is original_rank
    assert tracer.absent == []
    values = tracing.layer_metrics(tracer)
    assert set(values) == set(tracing.LAYER_METRICS)
    assert values["games.Game.calls"] > 0


def test_a_missing_target_is_reported_absent(monkeypatch):
    targets = tracing.TARGETS + [
        ("reduction", "no_such_function", "reduction.no_such_function"),
        ("games", "Game.no_such_method", "games.no_such_method"),
        ("no_such_module", "f", "no_such_module.f"),
    ]
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == [
        "reduction.no_such_function", "games.no_such_method", "no_such_module.f",
    ]


def test_benchmark_json_lists_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    # rr-ladder runs by hand only; every gated workload is one run.py knows.
    for w in bench["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]]
    layers = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert layers == {k: v[:2] for k, v in tracing.LAYER_METRICS.items()}
    fake = {"passes": [{"wall_s": 1.0, "op_s": [0.1, 0.2]}], "peak_rss_mb": 1.0}
    assert [m["name"] for m in bench["end_to_end"]] == list(end_to_end(fake, [0.1]))


def test_exact_lattice_agrees_with_chipfire():
    import random

    rng = random.Random(7)
    for desc in (workloads.LADDER[2][1], workloads.LADDER[10][1], workloads.LADDER[6][1]):
        game = workloads.make_game(desc)
        lat = reference.ExactLattice(game.firing_rows, game.period)
        for _ in range(200):
            z = [rng.randint(-3, 3) for _ in range(game.n_vertices)]
            assert lat.contains(z) == game.lattice.contains(z)
            member = game.apply([0] * game.n_vertices, [rng.randint(-2, 2) for _ in z])
            assert lat.contains(member)


def test_reference_rejects_wrong_answers(tmp_path):
    spec, refs = workloads.build("rank-sweep", 5, str(tmp_path))
    answers = [0] * len(spec["ops"])
    assert any(reference.verify_rank_sweep(spec, refs, answers).values())

    facts = reference.Facts(workloads.make_game({"fixture": "k4u", "game": "row"}))
    d = [-3, 5, 2, 7]
    assert reference.check_request(
        "reduce", d, 0, {"reduced": d, "strategy": [0, 0, 0, 1]}, facts, {}
    )
    assert reference.check_request("rank", [1, 1, 0, 0], 0, {"rank": 2}, facts, {})
    assert not reference.check_request(
        "rank", [1, 1, 0, 0], 0, {"rank": facts.rank([1, 1, 0, 0])}, facts, {}
    )

    ladder = {"games": dict((gid, desc) for gid, desc, _ in workloads.LADDER), "ops": ["star(4,3)"]}
    load = worker.Workload("rr-ladder", ladder)
    load.import_modules()
    _, _, answers, _ = worker.run_pass(load, ladder["ops"], load.build())
    assert reference.verify_rr_ladder(ladder, {}, answers) == {0: []}
    answers[0]["classes"] = answers[0]["classes"][1:]
    assert reference.verify_rr_ladder(ladder, {}, answers)[0]
