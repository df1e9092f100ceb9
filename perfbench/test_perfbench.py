"""Tests of the benchmark itself: input generator, exact-result gate, tracer, compare."""
import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import compare  # noqa: E402
import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from thetaforge import linalg, quantum_group, rt_torus, scalar  # noqa: E402
from thetaforge.sl2z import sl2z_decompose, word_matrix  # noqa: E402


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_same_sizes(workload):
    a, b = workloads.make_inputs(workload, 7), workloads.make_inputs(workload, 8)
    assert a != b
    assert workloads.input_sizes(a) == workloads.input_sizes(b)
    names = [c.name for c in workloads.make_checks(workload, a)]
    assert names == [c.name for c in workloads.make_checks(workload, b)]


def test_modular_words_are_normal_forms():
    for seed in range(5):
        inputs = workloads.make_inputs("modular-products", seed)
        for word in inputs["modular_words"].values():
            assert len(word) == 6
            assert sl2z_decompose(word_matrix(word)) == word


def test_heis_labels_have_fixed_magnitudes():
    mags = workloads.HEIS_MAGNITUDES
    for seed in range(5):
        pairs = workloads.make_inputs("statement-sweep", seed)["heis_pairs"]
        for i, (_, x, y) in enumerate(pairs):
            mag = mags[i % len(mags)]
            assert all(0.99 * mag <= abs(v) <= mag for v in (*x, *y))


def _sweep_checks(*names):
    checks = workloads.make_checks("statement-sweep", workloads.make_inputs("statement-sweep", 0))
    return [c for c in checks if c.name in names]


def _judge(checks, recorded):
    _, outcomes = gate.run_checks(checks)
    return gate.judge(outcomes, recorded, "statement-sweep", 0)


def test_gate_passes_recorded_digests():
    results = _judge(_sweep_checks("colorings_g4_r7", "presentation_r8"), gate.load_digests())
    assert [r["ok"] for r in results] == [True, True]
    assert all(r["digest_compared"] for r in results)


def test_gate_fails_on_changed_digest():
    recorded = copy.deepcopy(gate.load_digests())
    fixed = recorded["statement-sweep"]["fixed"]
    fixed["colorings_g4_r7"] = "0" * 32
    results = _judge(_sweep_checks("colorings_g4_r7", "presentation_r8"), recorded)
    failed = [r for r in results if not r["ok"]]
    assert [r["check"] for r in failed] == ["colorings_g4_r7"]
    assert "digest" in failed[0]["error"]


def test_gate_fails_on_changed_identity_input(monkeypatch):
    real = quantum_group.verlinde_numeric
    monkeypatch.setattr(quantum_group, "verlinde_numeric", lambda g, r: real(g, r) + 1)
    results = _judge(_sweep_checks("colorings_g4_r7"), gate.load_digests())
    assert [(r["ok"], r["error"]) for r in results] == [(False, "identity is false")]


def test_gate_fails_on_raise_and_missing_digest():
    def boom():
        raise ArithmeticError("broken")

    checks = [workloads.Check("raises", boom, False),
              workloads.Check("unrecorded", lambda: (True, {"n": 1}), False)]
    results = _judge(checks, gate.load_digests())
    assert [r["ok"] for r in results] == [False, False]
    assert results[0]["error"].startswith("ArithmeticError")
    assert "no digest" in results[1]["error"]


def test_digest_ignores_representation_but_not_value():
    a = scalar.qint(3, 5)
    same = scalar.t_power(5, 4) + scalar.CycScalar.one(5) + scalar.t_power(5, -4)
    assert gate.digest({"x": a}) == gate.digest({"x": same})
    assert gate.digest({"x": a}) != gate.digest({"x": a + 1})


def test_tracer_counts_and_restores():
    originals = (scalar.CycScalar.__dict__["__mul__"], scalar.CycScalar.__dict__["__rmul__"],
                 rt_torus.t_power, linalg.mat_mul, linalg.RowSpan.add)
    t = tracer.Tracer()
    t.install()
    try:
        with t.span("check:demo"):
            rt_torus.rho_word_exact([("S", 1), ("T", 1)], 4)
            3 * scalar.CycScalar.one(4)
            span = linalg.RowSpan()
            span.add([scalar.CycScalar.one(4)])
            span.add([scalar.CycScalar.one(4)])
    finally:
        t.restore()
    m = t.layer_metrics()
    assert m["scalar.mul_calls"] > 0 and m["scalar.add_calls"] > 0
    assert m["scalar.t_power_calls"] > 0 and m["scalar.qint_calls"] > 0
    assert m["linalg.mat_mul_calls"] == 2 and m["rt_torus.rho_word_exact_calls"] == 1
    assert m["linalg.rowspan_add_calls"] == 2 and m["linalg.rowspan_useful_ratio"] == 0.5
    times = tracer.self_times(t.spans)
    assert sum(s for _, s in times.values()) == pytest.approx(
        t.spans[0][2] - t.spans[0][1], rel=1e-9)
    assert originals == (scalar.CycScalar.__dict__["__mul__"],
                         scalar.CycScalar.__dict__["__rmul__"],
                         rt_torus.t_power, linalg.mat_mul, linalg.RowSpan.add)


def test_layer_map_matches_benchmark():
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)["metrics"]
    names = {m["name"] for m in _bench()["per_layer"]}
    assert names == set(layers)
    produced = set(tracer.Tracer().layer_metrics()) | {"trace.overhead_s"}
    assert names <= produced
    spans = set(tracer.SCALAR_ENTRIES) | set(tracer.SPAN_ENTRIES)
    assert {info["entry"] for info in layers.values() if info["entry"]} <= spans
    assert all(set(info["on"]) <= set(workloads.WORKLOADS) for info in layers.values())


def _write_set(path, values, workload="w"):
    with open(path, "w") as fh:
        for seed, v in enumerate(values):
            fh.write(json.dumps({"workload": workload, "seed": seed, "trace": 0,
                                 "metrics": {"verify_s": v}}) + "\n")
    return compare.load_runs(str(path))["w"]


@pytest.mark.parametrize(
    "change, expected",
    [
        ([0.80, 0.81, 0.79, 0.80, 0.82, 0.80, 0.81, 0.80, 0.79, 0.80], "improved"),
        ([1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00], "no worse"),
        ([1.30, 1.31, 1.29, 1.30, 1.32, 1.30, 1.31, 1.30, 1.29, 1.30], "regressed"),
        ([0.60, 1.40, 0.70, 1.30, 0.80, 1.20, 0.65, 1.35, 0.90, 1.10], "unresolved"),
        ([1.50, 2.50, 1.60, 2.40, 1.70, 2.30, 1.55, 2.45, 1.80, 2.20], "regressed"),
    ],
)
def test_compare_verdicts(tmp_path, change, expected):
    metric = {"name": "verify_s", "better": "lower", "bound": 0.1}
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    b = _write_set(tmp_path / "a.jsonl", base)
    c = _write_set(tmp_path / "b.jsonl", change)
    pairs = [(x["metrics"]["verify_s"], y["metrics"]["verify_s"]) for x, y in compare.pair(b, c)]
    assert compare.verdict(metric, base, change, pairs)[0] == expected


def test_pair_matches_seeds_in_run_order():
    def rec(seed, v):
        return {"seed": seed, "metrics": {"verify_s": v}}

    base = [rec(0, 1.0), rec(1, 1.1), rec(1, 1.2)]
    change = [rec(1, 2.1), rec(2, 2.0), rec(1, 2.2)]
    pairs = [(b["metrics"]["verify_s"], c["metrics"]["verify_s"])
             for b, c in compare.pair(base, change)]
    assert pairs == [(1.1, 2.1), (1.2, 2.2)]
    assert compare.pair(base[:1], change) == []


def test_commit_label():
    assert compare.commit_label({"program_commit": None}) == "unknown"
    assert compare.commit_label({"program_commit": "a" * 40, "program_dirty": True}) == (
        "a" * 12 + "+dirty")
