"""Self-tests of the benchmark: inputs, checker, tracer, entry point.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checker
import tracer
import workloads
from opcover import cli, linalg

BENCH = Path(__file__).resolve().parents[1]


def first_of_each_kind(workload, seed=3):
    seen, ops = set(), []
    for op in workloads.make_deck(workload, seed)[0]:
        if op["kind"] not in seen:
            seen.add(op["kind"])
            ops.append(op)
    return ops


def op_of_kind(workload, kind):
    return next(op for op in first_of_each_kind(workload) if op["kind"] == kind)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(workload):
    a = workloads.deck_bytes(workloads.make_deck(workload, 11))
    b = workloads.deck_bytes(workloads.make_deck(workload, 11))
    assert a == b
    assert a != workloads.deck_bytes(workloads.make_deck(workload, 12))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_defect_probe_is_seeded_and_kept_out_of_the_deck(workload):
    a = workloads.deck_bytes(workloads.make_defect_probe(workload, 11))
    assert a == workloads.deck_bytes(workloads.make_defect_probe(workload, 11))
    timed = {op["kind"] for block in workloads.make_deck(workload, 11) for op in block}
    assert not timed & {op["kind"] for op in workloads.make_defect_probe(workload, 11)}


def kinds(node):
    if isinstance(node, dict):
        yield node.get("kind")
        for v in node.values():
            yield from kinds(v)
    elif isinstance(node, list):
        for v in node:
            yield from kinds(v)


def test_configs_are_explicit_and_valid():
    # The program must receive instances, never draw them: no "random"
    # channel, hypergraph, state, law or code kinds anywhere in a deck.
    for workload in workloads.WORKLOADS:
        for op in workloads.make_deck(workload, 5)[0] + workloads.make_defect_probe(workload, 5):
            cli.validate_config(op["config"])
            assert "random" not in set(kinds(op["config"]["params"]))


def doctored(op, edit):
    results = copy.deepcopy(cli.run(op["config"]).results)
    assert checker.check(op["config"], results) == []
    edit(results)
    return checker.check(op["config"], results)


def test_checker_rejects_doctored_capacity():
    op = op_of_kind("capacities", "capacity")
    assert doctored(op, lambda r: r.update(gap=1e-3))


def test_checker_rejects_doctored_covering_chain():
    op = op_of_kind("capacities", "product-cover-d2")

    def lower_integral(r):
        r["rows"][0]["c_n"] = r["rows"][0]["c_tilde_n"] - 0.5

    assert doctored(op, lower_integral)


def test_checker_rejects_doctored_resolvability():
    op = op_of_kind("resolvability", "resolvability-n5-uniform")
    assert doctored(op, lambda r: r.update(K=r["K"] + 1))

    def drop_atom(r):
        r["sparse_distribution"].pop()

    assert doctored(op, drop_atom)


def test_checker_rejects_doctored_typicality_and_tail():
    op = op_of_kind("resolvability", "typicality-n9-state")
    assert doctored(op, lambda r: r.update(trace_mass=r["mass_bound"] - 1e-6))
    op = op_of_kind("tails", "exact-upper")
    assert doctored(op, lambda r: r.update(exact_or_empirical=1.5))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_results_are_byte_identical(workload):
    for op in first_of_each_kind(workload):
        if op["kind"].startswith("typicality-n1"):
            continue  # the n >= 10 ops cost a second each and add no path
        plain = cli.canonical_json(cli.run(op["config"]).results)
        spans = tracer.Tracer()
        with spans.installed():
            traced = cli.canonical_json(cli.run(op["config"]).results)
        assert traced == plain, op["kind"]
        assert spans.calls("cli.run") == 1


def snapshot():
    mods = [np.linalg] + [m for n, m in sorted(sys.modules.items())
                          if n == "opcover" or n.startswith("opcover.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_wrappers_restore_the_originals():
    before = snapshot()
    with tracer.Tracer().installed():
        assert linalg.psd_leq is not before[("opcover.linalg", "psd_leq")]
        assert np.linalg.eigh is not before[("numpy.linalg", "eigh")]
    assert snapshot() == before
    with pytest.raises(RuntimeError), tracer.Tracer().installed():
        raise RuntimeError("boom")
    after = snapshot()
    assert all(after[k] is v for k, v in before.items())


def test_spans_record_parent_and_self_time():
    spans = tracer.Tracer()
    with spans.installed():
        assert linalg.psd_leq(np.eye(2) * 0.5, np.eye(2))
    # psd_leq solves twice (min eigenvalue, then the tolerance's norm)
    assert spans.calls("numpy.eig", under="linalg.psd_leq") == 2
    (row,) = [r for r in spans.table() if r["span"] == "linalg.psd_leq"]
    assert row["parent"] is None and 0.0 <= row["self_s"] <= row["total_s"]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tails", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_declared_metrics_match_what_run_reports():
    import run

    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    layers = {k: u for k, (_, u) in tracer.layer_metrics(tracer.Tracer(), 1).items()}
    layers["trace.overhead"] = "ratio"
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == layers
