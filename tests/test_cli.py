"""Harness tests: config validation, dispatch, records, CSV, sweeps.

Reproducibility is the contract under test: identical (config, seed)
must reproduce the identical results payload byte for byte, CSV column
sets are golden-filed, and sweeps must not depend on worker count.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from opcover import cli, covering, identification
from opcover.channels import CQChannel
from opcover.cli import (
    CSV_COLUMNS,
    ConfigError,
    RunRecord,
    canonical_json,
    config_hash,
    csv_text,
    json_safe,
    run,
    sweep,
    validate_config,
)
from opcover.linalg import MAX_TENSOR_DIM
from opcover.rng import spawn_seeds

BSC_CONFIG = {
    "command": "capacity",
    "params": {"channel": {"kind": "bsc", "p": 0.11}},
    "seed": 1,
}

ZERO_PLUS = {"kind": "zero-plus"}


def binary_entropy(p: float) -> float:
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


# ---------------------------------------------------------------------------


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_nonfinite_floats_become_strings(self):
        out = json_safe({"x": math.inf, "y": -math.inf, "z": math.nan})
        assert out == {"x": "inf", "y": "-inf", "z": "nan"}

    def test_fraction_and_numpy_collapse(self):
        out = json_safe({"f": Fraction(1, 3), "i": np.int64(4), "v": np.array([0.5, 1.0])})
        assert out == {"f": "1/3", "i": 4, "v": [0.5, 1.0]}

    def test_shortest_round_trip_floats(self):
        text = canonical_json({"x": 0.1, "y": 1.0 / 3.0})
        assert json.loads(text) == {"x": 0.1, "y": 1.0 / 3.0}
        assert "0.1" in text

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            json_safe({"f": object()})

    def test_exact_type_dispatch_keeps_the_isinstance_walk(self):
        def walk(obj):
            # the isinstance chain alone, as json_safe read before its exact-type dispatch
            if isinstance(obj, dict):
                return {str(k): walk(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [walk(v) for v in obj]
            if isinstance(obj, Fraction):
                return str(obj)
            if isinstance(obj, np.generic):
                obj = obj.item()
            if isinstance(obj, float):
                if math.isnan(obj):
                    return "nan"
                if math.isinf(obj):
                    return "inf" if obj > 0 else "-inf"
                return obj
            if isinstance(obj, np.ndarray):
                return walk(obj.tolist())
            return obj

        class Real(float):
            pass

        class Name(str):
            pass

        payload = {
            "plain": [1, 2.5, "s", None, True, (3, [4.0, {"k": -0.0}])],
            "nonfinite": [math.inf, -math.inf, math.nan, Real(math.inf), np.float64(math.nan)],
            "subclasses": [Real(0.25), Name("x"), np.int64(7), np.bool_(True)],
            "keys": {1: "int", True: "bool", None: "none", Name("n"): 1.5, 2.5: [Fraction(2, 4)]},
            "arrays": np.array([[1.0, math.inf], [0.5, -2.0]]),
        }
        got = json_safe(payload)
        assert repr(got) == repr(walk(payload))
        assert canonical_json(payload) == json.dumps(walk(payload), sort_keys=True, separators=(",", ":"))


class TestConfigHash:
    def test_ignores_output_fields(self):
        a = dict(BSC_CONFIG)
        b = dict(BSC_CONFIG, output_path="/tmp/x.json", format="csv")
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_params_and_seed(self):
        base = config_hash(BSC_CONFIG)
        other = dict(BSC_CONFIG, params={"channel": {"kind": "bsc", "p": 0.12}})
        assert config_hash(other) != base
        assert config_hash(dict(BSC_CONFIG, seed=2)) != base

    def test_is_sha256_hex(self):
        h = config_hash(BSC_CONFIG)
        assert len(h) == 64
        int(h, 16)


class TestValidation:
    def test_missing_required_param_names_path(self):
        cfg = {"command": "capacity", "params": {}, "seed": 1}
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.path == ["params"]
        assert "channel" in str(err.value)

    def test_unknown_command(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"command": "nope", "params": {}, "seed": 1})
        assert err.value.path == ["command"]

    def test_seed_must_be_nonnegative_integer(self):
        for bad in (-1, 0.5, "7"):
            with pytest.raises(ConfigError):
                validate_config(dict(BSC_CONFIG, seed=bad))

    def test_method_conditional_requirements(self):
        params = {
            "rv": {"kind": "scalar", "probs": [0.5, 0.5], "values": [0.0, 1.0]},
            "method": "chernoff-upper",
            "n": 50,
            "a": 0.75,
        }
        cfg = {"command": "tail-mc", "params": params, "seed": 1}
        with pytest.raises(ConfigError):  # anchor mean m missing
            validate_config(cfg)
        cfg["params"] = dict(params, m=0.5)
        validate_config(cfg)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(dict(BSC_CONFIG, extra=1))
        bad_params = {"channel": {"kind": "bsc", "p": 0.11}, "bogus": 3}
        with pytest.raises(ConfigError):
            validate_config({"command": "capacity", "params": bad_params, "seed": 1})

    def test_lambda_open_interval(self):
        for lam in (0.0, 1.0, -0.2, 1.5):
            cfg = {
                "command": "resolvability",
                "params": {"channel": ZERO_PLUS, "P": {"kind": "uniform", "n": 2}, "lambda": lam},
                "seed": 1,
            }
            with pytest.raises(ConfigError) as err:
                run(cfg)
            assert err.value.path == ["params", "lambda"]


# ---------------------------------------------------------------------------


class TestChannelLoaders:
    def test_bsc_matches_closed_form(self):
        record = run(BSC_CONFIG)
        assert record.results["bits"] == pytest.approx(1.0 - binary_entropy(0.11), abs=1e-6)

    def test_classical_rows_noiseless(self):
        cfg = {
            "command": "capacity",
            "params": {"channel": {"kind": "classical", "rows": [[1.0, 0.0], [0.0, 1.0]]}},
            "seed": 1,
        }
        assert run(cfg).results["bits"] == pytest.approx(1.0, abs=1e-9)

    def test_classical_csv_file(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("0.89,0.11\n0.11,0.89\n")
        cfg = {
            "command": "capacity",
            "params": {"channel": {"kind": "classical-csv", "path": str(path)}},
            "seed": 1,
        }
        assert run(cfg).results["bits"] == pytest.approx(1.0 - binary_entropy(0.11), abs=1e-6)

    def test_explicit_states(self):
        cfg = {
            "command": "capacity",
            "params": {
                "channel": {
                    "kind": "states",
                    "states": [
                        {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]]},
                        {"dim": 2, "re": [[0.5, 0.5], [0.5, 0.5]]},
                    ],
                }
            },
            "seed": 1,
        }
        assert run(cfg).results["bits"] == pytest.approx(0.6008760366, abs=1e-6)

    def test_random_channel_deterministic_in_seed(self):
        cfg = {
            "command": "capacity",
            "params": {"channel": {"kind": "random", "inputs": 3, "dim": 2}},
            "seed": 77,
        }
        first = canonical_json(run(cfg).results)
        second = canonical_json(run(cfg).results)
        assert first == second
        assert canonical_json(run(dict(cfg, seed=78)).results) != first


# ---------------------------------------------------------------------------


class TestRun:
    def test_record_shape(self):
        record = run(BSC_CONFIG)
        assert isinstance(record, RunRecord)
        assert len(record.config_hash) == 64
        assert record.tool_version
        assert record.wall_time_ms >= 0
        assert "wall_time_ms" not in record.results

    def test_tool_version_is_looked_up_once_per_process(self, monkeypatch):
        import importlib.metadata

        lookups = []
        version = importlib.metadata.version
        monkeypatch.setattr(importlib.metadata, "version", lambda name: lookups.append(name) or version(name))
        cli.tool_version.cache_clear()
        try:
            records = [run(BSC_CONFIG) for _ in range(3)]
        finally:
            cli.tool_version.cache_clear()
        assert lookups == ["opcover"]
        assert len({r.tool_version for r in records}) == 1

    def test_rerun_reproduces_results_payload(self):
        a = canonical_json(run(BSC_CONFIG).results)
        b = canonical_json(run(BSC_CONFIG).results)
        assert a == b

    def test_results_converted_once(self, monkeypatch):
        record = run(BSC_CONFIG)
        assert json_safe(record.results) == record.results
        monkeypatch.setattr(cli, "json_safe", lambda obj: pytest.fail("results converted again"))
        assert record.to_json()["results"] is record.results

    def test_json_output_file(self, tmp_path):
        out = tmp_path / "record.json"
        run(dict(BSC_CONFIG, output_path=str(out)))
        text = out.read_text()
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["config_hash"] == config_hash(BSC_CONFIG)
        assert parsed["results"]["bits"] == pytest.approx(0.500084, abs=1e-5)

    def test_csv_output_file(self, tmp_path):
        out = tmp_path / "record.csv"
        run(dict(BSC_CONFIG, output_path=str(out), format="csv"))
        lines = out.read_text().splitlines()
        assert lines[0] == "bits,gap,iterations"
        assert len(lines) == 2

    def test_no_output_path_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(BSC_CONFIG)
        assert list(tmp_path.iterdir()) == []


class TestResolvabilityCommand:
    CONFIG = {
        "command": "resolvability",
        "params": {
            "channel": ZERO_PLUS,
            "P": {"kind": "uniform", "n": 3},
            "lambda": 0.6,
            "alpha": 1e6,
            "eps": 0.45,
            "tau": 0.45,
            "draws": 512,
        },
        "seed": 11,
    }

    def test_row_matches_module_result(self):
        record, rows = cli._execute(self.CONFIG)
        assert len(rows) == 1
        row = rows[0]
        assert tuple(row) == CSV_COLUMNS["resolvability"]
        assert row["K"] == identification.quantization_resolution(3, 2, 0.6)
        assert row["L"] == 512
        assert row["support"] <= row["K"] * row["L"]
        assert record.results["K"] == row["K"]

    def test_explicit_point_mass(self):
        cfg = {
            "command": "resolvability",
            "params": {
                "channel": ZERO_PLUS,
                "P": {"kind": "explicit", "atoms": [[[0, 1], 1.0]]},
                "lambda": 0.5,
                "draws": 4,
            },
            "seed": 2,
        }
        record, rows = cli._execute(cfg)
        assert rows[0]["support"] == 1
        assert rows[0]["measured_distance"] <= 1e-9


class TestQidEvalCommand:
    def test_explicit_code_round_trip(self):
        channel = CQChannel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        entries = [
            ({(0, 0): 1.0}, np.diag([1.0, 0.0, 0.0, 0.0])),
            ({(1, 1): 1.0}, np.diag([0.0, 0.0, 0.0, 1.0])),
        ]
        code = identification.QIDCode(2, entries)
        cfg = {
            "command": "qid-eval",
            "params": {
                "channel": {"kind": "classical", "rows": [[1.0, 0.0], [0.0, 1.0]]},
                "code": code.to_json(),
            },
            "seed": 1,
        }
        record, rows = cli._execute(cfg)
        assert record.results["lambda1"] == 0.0
        assert record.results["lambda2"] == 0.0
        direct = identification.evaluate_qid_code(code, channel)
        assert np.allclose(record.results["acceptance"], direct[2])
        assert len(rows) == 4
        assert tuple(rows[0]) == CSV_COLUMNS["qid-eval"]

    def test_random_code_deterministic(self):
        cfg = {
            "command": "qid-eval",
            "params": {
                "channel": ZERO_PLUS,
                "code": {"kind": "random", "n": 2, "messages": 3, "support": 2},
            },
            "seed": 9,
        }
        a = canonical_json(run(cfg).results)
        assert a == canonical_json(run(cfg).results)
        payload = json.loads(a)
        assert 0.0 <= payload["lambda1"] <= 1.0
        assert 0.0 <= payload["lambda2"] <= 1.0
        assert np.asarray(payload["acceptance"]).shape == (3, 3)


class TestTailCommand:
    def test_exact_chernoff_row(self):
        cfg = {
            "command": "tail-mc",
            "params": {
                "rv": {"kind": "scalar", "probs": [0.5, 0.5], "values": [0.0, 1.0]},
                "method": "chernoff-upper",
                "n": 50,
                "a": 0.75,
                "m": 0.5,
            },
            "seed": 3,
        }
        _, rows = cli._execute(cfg)
        row = rows[0]
        assert row["trials"] == 0
        assert row["probability"] == pytest.approx(1.5293200080179759e-4, rel=1e-12)
        assert row["bound"] == pytest.approx(2.0 ** (-50 * (1 - binary_entropy(0.75))), rel=1e-12)

    def test_mc_uses_run_seed(self):
        cfg = {
            "command": "tail-mc",
            "params": {
                "rv": {"kind": "random", "dim": 2, "atoms": 3},
                "method": "two-sided",
                "n": 20,
                "eps": 0.3,
                "trials": 400,
            },
            "seed": 3,
        }
        a = run(cfg).results
        assert a == run(cfg).results
        assert a != run(dict(cfg, seed=4)).results

    def test_many_atom_mc_payload_unchanged(self):
        # 2,001 atoms: the event once saw stacks of 2 sums, now up to 1,024;
        # sha256 of `results` taken before then
        cfg = {
            "command": "tail-mc",
            "params": {
                "rv": {"kind": "random", "dim": 2, "atoms": 2001},
                "method": "two-sided",
                "n": 100,
                "eps": 0.05,
                "trials": 7999,
            },
            "seed": 8,
        }
        results = run(cfg).results
        assert hashlib.sha256(canonical_json(results).encode()).hexdigest() == (
            "045ec1a28a57d426cadb2e8d32b4ac0c3cd4b62a7bfb260580794f49659dbb93")

    # sha256 of `results`, taken while both interval tails still decided
    # each sum with two spectra (x - lower and upper - x), before they
    # whitened the atoms and read one spectrum per sum
    INTERVAL_TAIL_HASHES = [
        ({"method": "two-sided", "rv": {"kind": "random", "dim": 2, "atoms": 3}, "n": 24, "eps": 0.3},
         31, "7b721f6e9bb71343f94d7837226417e38c33989bb168068f7c84c0f85f2f159b"),
        ({"method": "two-sided", "rv": {"kind": "random", "dim": 3, "atoms": 4}, "n": 16, "eps": 0.4,
          "trials": 6000},
         32, "1c296601d5e8cdb4996f2adf7246aeebe2b79bff6059c5c0cc635264ae16e2f1"),
        ({"method": "weak-law", "rv": {"kind": "random", "dim": 2, "atoms": 3}, "n": 20, "delta": 0.15},
         33, "45834d55d6d4fe0f8ab9c34ec8718da28852468cc505e0432e81a2ecdb10b4d3"),
        ({"method": "weak-law", "rv": {"kind": "random", "dim": 3, "atoms": 4}, "n": 18, "delta": 0.1,
          "trials": 6000},
         34, "0c2df182bff712f18e688200b495ae794249ee0c2a0d67c5cd7107ea73b38129"),
    ]

    @pytest.mark.parametrize("params, seed, digest", INTERVAL_TAIL_HASHES,
                             ids=["two-sided", "two-sided-mc", "weak-law", "weak-law-mc"])
    def test_interval_tail_payloads_unchanged(self, params, seed, digest):
        results = run({"command": "tail-mc", "params": params, "seed": seed}).results
        assert 0.0 < results["exact_or_empirical"] < 1.0
        assert hashlib.sha256(canonical_json(results).encode()).hexdigest() == digest

    # sha256 of `results`, taken while markov_tail still read A's support,
    # its support check and its pseudo-inverse off separate eigensolves;
    # a = 0 has an empty support, so the bound is vacuous (markov-trivial)
    ONE_SHOT_TAIL_HASHES = [
        ({"method": "markov", "rv": {"kind": "random", "dim": 3, "atoms": 4}, "a": 0.8},
         41, "markov", "76943f7fa743b76ddc11444978c85386a03a4479d6fdd6654f7fc87e11f202ca"),
        ({"method": "markov", "rv": {"kind": "random", "dim": 3, "atoms": 4}, "a": 0},
         42, "markov-trivial", "40ed3c7cb6c28777efa51d28104a0884f89e35ca662b45703d374d065f1b5d36"),
        ({"method": "chebyshev", "rv": {"kind": "random", "dim": 3, "atoms": 4}, "delta": 0.5},
         43, "chebyshev", "248d226392bc3ba4b49507045b1352cc49c9608d8fa7c689e8d0e046159ff510"),
    ]

    @pytest.mark.parametrize("params, seed, method, digest", ONE_SHOT_TAIL_HASHES,
                             ids=["markov", "markov-trivial", "chebyshev"])
    def test_one_shot_tail_payloads_unchanged(self, params, seed, method, digest):
        results = run({"command": "tail-mc", "params": params, "seed": seed}).results
        assert results["method"] == method
        assert hashlib.sha256(canonical_json(results).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------


class TestCsvFormat:
    def test_column_sets_are_frozen(self):
        # Golden column registry: changing any of these is a format break.
        assert CSV_COLUMNS == {
            "tail-mc": ("method", "n", "trials", "probability", "stderr", "bound"),
            "cover-sample": (
                "kind", "num_draws", "certified", "beyond_bound", "attempts",
                "excluded_mass", "l1_distance",
            ),
            "cover-capacity": ("bits", "lp_value", "iterations"),
            "product-cover": ("n", "c_n", "c_tilde_n", "pow2_Cn"),
            "typicality": ("kind", "n", "alpha", "dim", "rank", "trace_mass", "mass_bound"),
            "capacity": ("bits", "gap", "iterations"),
            "resolvability": ("lambda", "K", "L", "support", "measured_distance", "certified"),
            "conjecture-probe": ("which", "dim", "instances", "min_slack", "violations"),
            "qid-eval": ("i", "j", "acceptance"),
        }

    def test_no_command_column_collides_with_sweep_prefix(self):
        for command, columns in CSV_COLUMNS.items():
            assert not set(columns) & set(cli.SWEEP_PREFIX), command

    def test_cell_formatting(self):
        rows = [{"a": True, "b": None, "c": 0.1, "d": 3, "e": "x"}]
        assert csv_text(("a", "b", "c", "d", "e"), rows) == "a,b,c,d,e\ntrue,,0.1,3,x\n"

    def test_product_cover_golden_file(self):
        cfg = {
            "command": "product-cover",
            "params": {"hypergraph": {"kind": "orthogonal-pair"}, "n_values": [1, 2, 3]},
            "seed": 7,
        }
        _, rows = cli._execute(cfg)
        text = csv_text(CSV_COLUMNS["product-cover"], rows)
        assert text == (
            "n,c_n,c_tilde_n,pow2_Cn\n"
            "1,2,2.0,2.0\n"
            "2,4,4.0,4.0\n"
            "3,8,8.0,8.0\n"
        )

    def test_exact_tail_golden_file(self):
        # n = 45 with three qubit atoms gives 1,081 compositions, more
        # than one enumeration chunk
        rv = {"kind": "matrices", "probs": [0.3, 0.3, 0.4], "values": [
            {"dim": 2, "re": [[0.1, 0.0], [0.0, 0.6]]},
            {"dim": 2, "re": [[0.4, 0.4], [0.4, 0.4]]},
            {"dim": 2, "re": [[0.5, 0.2], [0.2, 0.3]], "im": [[0.0, 0.1], [-0.1, 0.0]]},
        ]}
        texts = []
        for params in ({"rv": rv, "method": "chernoff-upper", "n": 45, "a": 0.7, "m": 0.6},
                       {"rv": rv, "method": "weak-law", "n": 45, "delta": 0.1}):
            _, rows = cli._execute({"command": "tail-mc", "params": params, "seed": 11})
            texts.append(csv_text(CSV_COLUMNS["tail-mc"], rows))
        assert texts == [
            "method,n,trials,probability,stderr,bound\n"
            "chernoff-upper,45,0,3.5229459656588107e-06,0.0,0.7566221769395095\n",
            "method,n,trials,probability,stderr,bound\n"
            "weak-law,45,0,0.002244687065511068,0.0,0.21533333333333335\n",
        ]

    def test_mc_tail_golden_file(self):
        # texts taken before the Monte Carlo engine grouped equal count vectors
        rv = {"kind": "matrices", "probs": [0.3, 0.3, 0.4], "values": [
            {"dim": 2, "re": [[0.1, 0.0], [0.0, 0.6]]},
            {"dim": 2, "re": [[0.4, 0.4], [0.4, 0.4]]},
            {"dim": 2, "re": [[0.5, 0.2], [0.2, 0.3]], "im": [[0.0, 0.1], [-0.1, 0.0]]},
        ]}
        texts = []
        for params in ({"method": "two-sided", "eps": 0.3},
                       {"method": "chernoff-upper", "a": 0.7, "m": 0.6},
                       {"method": "weak-law", "delta": 0.1}):
            params = {"rv": rv, "n": 20, "trials": 5000, **params}
            _, rows = cli._execute({"command": "tail-mc", "params": params, "seed": 11})
            texts.append(csv_text(CSV_COLUMNS["tail-mc"], rows))
        assert texts == [
            "method,n,trials,probability,stderr,bound\n"
            "two-sided-mc,20,5000,0.124,0.004660987019934726,3.4077156855964477\n",
            "method,n,trials,probability,stderr,bound\n"
            "chernoff-upper-mc,20,5000,0.0014,0.0005287797272967262,1.2983965728397688\n",
            "method,n,trials,probability,stderr,bound\n"
            "weak-law-mc,20,5000,0.0376,0.0026902133744370537,0.48450000000000004\n",
        ]


class TestTypicalityGolden:
    """Typicality payloads at n=10, texts taken before projectors were stored factored."""

    STATE = {
        "command": "typicality",
        "params": {"mode": "state", "state": {"kind": "random", "dim": 2}, "n": 10, "alpha": 2.0},
        "seed": 3,
    }
    CONDITIONAL = {
        "command": "typicality",
        "params": {
            "mode": "conditional",
            "channel": {"kind": "random", "dim": 2, "inputs": 2},
            "sequence": [0, 1, 1, 0, 1, 0, 0, 1, 1, 1],
            "alpha": 3.0,
        },
        "seed": 5,
    }

    def test_state_mode_payload(self):
        assert canonical_json(run(self.STATE).results) == (
            '{"alpha":2.0,'
            '"details":{"class_masses":[0.16159674988095088,0.8384032501190493],'
            '"entropy_bits":0.6381158396713169,'
            '"lower_sandwich_constant":0.25989319977425124,'
            '"max_restricted_eigenvalue":0.17160483977726204,'
            '"min_restricted_eigenvalue":0.0012287641662116038,"rank":176,'
            '"rank_exponent_constant":0.0852449830312113,'
            '"upper_sandwich_constant":0.30344588269101114},"dim":1024,'
            '"kind":"unconditional","mass_bound":0.5,"n":10,"rank":176,'
            '"trace_mass":0.9366943926422245}'
        )

    def test_conditional_mode_payload(self):
        assert canonical_json(run(self.CONDITIONAL).results) == (
            '{"alpha":3.0,"details":{"blocks":[{"block_mass":0.9909206671047321,'
            '"class_masses":[0.03996303070568746,0.9600369692943126],"length":4,'
            '"symbol":0},{"block_mass":0.9958697701907516,'
            '"class_masses":[0.06197998926645738,0.9380200107335427],"length":6,'
            '"symbol":1}],"entropy_bits":0.29800212656180014,'
            '"lower_sandwich_constant":0.2697166771375362,'
            '"max_restricted_eigenvalue":0.5786613136291249,'
            '"min_restricted_eigenvalue":0.00010516559781310826,"rank":110,'
            '"rank_exponent_constant":0.10017406377128639,'
            '"upper_sandwich_constant":0.057732975041979835},"dim":1024,'
            '"kind":"conditional","mass_bound":0.5555555555555556,"n":10,"rank":110,'
            '"trace_mass":0.9868279370268559}'
        )

    def test_dense_views_never_built(self):
        # TypicalProjector has no dense view: building one would raise AttributeError
        law = {"kind": "uniform", "n": 4}
        overrides = {
            "channel": {"kind": "random", "dim": 2, "inputs": 2}, "P": law, "lambda": 0.6,
            "alpha": 3.0, "eps": 0.45, "tau": 0.45, "draws": 64,
        }
        paper = {"channel": ZERO_PLUS, "P": law, "lambda": 0.6}
        run(self.STATE)
        run(self.CONDITIONAL)
        run({"command": "resolvability", "params": overrides, "seed": 13})
        run({"command": "resolvability", "params": paper, "seed": 14})


# ---------------------------------------------------------------------------


class TestSweep:
    TEMPLATE = {
        "command": "product-cover",
        "params": {"hypergraph": {"kind": "orthogonal-pair"}, "n_values": [1]},
        "seed": 7,
    }

    def test_product_cover_axis(self):
        records, text = sweep(self.TEMPLATE, "params.n_values", [[1], [2], [3]])
        assert all(isinstance(r, RunRecord) for r in records)
        lines = text.splitlines()
        assert lines[0] == "run_index,axis,value,seed,status,error,n,c_n,c_tilde_n,pow2_Cn"
        assert [line.split(",")[7] for line in lines[1:]] == ["2", "4", "8"]

    def test_sub_seed_split(self):
        records, text = sweep(self.TEMPLATE, "params.n_values", [[1], [1], [1]])
        seeds = [int(line.split(",")[3]) for line in text.splitlines()[1:]]
        assert seeds == spawn_seeds(7, 3)

    def test_seed_axis_uses_values_verbatim(self):
        cfg = {
            "command": "capacity",
            "params": {"channel": {"kind": "random", "inputs": 2, "dim": 2}},
            "seed": 5,
        }
        _, text = sweep(cfg, "seed", [101, 202])
        seeds = [int(line.split(",")[3]) for line in text.splitlines()[1:]]
        assert seeds == [101, 202]

    def test_empty_values_header_only(self):
        records, text = sweep(self.TEMPLATE, "params.n_values", [])
        assert records == []
        assert text == "run_index,axis,value,seed,status,error,n,c_n,c_tilde_n,pow2_Cn\n"

    def test_monotone_two_sided_bound(self):
        template = {
            "command": "tail-mc",
            "params": {
                "rv": {"kind": "scalar", "probs": [0.5, 0.5], "values": [0.0, 1.0]},
                "method": "two-sided",
                "n": 20,
                "eps": 0.05,
            },
            "seed": 13,
        }
        records, text = sweep(template, "params.eps", [0.05, 0.1, 0.2, 0.4])
        bounds = [float(line.split(",")[-1]) for line in text.splitlines()[1:]]
        assert bounds == sorted(bounds, reverse=True)

    def test_failures_become_rows(self):
        cfg = {"command": "capacity", "params": {"channel": {"kind": "bsc", "p": 0.11}}, "seed": 3}
        records, text = sweep(cfg, "params.channel.p", [0.11, 2.0, 0.25])
        assert isinstance(records[0], RunRecord)
        assert isinstance(records[1], Exception)
        assert isinstance(records[2], RunRecord)
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[2].split(",")[4] == "error"

    def test_worker_count_does_not_change_bytes(self, monkeypatch):
        outputs = []
        for workers in ("1", "8"):
            monkeypatch.setenv("OPCOVER_THREADS", workers)
            records, text = sweep(self.TEMPLATE, "params.n_values", [[1], [2], [3], [4]])
            outputs.append((text, [canonical_json(r.results) for r in records]))
        assert outputs[0] == outputs[1]

    def test_missing_axis_rejected(self):
        with pytest.raises(ConfigError):
            sweep(self.TEMPLATE, "params.nope", [1])

    def test_output_path_not_inherited_by_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        template = dict(self.TEMPLATE, output_path=str(tmp_path / "each.json"))
        sweep(template, "params.n_values", [[1], [2]])
        assert list(tmp_path.iterdir()) == []


class TestThreadCount:
    def test_env_controls_pool(self, monkeypatch):
        monkeypatch.setenv("OPCOVER_THREADS", "5")
        assert cli._thread_count() == 5
        monkeypatch.setenv("OPCOVER_THREADS", "0")
        assert cli._thread_count() >= 1
        monkeypatch.delenv("OPCOVER_THREADS")
        assert cli._thread_count() >= 1
        monkeypatch.setenv("OPCOVER_THREADS", "many")
        with pytest.raises(ConfigError):
            cli._thread_count()


# ---------------------------------------------------------------------------


class TestMain:
    def test_success_prints_record(self, capsys):
        code = cli.main(["capacity", "--param", 'channel={"kind":"bsc","p":0.11}', "--seed", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["bits"] == pytest.approx(0.500084, abs=1e-5)

    def test_missing_param_exits_2_with_path(self, capsys):
        code = cli.main(["capacity", "--seed", "1"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "schema-violation"
        assert err["path"] == ["params"]
        assert "channel" in err["message"]

    def test_numeric_failure_exits_3(self, capsys):
        flag = 'channel={"kind":"states","states":[{"dim":2,"re":[[2.0,0.0],[0.0,0.0]]}]}'
        code = cli.main(["capacity", "--param", flag, "--seed", "1"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numeric-failure"
        assert err["type"] == "ValueError"

    def test_flags_override_config_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(BSC_CONFIG, params={"channel": {"kind": "bsc", "p": 0.25}})))
        code = cli.main(["capacity", "--config", str(path), "--param", "channel.p=0.11"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["bits"] == pytest.approx(1.0 - binary_entropy(0.11), abs=1e-6)
        assert out["config_hash"] == config_hash(BSC_CONFIG)

    def test_csv_to_stdout(self, capsys):
        code = cli.main([
            "capacity", "--param", 'channel={"kind":"bsc","p":0.11}',
            "--seed", "1", "--format", "csv",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "bits,gap,iterations"

    def test_out_flag_writes_file_quietly(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = cli.main([
            "capacity", "--param", 'channel={"kind":"bsc","p":0.11}',
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["results"]["bits"] > 0

    def test_product_cover_past_float_range_exits_0_with_inf(self, capsys):
        code = cli.main([
            "product-cover", "--param", 'hypergraph={"kind":"orthogonal-pair"}',
            "--param", "n_values=[1,2000]", "--seed", "1",
        ])
        assert code == 0
        row = json.loads(capsys.readouterr().out)["results"]["rows"][1]
        assert row == {"n": 2000, "c_n": None, "c_tilde_n": "inf", "pow2_Cn": "inf"}

    def test_config_file_missing_exits_2(self, capsys):
        assert cli.main(["capacity", "--config", "/nonexistent.json"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "schema-violation"

    def test_malformed_param_flag_exits_2(self, capsys):
        assert cli.main(["capacity", "--param", "no-equals-sign", "--seed", "1"]) == 2
        capsys.readouterr()

    def test_sweep_subcommand(self, tmp_path, capsys):
        spec = {
            "template": {
                "command": "product-cover",
                "params": {"hypergraph": {"kind": "orthogonal-pair"}, "n_values": [1]},
                "seed": 7,
            },
            "axis": "params.n_values",
            "values": [[1], [2], [3]],
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        code = cli.main(["sweep", "--config", str(path)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert [line.split(",")[7] for line in lines[1:]] == ["2", "4", "8"]

    def test_sweep_json_format_emits_records(self, tmp_path, capsys):
        spec = {
            "template": BSC_CONFIG,
            "axis": "params.channel.p",
            "values": [0.11, 0.25],
            "format": "json",
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["sweep", "--config", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 2
        assert all("results" in r for r in payload["records"])

    def test_sweep_all_failures_exits_3(self, tmp_path, capsys):
        spec = {"template": BSC_CONFIG, "axis": "params.channel.p", "values": [2.0, 3.0]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["sweep", "--config", str(path)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "method, flags",
        [
            ("markov", ["a=0.8"]),
            ("chebyshev", ["delta=0.3"]),
            ("weak-law", ["n=4", "delta=0.3"]),
        ],
    )
    def test_single_operator_tails_take_scalar_multiples_of_identity(self, method, flags, capsys):
        args = ["tail-mc", "--param", 'rv={"kind":"random","dim":2,"atoms":3}',
                "--param", f"method={method}", "--seed", "5"]
        for flag in flags:
            args += ["--param", flag]
        assert cli.main(args) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["trials"] == 0
        assert float(res["exact_or_empirical"]) <= float(res["bound"])

    @pytest.mark.parametrize(
        "args, path",
        [
            (["conjecture-probe", "--param", "which=1", "--param", "dim=7",
              "--param", "count=1"], ["params", "dim"]),
            # below the LP's own feasibility tolerance the cutting planes stall
            (["cover-capacity", "--param", 'hypergraph={"kind":"orthogonal-pair"}',
              "--param", "tol=1e-12"], ["params", "tol"]),
        ],
    )
    def test_param_beyond_library_range_exits_2(self, args, path, capsys):
        assert cli.main(args + ["--seed", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "schema-violation"
        assert err["path"] == path

    ZERO_EDGE = {"dim": 2, "re": [[0, 0], [0, 0]]}

    @pytest.mark.parametrize(
        "edges, p, path",
        [
            ([ZERO_EDGE, ZERO_EDGE], None, ["params", "hypergraph"]),
            ([ZERO_EDGE, {"dim": 2, "re": [[1, 0], [0, 0]]}], [1.0, 0.0], ["params", "p"]),
        ],
        ids=["every-edge-zero", "p-on-zero-edges"],
    )
    def test_zero_edge_mixture_exits_2_at_its_field(self, edges, p, path, capsys, monkeypatch):
        # no attempt can pass on a zero mixture: refused before the first draw
        monkeypatch.setattr(covering, "make_rng", lambda seed: pytest.fail("an attempt was drawn"))
        args = ["cover-sample", "--param", "hypergraph=" + json.dumps({"dim": 2, "eta": 1.0, "edges": edges}),
                "--param", "eps=0.3", "--param", "tau=0.3", "--seed", "1"]
        if p is not None:
            args += ["--param", f"p={json.dumps(p)}"]
        assert cli.main(args) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "schema-violation"
        assert err["path"] == path
        assert err["message"] == "edge mixture is zero"

    @pytest.mark.parametrize(
        "args, path",
        [
            (["resolvability", "--param", 'channel={"kind":"zero-plus"}', "--param", "lambda=0.6",
              "--param", 'P={"kind":"explicit","atoms":[[[0,5],0.5],[[1,1],0.5]]}'],
             ["params", "P", "atoms"]),
            (["resolvability", "--param", 'channel={"kind":"zero-plus"}', "--param", "lambda=0.6",
              "--param", 'P={"kind":"explicit","atoms":[[[0,-1],1.0]]}'],
             ["params", "P", "atoms"]),
            (["qid-eval", "--param", 'channel={"kind":"zero-plus"}', "--param",
              'code={"n":1,"entries":[{"P":[[[2],1.0]],"D":{"dim":2,"re":[[1,0],[0,0]]}}]}'],
             ["params", "code", "entries"]),
            # an entry's shape is the schema's to check, before the library sees it
            (["qid-eval", "--param", 'channel={"kind":"zero-plus"}', "--param",
              'code={"n":1,"entries":[{"P":[[[0],1.0]],"D":[[1,0],[0,0]]}]}'],
             ["params", "code", "entries", 0, "D"]),
        ],
    )
    def test_symbol_outside_alphabet_exits_2_at_its_field(self, args, path, capsys):
        assert cli.main(args + ["--seed", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "schema-violation"
        assert err["path"] == path

    @pytest.mark.parametrize(
        "flags, path",
        [
            (["method=markov", "a=-1"], ["params", "a"]),
            (["method=chernoff-upper", "n=5", "a=1.5", "m=0.5"], ["params", "a"]),
            (["method=chernoff-upper", "n=5", "a=0.9", "m=1.2"], ["params", "m"]),
            (["method=two-sided", "n=5", "eps=0.7"], ["params", "eps"]),
        ],
    )
    def test_tail_param_out_of_domain_exits_2(self, flags, path, capsys):
        args = ["tail-mc", "--param", 'rv={"kind":"random","dim":2,"atoms":3}', "--seed", "1"]
        for flag in flags:
            args += ["--param", flag]
        assert cli.main(args) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "schema-violation"
        assert err["path"] == path

    def test_markov_on_a_negative_atom_exits_2_at_rv(self, capsys):
        # the mean 0.25 is PSD, but operator Markov needs X >= 0 on every atom:
        # a domain error at rv, not the engine's own bound check failing (exit 3)
        args = ["tail-mc", "--param", 'rv={"kind":"scalar","probs":[0.5,0.5],"values":[-1.0,1.5]}',
                "--param", "method=markov", "--param", "a=0.8", "--seed", "7"]
        assert cli.main(args) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "schema-violation"
        assert err["path"] == ["params", "rv"]

    # the schema's "number" admits NaN (and Python's json Infinity); each
    # distribution check refuses it (before, resolvability dropped a NaN atom,
    # failed inside Fraction on an infinite one, and the others blamed m or a state)
    @pytest.mark.parametrize(
        "args, message",
        [
            (["resolvability", "--param", 'channel={"kind":"zero-plus"}', "--param",
              'P={"kind":"explicit","atoms":[[[0,1],NaN],[[1,1],1.0]]}', "--param", "lambda=0.6"],
             "sequence weights must be nonnegative"),
            (["resolvability", "--param", 'channel={"kind":"zero-plus"}', "--param",
              'P={"kind":"explicit","atoms":[[[0,1],Infinity],[[1,1],1.0]]}', "--param", "lambda=0.6"],
             "sequence weights must be nonnegative and finite"),
            (["tail-mc", "--param", 'rv={"kind":"scalar","probs":[NaN,1.0],"values":[0.2,0.5]}',
              "--param", "method=chernoff-upper", "--param", "n=5", "--param", "a=0.9",
              "--param", "m=0.5"],
             "distribution weights must be nonnegative"),
            (["cover-sample", "--param", 'hypergraph={"kind":"random","dim":2,"num_edges":2}',
              "--param", "p=[NaN,1.0]", "--param", "eps=0.3", "--param", "tau=0.3"],
             "distribution weights must be nonnegative"),
            (["capacity", "--param", 'channel={"kind":"classical","rows":[[NaN,1.0],[0.5,0.5]]}'],
             "stochastic matrix weights must be nonnegative"),
        ],
        ids=["resolvability", "resolvability-infinity", "tail-mc", "cover-sample", "capacity"],
    )
    def test_nan_weight_exits_3_naming_the_weights(self, args, message, capsys):
        assert cli.main(args + ["--seed", "1"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["type"]) == ("numeric-failure", "ValueError")
        assert message in err["message"]

    def test_sweep_missing_axis_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"template": BSC_CONFIG, "values": [1]}))
        assert cli.main(["sweep", "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "schema-violation"


# ---------------------------------------------------------------------------
# parameter domains: the schema checks shape, the library checks ranges

ABOVE_ONE = math.nextafter(1.0, 2.0)
BELOW_ZERO = math.nextafter(0.0, -1.0)
BELOW_LP_TOL = math.nextafter(1e-10, 0.0)
HALF_DIAG = {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]]}
EXPLICIT_GRAPH = {"dim": 2, "eta": 1.0, "edges": [HALF_DIAG]}
RANDOM_GRAPH = {"kind": "random", "dim": 2, "num_edges": 2}
RANDOM_RV = {"kind": "random", "dim": 2, "atoms": 3}
SAMPLE = {"hypergraph": {"kind": "orthogonal-pair"}, "eps": 0.5, "tau": 0.5}
STATE = {"mode": "state", "state": {"kind": "random", "dim": 2}, "n": 3, "alpha": 2.0}
CONDITIONAL = {"mode": "conditional", "channel": ZERO_PLUS, "sequence": [0, 1, 1], "alpha": 2.0}
RESOLVE = {"channel": ZERO_PLUS, "P": {"kind": "uniform", "n": 2}, "lambda": 0.6,
           "alpha": 3.0, "eps": 0.45, "tau": 0.45, "draws": 16}
RANDOM_CODE = {"kind": "random", "n": 1, "messages": 2, "support": 1}
EXPLICIT_CODE = {"n": 1, "entries": [{"P": [[[0], 1.0]], "D": HALF_DIAG}]}


def _with(base: dict, **changes) -> dict:
    return {**base, **changes}


def _scalar_rv(*values) -> dict:
    return {"kind": "scalar", "probs": [1.0 / len(values)] * len(values), "values": list(values)}


# One case per range keyword the schema used to carry, at its just-outside
# value: exit 2 at the offending field's path, or exit 0 (path None) where
# the library's domain is wider than the old schema range.
BOUNDARY_CASES = [
    ("capacity", {"channel": {"kind": "random", "inputs": 0, "dim": 2}},
     ["params", "channel", "inputs"]),
    ("capacity", {"channel": {"kind": "random", "inputs": 2, "dim": 0}},
     ["params", "channel", "dim"]),
    ("capacity", {"channel": ZERO_PLUS, "tol": 0}, ["params", "tol"]),
    ("capacity", {"channel": ZERO_PLUS, "max_iter": 0}, ["params", "max_iter"]),
    ("cover-capacity", {"hypergraph": _with(EXPLICIT_GRAPH, dim=0)}, ["params", "hypergraph", "dim"]),
    ("cover-capacity", {"hypergraph": _with(EXPLICIT_GRAPH, eta=0)}, ["params", "hypergraph", "eta"]),
    ("cover-capacity", {"hypergraph": _with(RANDOM_GRAPH, dim=0)}, ["params", "hypergraph", "dim"]),
    ("cover-capacity", {"hypergraph": _with(RANDOM_GRAPH, num_edges=0)},
     ["params", "hypergraph", "num_edges"]),
    ("cover-capacity", {"hypergraph": _with(RANDOM_GRAPH, eta=0)}, ["params", "hypergraph", "eta"]),
    ("cover-capacity", {"hypergraph": _with(RANDOM_GRAPH, eta=ABOVE_ONE)},
     ["params", "hypergraph", "eta"]),
    ("cover-capacity", {"hypergraph": EXPLICIT_GRAPH, "tol": BELOW_LP_TOL}, ["params", "tol"]),
    ("product-cover", {"hypergraph": EXPLICIT_GRAPH, "n_values": [0]}, ["params", "n_values"]),
    ("product-cover", {"hypergraph": EXPLICIT_GRAPH, "n_values": [1], "tol": BELOW_LP_TOL},
     ["params", "tol"]),
    ("cover-sample", _with(SAMPLE, eps=0), ["params", "eps"]),
    ("cover-sample", _with(SAMPLE, tau=0), ["params", "tau"]),
    ("cover-sample", _with(SAMPLE, draws=0), ["params", "draws"]),
    ("typicality", _with(STATE, alpha=0), None),
    ("typicality", _with(CONDITIONAL, alpha=0), None),
    ("typicality", _with(STATE, state={"kind": "random", "dim": 0}), ["params", "state", "dim"]),
    ("typicality", _with(STATE, n=0), ["params", "n"]),
    ("typicality", _with(CONDITIONAL, sequence=[0, -1]), ["params", "sequence"]),
    ("resolvability", _with(RESOLVE, **{"lambda": 0}), ["params", "lambda"]),
    ("resolvability", _with(RESOLVE, **{"lambda": 1}), ["params", "lambda"]),
    ("resolvability", _with(RESOLVE, alpha=0), ["params", "alpha"]),
    ("resolvability", _with(RESOLVE, eps=0), ["params", "eps"]),
    ("resolvability", _with(RESOLVE, tau=0), ["params", "tau"]),
    ("resolvability", _with(RESOLVE, draws=0), ["params", "draws"]),
    ("resolvability", _with(RESOLVE, P={"kind": "uniform", "n": 0}), ["params", "P", "n"]),
    ("resolvability", _with(RESOLVE, P={"kind": "random", "n": 0, "support": 1}), ["params", "P", "n"]),
    ("resolvability", _with(RESOLVE, P={"kind": "random", "n": 2, "support": 0}),
     ["params", "P", "support"]),
    ("tail-mc", {"rv": _with(RANDOM_RV, dim=0), "method": "markov", "a": 0.8}, ["params", "rv", "dim"]),
    ("tail-mc", {"rv": _with(RANDOM_RV, atoms=1), "method": "markov", "a": 0.8}, None),
    ("tail-mc", {"rv": _with(RANDOM_RV, atoms=0), "method": "markov", "a": 0.8},
     ["params", "rv", "atoms"]),
    ("tail-mc", {"rv": RANDOM_RV, "method": "weak-law", "n": 0, "delta": 0.3}, ["params", "n"]),
    ("tail-mc", {"rv": RANDOM_RV, "method": "two-sided", "n": 5, "eps": 0.3, "trials": -1},
     ["params", "trials"]),
    ("tail-mc", {"rv": RANDOM_RV, "method": "two-sided", "n": 5, "eps": 0}, None),
    ("tail-mc", {"rv": RANDOM_RV, "method": "two-sided", "n": 5, "eps": math.nextafter(0.5, 1.0)},
     ["params", "eps"]),
    ("tail-mc", {"rv": RANDOM_RV, "method": "chebyshev", "delta": 0}, ["params", "delta"]),
    # A = a * I: a must clear the PSD tolerance to be negative
    ("tail-mc", {"rv": RANDOM_RV, "method": "markov", "a": -1e-6}, ["params", "a"]),
    ("tail-mc", {"rv": RANDOM_RV, "method": "chernoff-upper", "n": 5, "a": BELOW_ZERO, "m": 0.5},
     ["params", "a"]),
    ("tail-mc", {"rv": RANDOM_RV, "method": "chernoff-upper", "n": 5, "a": ABOVE_ONE, "m": 0.5},
     ["params", "a"]),
    ("tail-mc", {"rv": RANDOM_RV, "method": "chernoff-lower", "n": 5, "a": 0.0, "m": BELOW_ZERO},
     ["params", "m"]),
    ("tail-mc", {"rv": RANDOM_RV, "method": "chernoff-upper", "n": 5, "a": 0.9, "m": ABOVE_ONE},
     ["params", "m"]),
    ("conjecture-probe", {"which": 3, "dim": 1, "count": 2}, None),
    ("conjecture-probe", {"which": 1, "dim": 7, "count": 1}, ["params", "dim"]),
    ("conjecture-probe", {"which": 1, "dim": 2, "count": 0}, ["params", "count"]),
    ("conjecture-probe", {"which": 1, "dim": 2, "count": 100_001}, ["params", "count"]),
    ("qid-eval", {"channel": ZERO_PLUS, "code": _with(RANDOM_CODE, n=0)}, ["params", "code", "n"]),
    ("qid-eval", {"channel": ZERO_PLUS, "code": _with(RANDOM_CODE, messages=0)},
     ["params", "code", "messages"]),
    ("qid-eval", {"channel": ZERO_PLUS, "code": _with(RANDOM_CODE, support=0)},
     ["params", "code", "support"]),
    ("qid-eval", {"channel": ZERO_PLUS, "code": _with(EXPLICIT_CODE, n=0)}, ["params", "code", "n"]),
    # a tail's premises on the random variable name rv, the mean's cap names m
    ("tail-mc", {"rv": _scalar_rv(0.0, 2.0), "method": "chernoff-upper", "n": 5, "a": 0.9, "m": 0.9},
     ["params", "rv"]),
    ("tail-mc", {"rv": _scalar_rv(0.0, 2.0), "method": "two-sided", "n": 5, "eps": 0.3}, ["params", "rv"]),
    ("tail-mc", {"rv": _scalar_rv(0.0, 1.0), "method": "chernoff-upper", "n": 5, "a": 0.9, "m": 0.4},
     ["params", "m"]),
    ("tail-mc", {"rv": _scalar_rv(0.0, 1.0), "method": "chernoff-lower", "n": 5, "a": 0.1, "m": 0.6},
     ["params", "m"]),
    ("tail-mc", {"rv": _scalar_rv(0.0, 0.0), "method": "two-sided", "n": 5, "eps": 0.3}, ["params", "rv"]),
    ("tail-mc", {"rv": _scalar_rv(-1.0, 0.5), "method": "markov", "a": 0.8}, ["params", "rv"]),
    # alpha too small for the typical windows: an empty mixture range, or
    # conditional ranges that the mixture projector annihilates
    ("resolvability", _with(RESOLVE, alpha=0.05), ["params", "alpha"]),
    ("resolvability", _with(RESOLVE, channel={"kind": "random", "dim": 2, "inputs": 2}, alpha=0.5),
     ["params", "alpha"]),
]

# One case per resource cap the CLI reaches: an oversized config is a
# domain error, refused before the allocation at its field's path.
THIRD = {"dim": 3, "re": (np.eye(3) / 3.0).tolist()}
CAP_CASES = [
    ("typicality", _with(STATE, n=20), ["params", "n"]),
    ("typicality", _with(STATE, state=THIRD, n=10**7), ["params", "n"]),
    ("typicality", _with(CONDITIONAL, sequence=[0, 1] * 6 + [0]), ["params", "sequence"]),
    ("resolvability", _with(RESOLVE, P={"kind": "uniform", "n": 21}), ["params", "P", "n"]),
    ("tail-mc", {"rv": RANDOM_RV, "method": "chernoff-upper", "n": 2000, "a": 0.9, "m": 0.9},
     ["params", "n"]),
    ("tail-mc", {"rv": RANDOM_RV, "method": "two-sided", "n": 5, "eps": 0.3, "trials": 10**9},
     ["params", "trials"]),
    ("typicality", _with(STATE, state={"kind": "random", "dim": 10**6}), ["params", "state", "dim"]),
    ("cover-capacity", {"hypergraph": _with(RANDOM_GRAPH, num_edges=10**8)},
     ["params", "hypergraph", "num_edges"]),
    ("qid-eval", {"channel": ZERO_PLUS, "code": _with(RANDOM_CODE, n=19)}, ["params", "code", "n"]),
    # 100,000 trials x 200 atoms of counts, though trials x n is only 200,000
    ("tail-mc", {"rv": _scalar_rv(*np.linspace(0.0, 1.0, 200).tolist()), "method": "chernoff-upper",
                 "n": 2, "a": 0.9, "m": 0.9, "trials": 100_000}, ["params", "trials"]),
]


class TestParameterDomains:
    @pytest.mark.parametrize(
        "command, params, path",
        BOUNDARY_CASES,
        ids=[f"{i:02d}-{c}-{'runs' if p is None else '.'.join(p[1:])}"
             for i, (c, _, p) in enumerate(BOUNDARY_CASES)],
    )
    def test_boundary_value_exits_0_or_2_with_field_path(self, command, params, path, capsys):
        args = [command, "--seed", "1"]
        for key, value in params.items():
            args += ["--param", f"{key}={json.dumps(value)}"]
        code = cli.main(args)
        out, err = capsys.readouterr()
        if path is None:
            assert code == 0, err
            assert "results" in json.loads(out)
        else:
            assert code == 2, err
            payload = json.loads(err)
            assert set(payload) == {"error", "path", "message"}
            assert payload["error"] == "schema-violation"
            assert payload["path"] == path

    @pytest.mark.parametrize(
        "method, field, extra",
        [("markov", "a", {}), ("chebyshev", "delta", {}), ("weak-law", "delta", {"n": 5})],
        ids=["markov", "chebyshev", "weak-law"],
    )
    def test_nan_tail_scalar_exits_2_with_field_path(self, method, field, extra, capsys):
        params = {"rv": RANDOM_RV, "method": method, **extra}
        args = ["tail-mc", "--seed", "1", "--param", f"{field}=NaN"]
        for key, value in params.items():
            args += ["--param", f"{key}={json.dumps(value)}"]
        code = cli.main(args)
        payload = json.loads(capsys.readouterr().err)
        assert code == 2
        assert payload["path"] == ["params", field]
        assert payload["message"] == f"{field} must be finite"

    @pytest.mark.parametrize(
        "command, params, path",
        CAP_CASES,
        ids=[f"{i:02d}-{c}-{'.'.join(p[1:])}" for i, (c, _, p) in enumerate(CAP_CASES)],
    )
    def test_oversized_config_exits_2_at_its_field_before_allocating(
        self, command, params, path, capsys
    ):
        args = [command, "--seed", "1"]
        for key, value in params.items():
            args += ["--param", f"{key}={json.dumps(value)}"]
        start = time.perf_counter()
        code = cli.main(args)
        elapsed = time.perf_counter() - start
        payload = json.loads(capsys.readouterr().err)
        assert code == 2, payload
        assert payload["error"] == "schema-violation"
        assert payload["path"] == path
        assert elapsed < 0.1

    def test_oversized_type_edge_stack_exits_2_at_P(self, capsys, monkeypatch):
        # uniform P at n = 11 passes the sequence-space cap, but its
        # middle types would each need a members x s x s edge stack past
        # the MAX_TENSOR_DIM^2 budget; the smaller types run first, so
        # this is not a CAP_CASES row
        members = []
        from_orbit = covering.QuantumHypergraph.from_orbit.__func__
        monkeypatch.setattr(covering.QuantumHypergraph, "from_orbit", classmethod(
            lambda cls, factor, weights, perms: members.append(len(perms))
            or from_orbit(cls, factor, weights, perms)))
        args = ["resolvability", "--seed", "1", "--param", f"channel={json.dumps(ZERO_PLUS)}",
                "--param", 'P={"kind": "uniform", "n": 11}', "--param", "lambda=0.6"]
        tracemalloc.start()
        try:
            code = cli.main(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        payload = json.loads(capsys.readouterr().err)
        assert code == 2, payload
        assert payload["error"] == "schema-violation"
        assert payload["path"] == ["params", "P"]
        # the refused type, C(11, 4) = 330 rank-1 members (a 330 x 330 x 330
        # stack, 575 MB), never reaches from_orbit; the smaller types before it do
        assert members and max(members) ** 3 <= MAX_TENSOR_DIM**2 and math.comb(11, 4) not in members
        assert peak < 96 * 2**20, f"{peak / 2**20:.1f} MiB"  # 42 MiB measured

    def test_params_schemas_keep_only_decoded_field_ranges(self):
        range_keywords = {"minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"}
        found, seen = [], set()

        def walk(node, where):
            if id(node) in seen:
                return
            seen.add(id(node))
            if isinstance(node, dict):
                for key, value in node.items():
                    if key in range_keywords:
                        found.append((where[-2:], key, value))
                    walk(value, where + (key,))
            elif isinstance(node, list):
                for item in node:
                    walk(item, where)

        walk(cli.PARAMS_SCHEMAS, ())
        assert sorted(found) == [
            (("properties", "dim"), "minimum", 1),  # a matrix payload's dim
            (("properties", "p"), "maximum", 0.5),  # the bsc crossover p
            (("properties", "p"), "minimum", 0),
        ]

    def test_every_schema_is_valid_against_its_metaschema(self):
        from jsonschema.validators import validator_for

        for schema in (cli.CONFIG_SCHEMA, cli.SWEEP_SCHEMA, *cli.PARAMS_SCHEMAS.values()):
            validator_for(schema).check_schema(schema)

    def test_domain_error_from_execute_is_a_config_error(self):
        cfg = {"command": "capacity", "params": {"channel": ZERO_PLUS, "tol": -1.0}, "seed": 1}
        validate_config(cfg)
        with pytest.raises(ConfigError) as err:
            cli._execute(cfg)
        assert err.value.path == ["params", "tol"]
        assert str(err.value) == "tol must be positive"

    # matrix rows hold numbers and atoms are [symbol sequence, weight] pairs,
    # so a {} or null inside them is a shape error at its place
    @pytest.mark.parametrize(
        "args, path",
        [
            (["typicality", "--param", "mode=state", "--param", 'state={"dim":2,"re":[[1,{}],[0,0]]}',
              "--param", "n=2", "--param", "alpha=2"],
             ["params", "state", "re", 0, 1]),
            (["resolvability", "--param", 'channel={"kind":"zero-plus"}', "--param",
              'P={"kind":"explicit","atoms":[[[0,{}],1.0]]}', "--param", "lambda=0.6"],
             ["params", "P", "atoms", 0, 0, 1]),
            (["resolvability", "--param", 'channel={"kind":"zero-plus"}', "--param",
              'P={"kind":"explicit","atoms":[[[0,1],null]]}', "--param", "lambda=0.6"],
             ["params", "P", "atoms", 0, 1]),
            (["qid-eval", "--param", 'channel={"kind":"zero-plus"}', "--param",
              'code={"n":1,"entries":[{"P":[[[0],null]],"D":{"dim":2,"re":[[1,0],[0,0]]}}]}'],
             ["params", "code", "entries", 0, "P", 0, 1]),
        ],
        ids=["matrix-row", "atom-symbol", "atom-weight", "code-weight"],
    )
    def test_malformed_item_exits_2_with_field_path(self, args, path, capsys):
        assert cli.main(args + ["--seed", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "schema-violation"
        assert err["path"] == path

    # ragged rows are a data error: exit 3, with a message naming the rows
    @pytest.mark.parametrize(
        "args, message",
        [
            (["typicality", "--param", "mode=state", "--param", 'state={"dim":2,"re":[[1,0],[0]]}',
              "--param", "n=2", "--param", "alpha=2"],
             "ragged re: rows [1] differ in length from row 0 (2)"),
            (["capacity", "--param", 'channel={"kind":"classical","rows":[[0.5,0.5],[1.0]]}'],
             "ragged stochastic matrix: rows [1] differ in length from row 0 (2)"),
        ],
        ids=["matrix-from-json", "embed-classical"],
    )
    def test_ragged_rows_exit_3_naming_them(self, args, message, capsys):
        assert cli.main(args + ["--seed", "1"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["type"], err["message"]) == ("numeric-failure", "ValueError", message)


class TestColdStart:
    """No command loads scipy, and nothing on the CLI paths loads mpmath.

    Each command runs in a fresh interpreter, so the modules it leaves
    loaded are its own.  The LP commands' digests (sha256 of `results`)
    were retaken when the covering LP moved from HiGHS to the package's
    own simplex, which moved their last bits.
    """

    CONFIGS = {
        "tail-mc": ({"rv": {"kind": "random", "dim": 2, "atoms": 4}, "method": "two-sided",
                     "n": 18, "eps": 0.2, "trials": 2000}, 3, None),
        "typicality": ({"mode": "state", "state": {"kind": "random", "dim": 2}, "n": 6,
                        "alpha": 2.0}, 3, None),
        "resolvability": ({"channel": {"kind": "random", "dim": 2, "inputs": 2},
                           "P": {"kind": "uniform", "n": 4}, "lambda": 0.6}, 11, None),
        "qid-eval": ({"channel": ZERO_PLUS,
                      "code": {"kind": "random", "n": 2, "messages": 3, "support": 2}}, 9, None),
        "capacity": ({"channel": {"kind": "bsc", "p": 0.11}}, 1, None),
        "cover-sample": ({"hypergraph": {"kind": "random", "dim": 3, "num_edges": 4},
                          "eps": 0.3, "tau": 0.3}, 21, None),
        "conjecture-probe": ({"which": 1, "dim": 2, "count": 5}, 4, None),
        "product-cover": ({"hypergraph": {"kind": "random", "dim": 2, "num_edges": 3},
                           "n_values": [1, 2]}, 5,
                          "2e4a4cc1e4f75658324dd6ceb318ebdb2c8b01c477ce7d66ca21cfc24f439615"),
        "cover-capacity": ({"hypergraph": {"kind": "random", "dim": 3, "num_edges": 4}}, 6,
                           "efc751fd3fb813f545aa4ef066f9fe7b29176d57821990a7ab8f8c5273a7b149"),
    }
    SCRIPT = (
        "import hashlib, json, sys\n"
        "from opcover import cli\n"
        "results = cli.run(json.loads(sys.argv[1])).results\n"
        "print(json.dumps({'digest': hashlib.sha256(cli.canonical_json(results).encode()).hexdigest(),"
        " 'heavy': [m for m in ('scipy', 'mpmath') if m in sys.modules]}))\n"
    )

    def test_every_command_is_covered(self):
        assert sorted(self.CONFIGS) == sorted(cli.HANDLERS)

    @pytest.mark.parametrize("command", list(CONFIGS))
    def test_heavy_modules_load_only_for_the_lp(self, command):
        params, seed, digest = self.CONFIGS[command]
        config = {"command": command, "params": params, "seed": seed}
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(config)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["heavy"] == []
        if digest is not None:
            assert out["digest"] == digest

    def test_no_command_loads_jsonschema(self):
        # jsonschema is the test suite's oracle for the schema checks, not
        # a dependency of any run: one interpreter runs every command
        script = (
            "import json, sys\n"
            "from opcover import cli\n"
            "on_import = [m for m in ('jsonschema', 'scipy', 'mpmath') if m in sys.modules]\n"
            "for config in json.loads(sys.argv[1]):\n"
            "    cli.run(config)\n"
            "print(json.dumps([on_import, 'jsonschema' in sys.modules]))\n"
        )
        configs = [{"command": c, "params": p, "seed": s} for c, (p, s, _) in self.CONFIGS.items()]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(configs)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[], False]


# Inside a oneOf the error names the field in the branch the instance's
# kind selects (or in the one branch without a kind when it has none).
ZERO = {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]]}
ONE_OF_PATHS = [
    ("tail-mc", {"rv": {"kind": "matrices", "probs": [0.5, 0.25, 0.25], "values": [ZERO, ZERO, {"dim": 2}]},
                 "method": "markov", "a": 0.8}, ["params", "rv", "values", 2]),
    ("tail-mc", {"rv": {"kind": "scalar", "values": [0.0, 1.0]}, "method": "markov", "a": 0.8},
     ["params", "rv"]),
    ("tail-mc", {"rv": {"kind": "scalar", "probs": [0.5, "x"], "values": [0.0, 1.0]},
                 "method": "markov", "a": 0.8}, ["params", "rv", "probs", 1]),
    ("capacity", {"channel": {"kind": "bsc"}}, ["params", "channel"]),
    ("capacity", {"channel": {"kind": "bsc", "p": 0.7}}, ["params", "channel", "p"]),
    ("capacity", {"channel": {"kind": "nope"}}, ["params", "channel", "kind"]),
    ("capacity", {"channel": {"kind": "uniform", "n": 2}}, ["params", "channel", "kind"]),
    ("capacity", {"channel": {"states": [ZERO]}}, ["params", "channel"]),
    ("cover-capacity", {"hypergraph": {"kind": "random", "dim": 2}}, ["params", "hypergraph"]),
    ("cover-capacity", {"hypergraph": {"kind": "orthogonal-pair", "dim": 2}}, ["params", "hypergraph"]),
    ("resolvability", {"channel": ZERO_PLUS, "P": {"kind": "random", "n": 2}, "lambda": 0.6},
     ["params", "P"]),
    ("qid-eval", {"channel": ZERO_PLUS, "code": {"kind": "random", "n": 1, "messages": 2}},
     ["params", "code"]),
    ("typicality", {"mode": "state", "state": {"kind": "random"}, "n": 3, "alpha": 2.0},
     ["params", "state"]),
    ("typicality", {"mode": "state", "state": {**ZERO, "kind": "random"}, "n": 3, "alpha": 2.0},
     ["params", "state"]),
]


class TestSchemaChecks:
    @pytest.mark.parametrize(
        "command, params, path",
        ONE_OF_PATHS,
        ids=[f"{i:02d}-{c}-{'.'.join(map(str, p[1:]))}" for i, (c, _, p) in enumerate(ONE_OF_PATHS)],
    )
    def test_one_of_error_names_the_selected_branch_field(self, command, params, path, capsys):
        args = [command, "--seed", "1"]
        for key, value in params.items():
            args += ["--param", f"{key}={json.dumps(value)}"]
        assert cli.main(args) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "schema-violation"
        assert payload["path"] == path

    def test_messages_name_the_violation(self):
        cases = [
            ({"kind": "bsc"}, "'p' is a required property"),
            ({"kind": "bsc", "p": "0.1"}, "'0.1' is not of type 'number'"),
            ({"kind": "bsc", "p": 0.7}, "0.7 is greater than the maximum of 0.5"),
            ({"kind": "zero-plus", "x": 1}, "Additional properties are not allowed ('x' was unexpected)"),
        ]
        for channel, message in cases:
            with pytest.raises(ConfigError) as err:
                validate_config({"command": "capacity", "params": {"channel": channel}, "seed": 1})
            assert str(err.value) == message

    def test_error_at_a_node_comes_before_one_below_it(self):
        # method markov requires a (allOf, after properties in the schema);
        # that error at params is reported before the one at rv.probs.0
        params = {"rv": {"kind": "scalar", "probs": ["x"], "values": [0.0]}, "method": "markov"}
        with pytest.raises(ConfigError) as err:
            validate_config({"command": "tail-mc", "params": params, "seed": 1})
        assert err.value.path == ["params"]
        assert str(err.value) == "'a' is a required property"

    def test_bool_is_not_a_number_and_integral_floats_are_integers(self):
        bsc = {"command": "capacity", "params": {"channel": {"kind": "bsc", "p": True}}, "seed": 1}
        with pytest.raises(ConfigError):
            validate_config(bsc)
        validate_config(dict(BSC_CONFIG, seed=7.0))
        with pytest.raises(ConfigError):
            validate_config(dict(BSC_CONFIG, seed=True))
        probe = {"command": "conjecture-probe", "params": {"which": True, "dim": 2, "count": 1}, "seed": 1}
        with pytest.raises(ConfigError):
            validate_config(probe)

    def test_many_atom_rv_validates_in_time(self):
        values = np.linspace(0.0, 1.0, 2000).tolist()
        config = {"command": "tail-mc", "seed": 1, "params": {
            "rv": {"kind": "scalar", "probs": [1.0 / 2000] * 2000, "values": values},
            "method": "chernoff-upper", "n": 2, "a": 0.9, "m": 0.9}}
        times = []
        for _ in range(5):
            start = time.perf_counter()
            validate_config(config)
            times.append(time.perf_counter() - start)
        assert sorted(times)[2] < 0.020

    def test_written_record_is_not_converted_again(self, tmp_path, monkeypatch):
        calls = []
        convert = cli.json_safe

        def counting(obj):
            calls.append(1)
            return convert(obj)

        monkeypatch.setattr(cli, "json_safe", counting)
        run(BSC_CONFIG)
        without = len(calls)
        calls.clear()
        run(dict(BSC_CONFIG, output_path=str(tmp_path / "record.json")))
        assert len(calls) == without
        record = json.loads((tmp_path / "record.json").read_text())
        assert record["config_hash"] == config_hash(BSC_CONFIG)


class TestIntegralNumbers:
    """JSON Schema's "integer" admits 2.0: every integer field runs as if it were 2."""

    # (command, params, the paths of the integer fields given as floats)
    CASES = [
        ("capacity", {"channel": {"kind": "random", "inputs": 2, "dim": 2}, "max_iter": 200000},
         [("channel", "inputs"), ("channel", "dim"), ("max_iter",)]),
        ("cover-sample", {"hypergraph": {"kind": "random", "dim": 2, "num_edges": 3},
                          "eps": 0.3, "tau": 0.3, "draws": 3000},
         [("hypergraph", "dim"), ("hypergraph", "num_edges"), ("draws",)]),
        ("cover-capacity", {"hypergraph": {"kind": "random", "dim": 3, "num_edges": 4}},
         [("hypergraph", "dim"), ("hypergraph", "num_edges")]),
        ("product-cover", {"hypergraph": {"kind": "random", "dim": 2, "num_edges": 3}, "n_values": [1, 2]},
         [("hypergraph", "dim"), ("hypergraph", "num_edges"), ("n_values", 0), ("n_values", 1)]),
        ("tail-mc", {"rv": {"kind": "random", "dim": 2, "atoms": 3}, "method": "two-sided",
                     "n": 10, "eps": 0.2, "trials": 500},
         [("rv", "dim"), ("rv", "atoms"), ("n",), ("trials",)]),
        ("typicality", {"mode": "state", "alpha": 2.0, "state": {"kind": "random", "dim": 2}, "n": 6},
         [("state", "dim"), ("n",)]),
        ("typicality", {"mode": "conditional", "alpha": 2.0, "channel": ZERO_PLUS, "sequence": [0, 1, 1]},
         [("sequence", 0), ("sequence", 1), ("sequence", 2)]),
        ("resolvability", {"channel": ZERO_PLUS, "P": {"kind": "uniform", "n": 4}, "lambda": 0.6},
         [("P", "n")]),
        ("resolvability", {"channel": {"kind": "random", "inputs": 2, "dim": 2},
                           "P": {"kind": "random", "n": 5, "support": 6}, "lambda": 0.6,
                           "draws": 2000, "eps": 0.3, "tau": 0.3},
         [("channel", "inputs"), ("channel", "dim"), ("P", "n"), ("P", "support"), ("draws",)]),
        ("conjecture-probe", {"which": 1, "dim": 2, "count": 5}, [("dim",), ("count",)]),
        ("qid-eval", {"channel": ZERO_PLUS, "code": {"kind": "random", "n": 2, "messages": 2, "support": 2}},
         [("code", "n"), ("code", "messages"), ("code", "support")]),
    ]

    @pytest.mark.parametrize("command, params, paths", CASES,
                             ids=[f"{i:02d}-{c}" for i, (c, _, _) in enumerate(CASES)])
    def test_float_integers_give_the_same_results(self, command, params, paths):
        floated = json.loads(json.dumps(params))
        for path in paths:
            node = floated
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = float(node[path[-1]])
        assert canonical_json(floated) != canonical_json(params)
        want = run({"command": command, "seed": 3, "params": params}).results
        got = run({"command": command, "seed": 3, "params": floated}).results
        assert canonical_json(got) == canonical_json(want)

    def test_config_keeps_its_floats(self):
        config = {"command": "capacity", "seed": 1,
                  "params": {"channel": {"kind": "random", "inputs": 2, "dim": 2.0}}}
        record = run(config)
        assert config["params"]["channel"]["dim"] == 2.0 and isinstance(config["params"]["channel"]["dim"], float)
        assert record.config_hash == config_hash(config)

    def test_entry_point_accepts_an_integral_float(self, capsys):
        code = cli.main(["capacity", "--seed", "1", "--param",
                         'channel={"kind": "random", "inputs": 2, "dim": 2.0}'])
        assert code == 0, capsys.readouterr().err
