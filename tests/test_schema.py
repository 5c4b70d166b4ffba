"""The config schema interpreter against jsonschema, its reference.

cli checks configs with its own first-error interpreter of the JSON
Schema keywords its schemas use; jsonschema's Draft 2020-12 validator,
with best_match picking the reported error as cli once did, is the
oracle here and nowhere on the run path.  Over a seeded corpus of
single-field mutants of the tests' own configs, both must agree on
validity everywhere and on the error path wherever the mutated field
lies outside a oneOf.  Inside a oneOf the interpreter names the field
in the branch the instance's kind selects, where best_match often
blamed another branch.  The same corpus checks the exit-code contract:
every schema-valid mutant runs, or fails with a named library error.
"""

import copy
import math
import re
import signal
from functools import cache

import numpy as np
import pytest
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for
import test_cli
from test_cli import BOUNDARY_CASES, CAP_CASES, HALF_DIAG, ZERO_PLUS

from opcover import cli
from opcover.covering import SamplingExhausted

SCHEMAS = {"config": cli.CONFIG_SCHEMA, "sweep": cli.SWEEP_SCHEMA, **cli.PARAMS_SCHEMAS}

# payload kinds the cases above leave out
EXTRA_BASES = [
    ("capacity", {"channel": {"kind": "bsc", "p": 0.11}, "tol": 1e-9, "max_iter": 50}),
    ("capacity", {"channel": {"kind": "classical", "rows": [[0.9, 0.1], [0.2, 0.8]]}}),
    ("capacity", {"channel": {"kind": "classical-csv", "path": "rows.csv"}}),
    ("capacity", {"channel": {"kind": "states", "states": [
        HALF_DIAG, {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.1], [-0.1, 0.0]]}]}}),
    ("tail-mc", {"rv": {"kind": "matrices", "probs": [0.5, 0.25, 0.25],
                        "values": [HALF_DIAG, HALF_DIAG, {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]]}]},
                 "method": "chernoff-lower", "n": 4, "a": 0.2, "m": 0.5, "trials": 100}),
    ("tail-mc", {"rv": {"kind": "scalar", "probs": [0.5, 0.5], "values": [0.0, 1.0]},
                 "method": "weak-law", "n": 3, "delta": 0.25}),
    ("cover-sample", {"hypergraph": {"dim": 2, "eta": 1.0, "edges": [HALF_DIAG, HALF_DIAG]},
                      "eps": 0.3, "tau": 0.3, "p": [0.5, 0.5], "draws": 8}),
    ("product-cover", {"hypergraph": {"kind": "orthogonal-pair"}, "n_values": [1, 2], "tol": 1e-8}),
    ("resolvability", {"channel": ZERO_PLUS, "lambda": 0.6,
                       "P": {"kind": "explicit", "atoms": [[[0, 1], 0.5], [[1, 1], 0.5]]}}),
    ("typicality", {"mode": "conditional", "alpha": 2.0, "sequence": [0, 1],
                    "channel": {"kind": "random", "inputs": 2, "dim": 2}}),
]


def base_configs() -> list:
    cases = [(c, p) for c, p, _ in BOUNDARY_CASES + CAP_CASES] + EXTRA_BASES
    cases += [(c, p) for c, (p, _, _) in test_cli.TestColdStart.CONFIGS.items()]
    configs = [{"command": c, "params": copy.deepcopy(p), "seed": 7} for c, p in cases]
    configs[0].update(output_path="out.json", format="json")
    configs[1].update(output_path="out.csv", format="csv")
    return configs


@cache
def _validator(name: str):
    return validator_for(SCHEMAS[name])(SCHEMAS[name])


def oracle_path(config: dict):
    """Field path of the error cli's jsonschema validation reported, or None if valid."""
    error = best_match(_validator("config").iter_errors(config))
    if error is not None:
        return list(error.absolute_path)
    error = best_match(_validator(config["command"]).iter_errors(config["params"]))
    return None if error is None else ["params", *error.absolute_path]


def interpreter_path(config: dict):
    try:
        cli.validate_config(config)
    except cli.ConfigError as err:
        return err.path
    return None


def kind_consts() -> list:
    found = []

    def walk(node):
        if isinstance(node, dict):
            if isinstance(node.get("kind"), dict) and "const" in node["kind"]:
                found.append(node["kind"]["const"])
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(SCHEMAS)
    return sorted(set(found))


def nodes(value, path=()):
    """Every (path, value) of a JSON tree; arrays contribute items 0, 1 and -1."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from nodes(item, (*path, key))
    elif isinstance(value, list):
        for index in sorted({0, 1, len(value) - 1} & set(range(len(value)))):
            yield from nodes(value[index], (*path, index))


def _replaced(config, path, value):
    out = copy.deepcopy(config)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


def mutants(config: dict, rng, kinds: list):
    """(mutated location, mutant) for every single-field change of config."""
    for path, value in nodes(config):
        if not path:
            continue
        drawn = [int(rng.integers(-3, 10)), float(rng.normal()), str(rng.integers(100))]
        for bad in ("x", "", 1.5, 2.0, 7, 0, -1, [], [1], {}, True, False, None, math.nan, *drawn):
            if type(bad) is not type(value) or bad != value:
                yield path, _replaced(config, path, bad)
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict):
            deleted = copy.deepcopy(config)
            target = deleted
            for key in path[:-1]:
                target = target[key]
            del target[path[-1]]
            yield path, deleted
        if isinstance(value, dict):
            yield (*path, "bogus"), _replaced(config, path, {**value, "bogus": 1})
            if "kind" in value:
                for kind in ["no-such-kind", *kinds]:
                    if kind != value["kind"]:
                        yield (*path, "kind"), _replaced(config, path, {**value, "kind": kind})


def inside_one_of(config: dict, location: tuple) -> bool:
    """Does a oneOf apply to a proper ancestor of the mutated location?"""
    node = cli.CONFIG_SCHEMA
    for depth, key in enumerate(location[:-1]):
        if depth == 0 and key == "params":
            node = cli.PARAMS_SCHEMAS.get(config.get("command"), {})
        elif isinstance(key, str) and key in node.get("properties", {}):
            node = node["properties"][key]
        elif isinstance(key, int) and "items" in node:
            node = node["items"]
        else:
            return False
        if "oneOf" in node:
            return True
    return False


def corpus(seed: int = 20240601, size: int = 12_000) -> list:
    """A seeded sample of size single-field mutants of the base configs."""
    rng = np.random.default_rng(seed)
    kinds = kind_consts()
    cases = [(location, mutant)
             for config in base_configs() for location, mutant in mutants(config, rng, kinds)]
    return [cases[i] for i in sorted(rng.choice(len(cases), size=min(size, len(cases)), replace=False))]


class TestAgainstJsonschema:
    def test_bases_are_valid(self):
        for config in base_configs():
            assert oracle_path(config) is None, config
            assert interpreter_path(config) is None, config

    def test_single_field_mutants_agree(self):
        cases = corpus()
        assert len(cases) >= 10_000
        invalid = 0
        for location, mutant in cases:
            expected, got = oracle_path(mutant), interpreter_path(mutant)
            assert (expected is None) == (got is None), (location, mutant, expected, got)
            if got is not None:
                invalid += 1
                if not inside_one_of(mutant, location):
                    assert got == expected, (location, mutant)
        assert invalid > len(cases) // 2


class TestSchemaSubset:
    def test_every_keyword_is_interpreted(self):
        implemented = set(cli._KEYWORDS) | cli._COMPANIONS
        seen = set()

        def walk(node):
            assert isinstance(node, dict), node
            for key, value in node.items():
                assert key in implemented, key
                seen.add(key)
                if key == "properties":
                    for sub in value.values():
                        walk(sub)
                elif key in ("items", "if", "then"):
                    assert key == "items" or ("then" in node and "else" not in node)
                    walk(value)
                elif key in ("allOf", "oneOf", "prefixItems"):
                    for sub in value:
                        walk(sub)
                elif key == "type":
                    assert value in cli._IS_TYPE
                elif key == "additionalProperties":
                    assert value is False

        for schema in SCHEMAS.values():
            walk(schema)
        assert seen == implemented

    def test_every_one_of_is_discriminated_by_kind(self):
        found = []

        def walk(node):
            if isinstance(node, dict):
                if "oneOf" in node:
                    found.append(node["oneOf"])
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for item in node:
                    walk(item)

        walk(SCHEMAS)
        assert found
        for branches in found:
            consts = [b["properties"].get("kind", {}).get("const") for b in branches]
            kinds = [k for k in consts if k is not None]
            assert len(set(kinds)) == len(kinds)
            assert consts.count(None) <= 1
            for branch, kind in zip(branches, consts):
                assert branch["type"] == "object"
                if kind is None:
                    assert branch["additionalProperties"] is False
                    assert "kind" not in branch["properties"]
                else:
                    assert "kind" in branch["required"]

    @pytest.mark.parametrize("schema", [
        {"type": "object", "additionalProperties": True},
        {"type": "object", "patternProperties": {"^x": {}}},
        {"oneOf": [{"type": "object"}, {"type": "object"}]},
    ])
    def test_outside_the_subset_fails_to_compile(self, schema):
        with pytest.raises((KeyError, ValueError)):
            cli._compile(schema)


# library ValueErrors a schema-valid config may raise: data that the
# schema cannot judge (weights, Hermiticity, traces, ragged rows, shapes)
VALUE_ERRORS = [re.compile(p) for p in (
    r"(distribution|sequence) weights sum to \S+, expected 1",
    r"(distribution|stochastic matrix) weights must be nonnegative numbers",
    r"sequence weights must be nonnegative and finite",
    r"distribution has length \d+, expected \d+",
    r"sequence \(.*\) has length \d+, expected \d+",
    r"sequences must be nonempty",
    r"rows must sum to 1 within 1e-12, got \[.*\]",
    r"ragged (re|im|stochastic matrix): rows \[[\d, ]+\] differ in length from row 0 \(\d+\)",
    r"matrix payload shape mismatch for dim \d+",
    r"(edge|values\[\d+\]|state \d+|rho|test effect) is not Hermitian within 1e-10",
    r"(state \d+|rho) has trace \S+, expected 1",
    r"(state \d+|rho) has a negative eigenvalue beyond tolerance",
    r"edge is not positive semidefinite",
    r"edge exceeds the eta cap",
    r"edge dimension mismatch",
    r"probs and values must have equal length",
)]


class Overrun(Exception):
    pass


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs signal.alarm")
class TestExitCodeContract:
    def test_schema_valid_mutants_run_or_fail_by_name(self, tmp_path, monkeypatch):
        # a config either runs or fails with a named error: exit 2
        # (ConfigError), a named data-validity ValueError, the missing CSV
        # file of classical-csv or an exhausted sampler (exit 3); never a
        # TypeError, a BoundViolation or a run past 4 s
        monkeypatch.chdir(tmp_path)

        def overrun(*_):
            raise Overrun("ran past 4 s")

        previous = signal.signal(signal.SIGALRM, overrun)
        outcomes = {}
        try:
            for location, mutant in corpus():
                try:
                    cli.validate_config(mutant)
                except cli.ConfigError:
                    continue
                signal.alarm(4)
                try:
                    cli._execute(mutant)
                    outcome = "ran"
                except cli.ConfigError:
                    outcome = "exit 2"
                except SamplingExhausted:
                    outcome = "exhausted"
                except FileNotFoundError:
                    assert mutant["params"]["channel"]["kind"] == "classical-csv", (location, mutant)
                    outcome = "no file"
                except ValueError as exc:
                    assert type(exc) is ValueError, (location, mutant, exc)
                    assert any(p.fullmatch(str(exc)) for p in VALUE_ERRORS), (location, mutant, exc)
                    outcome = "value error"
                finally:
                    signal.alarm(0)
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
        finally:
            signal.signal(signal.SIGALRM, previous)
        assert sum(outcomes.values()) > 1_000 and outcomes["ran"] > 100, outcomes
