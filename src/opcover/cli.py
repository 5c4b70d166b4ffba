"""Reproducible experiment harness over the library entry points.

Every run is described by a JSON config (command, params, seed) that is
schema-validated, canonically hashed, and dispatched to one command
handler.  Handlers return a JSON-safe results payload plus flat CSV
rows with a fixed per-command column set, so outputs can be diffed
byte-for-byte: identical (config, seed, version) always reproduce the
identical results payload.  Wall-clock time lives outside the payload.

The schema checks the shape of a config (types, required fields, the
variant of each nested object); whether a parameter lies in range is
decided once, by the library entry point that receives it, which raises
linalg.DomainError naming it.

Exit codes: 0 success, 2 config rejected by the schema or by a library
domain check (a machine readable error with the offending field path
goes to stderr), 3 the computation itself failed (bound violation,
invalid matrix or distribution, ...).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import functools
import hashlib
import io
import json
import math
import numbers
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import channels, concentration, covering, identification, linalg
from .linalg import BoundViolation, DomainError
from .rng import make_rng, random_density, spawn_seeds

COMMANDS = (
    "tail-mc",
    "cover-sample",
    "cover-capacity",
    "product-cover",
    "typicality",
    "capacity",
    "resolvability",
    "conjecture-probe",
    "qid-eval",
)

# Fixed CSV column order per command.  Golden-file tests pin these; any
# change is a format break and must bump the minor version.
CSV_COLUMNS = {
    "tail-mc": ("method", "n", "trials", "probability", "stderr", "bound"),
    "cover-sample": (
        "kind", "num_draws", "certified", "beyond_bound", "attempts",
        "excluded_mass", "l1_distance",
    ),
    # "lp_value" not "value": sweep rows prefix an axis-value column and
    # the two must not collide.
    "cover-capacity": ("bits", "lp_value", "iterations"),
    "product-cover": ("n", "c_n", "c_tilde_n", "pow2_Cn"),
    "typicality": ("kind", "n", "alpha", "dim", "rank", "trace_mass", "mass_bound"),
    "capacity": ("bits", "gap", "iterations"),
    "resolvability": ("lambda", "K", "L", "support", "measured_distance", "certified"),
    "conjecture-probe": ("which", "dim", "instances", "min_slack", "violations"),
    "qid-eval": ("i", "j", "acceptance"),
}

SWEEP_PREFIX = ("run_index", "axis", "value", "seed", "status", "error")


class ConfigError(ValueError):
    """Config rejected before dispatch: bad file, flag, or field path."""

    def __init__(self, message: str, path: tuple = ()):
        super().__init__(message)
        self.path = list(path)


# ---------------------------------------------------------------------------
# canonical serialization


# types json_safe returns unchanged when an object is exactly of one of them
_PLAIN_TYPES = frozenset((str, int, bool, type(None)))


def json_safe(obj):
    """Recursively convert to types json.dumps handles deterministically.

    Non-finite floats become the strings "inf" / "-inf" / "nan" since
    bare JSON has no encoding for them; Fractions stringify exactly;
    numpy scalars and arrays collapse to Python numbers and lists.
    The exact plain types come first, so a plain leaf takes one type
    lookup, and an exact list or tuple takes no isinstance call;
    everything else (Fractions, numpy values, non-finite floats,
    subclasses) goes through the isinstance chain below.
    """
    kind = type(obj)
    if kind in _PLAIN_TYPES or (kind is float and math.isfinite(obj)):
        return obj
    if kind is list or kind is tuple or isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
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
        return json_safe(obj.tolist())
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def _dumps(safe) -> str:
    """canonical_json of an object json_safe already converted, without a second walk."""
    return json.dumps(safe, sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> str:
    """Sorted keys, no whitespace, shortest round-trip floats."""
    return _dumps(json_safe(obj))


def config_hash(config: dict) -> str:
    """SHA-256 over the canonical (command, params, seed) triple.

    output_path and format are excluded: they say where the record
    goes, not what was computed.
    """
    core = {
        "command": config["command"],
        "params": config["params"],
        "seed": config["seed"],
    }
    return hashlib.sha256(canonical_json(core).encode()).hexdigest()


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (int, str)):
        return str(v)
    return canonical_json(v)


def csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(c)) for c in columns])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# config schema: shape only.  The two ranges left guard fields the CLI
# decodes itself and no library entry point receives: a matrix payload's
# dim and the bsc crossover probability p.

_ROW = {"type": "array", "items": {"type": "number"}}
# a sequence distribution's atom: [symbol sequence, weight]
_ATOM = {
    "type": "array",
    "minItems": 2,
    "maxItems": 2,
    "prefixItems": [{"type": "array", "items": {"type": "integer"}}, {"type": "number"}],
}

_MATRIX = {
    "type": "object",
    "required": ["dim", "re"],
    "additionalProperties": False,
    "properties": {
        "dim": {"type": "integer", "minimum": 1},
        "re": {"type": "array", "items": _ROW},
        "im": {"type": "array", "items": _ROW},
    },
}

_CHANNEL = {
    "oneOf": [
        {
            "type": "object",
            "required": ["kind", "p"],
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "bsc"},
                "p": {"type": "number", "minimum": 0, "maximum": 0.5},
            },
        },
        {
            "type": "object",
            "required": ["kind", "rows"],
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "classical"},
                "rows": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
                },
            },
        },
        {
            "type": "object",
            "required": ["kind", "path"],
            "additionalProperties": False,
            "properties": {"kind": {"const": "classical-csv"}, "path": {"type": "string"}},
        },
        {
            "type": "object",
            "required": ["kind", "states"],
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "states"},
                "states": {"type": "array", "minItems": 1, "items": _MATRIX},
            },
        },
        {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {"kind": {"const": "zero-plus"}},
        },
        {
            "type": "object",
            "required": ["kind", "inputs", "dim"],
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "random"},
                "inputs": {"type": "integer"},
                "dim": {"type": "integer"},
            },
        },
    ]
}

_HYPERGRAPH = {
    "oneOf": [
        {
            "type": "object",
            "required": ["dim", "edges", "eta"],
            "additionalProperties": False,
            "properties": {
                "dim": {"type": "integer"},
                "eta": {"type": "number"},
                "edges": {"type": "array", "minItems": 1, "items": _MATRIX},
            },
        },
        {
            "type": "object",
            "required": ["kind", "dim", "num_edges"],
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "random"},
                "dim": {"type": "integer"},
                "num_edges": {"type": "integer"},
                "eta": {"type": "number"},
            },
        },
        {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {"kind": {"const": "orthogonal-pair"}},
        },
    ]
}

_DISTRIBUTION = {
    "oneOf": [
        {
            "type": "object",
            "required": ["kind", "n"],
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "uniform"},
                "n": {"type": "integer"},
            },
        },
        {
            "type": "object",
            "required": ["kind", "n", "support"],
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "random"},
                "n": {"type": "integer"},
                "support": {"type": "integer"},
            },
        },
        {
            "type": "object",
            "required": ["kind", "atoms"],
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "explicit"},
                "atoms": {"type": "array", "minItems": 1, "items": _ATOM},
            },
        },
    ]
}

_RV = {
    "oneOf": [
        {
            "type": "object",
            "required": ["kind", "probs", "values"],
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "scalar"},
                "probs": {"type": "array", "minItems": 1, "items": {"type": "number"}},
                "values": {"type": "array", "minItems": 1, "items": {"type": "number"}},
            },
        },
        {
            "type": "object",
            "required": ["kind", "probs", "values"],
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "matrices"},
                "probs": {"type": "array", "minItems": 1, "items": {"type": "number"}},
                "values": {"type": "array", "minItems": 1, "items": _MATRIX},
            },
        },
        {
            "type": "object",
            "required": ["kind", "dim", "atoms"],
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "random"},
                "dim": {"type": "integer"},
                "atoms": {"type": "integer"},
            },
        },
    ]
}

PARAMS_SCHEMAS = {
    "tail-mc": {
        "type": "object",
        "required": ["rv", "method"],
        "additionalProperties": False,
        "properties": {
            "rv": _RV,
            "method": {
                "enum": [
                    "markov", "chebyshev", "weak-law",
                    "chernoff-upper", "chernoff-lower", "two-sided",
                ]
            },
            "n": {"type": "integer"},
            "trials": {"type": "integer"},
            "a": {"type": "number"},
            "m": {"type": "number"},
            "eps": {"type": "number"},
            "delta": {"type": "number"},
        },
        "allOf": [
            {"if": {"properties": {"method": {"const": "markov"}}}, "then": {"required": ["a"]}},
            {"if": {"properties": {"method": {"const": "chebyshev"}}}, "then": {"required": ["delta"]}},
            {"if": {"properties": {"method": {"const": "weak-law"}}}, "then": {"required": ["n", "delta"]}},
            {
                "if": {"properties": {"method": {"enum": ["chernoff-upper", "chernoff-lower"]}}},
                "then": {"required": ["n", "a", "m"]},
            },
            {"if": {"properties": {"method": {"const": "two-sided"}}}, "then": {"required": ["n", "eps"]}},
        ],
    },
    "cover-sample": {
        "type": "object",
        "required": ["hypergraph", "eps", "tau"],
        "additionalProperties": False,
        "properties": {
            "hypergraph": _HYPERGRAPH,
            "eps": {"type": "number"},
            "tau": {"type": "number"},
            "p": {"type": "array", "minItems": 1, "items": {"type": "number"}},
            "draws": {"type": "integer"},
        },
    },
    "cover-capacity": {
        "type": "object",
        "required": ["hypergraph"],
        "additionalProperties": False,
        "properties": {
            "hypergraph": _HYPERGRAPH,
            "tol": {"type": "number"},
        },
    },
    "product-cover": {
        "type": "object",
        "required": ["hypergraph", "n_values"],
        "additionalProperties": False,
        "properties": {
            "hypergraph": _HYPERGRAPH,
            "n_values": {"type": "array", "items": {"type": "integer"}},
            "tol": {"type": "number"},
        },
    },
    "typicality": {
        "type": "object",
        "required": ["mode", "alpha"],
        "additionalProperties": False,
        "properties": {
            "mode": {"enum": ["state", "conditional"]},
            "alpha": {"type": "number"},
            "state": {
                "oneOf": [
                    _MATRIX,
                    {
                        "type": "object",
                        "required": ["kind", "dim"],
                        "additionalProperties": False,
                        "properties": {
                            "kind": {"const": "random"},
                            "dim": {"type": "integer"},
                        },
                    },
                ]
            },
            "n": {"type": "integer"},
            "channel": _CHANNEL,
            "sequence": {
                "type": "array",
                "minItems": 1,
                "items": {"type": "integer"},
            },
        },
        "allOf": [
            {
                "if": {"properties": {"mode": {"const": "state"}}},
                "then": {"required": ["state", "n"]},
            },
            {
                "if": {"properties": {"mode": {"const": "conditional"}}},
                "then": {"required": ["channel", "sequence"]},
            },
        ],
    },
    "capacity": {
        "type": "object",
        "required": ["channel"],
        "additionalProperties": False,
        "properties": {
            "channel": _CHANNEL,
            "tol": {"type": "number"},
            "max_iter": {"type": "integer"},
        },
    },
    "resolvability": {
        "type": "object",
        "required": ["channel", "P", "lambda"],
        "additionalProperties": False,
        "properties": {
            "channel": _CHANNEL,
            "P": _DISTRIBUTION,
            "lambda": {"type": "number"},
            "alpha": {"type": "number"},
            "eps": {"type": "number"},
            "tau": {"type": "number"},
            "draws": {"type": "integer"},
        },
    },
    "conjecture-probe": {
        "type": "object",
        "required": ["which", "dim", "count"],
        "additionalProperties": False,
        "properties": {
            "which": {"enum": [1, 2, 3]},
            "dim": {"type": "integer"},
            "count": {"type": "integer"},
        },
    },
    "qid-eval": {
        "type": "object",
        "required": ["channel", "code"],
        "additionalProperties": False,
        "properties": {
            "channel": _CHANNEL,
            "code": {
                "oneOf": [
                    {
                        "type": "object",
                        "required": ["kind", "n", "messages", "support"],
                        "additionalProperties": False,
                        "properties": {
                            "kind": {"const": "random"},
                            "n": {"type": "integer"},
                            "messages": {"type": "integer"},
                            "support": {"type": "integer"},
                        },
                    },
                    {
                        "type": "object",
                        "required": ["n", "entries"],
                        "additionalProperties": False,
                        "properties": {
                            "n": {"type": "integer"},
                            "entries": {
                                "type": "array",
                                "minItems": 1,
                                "items": {
                                    "type": "object",
                                    "required": ["P", "D"],
                                    "additionalProperties": False,
                                    "properties": {
                                        "P": {"type": "array", "minItems": 1, "items": _ATOM},
                                        "D": _MATRIX,
                                    },
                                },
                            },
                        },
                    },
                ]
            },
        },
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["command", "params", "seed"],
    "additionalProperties": False,
    "properties": {
        "command": {"enum": list(COMMANDS)},
        "params": {"type": "object"},
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        "output_path": {"type": "string"},
        "format": {"enum": ["json", "csv"]},
    },
}

SWEEP_SCHEMA = {
    "type": "object",
    "required": ["template", "axis", "values"],
    "additionalProperties": False,
    "properties": {
        "template": {"type": "object"},
        "axis": {"type": "string", "minLength": 1},
        "values": {"type": "array"},
        "output_path": {"type": "string"},
        "format": {"enum": ["json", "csv"]},
    },
}


# ---------------------------------------------------------------------------
# schema checks: a first-error interpreter of the JSON Schema (Draft 2020-12)
# keywords the schemas above use.  Each schema node compiles once into a
# check(instance) that raises ConfigError at the first violation; the path
# is filled in while the error unwinds.  A node's own keywords run before
# its properties and items, so an error at a node is reported before one
# below it.  A oneOf is discriminated by its branches' "kind" consts and
# checks only the branch the instance's kind selects.  Keyword semantics
# and messages are jsonschema's; the test suite keeps the two in step.


def _is_number(v) -> bool:
    # JSON numbers parse to floats and ints: decided without the slower ABC check
    if type(v) is float or type(v) is int:
        return True
    return isinstance(v, numbers.Number) and not isinstance(v, bool)


def _is_integer(v) -> bool:
    if isinstance(v, float):
        return v.is_integer()
    return isinstance(v, int) and not isinstance(v, bool)


_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    "integer": _is_integer,
}


def _equal(a, b) -> bool:
    """JSON equality of scalars: True is not 1, 1.0 is 1."""
    if a is True or a is False or b is True or b is False:
        return a is b
    return a == b


def _descend(check, instance, key) -> None:
    try:
        check(instance)
    except ConfigError as err:
        err.path.insert(0, key)
        raise


def _type(name, schema):
    is_type = _IS_TYPE[name]

    def check(v):
        if not is_type(v):
            raise ConfigError(f"{v!r} is not of type {name!r}")

    return check


def _required(names, schema):
    def check(v):
        if isinstance(v, dict):
            for name in names:
                if name not in v:
                    raise ConfigError(f"{name!r} is a required property")

    return check


def _additional_properties(allowed, schema):
    if allowed is not False:
        raise ValueError("only additionalProperties: false is supported")
    known = schema.get("properties", {}).keys()

    def check(v):
        if isinstance(v, dict) and not known >= v.keys():
            extras = sorted((k for k in v if k not in known), key=str)
            verb = "was" if len(extras) == 1 else "were"
            names = ", ".join(map(repr, extras))
            raise ConfigError(f"Additional properties are not allowed ({names} {verb} unexpected)")

    return check


def _properties(props, schema):
    compiled = [(name, _compile(sub)) for name, sub in props.items()]

    def check(v):
        if isinstance(v, dict):
            for name, sub in compiled:
                if name in v:
                    _descend(sub, v[name], name)

    return check


# the exact types of parsed JSON that pass each type check: a set of the
# types in a list settles most lists in one C-level pass
_EXACT_TYPES = {"object": {dict}, "array": {list}, "string": {str}, "number": {float, int}, "integer": {int}}


def _all_pass(schema):
    """A test that every item of a list passes schema, in one pass.

    Made for a bare type (matrix entries) and an array of such items (a
    matrix's rows); None for any other schema.
    """
    if schema.keys() == {"type"}:
        is_type, exact = _IS_TYPE[schema["type"]], _EXACT_TYPES[schema["type"]]
        return lambda items: {*map(type, items)} <= exact or all(map(is_type, items))
    if schema.keys() == {"type", "items"} and schema["type"] == "array":
        inner = _all_pass(schema["items"])
        if inner is not None:
            return lambda items: all(isinstance(v, list) and inner(v) for v in items)
    return None


def _items(sub_schema, schema):
    sub = _compile(sub_schema)
    # a list _all_pass settles takes one pass; a failure is then found
    # again item by item, to report its path
    all_pass = _all_pass(sub_schema)

    def check(v):
        if isinstance(v, list) and (all_pass is None or not all_pass(v)):
            for index, item in enumerate(v):
                _descend(sub, item, index)

    return check


def _prefix_items(subs, schema):
    compiled = [_compile(sub) for sub in subs]

    def check(v):
        if isinstance(v, list):
            for index, (sub, item) in enumerate(zip(compiled, v)):
                _descend(sub, item, index)

    return check


def _min_items(bound, schema):
    def check(v):
        if isinstance(v, list) and len(v) < bound:
            raise ConfigError(f"{v!r} {'should be non-empty' if bound == 1 else 'is too short'}")

    return check


def _max_items(bound, schema):
    def check(v):
        if isinstance(v, list) and len(v) > bound:
            raise ConfigError(f"{v!r} {'is expected to be empty' if bound == 0 else 'is too long'}")

    return check


def _min_length(bound, schema):
    def check(v):
        if isinstance(v, str) and len(v) < bound:
            raise ConfigError(f"{v!r} {'should be non-empty' if bound == 1 else 'is too short'}")

    return check


def _const(value, schema):
    def check(v):
        if not _equal(v, value):
            raise ConfigError(f"{value!r} was expected")

    return check


def _enum(values, schema):
    def check(v):
        if not any(_equal(v, e) for e in values):
            raise ConfigError(f"{v!r} is not one of {values!r}")

    return check


def _minimum(bound, schema):
    def check(v):
        if _is_number(v) and v < bound:
            raise ConfigError(f"{v!r} is less than the minimum of {bound!r}")

    return check


def _maximum(bound, schema):
    def check(v):
        if _is_number(v) and v > bound:
            raise ConfigError(f"{v!r} is greater than the maximum of {bound!r}")

    return check


def _all_of(subs, schema):
    return _chain([_compile(sub) for sub in subs])


def _if(condition, schema):
    test, then = _compile(condition), _compile(schema["then"])

    def check(v):
        try:
            test(v)
        except ConfigError:
            return
        then(v)

    return check


def _one_of(branches, schema):
    by_kind, plain = {}, None
    for branch in branches:
        kind = branch.get("properties", {}).get("kind", {}).get("const")
        if kind is None:
            if plain is not None:
                raise ValueError("a oneOf may have one branch without a kind const")
            plain = _compile(branch)
        else:
            by_kind[kind] = _compile(branch)
    kinds = list(by_kind)

    def check(v):
        if not isinstance(v, dict):
            raise ConfigError(f"{v!r} is not of type 'object'")
        if "kind" in v:
            kind = v["kind"]
            branch = by_kind.get(kind) if isinstance(kind, str) else None
            if branch is None:
                raise ConfigError(f"{kind!r} is not one of {kinds!r}", ["kind"])
        elif plain is None:
            raise ConfigError("'kind' is a required property")
        else:
            branch = plain
        branch(v)

    return check


_KEYWORDS = {
    "type": _type,
    "required": _required,
    "additionalProperties": _additional_properties,
    "properties": _properties,
    "items": _items,
    "prefixItems": _prefix_items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "minLength": _min_length,
    "const": _const,
    "enum": _enum,
    "minimum": _minimum,
    "maximum": _maximum,
    "allOf": _all_of,
    "if": _if,
    "oneOf": _one_of,
}
# keywords read by another keyword's compiler, not checks of their own
_COMPANIONS = {"then"}
_DESCENDING = {"properties", "items", "prefixItems"}


def _chain(checks: list):
    if len(checks) == 1:
        return checks[0]

    def check(v):
        for c in checks:
            c(v)

    return check


def _compile(schema: dict):
    """check(instance) for one schema node; KeyError names a keyword outside the subset."""
    order = sorted((k for k in schema if k not in _COMPANIONS), key=lambda k: k in _DESCENDING)
    return _chain([_KEYWORDS[k](schema[k], schema) for k in order])


_CONFIG_CHECK = _compile(CONFIG_SCHEMA)
_PARAMS_CHECKS = {command: _compile(s) for command, s in PARAMS_SCHEMAS.items()}
_SWEEP_CHECK = _compile(SWEEP_SCHEMA)


def validate_config(config: dict) -> None:
    """Raise ConfigError carrying the offending field path."""
    _CONFIG_CHECK(config)
    _descend(_PARAMS_CHECKS[config["command"]], config["params"], "params")


def _keep(v):
    return v


def _integral(schema: dict):
    """coerce(v) for one schema node: v with every float at an "integer" node below it an int.

    JSON Schema's "integer" admits 2.0, which numpy shapes, range and
    Fraction refuse, so the handlers get 2; v has passed the schema.
    Compiled once, like the checks, over properties, items and the oneOf
    branch of v's kind.  A node with no "integer" node below it compiles
    to _keep, and a container is copied only where something below it
    changes, so the config keeps its floats.
    """
    if schema.get("type") == "integer":
        return lambda v: int(v) if isinstance(v, float) else v
    if "oneOf" in schema:
        branches = {b.get("properties", {}).get("kind", {}).get("const"): _integral(b)
                    for b in schema["oneOf"]}
        if all(c is _keep for c in branches.values()):
            return _keep
        return lambda v: branches[v.get("kind")](v)
    if "properties" in schema:
        subs = [(k, c) for k, sub in schema["properties"].items() if (c := _integral(sub)) is not _keep]

        def coerce_object(v):
            changed = {k: x for k, c in subs if k in v and (x := c(v[k])) is not v[k]}
            return {**v, **changed} if changed else v

        return coerce_object if subs else _keep
    if "items" in schema and (item := _integral(schema["items"])) is not _keep:

        def coerce_array(v):
            out = [item(x) for x in v]
            return out if any(a is not b for a, b in zip(out, v)) else v

        return coerce_array
    return _keep


_PARAMS_INTEGRAL = {command: _integral(s) for command, s in PARAMS_SCHEMAS.items()}


@contextlib.contextmanager
def _domain(*fields):
    """Turn a library DomainError into a ConfigError at ["params", *fields, param].

    Also a decorator: each loader of a nested params object names it.
    """
    try:
        yield
    except DomainError as exc:
        raise ConfigError(str(exc), ("params", *fields, exc.param)) from exc


# ---------------------------------------------------------------------------
# object loaders

_ZERO = np.array([[1.0, 0.0], [0.0, 0.0]])
_PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])


@_domain("channel")
def _load_channel(spec: dict, seed: int) -> channels.CQChannel:
    kind = spec["kind"]
    if kind == "bsc":
        p = float(spec["p"])
        return channels.embed_classical([[1.0 - p, p], [p, 1.0 - p]])
    if kind == "classical":
        return channels.embed_classical(spec["rows"])
    if kind == "classical-csv":
        rows = np.loadtxt(spec["path"], delimiter=",", ndmin=2)
        return channels.embed_classical(rows)
    if kind == "states":
        return channels.CQChannel([linalg.matrix_from_json(m) for m in spec["states"]])
    if kind == "zero-plus":
        return channels.CQChannel([_ZERO, _PLUS])
    return channels.random_channel(seed, spec["inputs"], spec["dim"])


@_domain("hypergraph")
def _load_hypergraph(spec: dict, seed: int) -> covering.QuantumHypergraph:
    if "kind" not in spec:
        return covering.QuantumHypergraph.from_json(spec)
    if spec["kind"] == "random":
        return covering.random_hypergraph(seed, spec["dim"], spec["num_edges"], spec.get("eta", 1.0))
    return covering.QuantumHypergraph(2, [_ZERO, np.diag([0.0, 1.0])], eta=1.0)


@_domain("P")
def _load_distribution(spec: dict, alphabet_size: int, seed: int) -> dict:
    if spec["kind"] == "uniform":
        return identification.uniform_distribution(alphabet_size, spec["n"])
    if spec["kind"] == "random":
        return identification.random_sparse_distribution(seed, alphabet_size, spec["n"], spec["support"])
    entries = {tuple(int(s) for s in xn): w for xn, w in spec["atoms"]}
    return identification.check_sequence_distribution(entries, alphabet_size=alphabet_size)


@_domain("rv")
def _load_rv(spec: dict, seed: int) -> concentration.OperatorRV:
    if spec["kind"] == "scalar":
        return concentration.OperatorRV.scalar(spec["probs"], spec["values"])
    if spec["kind"] == "matrices":
        return concentration.OperatorRV(spec["probs"], [linalg.matrix_from_json(m) for m in spec["values"]])
    return concentration.OperatorRV.random(seed, spec["dim"], spec["atoms"])


@_domain("code")
def _load_code(spec: dict, channel: channels.CQChannel, seed: int) -> identification.QIDCode:
    if spec.get("kind") != "random":
        return identification.QIDCode.from_json(spec, channel.alphabet_size)
    return identification.random_qid_code(
        seed, channel, spec["n"], spec["messages"], spec["support"]
    )


# ---------------------------------------------------------------------------
# command handlers: params, seed -> (results payload, CSV rows)


def _run_tail_mc(params: dict, seed: int):
    # seeds[0] builds a random RV when asked for one, seeds[1] drives
    # the Monte Carlo trials; explicit RVs simply ignore the first.
    seeds = spawn_seeds(seed, 2)
    rv = _load_rv(params["rv"], seeds[0])
    method = params["method"]
    trials = int(params.get("trials", 0))
    # The schema's numbers a and delta stand for a * I and delta * I,
    # as chernoff's a and m already do.
    eye = np.eye(rv.dim)
    if method == "markov":
        report = concentration.markov_tail(rv, params["a"] * eye)
    elif method == "chebyshev":
        report = concentration.chebyshev_tail(rv, params["delta"] * eye)
    elif method == "weak-law":
        report = concentration.weak_law_tail(rv, params["n"], params["delta"] * eye, trials, seeds[1])
    elif method in ("chernoff-upper", "chernoff-lower"):
        side = method.split("-")[1]
        report = concentration.chernoff_tail(
            rv, params["n"], params["a"], params["m"], side, trials, seeds[1]
        )
    else:
        report = concentration.two_sided_chernoff(rv, params["n"], params["eps"], trials, seeds[1])
    row = {
        "method": report.method,
        "n": report.n,
        "trials": report.trials,
        "probability": report.probability,
        "stderr": report.stderr,
        "bound": report.bound,
    }
    return report.to_json(), [row]


def _run_cover_sample(params: dict, seed: int):
    seeds = spawn_seeds(seed, 2)
    g = _load_hypergraph(params["hypergraph"], seeds[0])
    p = params.get("p")
    if p is None:
        p = np.full(g.num_edges, 1.0 / g.num_edges)
    result = covering.quantum_covering_sample(
        g, p, params["eps"], params["tau"], seed=seeds[1], draws=params.get("draws")
    )
    row = {
        "kind": result.kind,
        "num_draws": result.num_draws,
        "certified": result.certified,
        "beyond_bound": result.beyond_bound,
        "attempts": result.attempts,
        "excluded_mass": result.details.get("excluded_mass"),
        "l1_distance": result.details.get("l1_distance"),
    }
    return result.to_json(), [row]


def _run_cover_capacity(params: dict, seed: int):
    g = _load_hypergraph(params["hypergraph"], seed)
    result = covering.covering_capacity(g, params.get("tol", 1e-9))
    row = {"bits": result.bits, "lp_value": result.value, "iterations": result.iterations}
    return result.to_json(), [row]


def _run_product_cover(params: dict, seed: int):
    g = _load_hypergraph(params["hypergraph"], seed)
    rows = covering.product_covering_table(g, params["n_values"], params.get("tol", 1e-8))
    return {"rows": rows}, [dict(r) for r in rows]


def _run_typicality(params: dict, seed: int):
    if params["mode"] == "state":
        spec = params["state"]
        if spec.get("kind") == "random":
            with _domain("state"):
                rho = random_density(make_rng(seed), spec["dim"])
        else:
            rho = linalg.matrix_from_json(spec)
        proj = channels.typical_projector(rho, params["n"], params["alpha"])
    else:
        channel = _load_channel(params["channel"], seed)
        proj = channels.conditional_typical_projector(channel, params["sequence"], params["alpha"])
    results = {
        "kind": proj.kind,
        "n": proj.n,
        "alpha": proj.alpha,
        "dim": proj.dim,
        "rank": proj.rank,
        "trace_mass": proj.trace_mass,
        "mass_bound": proj.mass_bound,
        "details": proj.details,
    }
    row = {k: results[k] for k in CSV_COLUMNS["typicality"]}
    return results, [row]


def _run_capacity(params: dict, seed: int):
    channel = _load_channel(params["channel"], seed)
    solution = channels.capacity(channel, params.get("tol", 1e-9), params.get("max_iter", 200_000))
    row = {"bits": solution.bits, "gap": solution.gap, "iterations": solution.iterations}
    return solution.to_json(), [row]


def _run_resolvability(params: dict, seed: int):
    # seeds: channel construction, input law construction, sampling.
    seeds = spawn_seeds(seed, 3)
    channel = _load_channel(params["channel"], seeds[0])
    dist = _load_distribution(params["P"], channel.alphabet_size, seeds[1])
    lam = params["lambda"]
    result = identification.resolvability_regularize(
        dist,
        channel,
        lam,
        seeds[2],
        alpha=params.get("alpha"),
        eps=params.get("eps"),
        tau=params.get("tau"),
        draws=params.get("draws"),
    )
    row = {
        "lambda": lam,
        "K": result.K,
        "L": result.L,
        "support": result.support_size,
        "measured_distance": result.measured_distance,
        "certified": result.certified,
    }
    return result.to_json(), [row]


def _run_conjecture_probe(params: dict, seed: int):
    report = concentration.conjecture_probe(params["which"], params["dim"], params["count"], seed)
    row = {
        "which": report.which,
        "dim": report.dim,
        "instances": report.instances,
        "min_slack": report.min_slack,
        "violations": report.violations,
    }
    return report.to_json(), [row]


def _run_qid_eval(params: dict, seed: int):
    seeds = spawn_seeds(seed, 2)
    channel = _load_channel(params["channel"], seeds[0])
    code = _load_code(params["code"], channel, seeds[1])
    lam1, lam2, acceptance = identification.evaluate_qid_code(code, channel)
    results = {
        "lambda1": lam1,
        "lambda2": lam2,
        "messages": code.num_messages,
        "n": code.n,
        "acceptance": acceptance.tolist(),
    }
    rows = [
        {"i": i, "j": j, "acceptance": float(acceptance[i, j])}
        for i in range(code.num_messages)
        for j in range(code.num_messages)
    ]
    return results, rows


HANDLERS = {
    "tail-mc": _run_tail_mc,
    "cover-sample": _run_cover_sample,
    "cover-capacity": _run_cover_capacity,
    "product-cover": _run_product_cover,
    "typicality": _run_typicality,
    "capacity": _run_capacity,
    "resolvability": _run_resolvability,
    "conjecture-probe": _run_conjecture_probe,
    "qid-eval": _run_qid_eval,
}


# ---------------------------------------------------------------------------
# run records


@functools.cache
def tool_version() -> str:
    try:
        from importlib.metadata import version

        return version("opcover")
    except Exception:  # pragma: no cover - only hit outside an install
        return "0.0.0"


@dataclass(frozen=True)
class RunRecord:
    """One completed run: hash of what was asked, payload of what came out.

    results is the byte-reproducible part; wall_time_ms sits outside it
    on purpose and is the only field allowed to differ between reruns.
    results is already JSON-safe: _execute converts it once.
    """

    config_hash: str
    tool_version: str
    results: dict
    wall_time_ms: int

    def to_json(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "tool_version": self.tool_version,
            "results": self.results,
            "wall_time_ms": self.wall_time_ms,
        }


def _execute(config: dict) -> tuple[RunRecord, list]:
    start = time.perf_counter()
    command = config["command"]
    params = _PARAMS_INTEGRAL[command](config["params"])
    with _domain():
        results, rows = HANDLERS[command](params, int(config["seed"]))
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    record = RunRecord(config_hash(config), tool_version(), json_safe(results), elapsed_ms)
    return record, rows


def _record_text(config: dict, record: RunRecord, rows: list) -> str:
    """A run's output in its config's format: CSV rows, or the record as one JSON line."""
    if config.get("format", "json") == "csv":
        return csv_text(CSV_COLUMNS[config["command"]], rows)
    return _dumps(record.to_json()) + "\n"


def _write_output(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def run(config: dict) -> RunRecord:
    """Validate, dispatch, write the output file if one was requested."""
    validate_config(config)
    record, rows = _execute(config)
    if config.get("output_path"):
        _write_output(_record_text(config, record, rows), config["output_path"])
    return record


# ---------------------------------------------------------------------------
# sweeps


def _thread_count() -> int:
    raw = os.environ.get("OPCOVER_THREADS", "0")
    try:
        k = int(raw)
    except ValueError as exc:
        raise ConfigError(f"OPCOVER_THREADS must be an integer, got {raw!r}") from exc
    if k <= 0:  # 0 (or unset) means pick for the machine
        return min(32, os.cpu_count() or 1)
    return k


def _set_path(config: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = config
    for k in keys[:-1]:
        if not isinstance(node, dict) or k not in node:
            raise ConfigError(f"axis {dotted!r} not present in template", tuple(keys))
        node = node[k]
    if not isinstance(node, dict) or keys[-1] not in node:
        raise ConfigError(f"axis {dotted!r} not present in template", tuple(keys))
    node[keys[-1]] = value


def sweep(config_template: dict, axis: str, values: list) -> tuple[list, str]:
    """One run per axis value, in parallel, aggregated deterministically.

    Each run gets its own sub-seed split off the template seed (unless
    the axis is the seed itself), so results never depend on worker
    count or completion order.  A failing run becomes a row with
    status=error and the sweep keeps going.  Returns (records, csv);
    records holds a RunRecord or the exception per run, in run order.
    """
    validate_config(config_template)
    # Probe the axis path before spawning anything.
    _set_path(copy.deepcopy(config_template), axis, None)
    command = config_template["command"]
    sub_seeds = spawn_seeds(config_template["seed"], max(1, len(values)))

    jobs = []
    for index, value in enumerate(values):
        config = copy.deepcopy(config_template)
        config.pop("output_path", None)
        _set_path(config, axis, value)
        if axis != "seed":
            config["seed"] = sub_seeds[index]
        jobs.append((index, value, config))

    def one(job):
        index, value, config = job
        try:
            validate_config(config)
            record, rows = _execute(config)
            return index, value, config, record, rows, None
        except Exception as exc:  # noqa: BLE001 - failure becomes a row
            return index, value, config, None, None, exc

    with ThreadPoolExecutor(max_workers=_thread_count()) as pool:
        outcomes = sorted(pool.map(one, jobs), key=lambda t: t[0])

    columns = SWEEP_PREFIX + CSV_COLUMNS[command]
    records, rows_out = [], []
    for index, value, config, record, rows, error in outcomes:
        prefix = {
            "run_index": index,
            "axis": axis,
            "value": value,
            "seed": config["seed"],
            "status": "ok" if error is None else "error",
            "error": "" if error is None else str(error),
        }
        if error is None:
            records.append(record)
            for row in rows:
                rows_out.append({**prefix, **row})
        else:
            records.append(error)
            rows_out.append(prefix)
    return records, csv_text(columns, rows_out)


# ---------------------------------------------------------------------------
# command line


def _parse_json_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw  # bare strings are passed through


def _apply_param_flags(params: dict, flags) -> None:
    for flag in flags or ():
        key, sep, raw = flag.partition("=")
        if not sep or not key:
            raise ConfigError(f"--param expects key=value, got {flag!r}")
        node = params
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--param path {key!r} crosses a non-object")
        node[parts[-1]] = _parse_json_value(raw)


def _load_json_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"config {path!r} must hold a JSON object")
    return loaded


def _build_config(args) -> dict:
    config = _load_json_file(args.config) if args.config else {}
    config["command"] = args.command
    config.setdefault("params", {})
    if args.seed is not None:
        config["seed"] = args.seed
    if args.out is not None:
        config["output_path"] = args.out
    if args.format is not None:
        config["format"] = args.format
    _apply_param_flags(config["params"], args.param)
    return config


def _emit_error(payload: dict) -> None:
    print(canonical_json(payload), file=sys.stderr)


def _add_common_flags(parser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--seed", type=int, help="64-bit experiment seed")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", choices=["json", "csv"], help="output format (default json)")
    parser.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="set a params field (dotted keys, JSON values); repeatable",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opcover",
        description="Seeded, hash-stamped experiment runner for the opcover library.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_common_flags(sub.add_parser(name, help=f"run the {name} experiment"))
    sweep_parser = sub.add_parser("sweep", help="run one command across a list of values")
    _add_common_flags(sweep_parser)
    sweep_parser.add_argument("--axis", help="dotted config path to vary, e.g. params.lambda")
    sweep_parser.add_argument("--values", help="JSON list of axis values")
    return parser


_NUMERIC_FAILURES = (BoundViolation, ValueError, RuntimeError, ArithmeticError, OSError)


def _run_main(args) -> int:
    config = _build_config(args)
    validate_config(config)
    try:
        record, rows = _execute(config)
    except ConfigError:
        raise  # a library domain check, reported by main with exit 2
    except _NUMERIC_FAILURES as exc:
        _emit_error({
            "error": "numeric-failure",
            "type": type(exc).__name__,
            "message": str(exc),
            "config_hash": config_hash(config),
        })
        return 3
    _write_output(_record_text(config, record, rows), config.get("output_path"))
    return 0


def _sweep_main(args) -> int:
    spec = _load_json_file(args.config) if args.config else {}
    if args.axis is not None:
        spec["axis"] = args.axis
    if args.values is not None:
        parsed = _parse_json_value(args.values)
        if not isinstance(parsed, list):
            raise ConfigError("--values must be a JSON list")
        spec["values"] = parsed
    if args.out is not None:
        spec["output_path"] = args.out
    if args.format is not None:
        spec["format"] = args.format
    template = spec.get("template")
    if isinstance(template, dict):
        template.setdefault("params", {})
        if args.seed is not None:
            template["seed"] = args.seed
        _apply_param_flags(template["params"], args.param)
    _SWEEP_CHECK(spec)
    # sweep raises only ConfigError; a failing run becomes a row
    records, text = sweep(spec["template"], spec["axis"], spec["values"])

    if spec.get("format") == "json":
        payload = _dumps({
            "records": [
                r.to_json() if isinstance(r, RunRecord)
                else {"error": type(r).__name__, "message": str(r)}
                for r in records
            ],
        }) + "\n"
    else:
        payload = text
    _write_output(payload, spec.get("output_path"))
    failures = sum(1 for r in records if not isinstance(r, RunRecord))
    return 3 if failures == len(records) and records else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return _sweep_main(args)
        return _run_main(args)
    except ConfigError as exc:
        _emit_error({"error": "schema-violation", "path": exc.path, "message": str(exc)})
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
