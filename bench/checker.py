"""Per-op output checker: the proven invariants of each command.

``check(config, results)`` returns the list of broken invariants for one
``cli.run`` results payload (empty when the op is correct).  Each check
restates a guarantee from the paper or the library docstrings and
recomputes what it can from the config alone, so a payload that merely
claims success does not pass.  Tolerances match the acceptance battery.
"""

from __future__ import annotations

import math
from fractions import Fraction

TOL = 1e-9
CHAIN_TOL = 1e-6  # same slack as the acceptance battery's covering chain


def check(config: dict, results: dict) -> list[str]:
    return _CHECKS[config["command"]](config["params"], results)


def _num(x) -> float:
    return float(x)  # json_safe writes non-finite floats as "inf"/"nan"


def _tail(params: dict, r: dict) -> list[str]:
    bad = []
    p, bound = _num(r["exact_or_empirical"]), _num(r["bound"])
    trials = int(params.get("trials", 0))
    if not 0.0 <= p <= 1.0:
        bad.append(f"tail probability {p} outside [0, 1]")
    if r["trials"] != trials:
        bad.append(f"ran {r['trials']} trials, asked for {trials}")
    # Exact tails are enforced against their bound; two-sided is exempt
    # (its quadratic exponent is not a lower bound for small mu).
    enforced = trials == 0 and params["method"] != "two-sided"
    if enforced and bound < 1.0 and p > bound + TOL:
        bad.append(f"{params['method']}: tail {p} exceeds bound {bound}")
    if trials:
        expected = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
        if abs(_num(r["stderr"]) - expected) > TOL:
            bad.append(f"stderr {r['stderr']} is not sqrt(p(1-p)/trials) = {expected}")
    return bad


def _product_cover(params: dict, r: dict) -> list[str]:
    bad = []
    rows = r["rows"]
    if [row["n"] for row in rows] != list(params["n_values"]):
        bad.append("rows do not follow n_values")
    for row in rows:
        n, c, ct, pow2 = row["n"], row["c_n"], row["c_tilde_n"], _num(row["pow2_Cn"])
        if c is None or ct is None:
            bad.append(f"n={n}: covering number missing (c_n={c}, c_tilde_n={ct})")
            continue
        if pow2 > _num(ct) + CHAIN_TOL:
            bad.append(f"n={n}: 2^(Cn) = {pow2} exceeds fractional c_tilde_n = {ct}")
        if _num(ct) > c + CHAIN_TOL:
            bad.append(f"n={n}: fractional c_tilde_n = {ct} exceeds integral c_n = {c}")
    return bad


def _capacity(params: dict, r: dict) -> list[str]:
    bad = []
    tol = params.get("tol", 1e-9)
    if _num(r["gap"]) > tol:
        bad.append(f"duality gap {r['gap']} above tol {tol}")
    p = [_num(x) for x in r["input_distribution"]]
    if min(p) < 0.0 or abs(math.fsum(p) - 1.0) > TOL:
        bad.append("input distribution is not a probability vector")
    states = params["channel"]["states"]
    ceiling = math.log2(min(len(states), states[0]["dim"]))  # Holevo bound
    if not -TOL <= _num(r["bits"]) <= ceiling + TOL:
        bad.append(f"capacity {r['bits']} outside [0, log2 min(inputs, dim)] = [0, {ceiling}]")
    return bad


def _typicality(params: dict, r: dict) -> list[str]:
    bad = []
    mass, floor = _num(r["trace_mass"]), _num(r["mass_bound"])
    if mass + 1e-12 < floor:
        bad.append(f"typical trace mass {mass} below guarantee {floor}")
    if mass > 1.0 + TOL:
        bad.append(f"typical trace mass {mass} above 1")
    if params["mode"] == "state":
        n, d = params["n"], params["state"]["dim"]
        expected = 1.0 - d / params["alpha"] ** 2
    else:
        n, d = len(params["sequence"]), params["channel"]["states"][0]["dim"]
        expected = 1.0 - len(params["channel"]["states"]) * d / params["alpha"] ** 2
    if r["dim"] != d**n or not 0 <= r["rank"] <= r["dim"]:
        bad.append(f"dim {r['dim']} / rank {r['rank']} inconsistent with d^n = {d**n}")
    if abs(floor - expected) > TOL:
        bad.append(f"mass bound {floor} is not the Chebyshev guarantee {expected}")
    return bad


def _resolution(n: int, a: int, lam) -> int:
    """K = ceil(3 (n+1)^a / lambda) over exact rationals (paper's choice)."""
    return math.ceil(Fraction(3 * (n + 1) ** a) / Fraction(str(lam)))


def _resolvability(params: dict, r: dict) -> list[str]:
    bad = []
    lam = params["lambda"]
    law = params["P"]
    n = law["n"] if law["kind"] == "uniform" else len(law["atoms"][0][0])
    a = len(params["channel"]["states"])
    K, L = _resolution(n, a, lam), r["L"]
    if r["K"] != K:
        bad.append(f"K = {r['K']}, expected ceil(3 (n+1)^a / lambda) = {K}")
    weights = [Fraction(w) for _, w in r["sparse_distribution"]]
    if len(weights) > K * L:
        bad.append(f"support {len(weights)} exceeds K*L = {K * L}")
    if sum(weights) != 1 or min(weights) < 0:
        bad.append("sparse weights are not a probability distribution")
    if any((K * L) % w.denominator for w in weights):
        bad.append("a sparse weight is not a multiple of 1/(K*L)")
    distance = _num(r["measured_distance"])
    if distance < 0.0 or (r["certified"] and distance > lam / 3.0):
        bad.append(f"certified distance {distance} exceeds lambda/3 = {lam / 3.0}")
    return bad


def _cover_sample(params: dict, r: dict) -> list[str]:
    bad = []
    det = r["details"]
    if sum(r["edge_multiplicities"].values()) != r["num_draws"]:
        bad.append("edge multiplicities do not sum to num_draws")
    if r["certified"]:
        if _num(det["excluded_mass"]) > params["tau"] + 1e-12:
            bad.append(f"excluded mass {det['excluded_mass']} above tau {params['tau']}")
        for side in ("sandwich_lower_slack", "sandwich_upper_slack"):
            if _num(det[side]) < -TOL:
                bad.append(f"{side} = {det[side]} is negative")
        if det["l1_bound"] is not None and _num(det["l1_distance"]) > _num(det["l1_bound"]) + TOL:
            bad.append(f"trace distance {det['l1_distance']} above bound {det['l1_bound']}")
        if r["num_draws"] > _num(det["draw_bound"]):
            bad.append(f"certified with {r['num_draws']} draws above the formula {det['draw_bound']}")
    return bad


def _qid_eval(params: dict, r: dict) -> list[str]:
    acc = [[_num(x) for x in row] for row in r["acceptance"]]
    size = len(acc)
    bad = []
    if any(not -TOL <= x <= 1.0 + TOL for row in acc for x in row):
        bad.append("an acceptance probability lies outside [0, 1]")
    lam1 = max(max(0.0, 1.0 - acc[i][i]) for i in range(size))
    lam2 = max((max(0.0, acc[i][j]) for i in range(size) for j in range(size) if i != j),
               default=0.0)
    if r["lambda1"] != lam1 or r["lambda2"] != lam2:
        bad.append("error figures disagree with the acceptance matrix")
    return bad


_CHECKS = {
    "tail-mc": _tail,
    "product-cover": _product_cover,
    "capacity": _capacity,
    "typicality": _typicality,
    "resolvability": _resolvability,
    "cover-sample": _cover_sample,
    "qid-eval": _qid_eval,
}
