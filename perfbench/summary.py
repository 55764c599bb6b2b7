"""Arithmetic shared by the runner, the compare command and the reports."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple


def median_with_count(values: Sequence[float]) -> Tuple[float, int]:
    """The median of `values` and the number of samples it rests on."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values), len(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def layer_metrics(passes: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced run: per-pass totals over its
    traced passes, then the median across them."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    per_pass = [_pass_layers(p["queries"]) for p in traced]
    out = {name: statistics.median(row[name] for row in per_pass)
           for name in per_pass[0]}
    out["trace.overhead_ratio"] = (
        statistics.median(p["wall"] for p in traced)
        / statistics.median(p["wall"] for p in untraced))
    return out


def _pass_layers(queries: List[dict]) -> Dict[str, float]:
    counted = [q for q in queries if "self_s" in q]
    self_s: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for query in counted:
        for layer, seconds in query["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
        for name, value in query["counts"].items():
            if name == "vm.union_card_max":
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
    wall = sum(q["seconds"] for q in counted)
    sat_s = self_s.get("solver.sat", 0.0)
    hits = counts.get("smt.encode.hits", 0)
    misses = counts.get("smt.encode.misses", 0)
    row = {
        "vm.self_s": self_s.get("vm", 0.0),
        "vm.joins": counts.get("vm.joins", 0),
        "vm.unions": counts.get("vm.unions", 0),
        "vm.union_card_sum": counts.get("vm.union_card_sum", 0),
        "vm.union_card_max": counts.get("vm.union_card_max", 0),
        "smt.encode.self_s": self_s.get("smt.encode", 0.0),
        "smt.encode.misses": misses,
        "smt.encode.hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "smt.cnf_clauses": counts.get("smt.cnf_clauses", 0),
        "smt.check.self_s": self_s.get("smt.check", 0.0),
        "queries.checks": counts.get("queries.checks", 0),
        "solver.sat.self_s": sat_s,
    }
    for key in ("conflicts", "decisions", "propagations", "learned"):
        row[f"solver.sat.{key}"] = counts.get(f"solver.sat.{key}", 0)
    row["solver.sat.props_per_s"] = (
        row["solver.sat.propagations"] / sat_s if sat_s else 0.0)
    row["solver.sat.conflicts_per_s"] = (
        row["solver.sat.conflicts"] / sat_s if sat_s else 0.0)
    row.update({
        "solver.certify.self_s": self_s.get("solver.certify", 0.0),
        "solver.certify.checks": counts.get("solver.certify.checks", 0),
        "analysis.sanitize.self_s": self_s.get("analysis.sanitize", 0.0),
        "analysis.sanitize.rewrites":
            counts.get("analysis.sanitize.rewrites", 0),
        "queries.self_s": self_s.get("queries", 0.0),
        "queries.cegis_iterations":
            counts.get("queries.cegis_iterations", 0),
        "trace.unattributed_share":
            (wall - sum(self_s.values())) / wall if wall else 0.0,
    })
    return row
