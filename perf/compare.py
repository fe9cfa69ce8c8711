#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one verdict per (workload, metric).

    python perf/compare.py A/*.json B/*.json     # files written by run.py --out
    python perf/compare.py A B                   # or the two directories

A is the parent, B the change. Runs pair up by seed (by order when the
seeds differ). For every end-to-end metric the verdict follows the rule
of the choosing-metrics guide, with the bound from ``BENCHMARK.json``:

* improved — B wins at least 9 in 10 pairs (ties count for neither) and
  the medians differ by more than A's interquartile range;
* unresolved — A's or B's interquartile range, as a share of its
  median, exceeds the bound, unless every B run beats every A run;
* regressed — B's median is worse than A's by more than the bound;
* no change — otherwise.

Per-layer metrics and the diagnostics a run prints beside the metrics
(sample counts, raw timings, the speed gauge, host steal) have no bound
and get medians only. Exits 1 when any pair regressed or when the two sides
were given different inputs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bounds(path: Path = ROOT / "BENCHMARK.json") -> dict:
    spec = json.loads(path.read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def load_side(files: list[Path]) -> dict:
    """``{(workload, metric): {seed: value}}`` plus fingerprints per (workload, seed)."""
    values: dict = defaultdict(dict)
    units: dict = {}
    prints: dict = {}
    for path in files:
        doc = json.loads(path.read_text())
        for workload, result in doc["results"].items():
            prints[(workload, doc["seed"])] = result["fingerprint"]
            for name, (value, unit) in {**result["metrics"], **result["extra"]}.items():
                values[(workload, name)][(doc["seed"], path.name)] = value
                units[(workload, name)] = unit
    return {"values": values, "units": units, "prints": prints}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pair_up(a: dict, b: dict) -> list[tuple[float, float]]:
    """Pair runs with equal seeds; fall back to run order when seeds differ."""
    seeds_a = {seed: v for (seed, _f), v in sorted(a.items())}
    seeds_b = {seed: v for (seed, _f), v in sorted(b.items())}
    if len(seeds_a) == len(a) and seeds_a.keys() == seeds_b.keys():
        return [(seeds_a[s], seeds_b[s]) for s in sorted(seeds_a)]
    return list(zip([v for _k, v in sorted(a.items())], [v for _k, v in sorted(b.items())]))


def wins(pairs, better: str) -> int:
    """Pairs in which B reads better than A (ties count for neither)."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for x, y in pairs if sign * (y - x) > 0)


def verdict(a: list[float], b: list[float], pairs, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    q1a, med_a, q3a = quartiles(a)
    q1b, med_b, q3b = quartiles(b)
    gain = sign * (med_b - med_a)
    if pairs and wins(pairs, better) >= 0.9 * len(pairs) and gain > q3a - q1a:
        return "improved"
    all_better = min(sign * v for v in b) > max(sign * v for v in a)
    spread = max((q3a - q1a) / abs(med_a or 1.0), (q3b - q1b) / abs(med_b or 1.0))
    if spread > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(med_a):
        return "regressed"
    return "no change"


def compare(side_a: dict, side_b: dict, bounds: dict) -> list[dict]:
    rows = []
    for key in sorted(side_a["values"].keys() & side_b["values"].keys()):
        workload, name = key
        a_runs, b_runs = side_a["values"][key], side_b["values"][key]
        a, b = list(a_runs.values()), list(b_runs.values())
        pairs = pair_up(a_runs, b_runs)
        row = {
            "workload": workload, "metric": name, "unit": side_a["units"][key],
            "a": quartiles(a), "b": quartiles(b), "pairs": len(pairs), "wins": None,
            "verdict": "(no bound)",
        }
        if name in bounds:
            better, bound = bounds[name]
            row["wins"] = wins(pairs, better)
            row["verdict"] = verdict(a, b, pairs, better, bound)
        rows.append(row)
    return rows


def _split(argv: list[str]) -> tuple[list[Path], list[Path]]:
    """Two directories, or files grouped by their directory in order of appearance."""
    paths = [Path(p) for p in argv]
    if len(paths) == 2 and all(p.is_dir() for p in paths):
        return sorted(paths[0].glob("*.json")), sorted(paths[1].glob("*.json"))
    groups: dict = {}
    for p in paths:
        groups.setdefault(p.parent.resolve(), []).append(p)
    if len(groups) != 2:
        raise SystemExit("usage: compare.py A/*.json B/*.json  (run.py --out files)")
    first, second = groups.values()
    return first, second


def main(argv=None) -> int:
    files_a, files_b = _split(sys.argv[1:] if argv is None else argv)
    side_a, side_b = load_side(files_a), load_side(files_b)
    rows = compare(side_a, side_b, load_bounds())
    print(f"{'workload':18} {'metric':34} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30}"
          f" {'wins':>6} {'change':>8}  verdict")
    for r in rows:
        (q1a, ma, q3a), (q1b, mb, q3b) = r["a"], r["b"]
        change = (mb - ma) / abs(ma) * 100 if ma else float("nan")
        won = f"{r['wins']}/{r['pairs']}" if r["wins"] is not None else ""
        print(f"{r['workload']:18} {r['metric']:34} "
              f"{f'{ma:.4g} [{q1a:.4g}, {q3a:.4g}]':>30} {f'{mb:.4g} [{q1b:.4g}, {q3b:.4g}]':>30}"
              f" {won:>6} {change:>+7.1f}%  {r['verdict']}")
    mismatched = sorted(k for k in side_a["prints"].keys() & side_b["prints"].keys()
                        if side_a["prints"][k] != side_b["prints"][k])
    for workload, seed in mismatched:
        print(f"inputs differ: {workload} seed {seed} has different fingerprints")
    regressed = any(r["verdict"] == "regressed" for r in rows)
    return 1 if regressed or mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
