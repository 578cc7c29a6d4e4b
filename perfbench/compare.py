"""Compare two sets of benchmark records.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON records run.py writes (--results-dir).  For
every workload and end-to-end metric this prints each side's median and
quartiles and a verdict, using the bounds in BENCHMARK.json:

- better: at least 10 pairs, run alternately (base first, then new first,
  and so on), the new side wins at least 9 in 10 of them (ties count for
  neither), its median beats the base median by more than the base's own
  quartile spread, and no more ops fail than on the base side;
- worse: the new median is worse than the base median by more than the
  bound, or, where the base spread is wider than the bound, every new run
  is worse than every base run;
- unresolved: anything else, split into "within bound" and "spread wider
  than bound".

Pairs are formed in start-time order: the i-th base run with the i-th new
run.  fail_share and the output digests of each seed must match exactly.
Per-layer metrics of traced records are listed side by side.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory) -> list:
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    return sorted(records, key=lambda r: r["started_at"])


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base, new, better, bound, alternating, more_failures) -> str:
    sign = 1.0 if better == "higher" else -1.0
    q1, med_b, q3 = quartiles(base)
    med_n = quartiles(new)[1]
    gain = sign * (med_n - med_b)
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    if (len(pairs) >= 10 and alternating and wins >= 0.9 * len(pairs)
            and gain > q3 - q1 and not more_failures):
        return "better"
    spread = (q3 - q1) / abs(med_b)
    if spread > bound:
        if all(sign * (n - b) < 0 for b in base for n in new):
            return "worse"
        return "unresolved (spread wider than bound)"
    if -gain > bound * abs(med_b):
        return "worse"
    return "unresolved (within bound)"


def fmt(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    base_all, new_all = load(argv[0]), load(argv[1])
    status = 0
    for wl in [w["name"] for w in spec["workloads"]]:
        base = [r for r in base_all if r["workload"] == wl and r["trace"] == 0]
        new = [r for r in new_all if r["workload"] == wl and r["trace"] == 0]
        if base and new:
            n = min(len(base), len(new))
            first = [b["started_at"] < c["started_at"] for b, c in zip(base, new)]
            alternating = all(x != y for x, y in zip(first, first[1:]))
            fail_b = {r["seed"]: r["fail_share"] for r in base}
            fail_n = {r["seed"]: r["fail_share"] for r in new}
            more_failures = statistics.mean(fail_n.values()) > statistics.mean(fail_b.values())
            print(f"{wl}: {len(base)} base runs, {len(new)} new runs, {n} pairs, "
                  f"{'alternating' if alternating else 'NOT alternating'}")
            for m in spec["end_to_end"]:
                b = [r["metrics"][m["name"]]["value"] for r in base][:n]
                c = [r["metrics"][m["name"]]["value"] for r in new][:n]
                v = verdict(b, c, m["better"], m["bound"], alternating, more_failures)
                status |= v == "worse"
                print(f"  {m['name']:<14} {m['unit']:<4} base {fmt(b):<34} new {fmt(c):<34} {v}")
            seeds = sorted(set(fail_b) & set(fail_n))
            same_fail = all(fail_b[s] == fail_n[s] for s in seeds)
            dig_b = {r["seed"]: r["output_sha256"] for r in base}
            dig_n = {r["seed"]: r["output_sha256"] for r in new}
            differ = [s for s in seeds if dig_b[s] != dig_n[s]]
            print(f"  fail_share      base {fmt(list(fail_b.values()))}  new "
                  f"{fmt(list(fail_n.values()))}  {'identical' if same_fail else 'DIFFERS'} "
                  f"per seed over {len(seeds)} seeds")
            print(f"  output digests  {'identical' if not differ else f'DIFFER for seeds {differ}'}")
        tb = [r for r in base_all if r["workload"] == wl and r["trace"] == 1]
        tn = [r for r in new_all if r["workload"] == wl and r["trace"] == 1]
        if tb and tn:
            print(f"{wl} per layer: {len(tb)} base, {len(tn)} new traced runs (medians)")
            for m in spec["per_layer"]:
                b = statistics.median(r["metrics"][m["name"]]["value"] for r in tb)
                c = statistics.median(r["metrics"][m["name"]]["value"] for r in tn)
                print(f"  {m['name']:<42} {b:>14.6g} {c:>14.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
