"""Summarise benchmark records, or compare two sets of them.

    python3 perfbench/compare.py RECORDS.jsonl
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Records are the JSON lines `run.py --record FILE` appends.  For each
workload and metric this prints the median over seeds and the spread
(distance between the first and third quartile over the median).  Given
two files it also prints the change of the median against the bound in
BENCHMARK.json, unless the two sides ran in different environments or
kernel backends; then it names the difference and prints no delta.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

#: Environment fields that must agree for a delta to mean anything.
ENV_KEYS = ("python", "numpy", "scipy", "numba", "backend", "nproc")


def load(path):
    with Path(path).open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def env_of(records):
    """The shared environment of `records`, or raise ValueError naming the
    fields on which they differ."""
    envs = {tuple((k, r["env"][k]) for k in ENV_KEYS) for r in records}
    if len(envs) != 1:
        differing = sorted({k for env in envs for k, v in env
                            if any(dict(e)[k] != v for e in envs)})
        raise ValueError(f"records mix environments in {differing}")
    return dict(envs.pop())


def env_mismatch(base, new) -> list:
    """Fields of ENV_KEYS on which two environments differ."""
    return [f"{k}: {base[k]} vs {new[k]}" for k in ENV_KEYS
            if base[k] != new[k]]


def summarise(records):
    """{(workload, trace): {metric: (median, spread, unit, count)}}"""
    groups = {}
    for r in records:
        if r["smoke"]:
            continue
        key = (r["workload"], r["trace"])
        for name, m in r["result"]["metrics"].items():
            groups.setdefault(key, {}).setdefault(
                name, (m["unit"], []))[1].append(m["value"])
    out = {}
    for key, metrics in groups.items():
        out[key] = {}
        for name, (unit, values) in metrics.items():
            med = statistics.median(values)
            spread = float("nan")
            if len(values) >= 2 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(med)
            out[key][name] = (med, spread, unit, len(values))
    return out


def bounds():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", type=Path)
    opts = parser.parse_args(argv)
    if len(opts.files) > 2:
        parser.error("give one or two record files")
    sides = [load(p) for p in opts.files]
    try:
        envs = [env_of(s) for s in sides]
    except ValueError as exc:
        print(f"NOT COMPARABLE: {exc}")
        return 1
    print("env " + json.dumps(envs[-1], sort_keys=True))
    if len(sides) == 2:
        mismatch = env_mismatch(*envs)
        if mismatch:
            print("NOT COMPARABLE, environments differ: "
                  + "; ".join(mismatch))
            return 1
    stats = [summarise(s) for s in sides]
    spec = bounds() if len(sides) == 2 else {}
    worse = False
    for key in sorted(stats[-1]):
        print(f"{key[0]} (trace {key[1]})")
        for name, (med, spread, unit, count) in stats[-1][key].items():
            line = (f"  {name:34s} {med:>14.6g} {unit:6s} "
                    f"spread {spread:6.3f} over {count}")
            base = stats[0].get(key, {}).get(name) if len(sides) == 2 else None
            if base is not None and name in spec:
                m = spec[name]
                change = (med - base[0]) / abs(base[0])
                loss = change if m["better"] == "lower" else -change
                verdict = "ok"
                if loss > m["bound"]:
                    verdict = "WORSE than bound"
                    worse = True
                elif max(base[1], spread) > m["bound"]:
                    verdict = "unresolved (spread above bound)"
                line += (f" | base {base[0]:.6g}, change {change:+.3%}, "
                         f"bound {m['bound']:.0%}: {verdict}")
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
