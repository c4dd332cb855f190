#!/usr/bin/env python3
"""Compares two saved benchmark outputs (the stdout of run.py).

    python3 perfbench/run.py --workload bulk-hd --seed 1 --seconds 15 --trace 0 > a.txt
    ...
    python3 perfbench/compare.py a.txt b.txt

Prints the host-fingerprint difference first (results from different hosts,
SIMD widths, compilers or build types are not comparable), then the
simulated-statistics digest and each metric side by side with the change
in percent.
"""
import json
import sys


def load(path):
    host, digest, result = None, None, None
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("host: "):
                host = json.loads(line[len("host: "):])
            elif line.startswith("digest: "):
                digest = line.split()[1]
            elif line.startswith("{"):
                result = json.loads(line)
    if host is None or result is None:
        sys.exit(f"compare: {path} holds no benchmark output")
    return host, digest, result


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: compare.py <output-a> <output-b>")
    (ha, da, ra), (hb, db, rb) = load(sys.argv[1]), load(sys.argv[2])
    diff = {k for k in set(ha) | set(hb) if ha.get(k) != hb.get(k)}
    if diff:
        print("HOST FINGERPRINTS DIFFER - the numbers are not comparable:")
        for k in sorted(diff):
            print(f"  {k}: {ha.get(k)!r} -> {hb.get(k)!r}")
    else:
        print("host fingerprints match")
    print(f"digest: {da} -> {db}" + ("" if da == db else "  (simulated statistics changed)"))
    print(f"correct: {ra['correct']} -> {rb['correct']}; "
          f"failed/attempted: {ra['failed']}/{ra['attempted']} -> "
          f"{rb['failed']}/{rb['attempted']}")
    ma, mb = ra["metrics"], rb["metrics"]
    for name in list(ma) + [n for n in mb if n not in ma]:
        a, b = ma.get(name), mb.get(name)
        if a is None or b is None:
            print(f"  {name:34s} only in {'b' if a is None else 'a'}")
            continue
        change = (b["value"] - a["value"]) / a["value"] * 100 if a["value"] else float("nan")
        print(f"  {name:34s} {a['value']:14.6g} -> {b['value']:14.6g} {a['unit']:8s} {change:+7.2f}%")


if __name__ == "__main__":
    main()
