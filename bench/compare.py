"""Print every metric of two benchmark result records side by side.

    python3 bench/compare.py bench/results/OLD.json bench/results/NEW.json

The records are the files bench/run.py writes to bench/results/.  For each
metric the output shows its unit, both values, and the change from the first
record to the second, absolute and relative to the first.
"""

import json
import sys


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(old, new):
    lines = []
    for key in ("workload", "seed", "trace", "passes", "git_sha", "python", "cpu_count",
                "attempted", "failed"):
        lines.append(f"{key:12s} {old.get(key)} -> {new.get(key)}")
    lines.append(f"{'metric':34s} {'first':>16s} {'second':>16s} {'delta':>14s} {'delta%':>9s}  unit")
    names = list(old["metrics"]) + [n for n in new["metrics"] if n not in old["metrics"]]
    for name in names:
        a = old["metrics"].get(name)
        b = new["metrics"].get(name)
        unit = (a or b)["unit"]
        if a is None or b is None:
            present = "second" if a is None else "first"
            lines.append(f"{name:34s} only in the {present} record  {unit}")
            continue
        delta = b["value"] - a["value"]
        rel = f"{100 * delta / a['value']:+8.2f}%" if a["value"] else "        -"
        lines.append(
            f"{name:34s} {a['value']:16.6g} {b['value']:16.6g} {delta:+14.6g} {rel}  {unit}"
        )
    return "\n".join(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    print(compare(load(argv[0]), load(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
