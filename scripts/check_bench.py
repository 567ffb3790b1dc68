#!/usr/bin/env python3
"""Diff a fresh BENCH_*.json against its committed baseline.

Usage: check_bench.py <fresh.json> <baseline.json>

Each figure binary asserts its own contracts before it writes its file,
so this checker knows no figure: it only diffs. It fails (exit 1)
unless both of these hold:

* the two files have the same key structure: the same keys in every
  object, and the same set of cell shapes in every list;
* every value equals the baseline's exactly, except the fields that
  the file's "wall_clock" list declares machine-dependent. A
  declaration of ["*"] makes every value so, and then only the key
  structure is compared.
"""

import json
import sys


def shape(value) -> str:
    """The key structure of a JSON value; scalars have none."""
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{shape(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, list):
        return "[" + "|".join(sorted({shape(v) for v in value})) + "]"
    return ""


def structure_errors(fresh, base, path="$"):
    if isinstance(base, dict) and isinstance(fresh, dict):
        for key in base.keys() - fresh.keys():
            yield f"{path}: missing key {key!r}"
        for key in fresh.keys() - base.keys():
            yield f"{path}: unexpected key {key!r}"
        for key in base.keys() & fresh.keys():
            yield from structure_errors(fresh[key], base[key], f"{path}.{key}")
    elif shape(fresh) != shape(base):
        only = sorted(cell_keys(fresh) ^ cell_keys(base))
        yield f"{path}: key structure differs from the baseline's (keys in one file only: {only})"


def cell_keys(value) -> set:
    return {k for c in value if isinstance(c, dict) for k in c} if isinstance(value, list) else set()


def value_errors(fresh, base, wall, path="$"):
    if isinstance(base, dict) and isinstance(fresh, dict) and fresh.keys() == base.keys():
        for key in base:
            if key not in wall:
                yield from value_errors(fresh[key], base[key], wall, f"{path}.{key}")
    elif isinstance(base, list) and isinstance(fresh, list) and len(fresh) != len(base):
        yield f"{path}: {len(fresh)} cells, baseline has {len(base)}"
    elif isinstance(base, list) and isinstance(fresh, list):
        for i, (f, b) in enumerate(zip(fresh, base)):
            yield from value_errors(f, b, wall, f"{path}[{i}]")
    elif type(fresh) is not type(base) or fresh != base:
        yield f"{path}: {json.dumps(fresh)}, baseline {json.dumps(base)}"


def check(fresh: dict, base: dict) -> list:
    """Every difference between the two documents, as messages."""
    errors = list(structure_errors(fresh, base))
    wall = base.get("wall_clock", [])
    if fresh.get("wall_clock", []) != wall:
        errors.append(f"wall_clock {fresh.get('wall_clock')}, baseline {wall}")
    if errors or "*" in wall:
        return errors
    return list(value_errors(fresh, base, set(wall)))


def main() -> None:
    if len(sys.argv) != 3:
        sys.exit("usage: check_bench.py <fresh.json> <baseline.json>")
    fresh_path, base_path = sys.argv[1:]
    with open(fresh_path) as f, open(base_path) as b:
        errors = check(json.load(f), json.load(b))
    for e in errors:
        print(f"check_bench: {fresh_path}: {e}", file=sys.stderr)
    if errors:
        sys.exit(1)
    print(f"check_bench: {fresh_path} matches {base_path}")


if __name__ == "__main__":
    main()
