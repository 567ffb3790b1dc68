#!/usr/bin/env python3
"""Tests of scripts/check_bench.py. Run: python3 scripts/test_check_bench.py"""

import copy
import glob
import json
import os
import unittest

from check_bench import check

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BASE = {
    "bench": "demo",
    "scale": 0.2,
    "cells": [
        {"n": 1, "budget": None, "split": True, "sim_secs": 4.2, "wall_ms": 2.5},
        {"n": 2, "budget": 8, "split": False, "sim_secs": 4.5, "wall_ms": 3.0},
    ],
    "wall_clock": ["wall_ms"],
}


def edited(edit, doc=BASE):
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


class CheckBench(unittest.TestCase):
    def test_identical_files_pass(self):
        self.assertEqual(check(copy.deepcopy(BASE), BASE), [])

    def test_declared_wall_clock_field_may_change(self):
        fresh = edited(lambda d: d["cells"][1].update(wall_ms=99.0))
        self.assertEqual(check(fresh, BASE), [])

    def test_one_unit_change_to_a_counter_fails(self):
        fresh = edited(lambda d: d["cells"][1].update(n=3))
        self.assertEqual(check(fresh, BASE), ["$.cells[1].n: 3, baseline 2"])

    def test_changed_float_bool_null_or_header_fails(self):
        for edit in (
            lambda d: d["cells"][0].update(sim_secs=4.2001),
            lambda d: d["cells"][0].update(split=1),
            lambda d: d["cells"][0].update(budget=0),
            lambda d: d.update(scale=0.05),
        ):
            self.assertEqual(len(check(edited(edit), BASE)), 1)

    def test_lost_cell_fails(self):
        fresh = edited(lambda d: d["cells"].pop())
        self.assertEqual(check(fresh, BASE), ["$.cells: 1 cells, baseline has 2"])

    def test_missing_key_fails(self):
        for doc in (edited(lambda d: d.pop("scale")), edited(lambda d: d["cells"][0].pop("n"))):
            errors = check(doc, BASE)
            self.assertEqual(len(errors), 1, errors)

    def test_wall_clock_declaration_must_match(self):
        fresh = edited(lambda d: d["wall_clock"].append("n"))
        fresh["cells"][1]["n"] = 3
        self.assertEqual(len(check(fresh, BASE)), 1)

    def test_all_wall_clock_compares_structure_only(self):
        base = edited(lambda d: d.update(wall_clock=["*"]))
        other = edited(lambda d: (d["cells"].pop(), d.update(scale=0.05)), base)
        self.assertEqual(check(other, base), [])
        self.assertEqual(len(check(edited(lambda d: d["cells"][0].pop("n"), base), base)), 1)

    def test_committed_baselines_pass_and_catch_a_counter_change(self):
        paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
        self.assertEqual(len(paths), 5)
        for path in paths:
            with open(path) as f:
                base = json.load(f)
            self.assertEqual(check(copy.deepcopy(base), base), [], path)
            if base.get("wall_clock") == ["*"]:
                continue
            fresh = copy.deepcopy(base)
            cell = next(v for v in fresh.values() if isinstance(v, list))[-1]
            key = next(k for k, v in cell.items() if type(v) is int)
            cell[key] += 1
            self.assertEqual(len(check(fresh, base)), 1, path)


if __name__ == "__main__":
    unittest.main()
