#!/usr/bin/env python3
"""CI gate for the columnar-execution benchmark.

Usage: check_bench_columnar.py <fresh BENCH_columnar.json> <committed baseline>

Fails (exit 1) when the fresh run is missing required keys, or when any
of the columnar contracts breaks:

* **scan speedup** — the columnar scan must be >= SPEEDUP_FLOOR x faster
  wall-clock than the row scan on the unclustered selective predicate
  (the decode-bound cell late materialization exists for);
* **probe speedup** — same floor on the hyper-join probe leg at a low
  hit rate (batch probe over the key column vs row-at-a-time);
* **count invariance** — within every fresh row/columnar cell pair
  (the row cell is the figure's row-at-a-time reference), blocks,
  reads, zone skips, rows scanned, and rows out must be *identical*:
  the simulated currency is format-blind by construction;
* **zone-map placement** — the unclustered cell must skip zero blocks
  (an unclustered predicate gives zone maps nothing to prune) and the
  clustered cell must skip >= SKIP_RATE_FLOOR of its candidate blocks;
* **parity** — the full-TPC-H engine cell must match the committed
  baseline parity cell *bit-identically* on every counter, shuffle
  accounting included. Late materialization is the only data plane, so
  each file holds exactly one parity cell; a second one is a stale row
  and fails the gate.

Wall-clock milliseconds are machine-dependent and are never compared to
the baseline — only the within-run speedup ratio is gated. Every
counter, being simulated, is compared exactly.
"""

import json
import sys

REQUIRED_TOP = [
    "bench",
    "scale",
    "seed",
    "rows_per_block",
    "speedup_floor",
    "skip_rate_floor",
    "scan_speedup",
    "probe_speedup",
    "scan",
    "clustered",
    "probe",
    "parity",
]
REQUIRED_CELL = [
    "name",
    "columnar",
    "blocks",
    "reads",
    "zone_skipped",
    "rows_scanned",
    "rows_out",
    "wall_ms",
]
REQUIRED_PARITY = [
    "columnar",
    "queries",
    "rows_out",
    "reads",
    "writes",
    "zone_skipped",
    "spill_blocks",
    "local_fetches",
    "remote_fetches",
    "bytes_spilled",
]
SWEEPS = ("scan", "clustered", "probe")
# Counters identical within each row/columnar pair of a sweep.
PAIR_EXACT = ["blocks", "reads", "zone_skipped", "rows_scanned", "rows_out"]
# Counters identical to the baseline in every cell (wall_ms excluded).
BASELINE_EXACT = PAIR_EXACT
# Parity counters identical to the baseline.
PARITY_EXACT = [k for k in REQUIRED_PARITY if k != "columnar"]
SPEEDUP_FLOOR = 4.0
SKIP_RATE_FLOOR = 0.5


def fail(msg: str) -> None:
    print(f"check_bench_columnar: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")


def validate(doc: dict, path: str) -> None:
    for key in REQUIRED_TOP:
        if key not in doc:
            fail(f"{path}: missing key {key!r}")
    if doc["bench"] != "columnar":
        fail(f"{path}: bench is {doc['bench']!r}, expected 'columnar'")
    for sweep in SWEEPS:
        if len(doc[sweep]) != 2:
            fail(f"{path}: {sweep} must hold exactly [row, columnar] cells")
        for cell in doc[sweep]:
            for key in REQUIRED_CELL:
                if key not in cell:
                    fail(f"{path}: {sweep} cell missing key {key!r}")
        if [c["columnar"] for c in doc[sweep]] != [False, True]:
            fail(f"{path}: {sweep} cells must be ordered [row, columnar]")
    if len(doc["parity"]) != 1:
        fail(f"{path}: parity must hold exactly one engine cell, found {len(doc['parity'])}")
    for cell in doc["parity"]:
        for key in REQUIRED_PARITY:
            if key not in cell:
                fail(f"{path}: parity cell missing key {key!r}")


def check_contracts(doc: dict, path: str) -> None:
    for sweep in SWEEPS:
        row, col = doc[sweep]
        for metric in PAIR_EXACT:
            if row[metric] != col[metric]:
                fail(
                    f"{path}: {sweep}: {metric} diverged across formats "
                    f"({row[metric]} vs {col[metric]}); the simulated "
                    f"currency must be format-blind"
                )

    for name, ratio in (("scan", doc["scan_speedup"]), ("probe", doc["probe_speedup"])):
        if ratio < SPEEDUP_FLOOR:
            fail(
                f"{path}: columnar {name} speedup {ratio:.2f}x below the "
                f"{SPEEDUP_FLOOR}x floor"
            )
        # The reported ratio must be the one the wall clocks imply.
        row, col = doc[name if name == "scan" else "probe"]
        implied = row["wall_ms"] / max(col["wall_ms"], 1e-9)
        if abs(implied - ratio) > max(0.05 * implied, 0.01):
            fail(f"{path}: {name}_speedup {ratio} inconsistent with wall_ms ({implied:.2f})")

    if doc["scan"][0]["zone_skipped"] != 0:
        fail(f"{path}: unclustered scan skipped zones; predicate is not unclustered")
    clustered = doc["clustered"][0]
    rate = clustered["zone_skipped"] / max(clustered["blocks"], 1)
    if rate < SKIP_RATE_FLOOR:
        fail(
            f"{path}: clustered skip rate {rate:.2f} below the "
            f"{SKIP_RATE_FLOOR} floor ({clustered['zone_skipped']}/{clustered['blocks']})"
        )


def check_baseline(fresh: dict, base: dict) -> None:
    """Every simulated counter must match the committed baseline exactly;
    wall-clock is the only machine-dependent field and is never diffed."""
    for sweep in SWEEPS:
        for f, b in zip(fresh[sweep], base[sweep]):
            for metric in BASELINE_EXACT:
                if f[metric] != b[metric]:
                    fail(
                        f"{sweep} (columnar={f['columnar']}): {metric} "
                        f"{f[metric]} vs baseline {b[metric]}"
                    )
    (f,), (b,) = fresh["parity"], base["parity"]
    for metric in PARITY_EXACT:
        if f[metric] != b[metric]:
            fail(f"parity: {metric} {f[metric]} vs baseline {b[metric]}")


def main() -> None:
    if len(sys.argv) != 3:
        fail("usage: check_bench_columnar.py <fresh.json> <baseline.json>")
    fresh_path, base_path = sys.argv[1], sys.argv[2]
    fresh, base = load(fresh_path), load(base_path)
    validate(fresh, fresh_path)
    validate(base, base_path)
    check_contracts(fresh, fresh_path)
    check_baseline(fresh, base)
    print(
        f"check_bench_columnar: OK (scan {fresh['scan_speedup']:.1f}x, "
        f"probe {fresh['probe_speedup']:.1f}x >= {SPEEDUP_FLOOR}x; counts "
        f"format-blind; parity bit-identical to baseline)"
    )


if __name__ == "__main__":
    main()
