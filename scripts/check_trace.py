#!/usr/bin/env python3
"""CI gate for Chrome trace-event exports.

Usage: check_trace.py <trace.json>

Validates the span trees the engine exports (``chrome_trace_json``,
produced by ``fig_shuffle --trace-out`` or the ``trace_tpch``
example):

* **schema** — a ``traceEvents`` array of complete (``ph: "X"``)
  events, each with name/cat/ts/dur/pid/tid and a ``span_id`` arg;
* **tree shape** — span ids unique per pid, every ``parent`` arg
  resolves, exactly one root span (named ``query`` or ``cell``) per
  pid;
* **nesting** — every child's ``[ts, ts+dur]`` interval lies inside
  its parent's (spans are timestamped on the simulated clocks, so
  containment is exact, no wall-clock slop);
* **monotone timestamps** — siblings under one parent never start
  before an earlier-emitted sibling (spans synthesized at barriers may
  backfill earlier intervals, but only under a different parent);
* **attributes** — every root span carries its kind's required
  accounting keys (``rows``/``blocks_read`` for queries,
  ``input_blocks`` for benchmark cells).
"""

import json
import sys

# Per root kind, the accounting args the exporter promises: database
# queries report row/block totals, benchmark cells their input size.
REQUIRED_ROOT_ARGS = {"query": ["rows", "blocks_read"], "cell": ["input_blocks"]}
REQUIRED_EVENT_KEYS = ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"]


def fail(msg: str) -> None:
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")


def main() -> None:
    if len(sys.argv) != 2:
        fail("usage: check_trace.py <trace.json>")
    path = sys.argv[1]
    doc = load(path)
    if "traceEvents" not in doc:
        fail(f"{path}: missing traceEvents")
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    if not spans:
        fail(f"{path}: no complete (ph=X) events")

    by_pid: dict[int, dict[int, dict]] = {}
    last_ts: dict[int, float] = {}
    for e in spans:
        for key in REQUIRED_EVENT_KEYS:
            if key not in e:
                fail(f"{path}: event {e.get('name')!r} missing key {key!r}")
        if "span_id" not in e["args"]:
            fail(f"{path}: event {e['name']!r} missing span_id arg")
        pid, sid = e["pid"], e["args"]["span_id"]
        if sid in by_pid.setdefault(pid, {}):
            fail(f"{path}: pid {pid} has duplicate span_id {sid}")
        by_pid[pid][sid] = e
        sibling_key = (pid, e["args"].get("parent"))
        if e["ts"] < last_ts.get(sibling_key, 0):
            fail(
                f"{path}: pid {pid} span {e['name']!r} starts at {e['ts']} "
                f"before its earlier sibling's {last_ts[sibling_key]} (order broken)"
            )
        last_ts[sibling_key] = e["ts"]

    roots = 0
    for pid, tree in sorted(by_pid.items()):
        pid_roots = []
        for sid, e in tree.items():
            parent = e["args"].get("parent")
            if parent is None:
                pid_roots.append(e)
                continue
            if parent not in tree:
                fail(f"{path}: pid {pid} span {sid} has unknown parent {parent}")
            p = tree[parent]
            lo, hi = p["ts"], p["ts"] + p["dur"]
            clo, chi = e["ts"], e["ts"] + e["dur"]
            if clo < lo or chi > hi:
                fail(
                    f"{path}: pid {pid} span {e['name']!r} [{clo}, {chi}] "
                    f"escapes parent {p['name']!r} [{lo}, {hi}]"
                )
        if len(pid_roots) != 1:
            fail(f"{path}: pid {pid} has {len(pid_roots)} root spans, expected 1")
        root = pid_roots[0]
        if root["name"] not in REQUIRED_ROOT_ARGS:
            fail(
                f"{path}: pid {pid} root is {root['name']!r}, "
                f"expected one of {sorted(REQUIRED_ROOT_ARGS)}"
            )
        for key in REQUIRED_ROOT_ARGS[root["name"]]:
            if key not in root["args"]:
                fail(f"{path}: pid {pid} root span missing arg {key!r}")
        roots += 1

    print(
        f"check_trace: OK ({len(spans)} spans across {roots} queries; "
        f"nesting contained, timestamps monotone, root accounting present)"
    )


if __name__ == "__main__":
    main()
