#!/usr/bin/env python3
"""CI gate for the observability exports.

Usage:
  scripts/check_obs_exports.py STATS_JSON TRACE_JSON

Validates that a bench's --stats-json document is well-formed and complete
(config, table, per-run results with the latency breakdown, no wall-clock
fields) and that its --trace-out document is a loadable Chrome trace with
spans from every instrumented component. Exits non-zero with a message on
the first violation.
"""
import json
import sys

# Stage names per component family (see docs/observability.md; the vault
# controller records the prefetch buffer's inserts and evictions). A trace
# must contain at least one span from each family.
COMPONENT_STAGES = {
    "host_controller": {"host_read", "host_queue"},
    "serial_link": {"link_down", "link_up"},
    "crossbar": {"xbar_down", "xbar_up"},
    "vault_controller": {"vault_queue", "buffer_hit"},
    "dram_bank": {"bank_act", "bank_pre", "bank_service", "row_fetch"},
    "prefetch_buffer": {"pf_insert", "pf_evict"},
}

LATENCY_STAGES = {
    "host_queue", "link_down", "link_up", "vault_queue", "bank_service",
    "buffer_hit", "total_read",
}

# Scheduling sites of results.events_by_site (sim::Site, docs/observability.md).
EVENT_SITES = {
    "host_response", "host_timeout", "host_retry", "load_done", "miss_launch",
    "core_step", "vault_arrival", "row_copy", "read_data", "vault_wake",
    "epoch_sample",
}


def fail(msg):
    print(f"check_obs_exports: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_event_counts(path, name, results):
    """Per-site executed events must cover every site and sum to the total,
    and the cancelled count must be present."""
    by_site = results.get("events_by_site")
    if by_site is None or "events_cancelled" not in results:
        fail(f"{path}: run {name} lacks events_by_site/events_cancelled")
    if set(by_site) != EVENT_SITES:
        fail(f"{path}: run {name} event sites {sorted(by_site)} != "
             f"{sorted(EVENT_SITES)}")
    if sum(by_site.values()) != results["events_executed"]:
        fail(f"{path}: run {name} events_by_site sums to "
             f"{sum(by_site.values())}, not events_executed "
             f"{results['events_executed']}")


def check_stats(path):
    with open(path) as f:
        doc = json.load(f)
    for key in ("bench", "config", "table", "runs"):
        if key not in doc:
            fail(f"{path}: missing top-level key {key!r}")
    table = doc["table"]
    if not table.get("headers") or not table.get("rows"):
        fail(f"{path}: table must have non-empty headers and rows")
    if not doc["runs"]:
        fail(f"{path}: no runs exported")
    for run in doc["runs"]:
        results = run.get("results", {})
        latency = results.get("latency")
        if latency is None:
            fail(f"{path}: run {run.get('name')} has no latency breakdown")
        if set(latency) != LATENCY_STAGES:
            fail(f"{path}: run {run.get('name')} latency stages "
                 f"{sorted(latency)} != {sorted(LATENCY_STAGES)}")
        if latency["total_read"]["count"] == 0:
            fail(f"{path}: run {run.get('name')} measured no reads")
        check_event_counts(path, run.get("name"), results)
    if "wall_seconds" in json.dumps(doc):
        fail(f"{path}: wall-clock leaked into a deterministic export")
    print(f"check_obs_exports: {path} OK ({len(doc['runs'])} runs)")


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not events:
        fail(f"{path}: no traceEvents")
    stages = {e["name"] for e in events if e.get("cat") == "camps"}
    for component, expected in COMPONENT_STAGES.items():
        if not stages & expected:
            fail(f"{path}: no spans from {component} "
                 f"(expected one of {sorted(expected)})")
    print(f"check_obs_exports: {path} OK "
          f"({len(events)} events, {len(stages)} stages)")


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    check_stats(sys.argv[1])
    check_trace(sys.argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main())
