#!/usr/bin/env python3
"""Validator for fcma trace artifacts.

Accepts any artifact the CLI / benches emit and sniffs which one it got:

* a metrics view (``fcma.trace.v2``): the span/counter/gauge summary
  ``DIR/trace.json`` rendered from a ``--trace-stream DIR`` stream, which
  the bench sidecars copy.  Checks the schema string, that every span's
  quantiles are ordered (p50 <= p95 <= p99) and clamped inside the exact
  [min_s, max_s] range, that counters/gauges are numeric, that
  ``dropped_events`` is a non-negative integer, and that any roofline
  attribution carries the full field set with sane values.
* a Chrome-trace timeline (``fcma.timeline.v1``): the per-thread event
  view ``DIR/timeline.json`` rendered from a ``--trace-stream DIR`` stream.
  Checks that complete events are globally time-sorted with non-negative
  durations, that every event's lane (tid) has exactly one thread_name
  metadata record, and that named pool-helper lanes (``sched/worker<k>``)
  are distinct (one lane per helper thread).
* a stream directory (``fcma.tlstream.v1``): the continuous-profiling
  segments written by ``--trace-stream`` (pass the directory itself).
  Checks every segment's header against its filename, that every event
  line carries the full span-context field set with the run's trace id,
  that event end times are monotonic per lane, and — once the stream.done
  manifest is present — that the manifest's event total equals the merged
  parse (nothing was lost), that no torn tail survived the finalize, and
  that every non-zero parent span id resolves somewhere in the merge (no
  orphan cross-rank references), that ``timeline.json`` validates as a
  timeline holding exactly the stream's events, lanes and dropped count,
  and that ``trace.json`` validates as a metrics view whose per-label span
  counts equal the stream's event counts, whose totals agree with the
  events' durations within 1 ns per event (plus the rounding of the
  printed 9-digit value), and whose dropped_events, meta, counters, gauges
  and roofline equal the manifest's.

Exit status 0 means the artifact validated; 1 means a check failed (each
failure is printed); 2 means it could not be read or parsed.

Usage: trace_check.py <trace.json|stream-dir> [more ...]
"""

import json
import os
import re
import sys

REQUIRED_SPAN_FIELDS = (
    "count", "total_s", "min_s", "max_s", "p50_s", "p95_s", "p99_s")
REQUIRED_ROOFLINE_FIELDS = (
    "modeled_s", "gflops", "ai_flops_per_byte", "pct_roofline", "bound")
# Quantiles interpolate inside power-of-two buckets, so allow a hair of
# floating-point slack around the exact recorded range.
EPS = 1e-9
# The views print seconds with 9 significant digits.
PRINT_REL = 1e-8
# Registry sections a stream.done manifest carries into trace.json.
METRIC_SECTIONS = ("meta", "counters", "gauges", "roofline")


class Checker:
    def __init__(self, path):
        self.path = path
        self.failures = []

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)
        return ok

    def is_number(self, value):
        return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_metrics(c, doc):
    c.check(doc.get("schema") == "fcma.trace.v2",
            "schema is %r, expected 'fcma.trace.v2'" % doc.get("schema"))
    spans = doc.get("spans", {})
    c.check(isinstance(spans, dict), "'spans' is not an object")
    for label, span in sorted(spans.items() if isinstance(spans, dict) else []):
        for field in REQUIRED_SPAN_FIELDS:
            if not c.check(c.is_number(span.get(field)),
                           "span %r: missing numeric %r" % (label, field)):
                break
        else:
            lo, hi = span["min_s"], span["max_s"]
            p50, p95, p99 = span["p50_s"], span["p95_s"], span["p99_s"]
            c.check(span["count"] >= 1, "span %r: count < 1" % label)
            c.check(lo <= hi + EPS, "span %r: min_s > max_s" % label)
            c.check(p50 <= p95 + EPS and p95 <= p99 + EPS,
                    "span %r: quantiles not ordered "
                    "(p50=%g p95=%g p99=%g)" % (label, p50, p95, p99))
            c.check(lo - EPS <= p50 and p99 <= hi + EPS,
                    "span %r: quantiles escape [min_s, max_s] "
                    "([%g, %g] vs p50=%g p99=%g)" % (label, lo, hi, p50, p99))
    dropped = doc.get("dropped_events")
    c.check(isinstance(dropped, int) and not isinstance(dropped, bool)
            and dropped >= 0,
            "dropped_events missing or not a non-negative integer")
    for section in ("counters", "gauges"):
        values = doc.get(section, {})
        c.check(isinstance(values, dict), "%r is not an object" % section)
        for name, value in (values.items() if isinstance(values, dict) else []):
            c.check(c.is_number(value),
                    "%s %r: value is not numeric" % (section, name))
    # Cluster runs must emit the full recovery counter set (zeros included):
    # consumers diffing a clean run against a faulted one rely on every
    # counter being present in both.
    counters = doc.get("counters", {})
    if isinstance(counters, dict) and "cluster/tasks_dispatched" in counters:
        for name in ("cluster/retries", "cluster/reassignments",
                     "cluster/heartbeat_misses", "cluster/corrupt_payloads",
                     "cluster/resurrections"):
            value = counters.get(name)
            c.check(c.is_number(value) and value >= 0,
                    "cluster run: counter %r missing or negative" % name)
    # Streamed (out-of-core) runs must emit the full io counter set (zeros
    # included): I/O dashboards diff io/bytes_mapped against io/shard_loads
    # and need both present.
    if isinstance(counters, dict) and "io/shard_loads" in counters:
        value = counters.get("io/bytes_mapped")
        c.check(c.is_number(value) and value >= 0,
                "streamed run: counter 'io/bytes_mapped' missing or negative")
    for label, roof in sorted(doc.get("roofline", {}).items()):
        for field in REQUIRED_ROOFLINE_FIELDS:
            c.check(field in roof,
                    "roofline %r: missing field %r" % (label, field))
        if all(f in roof for f in REQUIRED_ROOFLINE_FIELDS):
            c.check(roof["bound"] in ("memory", "compute"),
                    "roofline %r: bound is %r" % (label, roof["bound"]))
            c.check(c.is_number(roof["pct_roofline"])
                    and roof["pct_roofline"] >= 0.0,
                    "roofline %r: pct_roofline negative" % label)
            c.check(c.is_number(roof["ai_flops_per_byte"])
                    and roof["ai_flops_per_byte"] >= 0.0,
                    "roofline %r: arithmetic intensity negative" % label)
    return "fcma.trace.v2 metrics: %d spans, %d roofline points, %r " \
        "dropped events" % (len(spans), len(doc.get("roofline", {})),
                            dropped)


def check_timeline(c, doc):
    other = doc.get("otherData", {})
    c.check(other.get("schema") == "fcma.timeline.v1",
            "otherData.schema is %r, expected 'fcma.timeline.v1'"
            % other.get("schema"))
    c.check(c.is_number(other.get("dropped_events")),
            "otherData.dropped_events missing or non-numeric")
    events = doc.get("traceEvents", [])
    if not c.check(isinstance(events, list), "'traceEvents' is not a list"):
        return 0, 0, 0
    lane_names = {}  # tid -> list of thread_name records
    complete = []
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M" and ev.get("name") == "thread_name":
            lane_names.setdefault(ev.get("tid"), []).append(
                ev.get("args", {}).get("name"))
        elif ph == "X":
            for field in ("ts", "dur"):
                c.check(c.is_number(ev.get(field)),
                        "event %d: missing numeric %r" % (i, field))
            complete.append(ev)
    prev_ts = None
    for ev in complete:
        ts, dur = ev.get("ts"), ev.get("dur")
        if not (c.is_number(ts) and c.is_number(dur)):
            continue
        c.check(dur >= 0.0, "event %r: negative duration" % ev.get("name"))
        if prev_ts is not None and not c.check(
                ts >= prev_ts, "timestamps not monotonic at %r (ts=%g after "
                "%g)" % (ev.get("name"), ts, prev_ts)):
            break
        prev_ts = ts
        c.check(ev.get("tid") in lane_names,
                "event %r: lane tid=%r has no thread_name metadata"
                % (ev.get("name"), ev.get("tid")))
    # One lane per thread: no tid renamed twice, no worker name reused.
    workers = {}
    for tid, names in sorted(lane_names.items(), key=lambda kv: str(kv[0])):
        c.check(len(names) == 1,
                "lane tid=%r has %d thread_name records" % (tid, len(names)))
        for name in names:
            if isinstance(name, str) and name.startswith("sched/worker"):
                c.check(name not in workers,
                        "worker lane %r claimed by tid %r and %r"
                        % (name, workers.get(name), tid))
                workers[name] = tid
    return len(complete), len(lane_names), len(workers)


SEGMENT_RE = re.compile(r"^lane(\d+)-(\d+)\.tls(\.part)?$")
TRACE_HEX_RE = re.compile(r"^[0-9a-f]{16}$")
STREAM_EVENT_FIELDS = ("ts", "dur", "label", "span", "parent", "trace")


def parse_stream_segment(c, path, lane_id, seq, state):
    """Parses one segment file into the shared stream `state`."""
    with open(path, "rb") as f:
        data = f.read()
    lines = data.split(b"\n")
    torn = lines and lines[-1] != b""  # no trailing newline: in-flight tail
    body = lines[:-1]
    if torn:
        state["torn"].append(os.path.basename(path))
    if not c.check(len(body) >= 1, "%s: segment has no header" % path):
        return
    try:
        header = json.loads(body[0])
    except ValueError:
        c.check(False, "%s: unparseable header" % path)
        return
    c.check(header.get("schema") == "fcma.tlstream.v1",
            "%s: header schema is %r" % (path, header.get("schema")))
    c.check(header.get("lane_id") == lane_id,
            "%s: header lane_id %r != filename lane %d"
            % (path, header.get("lane_id"), lane_id))
    c.check(header.get("seq") == seq,
            "%s: header seq %r != filename seq %d"
            % (path, header.get("seq"), seq))
    c.check(isinstance(header.get("lane"), str) and header["lane"],
            "%s: header lane name missing" % path)
    trace = header.get("trace")
    if c.check(isinstance(trace, str) and TRACE_HEX_RE.match(trace),
               "%s: header trace id %r is not 16 hex digits" % (path, trace)):
        if state["trace"] is None:
            state["trace"] = trace
        c.check(trace == state["trace"],
                "%s: trace id %r differs from the stream's %r"
                % (path, trace, state["trace"]))
    state["lanes"].add(lane_id)
    for i, raw in enumerate(body[1:], start=2):
        try:
            ev = json.loads(raw)
        except ValueError:
            c.check(False, "%s:%d: unparseable event line" % (path, i))
            continue
        ok = True
        for field in STREAM_EVENT_FIELDS:
            ok = c.check(field in ev,
                         "%s:%d: missing field %r" % (path, i, field)) and ok
        if not ok:
            continue
        c.check(isinstance(ev["ts"], int) and ev["ts"] >= 0
                and isinstance(ev["dur"], int) and ev["dur"] >= 0,
                "%s:%d: ts/dur not non-negative integers" % (path, i))
        c.check(isinstance(ev["label"], str) and ev["label"],
                "%s:%d: empty label" % (path, i))
        c.check(isinstance(ev["span"], int) and ev["span"] >= 0
                and isinstance(ev["parent"], int) and ev["parent"] >= 0,
                "%s:%d: span/parent not non-negative integers" % (path, i))
        c.check(ev["trace"] == trace,
                "%s:%d: event trace %r != segment trace %r"
                % (path, i, ev["trace"], trace))
        # Cluster protocol spans are the cross-rank stitch: every one must
        # be addressable (a real span id) under the run's trace.
        if isinstance(ev.get("label"), str) \
                and ev["label"].startswith("cluster/"):
            c.check(ev.get("span", 0) != 0,
                    "%s:%d: cluster span %r has no span id"
                    % (path, i, ev["label"]))
        end = ev.get("ts", 0) + ev.get("dur", 0)
        last = state["last_end"].get(lane_id)
        c.check(last is None or end >= last,
                "%s:%d: lane %d end time went backwards (%d after %d)"
                % (path, i, lane_id, end, last if last is not None else 0))
        state["last_end"][lane_id] = end
        if ev.get("span"):
            state["spans"].add(ev["span"])
        if ev.get("parent"):
            state["parent_refs"].append((ev["label"], ev["parent"]))
        state["events"] += 1
        count, total_ns = state["labels"].get(ev["label"], (0, 0))
        state["labels"][ev["label"]] = (count + 1, total_ns + ev["dur"])


def check_stream_dir(c, dirpath):
    segments = []
    for name in os.listdir(dirpath):
        m = SEGMENT_RE.match(name)
        if m:
            segments.append((int(m.group(1)), int(m.group(2)),
                             m.group(3) is not None, name))
    c.check(segments, "no stream segments under %s" % dirpath)
    state = {"trace": None, "events": 0, "spans": set(), "parent_refs": [],
             "lanes": set(), "last_end": {}, "torn": [], "labels": {}}
    for lane_id, seq, _partial, name in sorted(segments):
        parse_stream_segment(c, os.path.join(dirpath, name), lane_id, seq,
                             state)

    done_path = os.path.join(dirpath, "stream.done")
    done = os.path.exists(done_path)
    if done:
        try:
            with open(done_path, "r", encoding="utf-8") as f:
                manifest = json.load(f)
        except (OSError, ValueError) as err:
            c.check(False, "unreadable stream.done: %s" % err)
            manifest = {}
        c.check(manifest.get("schema") == "fcma.tlstream.v1",
                "stream.done schema is %r" % manifest.get("schema"))
        c.check(manifest.get("done") is True, "stream.done lacks done=true")
        c.check(manifest.get("trace") == state["trace"],
                "stream.done trace %r != segments' %r"
                % (manifest.get("trace"), state["trace"]))
        c.check(isinstance(manifest.get("dropped"), int)
                and manifest["dropped"] >= 0,
                "stream.done dropped missing or negative")
        c.check(manifest.get("lanes") == len(state["lanes"]),
                "stream.done lanes %r != %d lanes with segments"
                % (manifest.get("lanes"), len(state["lanes"])))
        # The continuous-profiling exactness claim: the finalized merge
        # holds every event the manifest accounted, with no torn tails.
        c.check(manifest.get("events") == state["events"],
                "stream.done events %r != %d parsed from segments"
                % (manifest.get("events"), state["events"]))
        c.check(not state["torn"],
                "finalized stream has torn tails: %s"
                % ", ".join(state["torn"]))
        # And the cross-rank causal claim: every parent reference resolves
        # against some recorded span — no orphans across lanes.
        orphans = [(label, parent) for label, parent in state["parent_refs"]
                   if parent not in state["spans"]]
        for label, parent in orphans[:5]:
            c.check(False, "orphan parent %d under %r" % (parent, label))
        if len(orphans) > 5:
            c.check(False, "... and %d more orphan parents"
                    % (len(orphans) - 5))
        # The Chrome view is rendered from the finalized stream: it must
        # validate on its own and hold exactly what the stream holds.
        try:
            with open(os.path.join(dirpath, "timeline.json"), "r",
                      encoding="utf-8") as f:
                view = json.load(f)
        except (OSError, ValueError) as err:
            c.check(False, "unreadable timeline.json: %s" % err)
        else:
            vc = Checker(dirpath)
            events, lanes, _ = check_timeline(vc, view)
            c.failures += ["timeline.json: " + f for f in vc.failures]
            c.check(events == state["events"],
                    "timeline.json has %d events, the stream %d"
                    % (events, state["events"]))
            c.check(lanes == len(state["lanes"]),
                    "timeline.json has %d lanes, the stream %d"
                    % (lanes, len(state["lanes"])))
            dropped = view.get("otherData", {}).get("dropped_events")
            c.check(dropped == manifest.get("dropped"),
                    "timeline.json dropped_events %r != stream.done %r"
                    % (dropped, manifest.get("dropped")))
        for section in METRIC_SECTIONS:
            c.check(isinstance(manifest.get(section), dict),
                    "stream.done %r section missing or not an object"
                    % section)
        check_trace_view(c, dirpath, state, manifest)
    return "fcma.tlstream.v1: %d events, %d lanes, %d segments%s" % (
        state["events"], len(state["lanes"]), len(segments),
        ", finalized" if done else " (live)")


def check_trace_view(c, dirpath, state, manifest):
    """trace.json must be a valid metrics view of exactly this stream."""
    try:
        with open(os.path.join(dirpath, "trace.json"), "r",
                  encoding="utf-8") as f:
            view = json.load(f)
    except (OSError, ValueError) as err:
        c.check(False, "unreadable trace.json: %s" % err)
        return
    vc = Checker(dirpath)
    check_metrics(vc, view)
    c.failures += ["trace.json: " + f for f in vc.failures]
    spans = view.get("spans", {})
    if not isinstance(spans, dict):
        return
    c.check(set(spans) == set(state["labels"]),
            "trace.json span labels differ from the stream's: only in "
            "trace.json %s, only in the stream %s"
            % (sorted(set(spans) - set(state["labels"]))[:5],
               sorted(set(state["labels"]) - set(spans))[:5]))
    for label in sorted(set(spans) & set(state["labels"])):
        count, total_ns = state["labels"][label]
        span = spans[label]
        c.check(span.get("count") == count,
                "trace.json span %r count %r != %d stream events"
                % (label, span.get("count"), count))
        total_s = span.get("total_s")
        if c.is_number(total_s):
            slack = count * 1e-9 + PRINT_REL * abs(total_s)
            c.check(abs(total_s - total_ns * 1e-9) <= slack,
                    "trace.json span %r total_s %r != %d ns of stream events"
                    % (label, total_s, total_ns))
    c.check(view.get("dropped_events") == manifest.get("dropped"),
            "trace.json dropped_events %r != stream.done %r"
            % (view.get("dropped_events"), manifest.get("dropped")))
    for section in METRIC_SECTIONS:
        c.check(view.get(section) == manifest.get(section),
                "trace.json %s differ from stream.done's" % section)


def check_file(path):
    c = Checker(path)
    try:
        if os.path.isdir(path):
            summary = check_stream_dir(c, path)
        else:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
            if isinstance(doc, dict) and "traceEvents" in doc:
                summary = ("fcma.timeline.v1: %d events across %d lanes "
                           "(%d worker lanes)" % check_timeline(c, doc))
            elif isinstance(doc, dict) and "spans" in doc:
                summary = check_metrics(c, doc)
            else:
                print("%s: neither a metrics dump nor a Chrome trace" % path,
                      file=sys.stderr)
                return 2
    except (OSError, ValueError) as err:
        print("%s: cannot read: %s" % (path, err), file=sys.stderr)
        return 2
    if c.failures:
        for failure in c.failures:
            print("%s: FAIL: %s" % (path, failure), file=sys.stderr)
        return 1
    print("%s: OK (%s)" % (path, summary))
    return 0


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    status = 0
    for path in argv[1:]:
        status = max(status, check_file(path))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
