#!/usr/bin/env python3
"""Validate phch_monitor's Prometheus text exposition (stdlib only).

Usage:
    check_prom.py SCRAPE1 [SCRAPE2]

SCRAPE1/SCRAPE2 are files holding the body of /metrics (two scrapes of the
same monitor process, SCRAPE2 taken later). The checks:

  format    every line is a comment or `name[{labels}] value`; label values
            are properly quoted and escaped; at most one TYPE line per
            metric name; histogram buckets are cumulative with a +Inf
            bucket equal to the _count sample.
  ledger    probe-depth histogram population == find_ops + insert_ops +
            erase_ops, exactly, in each scrape (phch_monitor publishes the
            page at quiescent points, so striped sums are exact).
  tables    every series labelled {table=...} is one of the registry's
            gauges (capacity, phase epoch); counters and histograms are
            process-wide and carry no table label.
  monotone  with two scrapes: every *_total counter and every histogram
            _count/_sum/bucket is non-decreasing from SCRAPE1 to SCRAPE2,
            and the ledger ops strictly advanced (the workload loop ran).

Exit status 0 when all checks pass, 1 otherwise, listing every failure.
"""
import math
import re
import sys

NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")

failures = []


def fail(msg):
    failures.append(msg)
    print(f"check_prom: FAIL {msg}", file=sys.stderr)


def parse_value(text):
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)  # raises on junk -> caught by caller


def parse_labels(text, where):
    """text is the {...} interior; returns dict or None on error."""
    labels = {}
    i = 0
    while i < len(text):
        m = NAME_RE.match(text, i)
        if not m:
            fail(f"{where}: bad label name in {text!r}")
            return None
        name = m.group(0)
        i = m.end()
        if i >= len(text) or text[i] != "=":
            fail(f"{where}: missing '=' after label {name}")
            return None
        i += 1
        if i >= len(text) or text[i] != '"':
            fail(f"{where}: unquoted value for label {name}")
            return None
        i += 1
        value = []
        while i < len(text) and text[i] != '"':
            if text[i] == "\\":
                if i + 1 >= len(text):
                    fail(f"{where}: dangling escape in label {name}")
                    return None
                esc = text[i + 1]
                if esc == "\\":
                    value.append("\\")
                elif esc == '"':
                    value.append('"')
                elif esc == "n":
                    value.append("\n")
                else:
                    fail(f"{where}: unknown escape \\{esc} in label {name}")
                    return None
                i += 2
            else:
                value.append(text[i])
                i += 1
        if i >= len(text):
            fail(f"{where}: unterminated value for label {name}")
            return None
        i += 1  # closing quote
        labels[name] = "".join(value)
        if i < len(text):
            if text[i] != ",":
                fail(f"{where}: expected ',' between labels, got {text[i]!r}")
                return None
            i += 1
    return labels


def parse_exposition(path):
    """Returns {(name, frozenset(labels.items())): value} or None."""
    samples = {}
    type_lines = set()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f.read().split("\n"), 1):
            where = f"{path}:{lineno}"
            if line == "":
                continue  # trailing newline / blank separator
            if line.startswith("#"):
                m = re.match(r"# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) ", line)
                if m:
                    if m.group(1) in type_lines:
                        fail(f"{where}: duplicate TYPE for {m.group(1)}")
                    type_lines.add(m.group(1))
                continue
            m = NAME_RE.match(line)
            if not m:
                fail(f"{where}: no metric name: {line!r}")
                continue
            name = m.group(0)
            rest = line[m.end():]
            labels = {}
            if rest.startswith("{"):
                end = rest.rfind("}")
                if end < 0:
                    fail(f"{where}: unterminated label set")
                    continue
                labels = parse_labels(rest[1:end], where)
                if labels is None:
                    continue
                rest = rest[end + 1:]
            if not rest.startswith(" "):
                fail(f"{where}: missing value separator")
                continue
            try:
                value = parse_value(rest[1:])
            except ValueError:
                fail(f"{where}: bad value {rest[1:]!r}")
                continue
            key = (name, frozenset(labels.items()))
            if key in samples:
                fail(f"{where}: duplicate sample {name}{labels}")
            samples[key] = value
    return samples


def histogram_names(samples):
    return {n[: -len("_bucket")] for (n, _) in samples if n.endswith("_bucket")}


def check_histograms(samples, path):
    for hist in sorted(histogram_names(samples)):
        # Group buckets by their non-le label set.
        series = {}
        for (name, labels), value in samples.items():
            if name != f"{hist}_bucket":
                continue
            ld = dict(labels)
            le = ld.pop("le", None)
            if le is None:
                fail(f"{path}: {hist}_bucket without le label")
                continue
            series.setdefault(frozenset(ld.items()), []).append((le, value))
        for key, buckets in series.items():
            where = f"{path}: {hist}{{{dict(key)}}}"
            parsed = [(parse_value(le), v) for le, v in buckets]
            parsed.sort()
            if not parsed or parsed[-1][0] != math.inf:
                fail(f"{where}: no +Inf bucket")
                continue
            prev = 0.0
            for le, v in parsed:
                if v < prev:
                    fail(f"{where}: bucket le={le} not cumulative")
                prev = v
            count = samples.get((f"{hist}_count", key))
            if count is None:
                fail(f"{where}: missing _count")
            elif count != parsed[-1][1]:
                fail(f"{where}: +Inf bucket {parsed[-1][1]} != _count {count}")
            if (f"{hist}_sum", key) not in samples:
                fail(f"{where}: missing _sum")


def scalar(samples, name):
    return samples.get((name, frozenset()))


def check_ledger(samples, path):
    ops = 0.0
    for c in ("phch_find_ops_total", "phch_insert_ops_total",
              "phch_erase_ops_total"):
        v = scalar(samples, c)
        if v is None:
            fail(f"{path}: missing {c}")
            return None
        ops += v
    depth = scalar(samples, "phch_probe_depth_count")
    if depth is None:
        fail(f"{path}: missing phch_probe_depth_count")
        return None
    if depth != ops:
        fail(f"{path}: probe-depth ledger: hist count {depth} != ops {ops}")
    return ops


TABLE_GAUGES = {"phch_table_capacity", "phch_table_phase_epoch"}


def check_table_series(samples, path):
    for (name, labels) in samples:
        if "table" in dict(labels) and name not in TABLE_GAUGES:
            fail(f"{path}: per-table series {name} is not a registry gauge")


def check_monotone(first, second):
    advanced = False
    for (name, labels), v1 in first.items():
        if not (name.endswith("_total") or name.endswith("_count")
                or name.endswith("_sum") or name.endswith("_bucket")):
            continue
        v2 = second.get((name, labels))
        if v2 is None:
            fail(f"scrape2 dropped {name}{dict(labels)}")
            continue
        if v2 < v1:
            fail(f"{name}{dict(labels)} went backwards: {v1} -> {v2}")
        if v2 > v1:
            advanced = True
    if not advanced:
        fail("no counter advanced between scrapes (workload loop stalled?)")


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__, file=sys.stderr)
        return 1
    first = parse_exposition(argv[1])
    check_histograms(first, argv[1])
    check_ledger(first, argv[1])
    check_table_series(first, argv[1])
    if len(argv) == 3:
        second = parse_exposition(argv[2])
        check_histograms(second, argv[2])
        check_ledger(second, argv[2])
        check_table_series(second, argv[2])
        check_monotone(first, second)
    if failures:
        print(f"check_prom: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("check_prom: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
