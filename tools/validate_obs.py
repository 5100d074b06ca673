#!/usr/bin/env python3
"""Validates an observability artifact directory against the checked-in
JSON Schemas (docs/schema/). Standard library only — implements the small
JSON Schema subset those schemas use (type, required, properties, items,
enum, additionalProperties-as-schema), so CI needs no extra packages.

Usage: validate_obs.py OBS_DIR [--schema-dir DIR]
The schema directory defaults to docs/schema of the repository this script
sits in, so it runs from any working directory. Exits non-zero on the first
structural problem, or on a missing, unreadable or malformed file, printing
where it is.
"""

import argparse
import json
import os
import sys

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "boolean": bool,
}


def check(instance, schema, path):
    """Returns a list of error strings for `instance` against `schema`."""
    errors = []
    expected = schema.get("type")
    if expected is not None:
        if expected == "number":
            ok = isinstance(instance, (int, float)) and not isinstance(
                instance, bool)
        elif expected == "integer":
            ok = isinstance(instance, int) and not isinstance(instance, bool)
        else:
            ok = isinstance(instance, _TYPES[expected]) and not (
                expected != "boolean" and isinstance(instance, bool))
        if not ok:
            return [f"{path}: expected {expected}, got "
                    f"{type(instance).__name__}"]
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in {schema['enum']}")
    if isinstance(instance, dict):
        for key in schema.get("required", []):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, value in instance.items():
            if key in props:
                errors.extend(check(value, props[key], f"{path}.{key}"))
            elif isinstance(extra, dict):
                errors.extend(check(value, extra, f"{path}.{key}"))
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            errors.extend(check(item, schema["items"], f"{path}[{i}]"))
    return errors


def fail(message):
    print(f"validate_obs: FAIL: {message}")
    sys.exit(1)


def load(path, parse=json.load):
    """Parses the file at `path`; any failure to read or parse it fails the
    run with the path and the reason."""
    try:
        with open(path) as f:
            return parse(f)
    except OSError as e:
        fail(f"{path}: {e.strerror or e}")
    except ValueError as e:
        fail(f"{path}: invalid JSON: {e}")


def parse_jsonl(f):
    return [json.loads(line) for line in f if line.strip()]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("obs_dir")
    parser.add_argument("--schema-dir", default=os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "docs", "schema")))
    args = parser.parse_args()

    def schema(name):
        return load(os.path.join(args.schema_dir, name))

    trace_schema = schema("trace.schema.json")
    events_schema = schema("events.schema.json")
    span_schema = schema("request_span.schema.json")
    snapshot_schema = schema("snapshot.schema.json")

    trace_path = os.path.join(args.obs_dir, "trace.json")
    trace = load(trace_path)
    errors = check(trace, trace_schema, "trace")
    if errors:
        fail(f"{trace_path}: " + "; ".join(errors[:5]))
    print(f"validate_obs: {trace_path}: "
          f"{len(trace['traceEvents'])} trace events OK")

    # Request-scoped spans: every cat=serve.request event matches the span
    # schema, and every parent "req <id>" span has a complete phase tree
    # (children reference it via args.req and nest inside it on the
    # virtual clock — the containment Perfetto uses to draw the tree).
    spans = [e for e in trace["traceEvents"]
             if e.get("cat") == "serve.request"]
    if spans:
        parents = {}
        for i, span in enumerate(spans):
            errors = check(span, span_schema, f"trace.request_span[{i}]")
            if errors:
                fail(f"{trace_path}: " + "; ".join(errors[:5]))
            if span["name"].startswith("req "):
                parents[span["name"].split(" ", 1)[1]] = span
        children = {}
        for span in spans:
            req = span["args"].get("req")
            if req is None:
                continue
            if req not in parents:
                fail(f"{trace_path}: child span {span['name']!r} references "
                     f"unknown request {req}")
            parent = parents[req]
            eps = 1e-6
            if (span["ts"] < parent["ts"] - eps or
                    span["ts"] + span.get("dur", 0.0) >
                    parent["ts"] + parent.get("dur", 0.0) + eps):
                fail(f"{trace_path}: span {span['name']!r} of req {req} "
                     f"escapes its parent extent")
            children.setdefault(req, set()).add(span["name"])
        for req, parent in parents.items():
            if "execute" not in children.get(req, set()):
                fail(f"{trace_path}: req {req} has no execute child span")
        print(f"validate_obs: {trace_path}: {len(parents)} request span "
              f"trees OK ({len(spans) - len(parents)} phase spans)")

    events_path = os.path.join(args.obs_dir, "events.jsonl")
    manifest_schema = trace_schema["properties"]["manifest"]
    lines = load(events_path, parse_jsonl)
    if not lines or "manifest" not in lines[0]:
        fail(f"{events_path}: first line must be the manifest header")
    errors = check(lines[0]["manifest"], manifest_schema, "events.manifest")
    if errors:
        fail(f"{events_path}: " + "; ".join(errors[:5]))
    for i, line in enumerate(lines[1:]):
        errors = check(line, events_schema, f"events[{i}]")
        if errors:
            fail(f"{events_path}: " + "; ".join(errors[:5]))
        if line["seq"] != i:
            fail(f"{events_path}: line {i + 1} has seq {line['seq']}, "
                 f"expected consecutive {i}")
    print(f"validate_obs: {events_path}: {len(lines) - 1} events OK")

    manifest_path = os.path.join(args.obs_dir, "manifest.json")
    manifest = load(manifest_path)
    errors = check(manifest, manifest_schema, "manifest")
    if errors:
        fail(f"{manifest_path}: " + "; ".join(errors[:5]))
    if "host" not in manifest:
        fail(f"{manifest_path}: missing the non-deterministic host section")
    print(f"validate_obs: {manifest_path}: OK")

    # snapshot.json only exists for runs that exercised the serving layer
    # (SloRegistry has data); validate it when present.
    snapshot_path = os.path.join(args.obs_dir, "snapshot.json")
    if os.path.exists(snapshot_path):
        snapshot = load(snapshot_path)
        errors = check(snapshot, snapshot_schema, "snapshot")
        if errors:
            fail(f"{snapshot_path}: " + "; ".join(errors[:5]))
        for t, tenant in enumerate(snapshot["tenants"]):
            hist = tenant["latency_virtual_us"]
            if len(hist["counts"]) != len(hist["bounds"]) + 1:
                fail(f"{snapshot_path}: tenants[{t}] bucket counts must be "
                     f"bounds+1 (overflow bucket)")
            if sum(hist["counts"]) != hist["count"]:
                fail(f"{snapshot_path}: tenants[{t}] bucket sum "
                     f"{sum(hist['counts'])} != count {hist['count']}")
        print(f"validate_obs: {snapshot_path}: "
              f"{len(snapshot['tenants'])} tenants OK")
    else:
        print(f"validate_obs: {snapshot_path}: absent (no serving run)")
    print("validate_obs: PASS")


if __name__ == "__main__":
    main()
