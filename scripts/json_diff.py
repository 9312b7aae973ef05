#!/usr/bin/env python3
"""Print a field-level diff of two JSON files.

    python3 scripts/json_diff.py BENCH_ycsbE.json /tmp/out/BENCH_ycsbE.json

Lists every path whose value differs as `path: old -> new`, and every path
present on one side only. Exits 1 when the files differ as JSON, 0 when they
are equal, 2 when either file is not JSON.
"""
import json
import sys

MISSING = object()


def show(v):
    return "(absent)" if v is MISSING else json.dumps(v)


def diff(old, new, path, out):
    if isinstance(old, dict) and isinstance(new, dict):
        for k in list(old) + [k for k in new if k not in old]:
            diff(old.get(k, MISSING), new.get(k, MISSING), f"{path}.{k}" if path else k, out)
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            diff(old[i] if i < len(old) else MISSING, new[i] if i < len(new) else MISSING,
                 f"{path}[{i}]", out)
    elif old != new or type(old) is not type(new):
        out.append(f"{path or '(root)'}: {show(old)} -> {show(new)}")


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    docs = []
    for name in sys.argv[1:]:
        try:
            with open(name) as f:
                docs.append(json.load(f))
        except (OSError, ValueError) as e:
            print(f"{name}: not readable as JSON ({e})")
            return 2
    out = []
    diff(docs[0], docs[1], "", out)
    for line in out:
        print(line)
    return 1 if out else 0


if __name__ == "__main__":
    sys.exit(main())
