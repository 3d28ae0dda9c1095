"""Print how far the outputs of the benchmark job lists move between two
source trees.

Usage: python tools/output_drift.py SRC_A SRC_B SEED

Runs the full-size certify, spectra and montecarlo job lists at SEED once
per tree, through the job loop of `tools/output_digests.py`, each tree in a
fresh process that imports `dpptails` from it.  For each output whose bytes
differ, prints how many of its numeric fields differ and the largest
absolute and relative difference among them (relative to the larger of the
two magnitudes), then the same per field: a JSON key path with the list
indices dropped, or a CSV column prefixed by the row's kind.  An output
that differs in anything but the values of its numeric fields, or that
only one tree wrote, is printed as a non-numeric difference.
"""

import csv
import json
import math
import os
import subprocess
import sys
import tempfile

from output_digests import NAMES

TOOLS = os.path.dirname(os.path.abspath(__file__))

_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from output_digests import run_jobs
failed = run_jobs(sys.argv[2], int(sys.argv[3]), sys.argv[4])
sys.exit(2 if failed is None else min(failed, 1))
"""


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _json_fields(value, path=()):
    """(key path, text) of every scalar in a JSON value; numbers keep the
    text they were written with."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_fields(item, path + (key,))
    elif isinstance(value, list):
        for item in value:
            yield from _json_fields(item, path)
    else:
        yield ".".join(path) or "-", str(value)


def _fields(fname, text):
    """(label, text) of every field of an output file, in order."""
    if fname.endswith(".csv"):
        lines = text.splitlines()
        fields = [("#", line) for line in lines if line.startswith("#")]
        header, *rows = csv.reader(line for line in lines if not line.startswith("#"))
        for row in rows:
            kind = "" if _number(row[0]) is not None else row[0] + "."
            fields += [(kind + col, cell) for col, cell in zip(header, row)]
        return fields
    as_text = dict(parse_float=str, parse_int=str, parse_constant=str)
    if fname.endswith(".jsonl"):
        return [f for line in text.splitlines() for f in _json_fields(json.loads(line, **as_text))]
    return list(_json_fields(json.loads(text, **as_text)))


def _difference(x, y):
    """(absolute, relative) difference of two numbers."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, 0.0
    d = abs(x - y)
    return (d, d / max(abs(x), abs(y))) if math.isfinite(d) else (math.inf, math.inf)


def _drift(fields_a, fields_b):
    """{label: [count, max absolute, max relative]} over the numeric fields
    whose text differs, or None if the outputs differ in anything else."""
    if len(fields_a) != len(fields_b):
        return None
    drift = {}
    for (label, a), (label_b, b) in zip(fields_a, fields_b):
        if label != label_b:
            return None
        if a == b:
            continue
        x, y = _number(a), _number(b)
        if x is None or y is None:
            return None
        d, r = _difference(x, y)
        entry = drift.setdefault(label, [0, 0.0, 0.0])
        entry[:] = entry[0] + 1, max(entry[1], d), max(entry[2], r)
    return drift


def _line(label, count, d, r):
    return f"{label}: {count} numeric fields differ, max abs {d:.3g}, max rel {r:.3g}"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[3], file=sys.stderr)
        return 2
    srcs, seed = [os.path.abspath(src) for src in argv[:2]], argv[2]
    with tempfile.TemporaryDirectory() as tmp:
        dests = [os.path.join(tmp, tag) for tag in "ab"]
        for src, dest in zip(srcs, dests):
            proc = subprocess.run([sys.executable, "-c", _CHILD, TOOLS, src, seed, dest],
                                  stdout=subprocess.DEVNULL, check=False)
            if proc.returncode != 0:
                print(f"job lists failed on {src} (exit {proc.returncode})", file=sys.stderr)
                return 1
        same = total = 0
        for name in NAMES:
            outs = [os.path.join(dest, name, "out") for dest in dests]
            for fname in sorted(set(os.listdir(outs[0])) | set(os.listdir(outs[1]))):
                total += 1
                output = f"{name}/{fname}"
                paths = [os.path.join(out, fname) for out in outs]
                if not all(os.path.exists(path) for path in paths):
                    print(f"{output}: non-numeric difference (written by one tree only)")
                    continue
                texts = []
                for path in paths:
                    with open(path) as fh:
                        texts.append(fh.read())
                if texts[0] == texts[1]:
                    same += 1
                    continue
                drift = _drift(*(_fields(fname, text) for text in texts))
                if not drift:
                    print(f"{output}: non-numeric difference")
                    continue
                entries = drift.values()
                print(_line(output, sum(e[0] for e in entries), max(e[1] for e in entries),
                            max(e[2] for e in entries)))
                for label, entry in drift.items():
                    print("  " + _line(label, *entry))
        print(f"{same} of {total} outputs have the same bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
