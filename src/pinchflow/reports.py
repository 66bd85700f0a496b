"""Deterministic serialization for reports and flow traces.

All JSON output is canonical: sorted keys, compact separators, floats
printed with %.17g (round-trip exact), exact rationals as strings.  Two runs
with the same inputs produce byte-identical files except for the single
top-level "timestamp" key, which callers can strip before comparing.
"""

import json
import math
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np


def _fraction_str(x: Fraction):
    """Finite decimal expansion when the denominator is 2^a 5^b, else p/q."""
    den = x.denominator
    two = five = 0
    while den % 2 == 0:
        den //= 2
        two += 1
    while den % 5 == 0:
        den //= 5
        five += 1
    if den != 1:
        return f"{x.numerator}/{x.denominator}"
    shift = max(two, five)
    scaled = x.numerator * 10**shift // x.denominator
    if shift == 0:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def _float_str(x: float):
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == 0.0:
        x = 0.0  # collapse -0.0
    return "%.17g" % x


def canonical_json(obj) -> str:
    """Serialize to a canonical JSON string (no trailing newline).  A
    dataclass instance is the object of its fields, a NamedTuple that of
    its `_asdict()`."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, np.floating):
        obj = float(obj)
    elif isinstance(obj, np.integer):
        obj = int(obj)
    elif isinstance(obj, np.bool_):
        obj = bool(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _float_str(obj)
    if isinstance(obj, Fraction):
        # exact values ride as decimal/ratio strings, flagged so readers
        # don't mistake them for rounded floats
        return '{"rational":true,"value":' + json.dumps(_fraction_str(obj)) + "}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        inner = ",".join(
            f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in items
        )
        return "{" + inner + "}"
    if is_dataclass(obj) and not isinstance(obj, type):
        return canonical_json({f.name: getattr(obj, f.name) for f in fields(obj)})
    if isinstance(obj, tuple) and getattr(obj, "_fields", None) is not None:
        return canonical_json(obj._asdict())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def render_report(payload) -> str:
    """Canonical JSON document with an isolated timestamp key.

    The timestamp is injected after canonicalization so the remainder of the
    byte stream is independent of wall-clock time.
    """
    body = canonical_json(payload)
    if not body.startswith("{"):
        raise TypeError("timestamped reports must be JSON objects")
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    head = f'"timestamp":{json.dumps(stamp)}'
    if body == "{}":
        return "{" + head + "}\n"
    return "{" + head + "," + body[1:] + "\n"


def write_report(path, payload):
    text = render_report(payload)  # before open: a payload that fails leaves no file
    with open(path, "w") as fh:
        fh.write(text)


def strip_timestamp(text: str) -> str:
    """Remove the isolated timestamp key for byte comparison."""
    doc = json.loads(text)
    doc.pop("timestamp", None)
    return canonical_json(doc) + "\n"


def write_trace_csv(path, columns, rows):
    """Plain CSV with %.17g floats; `rows` is an iterable of tuples whose
    columns all have the first row's types.  One `%` format, built from the
    first row (%.17g for a float, %s otherwise), writes every row."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fmt = None
        for row in rows:
            if fmt is None:
                fmt = (
                    ",".join("%.17g" if isinstance(v, float) else "%s" for v in row)
                    + "\n"
                )
            fh.write(fmt % row)
