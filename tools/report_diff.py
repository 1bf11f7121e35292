"""Field-by-field diff of two isocomb reports, for changes made on purpose.

Usage::

    python tools/report_diff.py A B

A and B are two JSONL suite reports (``isocomb suite ... --report``) or two
JSON documents (``isocomb digon --out``, ``isocomb cone-combine --out``).
A suite report is read trial by trial, keyed by ``trial_id``; its last line,
the aggregate, is one more record.  A JSON document is one record.

One line per field: how many values moved, out of how many, and the worst
|delta| of a numeric value with where it is.  A field is a dotted path, with
``[]`` for a list index, so ``combined.vertices[][]`` gathers every
coordinate of a combined link.  A value whose type changed or that is on one
side only counts as moved with no delta.  After the fields come the
``passed`` flips and, for suite reports, the exit code ``isocomb suite``
gives, 0 when the aggregate counts no failure and 2 otherwise.  Exits 1 on
a ``passed`` flip or an exit code change, and 0 otherwise, however far a
value moved.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import OrderedDict


def _leaves(value, field: str, where: str):
    """(field, location, value) for every scalar or empty container under ``value``."""
    if isinstance(value, (dict, list)) and not value:
        yield field, where, value
    elif isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{field}.{key}" if field else key,
                               f"{where}.{key}" if where else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{field}[]", f"{where}[{i}]")
    else:
        yield field, where, value


def load_records(path: str) -> tuple[OrderedDict, bool]:
    """Records keyed by id, and whether the file is a JSONL suite report."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if not (doc is None or isinstance(doc, dict) and ("trial_id" in doc or "aggregate" in doc)):
        return OrderedDict([("document", doc)]), False
    records = OrderedDict()
    for line in text.splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        key = "aggregate" if "aggregate" in row else f"trial {row['trial_id']}"
        records[key] = row
    return records, True


class _Absent:
    """A value on the other side only."""

    def __repr__(self) -> str:
        return "-"


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def diff(a: OrderedDict, b: OrderedDict) -> tuple[OrderedDict, list[str]]:
    """Per field, ``[moved, total, worst |delta| or None, where]``, where is
    the worst numeric move or else the first move; and the ``passed`` flips
    as ``"<record>: A -> B"``."""
    fields: OrderedDict = OrderedDict()
    flips = []
    absent = _Absent()
    for key in list(a) + [k for k in b if k not in a]:
        left, right = ({(f, w): v for f, w, v in _leaves(r[key], "", "")} if key in r else {}
                       for r in (a, b))
        for f, w in list(left) + [k for k in right if k not in left]:
            stat = fields.setdefault(f, [0, 0, None, None])
            stat[1] += 1
            x, y = left.get((f, w), absent), right.get((f, w), absent)
            if type(x) is type(y) and (x == y or x != x and y != y):   # NaN == NaN
                continue
            if f == "passed":
                flips.append(f"{key}: {x!r} -> {y!r}")
            stat[0] += 1
            # a document's values are told apart by their path, a trial's by its id
            at = w if key == "document" else key if "[" not in w else f"{key} {w}"
            if _number(x) and _number(y):
                delta = abs(y - x)
                if stat[2] is None or delta > stat[2]:
                    stat[2], stat[3] = delta, at
            elif stat[3] is None:
                stat[3] = at
    return fields, flips


def exit_status(records: OrderedDict) -> int | None:
    """The ``isocomb suite`` exit code a report implies: 0 when its aggregate
    counts no failure, 2 (an algorithmic failure) otherwise; None for a
    report without an aggregate."""
    row = records.get("aggregate")
    if row is None:
        return None
    return 0 if row["aggregate"].get("failures") == 0 else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    a, suite_a = load_records(args.a)
    b, suite_b = load_records(args.b)
    if suite_a != suite_b:
        parser.error("compare two suite reports or two JSON documents")
    fields, flips = diff(a, b)
    width = max([len(f) for f in fields] + [5])
    print(f"{'field':<{width}}  {'moved':>13}  {'worst |delta|':>13}  at")
    for f, (moved, total, worst, where) in fields.items():
        shown = "-" if worst is None else f"{worst:.3g}"
        print(f"{f:<{width}}  {f'{moved}/{total}':>13}  {shown:>13}  {where or '-'}")
    print(f"passed flips: {len(flips)}")
    for line in flips:
        print(f"  {line}")
    status = (exit_status(a), exit_status(b))
    if suite_a:
        print(f"exit status: {status[0]} -> {status[1]}")
    return 1 if flips or status[0] != status[1] else 0


if __name__ == "__main__":
    sys.exit(main())
