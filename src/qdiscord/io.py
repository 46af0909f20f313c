"""CSV / JSON emission for sample batches, boundary curves, and reports, and
the JSON state-file format.

csv_text writes one cheap operation per row, not one per field. A
SampleBatch row is a head (state id, provenance, family, params, seed)
and one %-format of the record's eight floats; a BoundaryCurve is one
row template per plane, formatted with each point's parameter, x and y.
A float is written to 17 significant digits ("%.17g"), an absent value
as an empty field. The free-text fields, provenance and family, are
quoted as csv.writer quotes them (QUOTE_MINIMAL): a field holding a
comma, a quote, CR or LF is wrapped in quotes with every inner quote
doubled. No other field can hold one of those, so none is quoted.
"""
from __future__ import annotations

import json
import operator
import re
from itertools import count

import numpy as np

from .bounds import BoundaryCurve, SampleBatch
from .states import StateError, validate_state

CSV_HEADER = [
    "state_id",
    "provenance",
    "family",
    "param1",
    "param2",
    "seed",
    "S_L",
    "mutual_info",
    "classical_corr",
    "discord",
    "concurrence",
    "eof",
    "theta_opt",
    "phi_opt",
]
_HEADER_LINE = ",".join(CSV_HEADER) + "\r\n"
# the record's floats in CSV_HEADER order, from S_L on
_MEASURES = operator.attrgetter(
    "linear_entropy",
    "mutual_info",
    "classical_corr",
    "discord",
    "concurrence",
    "eof",
    "theta_opt",
    "phi_opt",
)
_MEASURES_ROW = ",".join(["%.17g"] * 8) + "\r\n"
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _quoted(text):
    """A free-text field as csv.writer writes it with QUOTE_MINIMAL."""
    if _NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _fmt(x):
    """A head field other than free text: empty for None, a float to 17
    significant digits, anything else (an int) as str."""
    if x is None:
        return ""
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _batch_text(batch):
    batch.check_lengths()
    prov = _quoted(batch.provenance)
    fams = batch.families or [None] * len(batch.records)
    rows = [_HEADER_LINE]
    for i, (seed, fam, rec) in enumerate(zip(batch.seeds, fams, batch.records)):
        if fam is None:
            head = f"{i},{prov},,,,{_fmt(seed)},"
        else:
            head = (
                f"{i},{prov},{_quoted(fam.kind)},{_fmt(fam.p1)},"
                f"{_fmt(fam.p2)},{_fmt(seed)},"
            )
        rows.append(head + _MEASURES_ROW % _MEASURES(rec))
    return "".join(rows)


def _curve_text(curve):
    # curve points reuse the batch schema: x and y land in the columns of
    # the plane's measures (S_L or eof, and discord), the rest stay empty;
    # the free text is %-escaped, since it becomes part of the template
    head = (
        f"{_quoted(f'curve:{curve.plane}')},{_quoted(curve.family_tag)}"
    ).replace("%", "%%")
    if curve.plane == "eof-q":  # param1, discord, eof
        row = f"%d,{head},%.17g,,,,,,%.17g,,%.17g,,\r\n"
        cols = (curve.params, curve.ys, curve.xs)
    else:  # param1, S_L, discord
        row = f"%d,{head},%.17g,,,%.17g,,,%.17g,,,,\r\n"
        cols = (curve.params, curve.xs, curve.ys)
    points = zip(count(), *(np.asarray(c, dtype=float).tolist() for c in cols))
    return _HEADER_LINE + "".join([row % p for p in points])


def csv_text(obj):
    """RFC-4180 CSV for a SampleBatch or BoundaryCurve, 17 significant digits."""
    if isinstance(obj, SampleBatch):
        return _batch_text(obj)
    if isinstance(obj, BoundaryCurve):
        return _curve_text(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} as CSV")


def report_json_text(report):
    return json.dumps(report.to_json_obj(), indent=2) + "\n"


def state_to_json_obj(rho):
    """State-file form: {"rho": [[[re, im] x4] x4]}."""
    m = np.asarray(rho, dtype=complex)
    return {
        "rho": [[[float(m[i, j].real), float(m[i, j].imag)] for j in range(4)]
                for i in range(4)]
    }


def _entry(c):
    """One [re, im] entry of a state file as a complex number. Raises
    StateError unless it is a list of exactly two real numbers (int or
    float; a bool is not a number here) that a float can hold."""
    if (
        isinstance(c, list)
        and len(c) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in c)
    ):
        try:
            return complex(c[0], c[1])
        except OverflowError:  # an int too large for a float
            pass
    raise StateError(f"malformed 'rho' entry {c!r}: expected [re, im]")


def state_from_json_obj(obj):
    """Inverse of state_to_json_obj; validates the resulting matrix."""
    if not isinstance(obj, dict) or "rho" not in obj:
        raise StateError("state file must be a JSON object with a 'rho' key")
    rows = obj["rho"]
    if not (
        isinstance(rows, list)
        and len(rows) == 4
        and all(isinstance(row, list) and len(row) == 4 for row in rows)
    ):
        raise StateError("malformed 'rho': expected 4 rows of 4 [re, im] entries")
    return validate_state([[_entry(c) for c in row] for row in rows])


def read_state_file(path):
    """Parse the JSON state-file format and validate the matrix."""
    with open(path) as fh:
        obj = json.load(fh)
    return state_from_json_obj(obj)


def write_state_file(rho, path):
    """Write rho in the JSON state-file format that read_state_file reads."""
    with open(path, "w") as fh:
        json.dump(state_to_json_obj(rho), fh, indent=2)
        fh.write("\n")
