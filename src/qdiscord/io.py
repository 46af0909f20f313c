"""CSV / JSON emission for sample batches, boundary curves, and reports, and
the JSON state-file format."""
from __future__ import annotations

import csv
import io
import json

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


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def batch_rows(batch):
    for i, (seed, rec) in enumerate(zip(batch.seeds, batch.records)):
        fam = batch.families[i] if batch.families else None
        yield [
            i,
            batch.provenance,
            fam.kind if fam else "",
            fam.p1 if fam else None,
            fam.p2 if fam else None,
            seed,
            rec.linear_entropy,
            rec.mutual_info,
            rec.classical_corr,
            rec.discord,
            rec.concurrence,
            rec.eof,
            rec.theta_opt,
            rec.phi_opt,
        ]


def curve_rows(curve):
    # curve points reuse the batch schema: x/y land in the columns of the
    # plane's measures, everything else non-applicable stays empty
    xcol = "eof" if curve.plane == "eof-q" else "S_L"
    for i, (p, x, y) in enumerate(zip(curve.params, curve.xs, curve.ys)):
        row = dict.fromkeys(CSV_HEADER, None)
        row.update(
            state_id=i,
            provenance=f"curve:{curve.plane}",
            family=curve.family_tag,
            param1=float(p),
            discord=float(y),
        )
        row[xcol] = float(x)
        yield [row[k] for k in CSV_HEADER]


def csv_text(obj):
    """RFC-4180 CSV for a SampleBatch or BoundaryCurve, 17 significant digits."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(CSV_HEADER)
    if isinstance(obj, SampleBatch):
        rows = batch_rows(obj)
    elif isinstance(obj, BoundaryCurve):
        rows = curve_rows(obj)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} as CSV")
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    return buf.getvalue()


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
