"""Print the SHA-256 of the standard output of 20 qdiscord commands, one
`digest  argv` line each: a random sample, a near-boundary batch of each
family, verify on both planes, verify on both planes under a negative slack
(so that the reports list offenders: 6 on eof-q, and 24 plus 1 in the
informational slice above S_L = 8/9 on sl-q), a point as JSON and as CSV,
the seven family sweeps and the crossover. Each command runs as
`python -m qdiscord.cli` on the src/ tree next to this script and must
exit 0.

Run it in two checkouts and diff the two outputs to see whether a change
moves any command-line result by a single byte:

    python3 scripts/cli_digests.py

With --against DIR it runs the commands on this tree and on DIR/src (another
checkout) instead, and prints one line per command: `same`, or how many
numeric fields of the output differ and the largest absolute difference
between them, or `layout differs` where the outputs differ in more than
their numbers:

    python3 scripts/cli_digests.py --against ../parent
"""
import argparse
import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = [
    "sample --n 1000 --seed 1",
    *(
        f"near --family {kind} --n 200 --seed 2"
        for kind in ("werner", "alpha", "beta", "twoparam", "pure")
    ),
    "verify --plane eof-q --n 1000 --seed 3",
    "verify --plane sl-q --n 1000 --seed 3",
    "verify --n 3 --seed 3 --slack -1",
    "verify --plane sl-q --n 50 --seed 3 --slack -0.3",
    "point --family twoparam --param 0.3 --param2 0.2",
    "point --family twoparam --param 0.3 --param2 0.2 --format csv",
    *(
        f"sweep --family {kind} --plane {plane}"
        for kind, plane in (
            ("alpha", "eof-q"),
            ("beta", "eof-q"),
            ("werner", "eof-q"),
            ("pure", "eof-q"),
            ("werner", "sl-q"),
            ("twoparam", "sl-q"),
            ("alpha", "sl-q"),
        )
    ),
    "crossover",
]


def outputs(src):
    """The standard output of each command, run on the package in src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for command in COMMANDS:
        yield subprocess.run(
            [sys.executable, "-m", "qdiscord.cli", *command.split()],
            env=env,
            capture_output=True,
            check=True,
        ).stdout


def _number(token):
    try:
        return float(token)
    except ValueError:
        return None


def compare(ours, theirs):
    """`same`, `layout differs`, or the count of differing numeric fields
    with their largest absolute difference, for two outputs split into
    fields at whitespace and CSV/JSON punctuation."""
    if ours == theirs:
        return "same"
    a, b = (re.split(r'[\s,:\[\]{}"]+', out.decode()) for out in (ours, theirs))
    diffs = [(_number(x), _number(y)) for x, y in zip(a, b) if x != y]
    if len(a) != len(b) or not diffs or any(None in d for d in diffs):
        return "layout differs"
    gaps = [abs(u - v) for u, v in diffs]
    worst = math.nan if any(map(math.isnan, gaps)) else max(gaps)
    return f"{len(diffs)} numeric fields differ, max |d| {worst:.3g}"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--against", type=Path, metavar="DIR")
    args = parser.parse_args()
    if args.against is None:
        for command, out in zip(COMMANDS, outputs(SRC)):
            print(f"{hashlib.sha256(out).hexdigest()}  {command}")
        return
    for command, ours, theirs in zip(
        COMMANDS, outputs(SRC), outputs(args.against / "src")
    ):
        print(f"{compare(ours, theirs)}  {command}")


if __name__ == "__main__":
    main()
