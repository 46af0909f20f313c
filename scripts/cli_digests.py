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
"""
import hashlib
import os
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


def main():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for command in COMMANDS:
        argv = command.split()
        out = subprocess.run(
            [sys.executable, "-m", "qdiscord.cli", *argv],
            env=env,
            capture_output=True,
            check=True,
        ).stdout
        print(f"{hashlib.sha256(out).hexdigest()}  {command}")


if __name__ == "__main__":
    main()
