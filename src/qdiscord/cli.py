"""Command-line harness: single-state measures, family sweeps, random and
near-boundary sampling, bound verification, and crossover location.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 I/O error,
4 optimizer not converged.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import bounds, io as qio
from .measures import OptimizerDidNotConverge, discord_numeric
from .states import FAMILY_KINDS, Family, StateError, make_family

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NOT_CONVERGED = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    p = _Parser(prog="qdiscord", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, formats):
        # --format takes only what the command emits; the first is the default
        sp.add_argument("--out", dest="output_path", default=None)
        sp.add_argument("--format", choices=formats, default=formats[0])

    sp = sub.add_parser("point", help="measures of a single state")
    sp.add_argument("--family", choices=FAMILY_KINDS)
    sp.add_argument("--param", type=float, default=None)
    sp.add_argument("--param2", type=float, default=None)
    sp.add_argument("--in", dest="input_path", default=None)
    add_common(sp, ["json", "csv"])

    sp = sub.add_parser("sweep", help="boundary curve of one family")
    sp.add_argument("--family", choices=FAMILY_KINDS, required=True)
    sp.add_argument("--plane", choices=["eof-q", "sl-q"], default="eof-q")
    sp.add_argument("--n", type=int, default=512, help="curve resolution")
    add_common(sp, ["csv"])

    sp = sub.add_parser("sample", help="random density-matrix batch")
    sp.add_argument("--n", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    add_common(sp, ["csv"])

    sp = sub.add_parser("near", help="near-boundary batch for one family")
    sp.add_argument("--family", choices=FAMILY_KINDS, required=True)
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--epsilon", type=float, default=1e-3)
    add_common(sp, ["csv"])

    sp = sub.add_parser("verify", help="containment check of a random batch")
    sp.add_argument("--plane", choices=["eof-q", "sl-q"], default="eof-q")
    sp.add_argument("--n", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--slack", type=float, default=bounds.DEFAULT_SLACK)
    add_common(sp, ["json"])

    sp = sub.add_parser("crossover", help="junctions of the horn upper bound")
    add_common(sp, ["json"])
    return p


def _family_from(args):
    if args.family is None:
        if args.param is not None or args.param2 is not None:
            raise UsageError("--param and --param2 require --family")
        return None
    if args.param is None:
        raise UsageError(f"--family {args.family} requires --param")
    return Family(args.family, args.param, args.param2)


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _record_json(rec, fam=None):
    obj = dataclasses.asdict(rec)
    if fam is not None:
        obj["family"] = fam.kind
        obj["param1"] = fam.p1
        obj["param2"] = fam.p2
    return json.dumps(obj, indent=2) + "\n"


def run_point(args):
    fam = _family_from(args)
    if (fam is None) == (args.input_path is None):
        raise UsageError("point requires exactly one of --family or --in")
    rho = make_family(fam) if fam is not None else qio.read_state_file(args.input_path)
    rec = discord_numeric(rho)
    if args.format == "json":
        return _record_json(rec, fam), args.output_path
    batch = bounds.SampleBatch(
        records=[rec],
        seeds=[None],  # a single point has no seed: the field stays empty
        provenance="point",
        families=[fam],
    )
    return qio.csv_text(batch), args.output_path


def run_sweep(args):
    curve = bounds.sweep_family(args.family, args.plane, args.n)
    return qio.csv_text(curve), args.output_path


def run_sample(args):
    batch = bounds.sample_random(args.n, args.seed)
    return qio.csv_text(batch), args.output_path


def run_near(args):
    batch = bounds.sample_near_boundary(args.family, args.n, args.epsilon, args.seed)
    return qio.csv_text(batch), args.output_path


def run_verify(args):
    # before sampling: a bad slack would otherwise cost the whole batch
    bounds.check_slack(args.slack)
    batch = bounds.sample_random(args.n, args.seed)
    if args.plane == "eof-q":
        obj = bounds.verify_bounds(batch, "eof-q", args.slack).to_json_obj()
    else:
        gate, rest = bounds.split_at_pimple(batch)
        if not gate.records:
            raise bounds.ParamOutOfRange(
                f"no state of the batch has S_L <= 8/9 to check in the sl-q plane "
                f"(n = {args.n}, seed = {args.seed})"
            )
        obj = bounds.verify_bounds(gate, "sl-q", args.slack).to_json_obj()
        # the S_L > 8/9 slice is informational only (Werner-takeover region)
        obj["informational_above_8_9"] = (
            bounds.verify_bounds(rest, "sl-q", args.slack).to_json_obj()
            if rest.records
            else None
        )
    obj["seed"] = args.seed
    obj["n"] = args.n
    obj["plane"] = args.plane
    return json.dumps(obj, indent=2) + "\n", args.output_path


def run_crossover(args):
    e_aw, q_aw, e_wp = bounds.horn_crossovers()
    obj = {
        "alpha_werner": {"eof": e_aw, "discord": q_aw},
        "werner_pure": {"eof": e_wp, "discord": e_wp},
    }
    return json.dumps(obj, indent=2) + "\n", args.output_path


COMMANDS = {
    "point": run_point,
    "sweep": run_sweep,
    "sample": run_sample,
    "near": run_near,
    "verify": run_verify,
    "crossover": run_crossover,
}


# built once per process: parse_args reads the parser and writes only the
# fresh namespace it returns, so no value carries over from one call to the next
_PARSER = build_parser()


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        text, path = COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        StateError,
        json.JSONDecodeError,
        FileNotFoundError,
        IsADirectoryError,
        UnicodeDecodeError,
    ) as exc:
        # a state file that is missing, a directory or not UTF-8 text is
        # bad input, like one that holds no valid state
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OptimizerDidNotConverge as exc:
        states = ", ".join(str(i) for i in exc.states)
        print(f"not converged: {exc} (states {states})", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    try:
        _emit(text, path)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
