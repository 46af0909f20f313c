import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdiscord
from qdiscord import bounds, cli
from qdiscord.cli import EXIT_NOT_CONVERGED, main
from qdiscord.io import CSV_HEADER, write_state_file
from qdiscord.measures import OptimizerDidNotConverge
from qdiscord.states import Family, make_family


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestPoint:
    def test_alpha_half_json(self, capsys):
        code, out, _ = run(capsys, "point", "--family", "alpha", "--param", "0.5")
        assert code == 0
        obj = json.loads(out)
        assert obj["discord"] == pytest.approx(0.311278, abs=1e-4)
        assert obj["eof"] == 0.0
        assert obj["family"] == "alpha"
        assert obj["param1"] == 0.5

    def test_param_out_of_range_exit_2(self, capsys, tmp_path):
        dest = tmp_path / "out.json"
        code, out, err = run(
            capsys, "point", "--family", "alpha", "--param", "1.5",
            "--out", str(dest),
        )
        assert code == 2
        assert "validation error" in err
        assert not dest.exists()

    def test_state_file_maximally_mixed(self, capsys, tmp_path):
        path = tmp_path / "mm.json"
        write_state_file(np.eye(4) / 4, path)
        code, out, _ = run(capsys, "point", "--in", str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["linear_entropy"] == pytest.approx(1.0, abs=1e-12)
        assert obj["discord"] == pytest.approx(0.0, abs=1e-9)

    def test_state_file_bad_trace_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        rho = np.eye(4) * 0.225  # trace 0.9
        obj = {"rho": [[[rho[i, j].real, 0.0] for j in range(4)] for i in range(4)]}
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "point", "--in", str(path))
        assert code == 2
        assert "trace" in err.lower()

    @pytest.mark.parametrize(
        "i,j,part,value",
        [
            (0, 1, 0, float("nan")),
            (0, 0, 1, float("nan")),
            (1, 1, 1, float("nan")),
            (2, 3, 0, float("inf")),
        ],
        ids=["nan-offdiagonal", "nan-im-rho00", "nan-im-rho11", "inf-offdiagonal"],
    )
    def test_state_file_non_finite_exit_2(self, capsys, tmp_path, i, j, part, value):
        rows = [[[0.25 if r == c else 0.0, 0.0] for c in range(4)] for r in range(4)]
        rows[i][j][part] = value
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps({"rho": rows}))  # writes NaN/Infinity tokens
        code, out, err = run(capsys, "point", "--in", str(path))
        assert code == 2
        assert out == ""
        assert f"validation error: entry ({i}, {j}) is not finite" in err

    @pytest.mark.parametrize(
        "entry,shape",
        [
            ([0.25, 0.0, 7.0], (4, 4)),
            ([0.25], (4, 4)),
            ([True, False], (4, 4)),
            (["0.25", 0.0], (4, 4)),
            (None, (4, 4)),
            ([10**400, 0.0], (4, 4)),  # no float holds it
            ([0.25, 0.0], (4, 3)),
        ],
        ids=[
            "three-numbers", "one-number", "bools", "string", "null", "huge-int", "4x3"
        ],
    )
    def test_state_file_malformed_exit_2(self, capsys, tmp_path, entry, shape):
        # the maximally mixed state's entries, cut to `shape`, with (0, 0) replaced
        rows = [[[0.25 if r == c else 0.0, 0.0] for c in range(shape[1])]
                for r in range(shape[0])]
        rows[0][0] = entry
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({"rho": rows}))
        code, out, err = run(capsys, "point", "--in", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("validation error: malformed 'rho'")

    def test_state_file_pimple(self, capsys, tmp_path):
        path = tmp_path / "pimple.json"
        write_state_file(make_family(Family("twoparam", 1 / 3, 0.0)), path)
        code, out, _ = run(capsys, "point", "--in", str(path))
        assert code == 0
        assert json.loads(out)["discord"] == pytest.approx(1 / 3, abs=1e-4)

    @pytest.mark.parametrize(
        "name", ["missing", "directory", "name-too-long", "symlink-loop"]
    )
    def test_unopenable_file_exit_2(self, capsys, tmp_path, name):
        paths = {
            "missing": tmp_path / "nonexistent" / "x.json",
            "directory": tmp_path,
            "name-too-long": tmp_path / ("a" * 300 + ".json"),
            "symlink-loop": tmp_path / "loop.json",
        }
        paths["symlink-loop"].symlink_to("loop.json")
        code, out, err = run(capsys, "point", "--in", str(paths[name]))
        assert code == 2
        assert out == ""
        assert err.startswith("validation error:")

    def test_non_utf8_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00")
        code, out, err = run(capsys, "point", "--in", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("validation error:")

    def test_family_and_in_conflict_exit_1(self, capsys, tmp_path):
        path = tmp_path / "mm.json"
        write_state_file(np.eye(4) / 4, path)
        code, _, err = run(
            capsys, "point", "--family", "alpha", "--param", "0.5",
            "--in", str(path),
        )
        assert code == 1
        assert "usage error" in err

    def test_family_without_param_exit_1(self, capsys):
        code, _, err = run(capsys, "point", "--family", "werner")
        assert code == 1

    @pytest.mark.parametrize(
        "argv,need",
        [
            (["--family", "twoparam", "--param", "0.5"], "--param and --param2"),
            (
                ["--family", "alpha", "--param", "0.5", "--param2", "0.3"],
                "--param and no --param2",
            ),
        ],
    )
    def test_param_count_against_kind_exit_1(self, capsys, argv, need):
        # twoparam takes (a, b), every other kind one parameter: a wrong count
        # is a usage error, not a validation error of the state
        code, out, err = run(capsys, "point", *argv)
        assert code == 1
        assert out == ""
        assert err == f"usage error: --family {argv[1]} takes {need}\n"

    @pytest.mark.parametrize("flag", ["--param", "--param2"])
    def test_param_without_family_exit_1(self, capsys, tmp_path, flag):
        # a family parameter with --in would be dropped, not used
        path = tmp_path / "mm.json"
        write_state_file(np.eye(4) / 4, path)
        dest = tmp_path / "never.json"
        for out_args in ([], ["--out", str(dest)]):
            code, out, err = run(
                capsys, "point", "--in", str(path), flag, "0.3", *out_args
            )
            assert code == 1
            assert out == ""
            assert err == "usage error: --param and --param2 require --family\n"
        assert not dest.exists()

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "point", "--family", "beta", "--param", "0.8",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 2
        row = dict(zip(CSV_HEADER, rows[1]))
        assert row["family"] == "beta"
        assert float(row["discord"]) == pytest.approx(0.278072, abs=1e-4)
        assert row["seed"] == ""  # point takes no seed, so none is recorded


class TestCsvContract:
    def test_header_and_round_trip(self, capsys, tmp_path):
        dest = tmp_path / "batch.csv"
        code, _, _ = run(
            capsys, "sample", "--n", "4", "--seed", "7", "--out", str(dest)
        )
        assert code == 0
        text = dest.read_bytes().decode()
        assert "\r\n" in text
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 5
        # 17-significant-digit formatting must round-trip bitwise
        for row in rows[1:]:
            rec = dict(zip(CSV_HEADER, row))
            x = float(rec["discord"])
            assert format(x, ".17g") == rec["discord"]
            assert float(format(x, ".17g")) == x

    def test_sweep_curve_csv(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "beta", "--plane", "eof-q", "--n", "9"
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 10
        last = dict(zip(CSV_HEADER, rows[-1]))
        assert last["provenance"] == "curve:eof-q"
        assert float(last["eof"]) == pytest.approx(1.0)
        assert float(last["discord"]) == pytest.approx(1.0)
        assert last["S_L"] == ""  # off-plane columns stay empty

    def test_near_batch_has_family_columns(self, capsys):
        code, out, _ = run(
            capsys, "near", "--family", "werner", "--n", "3",
            "--epsilon", "0.001", "--seed", "1",
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert len(rows) == 4
        for row in rows[1:]:
            rec = dict(zip(CSV_HEADER, row))
            assert rec["family"] == "werner"
            assert -1 / 3 <= float(rec["param1"]) <= 1


REPORT_KEYS = ["n_checked", "n_violations", "worst_violation", "min_margin", "offenders"]


class TestVerify:
    def test_eof_q_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "20", "--seed", "3")
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == REPORT_KEYS + ["seed", "n", "plane"]
        assert obj["n_checked"] == 20
        assert obj["n_violations"] == 0
        assert obj["plane"] == "eof-q"
        assert obj["seed"] == 3

    def test_sl_q_gates_on_entropy(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--plane", "sl-q", "--n", "20", "--seed", "3"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["n_violations"] == 0
        assert list(obj) == REPORT_KEYS + [
            "informational_above_8_9", "seed", "n", "plane"
        ]

    def test_sl_q_nothing_below_pimple_exit_2(self, capsys, tmp_path):
        # the one state of seed 544 has S_L = 0.8965 > 8/9: nothing to gate
        dest = tmp_path / "out.json"
        code, out, err = run(
            capsys, "verify", "--plane", "sl-q", "--n", "1", "--seed", "544",
            "--out", str(dest),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("validation error: no state of the batch has S_L <= 8/9")
        assert not dest.exists()

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "verify", "--n", "10", "--seed", "5")
        _, out2, _ = run(capsys, "verify", "--n", "10", "--seed", "5")
        assert out1 == out2

    @pytest.mark.parametrize("plane", ["eof-q", "sl-q"])
    @pytest.mark.parametrize("slack", ["nan", "inf", "-inf"])
    def test_non_finite_slack_exit_2(self, capsys, plane, slack):
        code, out, err = run(
            capsys, "verify", "--plane", plane, "--n", "3", f"--slack={slack}"
        )
        assert code == 2
        assert out == ""
        assert err == f"validation error: slack must be finite, got {slack}\n"

    @pytest.mark.parametrize("plane", ["eof-q", "sl-q"])
    def test_bad_slack_rejected_before_sampling(self, capsys, monkeypatch, plane):
        def sample_random(n, seed):
            raise AssertionError("sampled before the slack was checked")

        monkeypatch.setattr(bounds, "sample_random", sample_random)
        code, _, err = run(capsys, "verify", "--plane", plane, "--slack", "nan")
        assert code == 2
        assert err == "validation error: slack must be finite, got nan\n"


class TestBatchArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--n", "0"),
            ("near", "--family", "beta", "--n", "0"),
            ("verify", "--n", "0"),
            ("verify", "--plane", "sl-q", "--n", "0"),
        ],
    )
    def test_n_zero_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "validation error: n must be >= 1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--n", "2", "--seed", "-1"),
            ("near", "--family", "alpha", "--n", "2", "--seed", "-3"),
            ("verify", "--n", "2", "--seed", "-1"),
            ("verify", "--plane", "sl-q", "--n", "2", "--seed", "-1"),
        ],
    )
    def test_negative_seed_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "validation error: seed must be >= 0\n"

    @pytest.mark.parametrize("eps", ["1.5", "2", "-0.1"])
    def test_epsilon_out_of_range_exit_2(self, capsys, eps):
        code, _, err = run(
            capsys, "near", "--family", "alpha", "--n", "2", "--epsilon", eps
        )
        assert code == 2
        assert err == "validation error: epsilon must be in [0, 1]\n"

    def test_epsilon_one_is_a_random_batch(self, capsys):
        code, out, _ = run(
            capsys, "near", "--family", "alpha", "--n", "2", "--epsilon", "1"
        )
        assert code == 0
        assert len(list(csv.reader(out.splitlines()))) == 3


class TestCrossover:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "crossover")
        assert code == 0
        obj = json.loads(out)
        assert obj["alpha_werner"]["eof"] == pytest.approx(0.620, abs=0.01)
        assert obj["alpha_werner"]["discord"] == pytest.approx(0.644, abs=0.01)
        assert obj["werner_pure"]["eof"] == pytest.approx(0.746, abs=0.01)


class TestParserReuse:
    """main parses with one parser per process: each call must give the exit
    code, output and parsed options of a call on a fresh parser."""

    SEQUENCE = [
        ("verify", "--slack", "0.25", "--plane", "xy"),  # usage error after --slack
        ("verify", "--slack", "0.5", "--n", "3"),
        ("verify", "--n", "3"),
        ("sample", "--n", "2"),
    ]

    def test_calls_in_sequence_match_fresh_calls(self, capsys, monkeypatch):
        parsed = []
        for name, command in list(cli.COMMANDS.items()):

            def spy(args, command=command):
                parsed.append(dict(vars(args)))
                return command(args)

            monkeypatch.setitem(cli.COMMANDS, name, spy)
        in_sequence = [run(capsys, *argv) for argv in self.SEQUENCE]
        n_parsed = len(parsed)
        fresh = []
        for argv in self.SEQUENCE:
            monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
            fresh.append(run(capsys, *argv))
        assert in_sequence == fresh
        assert parsed[n_parsed:] == parsed[:n_parsed]
        assert [code for code, _, _ in in_sequence] == [1, 0, 0, 0]
        # the usage error reached no command; no option value carries over
        assert [args["slack"] for args in parsed[:2]] == [0.5, bounds.DEFAULT_SLACK]
        assert "seed" in parsed[2] and "slack" not in parsed[2]


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_bad_plane(self, capsys):
        code, _, _ = run(capsys, "sweep", "--family", "beta", "--plane", "xy")
        assert code == 1

    @pytest.mark.parametrize(
        "flag",
        [("--grid-theta", "12"), ("--grid-phi", "24"), ("--restarts", "2")],
        ids=lambda f: f[0],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ("point", "--family", "alpha", "--param", "0.5"),
            ("sweep", "--family", "werner", "--n", "4"),
            ("sample", "--n", "2"),
            ("near", "--family", "beta", "--n", "2"),
            ("verify", "--n", "2"),
            ("crossover",),
        ],
        ids=lambda a: a[0],
    )
    def test_bounds_commands_take_no_optimizer_flags(
        self, capsys, tmp_path, argv, flag
    ):
        # the discord search budget is fixed: no command takes a budget flag
        dest = tmp_path / "never.out"
        code, out, err = run(capsys, *argv, *flag, "--out", str(dest))
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: unrecognized arguments")
        assert not dest.exists()

    @pytest.mark.parametrize("flag", ["--param", "--param2"])
    def test_near_takes_no_family_parameter(self, capsys, tmp_path, flag):
        # near draws its family parameters; only point builds one from flags
        dest = tmp_path / "never.out"
        code, out, err = run(
            capsys, "near", "--family", "beta", flag, "0.3", "--out", str(dest)
        )
        assert code == 1
        assert out == ""
        assert err == f"usage error: unrecognized arguments: {flag} 0.3\n"
        assert not dest.exists()

    @pytest.mark.parametrize("flag", ["--param", "--param2"])
    def test_sweep_takes_no_family_parameter(self, capsys, tmp_path, flag):
        # a sweep spans its family's whole range; only point builds one
        # member from flags
        dest = tmp_path / "never.out"
        code, out, err = run(
            capsys, "sweep", "--family", "beta", flag, "0.3", "--n", "3",
            "--out", str(dest),
        )
        assert code == 1
        assert out == ""
        assert err == f"usage error: unrecognized arguments: {flag} 0.3\n"
        assert not dest.exists()

    @pytest.mark.parametrize(
        "argv,fmt",
        [
            (("sweep", "--family", "werner", "--n", "4"), "json"),
            (("sample", "--n", "2"), "json"),
            (("near", "--family", "beta", "--n", "2"), "json"),
            (("verify", "--n", "2"), "csv"),
            (("crossover",), "csv"),
        ],
        ids=lambda a: a[0] if isinstance(a, tuple) else a,
    )
    def test_format_the_command_does_not_emit_exit_1(
        self, capsys, tmp_path, argv, fmt
    ):
        # only point emits both; every other command emits one format
        dest = tmp_path / "never.out"
        code, out, err = run(capsys, *argv, "--format", fmt, "--out", str(dest))
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:")
        assert f"invalid choice: '{fmt}'" in err
        assert not dest.exists()

    @pytest.mark.parametrize(
        "argv,fmt",
        [
            (("sweep", "--family", "werner", "--n", "4"), "csv"),
            (("sample", "--n", "2"), "csv"),
            (("verify", "--n", "2"), "json"),
            (("crossover",), "json"),
        ],
        ids=lambda a: a[0] if isinstance(a, tuple) else a,
    )
    def test_the_emitted_format_is_accepted(self, capsys, argv, fmt):
        assert run(capsys, *argv, "--format", fmt) == run(capsys, *argv)

    def test_no_partial_output_on_usage_error(self, capsys, tmp_path):
        dest = tmp_path / "never.csv"
        code, _, _ = run(
            capsys, "sweep", "--plane", "eof-q", "--out", str(dest)
        )  # missing required --family
        assert code == 1
        assert not dest.exists()

    def test_unwritable_out_exit_3(self, capsys):
        code, _, err = run(
            capsys, "point", "--family", "alpha", "--param", "0.5",
            "--out", "/nonexistent-dir/x.json",
        )
        assert code == 3
        assert "i/o error" in err


class TestNotConverged:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--n", "4"),
            ("near", "--family", "beta", "--n", "4"),
            ("verify", "--n", "4"),
            ("verify", "--plane", "sl-q", "--n", "4"),
        ],
    )
    def test_exit_4_names_the_states(self, capsys, monkeypatch, tmp_path, argv):
        def engine(rhos):
            raise OptimizerDidNotConverge("2 state(s) did not converge", [1, 3])

        monkeypatch.setattr(bounds, "discord_batch", engine)
        dest = tmp_path / "never.csv"
        code, out, err = run(capsys, *argv, "--out", str(dest))
        assert code == EXIT_NOT_CONVERGED == 4
        assert out == ""
        assert err == "not converged: 2 state(s) did not converge (states 1, 3)\n"
        assert not dest.exists()

    def test_point_exit_4(self, capsys, monkeypatch):
        def engine(rho):
            raise OptimizerDidNotConverge("1 state(s) did not converge", [0])

        monkeypatch.setattr("qdiscord.cli.discord_numeric", engine)
        code, _, err = run(capsys, "point", "--family", "alpha", "--param", "0.5")
        assert code == 4
        assert "(states 0)" in err


class TestRuntimeDependencies:
    def test_cli_import_loads_no_scipy(self):
        # the runtime needs numpy only; scipy is a test-only oracle
        code = (
            "import sys, qdiscord.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy'}))"
        )
        src = str(Path(qdiscord.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        assert proc.stdout.strip() == "[]"


class TestDigestComparison:
    """scripts/cli_digests.py --against: per command, `same`, `layout
    differs`, or the count of differing numeric fields and the largest
    absolute difference."""

    @pytest.fixture(scope="class")
    def compare(self):
        path = Path(__file__).resolve().parents[1] / "scripts" / "cli_digests.py"
        spec = importlib.util.spec_from_file_location("cli_digests", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.compare

    def test_numeric_fields(self, compare):
        csv_a = b"i,x,y\r\n0,0.5,1e-16\r\n1,2,3\r\n"
        assert compare(csv_a, csv_a) == "same"
        csv_b = b"i,x,y\r\n0,0.5,4e-16\r\n1,2.5,3\r\n"
        assert compare(csv_a, csv_b) == "2 numeric fields differ, max |d| 0.5"
        json_a, json_b = b'{"m": 0.1, "v": 1}', b'{"m": 0.1, "v": NaN}'
        assert compare(json_a, json_b) == "1 numeric fields differ, max |d| nan"

    @pytest.mark.parametrize(
        "other",
        [b"i,z\r\n0,0.5\r\n", b"i,x\r\n0,0.5,1\r\n", b"i,x\r\n0, 0.5\r\n"],
        ids=["text", "field count", "spacing"],
    )
    def test_layout(self, compare, other):
        assert compare(b"i,x\r\n0,0.5\r\n", other) == "layout differs"
