import csv
import io
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import reference_csv_text

from qdiscord import bounds, cli
from qdiscord.bounds import BoundaryCurve, SampleBatch
from qdiscord.io import CSV_HEADER, csv_text, read_state_file, write_state_file
from qdiscord.measures import CorrelationRecord, discord_numeric
from qdiscord.states import FAMILY_KINDS, Family, random_state


def assert_matches_reference(obj):
    text = csv_text(obj)
    assert text == reference_csv_text(obj)
    return text


class TestCsvOracle:
    """io.csv_text byte for byte against csv.writer on formatted fields."""

    def test_random_batch(self):
        assert_matches_reference(bounds.sample_random(40, 3))

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_near_batch(self, kind):
        batch = bounds.sample_near_boundary(kind, 20, 1e-3, 5)
        # twoparam writes its p2, the other families leave it empty
        assert all((f.p2 is None) == (kind != "twoparam") for f in batch.families)
        assert_matches_reference(batch)

    def test_point_from_state_file(self, capsys, tmp_path):
        path = str(tmp_path / "s.json")
        write_state_file(random_state(8), path)
        assert cli.main(["point", "--in", path, "--format", "csv"]) == 0
        batch = SampleBatch(
            records=[discord_numeric(read_state_file(path))],
            seeds=[None],
            provenance="point",
            families=[None],
        )
        assert capsys.readouterr().out == assert_matches_reference(batch)

    @pytest.mark.parametrize("key", list(bounds._SWEEP_RANGES), ids="-".join)
    def test_sweep_curve(self, key):
        assert_matches_reference(bounds.sweep_family(*key, resolution=33))

    def test_special_floats_and_seeds(self):
        values = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, 1.0, 2.0**70]
        recs = [
            CorrelationRecord(*values),
            CorrelationRecord(*values[::-1]),
            CorrelationRecord(*values[3:] + values[:3]),
        ]
        batch = SampleBatch(
            records=recs,
            seeds=[2**64 - 1, None, 0],
            provenance="hand-made",
            families=[Family("twoparam", 0.25, -0.75), None, Family("werner", -1 / 3)],
        )
        text = assert_matches_reference(batch)
        assert "18446744073709551615" in text and ",-0," in text

    def test_free_text_quoted(self):
        recs = bounds.sample_random(3, 1).records
        fams = [SimpleNamespace(kind='fam,"ily"', p1=0.5, p2=None), None, None]
        batch = SampleBatch(recs, [1, 2, 3], 'a,"b"\r\nc', fams)
        text = assert_matches_reference(batch)
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows[0] == CSV_HEADER and len(rows) == 4
        assert {r[1] for r in rows[1:]} == {'a,"b"\r\nc'}
        assert rows[1][2] == 'fam,"ily"'

    @pytest.mark.parametrize("plane", ["eof-q", "sl-q%d"])
    def test_curve_free_text_with_percent(self, plane):
        p = np.linspace(0.0, 1.0, 5)
        curve = BoundaryCurve(plane, '50%,"x"', p, p * p, 1.0 - p)
        text = assert_matches_reference(curve)
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows[1][1:3] == [f"curve:{plane}", '50%,"x"']

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            csv_text([1.0, 2.0])

    @pytest.mark.parametrize("field", ["seeds", "families"])
    def test_batch_changed_to_unequal_lengths_raises(self, field):
        # SampleBatch checks the lengths when built; a list shortened
        # afterwards must not drop a row from the CSV either, and the error
        # names the list
        batch = bounds.sample_random(3, 1)
        getattr(batch, field).pop()
        with pytest.raises(ValueError, match=f"2 {field} for 3 records"):
            csv_text(batch)
