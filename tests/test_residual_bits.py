"""Every residual bit of the recorded verify runs, cold and warm memos alike, against tests/residual_bits.json."""

import json

import pytest

import residual_bits


def test_residuals_match_the_record():
    record = json.loads(residual_bits.RECORD.read_text(encoding="utf-8"))
    here = residual_bits.environment()
    if record["environment"] != here:
        pytest.skip(f"record made on {record['environment']}, this is {here}")
    cold, warm = residual_bits.compute()
    assert cold.keys() == warm.keys() == record["runs"].keys()
    for name, reports in record["runs"].items():
        assert cold[name] == warm[name] == reports, name
