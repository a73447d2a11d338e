"""Exit codes, stderr, warnings and reports of the Tier-1 slice of the contract corpus, against tests/contract_corpus.json."""

import json

import pytest

import contract_corpus
import residual_bits


def test_contract_slice_matches_the_record():
    record = json.loads(contract_corpus.RECORD.read_text(encoding="utf-8"))
    here = residual_bits.environment()
    if record["environment"] != here:
        pytest.skip(f"record made on {record['environment']}, this is {here}")
    assert set(contract_corpus.SLICE) <= set(record["runs"])
    fresh = contract_corpus.compute(contract_corpus.SLICE)
    assert contract_corpus.diff({line: record["runs"][line] for line in contract_corpus.SLICE}, fresh) == []
