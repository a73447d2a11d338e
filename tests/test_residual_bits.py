"""Every residual bit of the recorded verify runs, cold and warm memos alike, against tests/residual_bits.json."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import residual_bits

# In a fresh process, every module-level dict that elliptic, batch, grassmann, superfunc or rmatrix hands to
# elliptic._remember while one basis and one heat sample run; printed as JSON: their names, then those that
# residual_bits.empty_caches() leaves non-empty
_MEMO_SCRIPT = """
import json
import numpy as np
import residual_bits
from superkron import batch, elliptic, grassmann, rmatrix, suites, superfunc

modules, passed, remember = (elliptic, batch, grassmann, superfunc, rmatrix), [], elliptic._remember

def recording(memo, *args):
    passed.append(memo)
    return remember(memo, *args)

for module in modules:
    if hasattr(module, "_remember"):
        module._remember = recording
rng = np.random.default_rng(5)
for suite in ("basis", "heat"):
    cfg = suites.VerifyConfig(n=2)
    suites.replay_sample(suite, suites._SUITES[suite][0](rng, cfg), cfg)
memos = {f"{m.__name__}.{name}": v for m in modules for name, v in vars(m).items()
         if isinstance(v, dict) and any(v is p for p in passed)}
residual_bits.empty_caches()
print(json.dumps([sorted(memos), sorted(name for name, memo in memos.items() if memo)]))
"""


def test_residuals_match_the_record():
    record = json.loads(residual_bits.RECORD.read_text(encoding="utf-8"))
    here = residual_bits.environment()
    if record["environment"] != here:
        pytest.skip(f"record made on {record['environment']}, this is {here}")
    cold, warm = residual_bits.compute()
    assert cold.keys() == warm.keys() == record["runs"].keys()
    for name, reports in record["runs"].items():
        assert cold[name] == warm[name] == reports, name


def test_empty_caches_empties_every_process_memo(tmp_path):
    # a fresh process starts with every memo cold, so each one a sample fills passes through _remember; a
    # memo that empty_caches leaves full would make the cold run of residual_bits.py warm
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _MEMO_SCRIPT], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    memos, left = json.loads(proc.stdout)
    assert {"superkron.superfunc._PHI_TERMS", "superkron.rmatrix._TEMPLATES", "superkron.elliptic._SQUARES"} <= set(memos)
    assert left == []
