"""Configuration, determinism, and process-level behavior of the verifier."""

import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import superkron
from superkron import cli, suites
from superkron.suites import (
    SUITE_NAMES,
    SuiteReport,
    VerifyConfig,
    replay_sample,
    run_suites,
)

FAST = VerifyConfig(samples=3)
REPORT_KEYS = {"suite", "samples", "max_residual", "worst_inputs", "pass", "seconds", "redraws"}


def test_suite_name_catalog():
    assert SUITE_NAMES == (
        "theta",
        "kronecker",
        "fay",
        "heat",
        "periodicity",
        "basis",
        "cybe",
        "aybe",
        "degenerations",
    )


def test_config_validation():
    with pytest.raises(ValueError):
        VerifyConfig(tau=0.3 - 1.1j)
    with pytest.raises(ValueError):
        VerifyConfig(samples=0)
    with pytest.raises(ValueError):
        VerifyConfig(tol_relative=1e-17)
    with pytest.raises(ValueError):
        VerifyConfig(n=0)
    with pytest.raises(ValueError):
        VerifyConfig(kind="fancy")
    with pytest.raises(ValueError):
        VerifyConfig(suites=("theta", "nope"))
    with pytest.raises(ValueError):
        VerifyConfig(output="xml")


def test_selected_suites_canonical_order():
    cfg = VerifyConfig(suites=("fay", "theta"))
    assert cfg.selected() == ("theta", "fay")
    assert VerifyConfig(suites=("all",)).selected() == SUITE_NAMES


def test_run_suites_is_deterministic():
    cfg = VerifyConfig(samples=3, suites=("theta", "kronecker", "fay"))
    a = [r.to_dict() for r in run_suites(cfg)]
    b = [r.to_dict() for r in run_suites(cfg)]
    for ra, rb in zip(a, b):
        ra.pop("seconds")
        rb.pop("seconds")
    assert a == b


def test_kronecker_runs_the_elliptic_kernel_under_every_kind():
    # a degenerate kernel would compare cells equal by construction
    want = run_suites(VerifyConfig(samples=5, suites=("kronecker",)))[0]
    for kind in ("trig", "rational"):
        got = run_suites(VerifyConfig(samples=5, suites=("kronecker",), kind=kind))[0]
        assert got.max_residual.hex() == want.max_residual.hex() and got.max_residual > 0
        assert got.worst_inputs == want.worst_inputs


def test_suite_results_independent_of_selection():
    # each suite draws from its own named stream, so running it alone
    # reproduces the value it gets inside a larger selection
    solo = run_suites(VerifyConfig(samples=3, suites=("heat",)))[0]
    grouped = run_suites(VerifyConfig(samples=3, suites=("fay", "heat", "cybe")))
    match = [r for r in grouped if r.suite == "heat"][0]
    assert solo.max_residual == match.max_residual
    assert solo.worst_inputs == match.worst_inputs


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_replay_reproduces_worst_sample(name):
    cfg = VerifyConfig(samples=3, suites=(name,))
    report = run_suites(cfg)[0]
    again = replay_sample(name, report.worst_inputs, cfg)
    assert again == report.max_residual


def _per_draw_cells(rng, tau, names):
    """The cell sampler drawn one coordinate at a time, x then y per name: the reference for suites._cells."""
    out = {}
    for name in names:
        x = rng.uniform(0.1, 0.9)
        y = rng.uniform(0.1, 0.9)
        out[name] = suites._pair(x + y * tau)
    return out


@pytest.mark.parametrize("names", [("z",), ("hbar", "z"), ("hbar", "z1", "z2"), ("hbar1", "hbar2", "z1", "z2", "z3")])
def test_cell_sampler_draws_as_one_coordinate_at_a_time(names):
    # one draw of every coordinate gives the same doubles in the same order,
    # so a redraw (the next sample from the stream) and the basis index
    # draws that follow the cells are unchanged too
    cfg = VerifyConfig(tau=3.3 + 0.4j, n=3)
    for seed in range(40):
        a, b = suites._suite_rng(seed, "basis"), suites._suite_rng(seed, "basis")
        for _ in range(3):
            assert suites._cells(*names)(a, cfg) == _per_draw_cells(b, cfg.tau, names)
        assert a.integers(0, cfg.n, size=2).tolist() == b.integers(0, cfg.n, size=2).tolist()


def test_redrawn_samples_follow_the_per_draw_stream():
    # kronecker draws (hbar, z); with a wide pole radius some draws are
    # redrawn, and the worst sample is one of the reference stream's draws
    cfg = VerifyConfig(samples=10, suites=("kronecker",), pole_radius=0.2)
    report = run_suites(cfg)[0]
    assert report.redraws > 0
    rng = suites._suite_rng(cfg.seed, "kronecker")
    draws = [_per_draw_cells(rng, cfg.tau, ("hbar", "z")) for _ in range(cfg.samples + report.redraws)]
    assert report.worst_inputs in draws
    assert replay_sample("kronecker", report.worst_inputs, cfg) == report.max_residual


def test_report_dict_schema():
    report = run_suites(VerifyConfig(samples=2, suites=("theta",)))[0]
    d = report.to_dict()
    assert set(d) == REPORT_KEYS
    assert d["pass"] is True
    assert isinstance(d["max_residual"], float)
    assert isinstance(d["worst_inputs"], dict)
    json.dumps(d)  # everything must be serializable as-is


def test_structured_output_schema():
    cfg = VerifyConfig(samples=2, suites=("theta", "kronecker"), output="structured")
    reports = run_suites(cfg)
    payload = json.loads(cli.emit_report(reports, fmt="structured", cfg=cfg))
    assert set(payload) == {"config", "reports"}
    assert [r["suite"] for r in payload["reports"]] == ["theta", "kronecker"]
    for r in payload["reports"]:
        assert set(r) == REPORT_KEYS
    assert payload["config"]["samples"] == 2
    assert payload["config"]["tau"] == [0.3, 1.1]
    assert payload["config"]["suites"] == ["theta", "kronecker"]


def test_text_output_mentions_each_suite():
    cfg = VerifyConfig(samples=2, suites=("theta", "fay"))
    text = cli.emit_report(run_suites(cfg), fmt="text", cfg=cfg)
    assert "theta" in text and "fay" in text
    assert "PASS" in text


def test_text_output_reports_worst_inputs_on_failure():
    fail = SuiteReport(
        suite="heat",
        samples=4,
        max_residual=1.0,
        worst_inputs={"hbar": [0.1, 0.2]},
        passed=False,
        seconds=0.5,
        redraws=0,
    )
    text = cli.emit_report([fail], fmt="text")
    assert "FAIL" in text
    assert "worst inputs for heat" in text


def test_parser_defaults():
    args = cli.build_parser().parse_args(["all"])
    cfg = cli.config_from_args(args)
    assert cfg.tau == 0.3 + 1.1j
    assert cfg.samples == 200
    assert cfg.tol_relative == 1e-9
    assert cfg.selected() == SUITE_NAMES


def test_parser_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["frobnicate"])


@pytest.mark.parametrize(
    "argv",
    [
        ["theta", "--samples", "3"],
        # at N = 1 the classical operator has no channels: vacuous, not an error
        ["cybe", "--n", "1", "--samples", "2"],
        ["all", "--n", "1", "--samples", "1"],
    ],
    ids=["theta", "cybe-n1", "all-n1"],
)
def test_main_success_exit_code(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_main_failure_exit_code(capsys):
    # tight tolerance below the observed floating point noise floor
    code = cli.main(["periodicity", "--samples", "5", "--tol", "1e-15"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    assert "worst inputs" in out


def test_non_finite_residual_fails(monkeypatch, capsys):
    assert suites._rel(math.nan, 1.0) == math.inf
    assert suites._rel(1e-20, math.nan) == math.inf
    assert suites._rel(math.inf, 1.0) == math.inf
    assert max(1e-20, suites._rel(math.nan, 1.0)) == math.inf
    # the second of three samples has a NaN residual
    sample, _ = suites._SUITES["theta"]
    seen = []

    def compute(inputs, cfg):
        seen.append(inputs)
        return math.nan if len(seen) % 3 == 2 else 1e-20

    monkeypatch.setitem(suites._SUITES, "theta", (sample, compute))
    (report,) = run_suites(VerifyConfig(suites=("theta",), samples=3))
    assert not report.passed
    assert report.max_residual == math.inf
    assert report.worst_inputs == seen[1]
    assert cli.main(["theta", "--samples", "3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "worst inputs for theta" in out


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_non_finite_residual_writes_strict_json(monkeypatch, capsys):
    sample, compute = suites._SUITES["theta"]
    # finite residuals are written exactly as before: plain numbers
    cfg = VerifyConfig(suites=("theta",), samples=2, output="structured")
    reports = run_suites(cfg)
    doc = cli.emit_report(reports, "structured", cfg)
    records = [
        {"suite": r.suite, "samples": r.samples, "max_residual": r.max_residual,
         "worst_inputs": r.worst_inputs, "pass": r.passed, "seconds": r.seconds,
         "redraws": r.redraws}
        for r in reports
    ]
    legacy = {"reports": records, "config": cli._config_dict(cfg)}
    assert doc == json.dumps(legacy, indent=2, sort_keys=True)
    assert json.loads(doc, parse_constant=_reject_constant)["reports"][0]["max_residual"] == reports[0].max_residual
    # a NaN residual is reported as infinity and written as the string "inf"
    monkeypatch.setitem(suites._SUITES, "theta", (sample, lambda inputs, cfg: math.nan))
    assert cli.main(["theta", "--samples", "2", "--output", "structured"]) == 1
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    (rec,) = payload["reports"]
    assert rec["max_residual"] == "inf"
    assert rec["pass"] is False


def test_pole_redraws_are_counted_and_repeat():
    assert run_suites(VerifyConfig(samples=3, suites=("theta",)))[0].redraws == 0
    cfg = VerifyConfig(samples=10, suites=("kronecker",), pole_radius=0.2)
    first, again = run_suites(cfg)[0], run_suites(cfg)[0]
    assert first.redraws > 0
    assert again.redraws == first.redraws
    assert first.to_dict()["redraws"] == first.redraws


def test_out_of_memory_exits_2_with_one_line(monkeypatch, capsys):
    sample, _ = suites._SUITES["cybe"]

    def compute(inputs, cfg):
        raise MemoryError

    monkeypatch.setitem(suites._SUITES, "cybe", (sample, compute))
    assert cli.main(["cybe", "--n", "40", "--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "--n 40" in captured.err and "invalid configuration" in captured.err


def test_main_invalid_config_exit_code(capsys):
    code = cli.main(["theta", "--tau-im", "-1.0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip()
    assert cli.main(["theta", "--tol", "1e-30"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["heat", "--tau-re", "nan"],
        ["theta", "--tau-im", "nan"],
        ["theta", "--tau-im", "inf"],
        ["theta", "--pole-radius", "nan"],
        ["theta", "--pole-radius", "inf", "--samples", "1"],
        ["heat", "--pole-radius", "0.6"],
        ["theta", "--seed", "-1"],
        ["theta", "--tau-im", "1000"],
        ["theta", "--tau-im", "1e-4"],
        ["theta", "--samples", "1", "--out", "no-such-directory/r.json"],
        ["theta", "--samples", "1", "--out", "."],
        ["theta", "--samples", "1", "--tol", "inf", "--output", "structured"],
        ["cybe", "--tau-im", "260", "--samples", "2"],
        # a lattice multiplier overflows; its message names the point
        ["cybe", "--tau-im", "260", "--n", "4", "--samples", "2"],
        ["cybe", "--tau-im", "260", "--n", "6", "--samples", "2"],
        # a channel dressing exp(c z12) overflows; its message names c and z12
        ["cybe", "--tau-im", "300", "--n", "6", "--samples", "3"],
        ["aybe", "--tau-im", "1e-4", "--n", "2", "--samples", "1"],
        # the series of a reduced hbar + z leaves the floating-point range; its message names the point
        ["aybe", "--tau-im", "500", "--n", "2", "--samples", "1"],
        ["aybe", "--tau-im", "1e-4", "--n", "4", "--samples", "1"],
        ["aybe", "--tau-im", "500", "--n", "4", "--samples", "1"],
        ["kronecker", "--tau-re", "1e17", "--samples", "3"],
        # the series is too long before any pole is checked, also where the
        # pole check would scan about 1 / Im tau lattice rows
        *(
            [*suite, "--tau-im", im, "--samples", "2"]
            for im in ("1e-300", "5e-324")
            for suite in (["kronecker"], ["fay"], ["aybe", "--n", "2"], ["cybe", "--n", "4"])
        ),
        # every term of a series falls below the floating-point range: refused before a table divides
        # by a theta value of zero, the origin's for fay
        ["fay", "--tau-im", "1000", "--samples", "3"],
        ["aybe", "--tau-im", "947", "--n", "2", "--samples", "3"],
    ],
)
def test_invalid_input_exits_2_without_traceback(argv, tmp_path):
    # a separate process, so the exit status and stderr are the real ones;
    # it runs in an empty directory, so relative --out paths mean the same
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "superkron.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert "invalid configuration" in proc.stderr
    assert "Traceback" not in proc.stderr
    # the message is the whole of stderr: no numpy RuntimeWarning precedes it
    assert len(proc.stderr.strip().splitlines()) == 1
    if "--tau-im" in argv and float(argv[argv.index("--tau-im") + 1]) < 1e-3:
        assert "series needs more than 200 frequency pairs" in proc.stderr
    if "--tau-im" in argv and float(argv[argv.index("--tau-im") + 1]) in (260, 500):
        assert "z=" in proc.stderr
    if "--tau-im" in argv and float(argv[argv.index("--tau-im") + 1]) == 300:
        assert "exponential dressing" in proc.stderr and "z12=" in proc.stderr
    if argv[0] in ("fay", "aybe") and "--tau-im" in argv and float(argv[argv.index("--tau-im") + 1]) >= 947:
        assert "series terms fall below the floating-point range (z=" in proc.stderr
        assert argv[0] != "fay" or "(z=0j, tau=(0.3+1000j))" in proc.stderr


def test_theta_overflow_names_its_point(capsys):
    # far out in the modulus the series of z + tau is refused before the
    # quasi-periodicity factor exp(-i pi tau - 2 pi i z) can overflow, so
    # the message names the point
    assert cli.main(["theta", "--tau-im", "150", "--samples", "20"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: series term exceeds the floating-point range (z=")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("n", ["3", "4", "6"])
def test_series_error_comes_before_pole_redraws(n, capsys):
    # at Im tau = 1e-4 the lattice is so dense that most draws land near a
    # pole; the series length is decided first, so every N reports it
    assert cli.main(["cybe", "--tau-im", "1e-4", "--n", n, "--samples", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: series needs more than 200 frequency pairs")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (["theta", "--samples", "3", "--output", "structured"], 0),
        (["theta", "--samples", "3", "--tol", "3e-16"], 1),
    ],
)
def test_closed_stdout_keeps_exit_code(argv, code, tmp_path):
    # the reader closes the pipe before the report is written, as
    # verify ... | head can; the verdict code must survive it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "superkron.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == code
    assert err == ""


def test_batch_loads_with_the_first_channel_sum(tmp_path):
    # the scalar suites tabulate point by point and never load the batch
    # module, so the benchmark's kernel and graded workloads set up without it
    script = (
        "import sys\n"
        "from superkron import cli\n"
        "for suite in ('kronecker', 'theta', 'fay', 'basis'):\n"
        "    assert cli.main([suite, '--samples', '2']) == 0\n"
        "print('superkron.batch' in sys.modules, file=sys.stderr)\n"
        "assert cli.main(['cybe', '--n', '2', '--samples', '1']) == 0\n"
        "print('superkron.batch' in sys.modules, file=sys.stderr)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["False", "True"]


def test_every_export_resolves():
    modules = [superkron] + [
        importlib.import_module(f"superkron.{info.name}") for info in pkgutil.iter_modules(superkron.__path__)
    ]
    for module in modules:
        namespace: dict = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(module.__all__) <= set(namespace), module.__name__


def test_main_structured_stdout(capsys):
    code = cli.main(["kronecker", "--samples", "3", "--output", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["reports"][0]["suite"] == "kronecker"
    assert payload["reports"][0]["pass"] is True


def test_main_writes_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = cli.main(
        ["theta", "--samples", "3", "--output", "structured", "--out", str(target)]
    )
    capsys.readouterr()
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["reports"][0]["suite"] == "theta"


def test_main_accepts_kind_and_truncated(capsys):
    code = cli.main(["fay", "--samples", "3", "--kind", "rational", "--truncated"])
    capsys.readouterr()
    assert code == 0
