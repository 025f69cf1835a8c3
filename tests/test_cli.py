"""Command line surface: output formats, exit codes, determinism.

Everything runs in process through main(argv); subprocess tests at the
end confirm the installed console script and `python -m eigenprod.cli`
reach it.
"""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import eigenprod
from eigenprod.cli import (
    EXIT_FAILURE,
    EXIT_INCONCLUSIVE,
    EXIT_MISSING_FIXTURE,
    EXIT_OK,
    EXIT_TABLE_MISMATCH,
    EXIT_USAGE,
    RunConfig,
    main,
)


def test_exit_code_values_are_distinct():
    codes = [EXIT_OK, EXIT_FAILURE, EXIT_INCONCLUSIVE, EXIT_TABLE_MISMATCH,
             EXIT_MISSING_FIXTURE, EXIT_USAGE]
    assert codes == [0, 1, 2, 3, 4, 64]


# ---------------------------------------------------------------------------
# Small commands


def test_zeta_command(capsys):
    assert main(["zeta", "5", "2"]) == 0
    assert capsys.readouterr().out == "1/30\n"
    assert main(["zeta", "13", "4"]) == 0
    assert capsys.readouterr().out.strip() == "29/60"


def test_zeta_rejects_non_fundamental(capsys):
    assert main(["zeta", "15", "2"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "eigenprod: error:" in err
    assert "not a real quadratic fundamental" in err


def test_field_command(capsys):
    assert main(["field", "13"]) == 0
    assert capsys.readouterr().out == (
        "discriminant: 13\n"
        "radicand: 13\n"
        "splitting of 2: Inert\n"
        "narrow class number: 1\n"
    )


def test_scan_command(capsys):
    assert main(["scan", "100", "12"]) == 0
    assert capsys.readouterr().out == "(5, 2, 2)\n"


def test_demo_sqrt5_command(capsys):
    assert main(["demo-sqrt5", "10"]) == 0
    out = capsys.readouterr().out
    assert "scalar from constant terms: 60" in out
    assert "constant term check: 60 * (1/120)^2 = 1/240: ok" in out
    assert "coefficients compared up to trace 10: 25" in out
    assert out.endswith("all coefficients verified: E4 = 60*E2^2\n")


# ---------------------------------------------------------------------------
# Argument validation


def test_run_config_invariants():
    with pytest.raises(ValueError):
        RunConfig(base_precision=4)
    with pytest.raises(ValueError):
        RunConfig(base_precision=256, precision_ceiling=128)
    with pytest.raises(ValueError):
        RunConfig(d_limit=40)
    with pytest.raises(ValueError):
        RunConfig(n_max=5)
    with pytest.raises(ValueError):
        RunConfig(output_format="yaml")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--precision", "4"],
        ["verify", "--d-limit", "40"],
        ["verify", "--n-max", "5"],
        ["verify", "--precision", "256", "--precision-ceiling", "128"],
    ],
)
def test_config_violations_exit_with_usage(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert "eigenprod: error:" in capsys.readouterr().err


def test_argparse_errors_use_usage_code():
    with pytest.raises(SystemExit) as info:
        main(["verify", "nonexistent-section"])
    assert info.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as info:
        main(["zeta", "5"])
    assert info.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# Verification runs


def test_verify_section_emits_report_json(capsys):
    assert main(["verify", "s3-unequal"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["section"] == "s3-unequal"
    assert blob["verdict"] == "no identity exists"
    assert blob["inconclusive"] == 0


def test_verify_markdown_format(capsys):
    assert main(["verify", "s3-equal", "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert "## table1" in out
    assert "| k |" in out


def test_verify_csv_format(capsys):
    assert main(["verify", "s3-equal", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("table1\n")


def test_verify_out_dir_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["verify", "s4-noninert", "--out-dir", str(out1)]) == 0
    assert "section s4-noninert: no identity exists" in capsys.readouterr().out
    assert main(["verify", "s4-noninert", "--out-dir", str(out2)]) == 0
    capsys.readouterr()
    report1 = (out1 / "report-s4-noninert.json").read_bytes()
    report2 = (out2 / "report-s4-noninert.json").read_bytes()
    assert report1 == report2
    blob = json.loads(report1)
    assert blob["verdict"] == "no identity exists"


def test_verify_out_dir_writes_tables(tmp_path):
    out = tmp_path / "md"
    assert main(
        ["verify", "s3-equal", "--format", "markdown", "--out-dir", str(out)]
    ) == 0
    assert (out / "report-s3-equal.json").exists()
    table_text = (out / "tables-s3-equal.md").read_text(encoding="utf-8")
    assert "## table1" in table_text


def test_verify_inconclusive_exit(capsys):
    code = main(["verify", "s5", "--precision", "8", "--precision-ceiling", "8"])
    assert code == EXIT_INCONCLUSIVE
    blob = json.loads(capsys.readouterr().out)
    assert blob["verdict"] == "inconclusive"


def test_verify_golden_mismatch_exit(capsys):
    code = main(["verify", "s3-equal", "--d-limit", "1000"])
    assert code == EXIT_TABLE_MISMATCH
    captured = capsys.readouterr()
    assert "golden mismatch:" in captured.err
    assert json.loads(captured.out)["verdict"] == "no identity exists"


def test_verify_missing_fixture_exit(tmp_path, capsys):
    doc = {"version": 1, "facts": {}}
    path = tmp_path / "facts.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["verify", "s4-noninert", "--fixtures", str(path)])
    assert code == EXIT_MISSING_FIXTURE
    assert "missing fixture fact:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, data",
    [
        ("s5", "takeuchi_disc_bound", {"a": "abc", "b": "83185/10000"}),
        ("s4-noninert", "magma_dim_d8", {}),
        ("s5", "voight_min_totally_real_disc", {"3": "abc", "4": "abc", "5": "abc"}),
    ],
)
def test_verify_malformed_fixture_data_exit(tmp_path, capsys, section, key, data):
    # a fact on file with mangled data is a fixture error, not a usage error
    doc = json.loads(
        resources.files("eigenprod.data").joinpath("fixtures.json").read_text(encoding="utf-8")
    )
    doc["facts"][key]["data"] = data
    path = tmp_path / "facts.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["verify", section, "--fixtures", str(path)])
    assert code == EXIT_MISSING_FIXTURE
    err = capsys.readouterr().err
    assert err.startswith(f"malformed {key}")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "doc", [[1, 2], {"facts": []}, {"facts": {"takeuchi_disc_bound": 5}}]
)
def test_verify_malformed_fixtures_document_exit(tmp_path, capsys, doc):
    path = tmp_path / "facts.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["verify", "s5", "--fixtures", str(path)])
    assert code == EXIT_MISSING_FIXTURE
    assert capsys.readouterr().err.startswith("fixtures error: malformed fixtures document")


def test_verify_unreadable_fixtures_exit(tmp_path, capsys):
    code = main(["verify", "s5", "--fixtures", str(tmp_path / "absent.json")])
    assert code == EXIT_MISSING_FIXTURE
    assert "fixtures error:" in capsys.readouterr().err


def test_fixture_free_sections_ignore_fixture_flag(tmp_path, capsys):
    # s3 sections consume no external facts, so a bad fixtures file must
    # not affect them
    code = main(["verify", "s3-unequal", "--fixtures", str(tmp_path / "absent.json")])
    assert code == 0
    capsys.readouterr()


def _child_env():
    # the child imports the eigenprod this process imported, also when it
    # came from pytest's pythonpath setting rather than PYTHONPATH
    src = str(Path(eigenprod.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, inherited)))}


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-c", "from eigenprod.cli import main_entry; main_entry()",
         "zeta", "5", "4"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "1/60\n"


def test_module_invocation_runs_main():
    # without a __main__ guard, `python -m eigenprod.cli` ran nothing and
    # exited 0 whatever its arguments
    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "eigenprod.cli", *argv],
            capture_output=True,
            text=True,
            env=_child_env(),
        )

    ok = run("zeta", "5", "2")
    assert ok.returncode == EXIT_OK
    assert ok.stdout == "1/30\n"
    bad = run("zeta", "9", "2")
    assert bad.returncode == EXIT_USAGE
    assert bad.stdout == ""
    assert "eigenprod: error:" in bad.stderr
