"""Command line surface: output formats, exit codes, determinism.

Everything runs in process through main(argv); subprocess tests at the
end confirm the installed console script and `python -m eigenprod.cli`
reach it.
"""

import json
import os
import resource
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import eigenprod
import eigenprod.cli as cli
from eigenprod import hmf_coeffs, verify_sqrt5_identity
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
from eigenprod.exact import ZETA_MODULUS
from eigenprod.report import SURVIVOR, CandidateRecord, VerificationReport


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


@pytest.mark.parametrize(
    "argv,message",
    [
        (["scan", "-5", "20"], "the discriminant limit must be at least 5"),
        (["scan", "4", "20"], "the discriminant limit must be at least 5"),
        (["scan", "1000", "1"], "the weight limit must be at least 2"),
    ],
)
def test_scan_rejects_empty_range(argv, message, capsys):
    # an empty field or weight range is a usage error, not a silent pass
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"eigenprod: error: {message}\n"


def test_demo_sqrt5_command(capsys):
    assert main(["demo-sqrt5", "10"]) == 0
    out = capsys.readouterr().out
    assert "scalar from constant terms: 60" in out
    assert "constant term check: 60 * (1/120)^2 = 1/240: ok" in out
    assert "coefficients compared up to trace 10: 25" in out
    assert out.endswith("all coefficients verified: E4 = 60*E2^2\n")


@pytest.mark.parametrize("bound", [0, 1])
def test_demo_sqrt5_below_trace_2_claims_only_the_constant_term(capsys, bound):
    # no totally positive element has trace 0 or 1, so no coefficient is
    # compared and the identity is not verified beyond its constant term
    assert main(["demo-sqrt5", str(bound)]) == 0
    out = capsys.readouterr().out
    assert f"coefficients compared up to trace {bound}: 0" in out
    assert "verified" not in out
    assert out.endswith(
        "only the constant term was checked: no totally positive element "
        "of Q(sqrt 5) has trace below 2\n"
    )


@pytest.mark.parametrize("bound", [0, 1])
def test_demo_sqrt5_below_trace_2_full_output(capsys, bound):
    assert main(["demo-sqrt5", str(bound)]) == 0
    assert capsys.readouterr().out == (
        "scalar from constant terms: 60\n"
        "constant term check: 60 * (1/120)^2 = 1/240: ok\n"
        f"coefficients compared up to trace {bound}: 0\n"
        "only the constant term was checked: no totally positive element "
        "of Q(sqrt 5) has trace below 2\n"
    )


def _demo_output(bound, compared):
    return (
        "scalar from constant terms: 60\n"
        "constant term check: 60 * (1/120)^2 = 1/240: ok\n"
        f"coefficients compared up to trace {bound}: {compared}\n"
        "all coefficients verified: E4 = 60*E2^2\n"
    )


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["demo-sqrt5", "50"], _demo_output(50, 571)),
        (["demo-sqrt5", "80"], _demo_output(80, 1448)),
        (["demo-sqrt5", "120"], _demo_output(120, 3246)),
        (["scan", "1000", "20"], "(5, 2, 2)\n"),
    ],
    ids=["demo-sqrt5-50", "demo-sqrt5-80", "demo-sqrt5-120", "scan-1000-20"],
)
def test_benchmark_reference_outputs(argv, expected, capsys):
    # the full stdout of the exact-arith benchmark's commands, byte for byte,
    # and of a demo at a larger trace bound
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == expected


def test_demo_sqrt5_reports_a_wrong_divisor_sum(monkeypatch, capsys):
    # one E_4 divisor sum off by one: exactly that nu is listed, and the
    # demo fails; (2 + omega) generates the ramified prime, sigma_3 = 126.
    # factor_ideal is memoised, so the table reads this very ideal object
    # for 2 + omega alone; its associates factor to equal, distinct objects
    target = hmf_coeffs.factor_ideal(5, 2, 1)
    divisor_sum = hmf_coeffs.eisenstein_coeff
    monkeypatch.setattr(
        hmf_coeffs,
        "eisenstein_coeff",
        lambda form, ideal: divisor_sum(form, ideal)
        + (form.weight == 4 and ideal is target),
    )
    report = verify_sqrt5_identity(10)
    assert report.constant_term_ok
    assert report.mismatches == ("nu=(2,1): 60*conv=126 vs sigma_3=127",)
    assert main(["demo-sqrt5", "10"]) == EXIT_FAILURE
    out = capsys.readouterr().out
    assert "mismatch: nu=(2,1): 60*conv=126 vs sigma_3=127\n" in out
    assert out.endswith("identity check FAILED\n")


def test_demo_sqrt5_reports_a_wrong_constant_term(monkeypatch, capsys):
    # zeta_F(-3) off by one moves c_0(E_4) alone: no coefficient differs,
    # and the constant-term check fails the demo
    zeta = hmf_coeffs.dedekind_zeta_neg
    monkeypatch.setattr(
        hmf_coeffs, "dedekind_zeta_neg", lambda D, k: zeta(D, k) + ((D, k) == (5, 4))
    )
    report = verify_sqrt5_identity(10)
    assert not report.constant_term_ok and not report.passed
    assert report.mismatches == ()
    assert main(["demo-sqrt5", "10"]) == EXIT_FAILURE
    out = capsys.readouterr().out
    assert "constant term check: 60 * (1/120)^2 = 1/240: FAILED\n" in out
    assert "mismatch" not in out
    assert out.endswith("identity check FAILED\n")


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


def test_verify_stdout_matches_out_dir_bytes(tmp_path, capsysbinary):
    assert main(["verify", "s5"]) == 0
    stdout = capsysbinary.readouterr().out
    assert main(["verify", "s5", "--out-dir", str(tmp_path)]) == 0
    assert capsysbinary.readouterr().out == b"section s5: no identity exists\n"
    assert stdout == (tmp_path / "report-s5.json").read_bytes()


def test_verify_out_dir_writes_tables(tmp_path):
    out = tmp_path / "md"
    assert main(
        ["verify", "s3-equal", "--format", "markdown", "--out-dir", str(out)]
    ) == 0
    assert (out / "report-s3-equal.json").exists()
    table_text = (out / "tables-s3-equal.md").read_text(encoding="utf-8")
    assert "## table1" in table_text


@pytest.mark.parametrize("below", ["", "reports"], ids=["file", "under-file"])
def test_verify_unwritable_out_dir_is_usage_error(tmp_path, capsys, below):
    # an existing file, or a path under one, cannot hold the reports
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    code = main(["verify", "s3-unequal", "--out-dir", str(blocker / below)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("eigenprod: error: cannot write reports:")
    assert captured.err.count("\n") == 1


def test_verify_all_at_the_stress_discriminant_limit(tmp_path, capsys):
    # --d-limit 20000, five times the default, widens the field universes
    # of s3-equal, s4-inert and s4-noninert to the 918 narrow-one fields
    # with D <= 20000, each found by the principal-cycle walk
    assert main(["verify", "all", "--d-limit", "20000", "--out-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"section {s}: no identity exists" for s in eigenprod.SECTION_ORDER]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"report-{s}.json" for s in eigenprod.SECTION_ORDER
    )


def test_verify_inconclusive_exit(capsys):
    code = main(["verify", "s5", "--precision", "8", "--precision-ceiling", "8"])
    assert code == EXIT_INCONCLUSIVE
    blob = json.loads(capsys.readouterr().out)
    assert blob["verdict"] == "inconclusive"


def test_verify_golden_mismatch_exit(capsys):
    # below the golden maximum 1549 the k = 2 sweep runs out of fields
    # before its rejecting field, so the section fails as well
    code = main(["verify", "s3-equal", "--d-limit", "1000"])
    assert code == EXIT_TABLE_MISMATCH
    captured = capsys.readouterr()
    assert "golden mismatch:" in captured.err
    assert json.loads(captured.out)["verdict"] == "verification failed"


def test_failed_section_names_its_first_false_record(tmp_path, capsys):
    # at --d-limit 3517 the discriminant sweep runs out of fields before its
    # rejecting one; stdout and the exit code are as before, and stderr says
    # which record failed the section
    argv = ["verify", "s4-inert", "--d-limit", "3517", "--out-dir", str(tmp_path)]
    assert main(argv) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == "section s4-inert: verification failed\n"
    assert captured.err == (
        "section s4-inert: record disc_bound_k1_2_k2_2_d3517_unclosed is CertifiedFalse\n"
    )


def test_inconclusive_section_names_its_first_inconclusive_record(tmp_path, capsys):
    # at a ceiling of 8 bits section 5 cannot decide its contradiction;
    # stdout and the exit code are as before, and stderr says which record
    # is undecided and why
    argv = ["verify", "s5", "--precision", "8", "--precision-ceiling", "8"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == EXIT_INCONCLUSIVE
    captured = capsys.readouterr()
    assert captured.out == "section s5: inconclusive\n"
    assert captured.err == (
        "section s5: record degree5_contradiction is Inconclusive: undecided at"
        " ceiling 8: enclosure width 2.632e+01 still brackets the threshold\n"
    )


def test_each_failed_section_names_its_first_survivor(monkeypatch, capsys):
    # with no false record a section fails on its survivors: one line per
    # failed section names the first, by label or by triple; a section that
    # holds no survivor prints nothing
    def survivor(**where):
        return CandidateRecord(SURVIVOR, "residual vanishes", **where)

    candidates = {
        "s3-unequal": (survivor(d=13, k1=4, k2=2), survivor(d=17, k1=4, k2=2)),
        "s3-equal": (),
        "s4-inert": (survivor(label="weight 4 family"),),
    }
    monkeypatch.setattr(
        cli,
        "_run_section",
        lambda section, cfg, fixtures: VerificationReport(
            section, candidates=candidates.get(section, ())
        ),
    )
    assert main(["verify", "all"]) == EXIT_FAILURE
    assert capsys.readouterr().err == (
        "section s3-unequal: survivor D=13 k1=4 k2=2: residual vanishes\n"
        "section s4-inert: survivor weight 4 family: residual vanishes\n"
    )


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
        # JSON floats and bools are not read as the integers they truncate to
        ("s4-noninert", "ishikawa_weight2_dim", {"dim_s2": {"8": 0.4, "13": 0}}),
        (
            "s4-noninert",
            "magma_dim_d8",
            {"discriminant": 8, "weight_min": 6.9, "weight_max": 18, "dim_exceeds": 1},
        ),
        ("s5", "voight_min_totally_real_disc", {"3": 49.9, "4": 725, "5": 14641}),
        ("s5", "voight_min_totally_real_disc", {"3": True, "4": 725, "5": 14641}),
        ("s5", "takeuchi_disc_bound", {"a": 29.099, "b": "83185/10000"}),
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
    "section, key, code",
    [
        ("s4-inert", "magma_dim_d8", EXIT_OK),
        ("s4-noninert", "takeuchi_disc_bound", EXIT_OK),
        ("s5", "ishikawa_weight2_dim", EXIT_OK),
        ("s4-noninert", "magma_dim_d8", EXIT_MISSING_FIXTURE),
    ],
)
def test_unread_fact_cannot_stop_a_section(tmp_path, capsys, section, key, code):
    # each section parses only the facts it reads, when it reads them: a
    # mangled fact elsewhere in the document goes unnoticed
    doc = json.loads(
        resources.files("eigenprod.data").joinpath("fixtures.json").read_text(encoding="utf-8")
    )
    doc["facts"][key]["data"] = "mangled"
    path = tmp_path / "facts.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", section, "--fixtures", str(path)]) == code
    err = capsys.readouterr().err
    if code == EXIT_OK:
        assert err == ""
    else:
        assert err.startswith("malformed magma_dim_d8 data: string indices")
        assert err.count("\n") == 1


@pytest.mark.parametrize("section", ["s4-inert", "s4-noninert"])
def test_missing_ishikawa_fact_exits_missing_fixture(tmp_path, capsys, section):
    # both branches eliminate weight-4 triples, which need the fact
    doc = json.loads(
        resources.files("eigenprod.data").joinpath("fixtures.json").read_text(encoding="utf-8")
    )
    del doc["facts"]["ishikawa_weight2_dim"]
    path = tmp_path / "facts.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", section, "--fixtures", str(path)]) == EXIT_MISSING_FIXTURE == 4
    assert capsys.readouterr().err == "missing fixture fact: ishikawa_weight2_dim\n"


@pytest.mark.parametrize(
    "text",
    [
        json.dumps([1, 2]),
        json.dumps({"facts": []}),
        json.dumps({"facts": {"takeuchi_disc_bound": 5}}),
        # deeper than the decoder's recursion limit, too deep for json.dumps
        '{"facts": {"x": {"data": ' + "[" * 200_000 + "]" * 200_000 + "}}}",
    ],
    ids=["doc0", "doc1", "doc2", "deep"],
)
def test_verify_malformed_fixtures_document_exit(tmp_path, capsys, text):
    path = tmp_path / "facts.json"
    path.write_text(text, encoding="utf-8")
    code = main(["verify", "s5", "--fixtures", str(path)])
    assert code == EXIT_MISSING_FIXTURE
    err = capsys.readouterr().err
    assert err.startswith("fixtures error: malformed fixtures document")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field, value",
    [("statement", 1.5), ("source", {"doi": "x"}), ("conditional_on", None), ("statement", True)],
    ids=["float", "object", "null", "bool"],
)
def test_verify_non_string_fixture_metadata_exit(tmp_path, capsys, field, value):
    # the metadata is echoed into every report that reads the fact, so a
    # value that is not a string stops the run before any section
    doc = json.loads(
        resources.files("eigenprod.data").joinpath("fixtures.json").read_text(encoding="utf-8")
    )
    doc["facts"]["takeuchi_disc_bound"][field] = value
    path = tmp_path / "facts.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    code = main(["verify", "all", "--fixtures", str(path), "--out-dir", str(out)])
    assert code == EXIT_MISSING_FIXTURE
    err = capsys.readouterr().err
    assert err.startswith("fixtures error: malformed fixtures document")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


def test_degree5_detail_names_the_fixture_discriminant(tmp_path, capsys):
    # the degree-5 family is certified from the fixture's minimal
    # discriminant, and its detail names that value, not the shipped 14641
    doc = json.loads(
        resources.files("eigenprod.data").joinpath("fixtures.json").read_text(encoding="utf-8")
    )
    doc["facts"]["voight_min_totally_real_disc"]["data"]["5"] = 5213
    path = tmp_path / "facts.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "s5", "--fixtures", str(path)]) == EXIT_OK
    (family,) = (
        c
        for c in json.loads(capsys.readouterr().out)["candidates"]
        if c["label"] == "degree n = 5, all weights"
    )
    assert family["status"] == "EliminatedByBound"
    assert family["detail"].startswith("minimal discriminant 5213 forces")


def test_verify_unreadable_fixtures_exit(tmp_path, capsys):
    code = main(["verify", "s5", "--fixtures", str(tmp_path / "absent.json")])
    assert code == EXIT_MISSING_FIXTURE
    assert "fixtures error:" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["s3-unequal", "s3-equal"])
def test_s3_sections_reject_unreadable_fixtures(tmp_path, capsys, section):
    # the s3 sections read no fact, but the fixtures are loaded on every
    # verify run, so an unreadable path is refused before any section runs
    code = main(["verify", section, "--fixtures", str(tmp_path / "absent.json")])
    assert code == EXIT_MISSING_FIXTURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fixtures error:")
    assert captured.err.count("\n") == 1


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


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "s3-equal", "--d-limit", "1000000000000000"],
        ["verify", "s3-unequal", "--precision", "100000000000",
         "--precision-ceiling", "100000000000"],
    ],
    ids=["verify-sieve", "verify-precision"],
)
def test_input_too_large_for_memory_is_a_usage_error(argv):
    # the child caps its own address space at 2 GiB, so the sieve of 10^15
    # entries and the 10^11-bit shift fail there without touching the host
    proc = subprocess.run(
        [sys.executable, "-m", "eigenprod.cli", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        preexec_fn=_cap_address_space,
        timeout=60,
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert proc.stderr == "eigenprod: error: not enough memory for this input\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "1000000000000000", "4"],
        ["scan", str(ZETA_MODULUS), "4"],
        ["scan", "5", str(ZETA_MODULUS // 4 + 1)],
    ],
    ids=["far", "discriminant", "weight"],
)
def test_scan_past_the_residue_modulus_is_a_usage_error(argv):
    # the scan's residues stand for its exact values only below the prime
    # modulus, so it refuses these limits before it builds a sieve or a row;
    # under the 2 GiB cap a missing guard would fail on memory instead
    proc = subprocess.run(
        [sys.executable, "-m", "eigenprod.cli", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        preexec_fn=_cap_address_space,
        timeout=60,
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert proc.stderr == (
        "eigenprod: error: the discriminant limit and 4 times the weight limit "
        f"must stay below {ZETA_MODULUS}\n"
    )


def test_repeated_main_calls_build_one_parser(tmp_path, monkeypatch, capsys):
    # one process runs a sequence of commands with the parser of its first
    # call; each call must end as the same command does in a fresh process
    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def alone(argv):
        proc = subprocess.run(
            [sys.executable, "-c", "from eigenprod.cli import main_entry; main_entry()",
             *argv],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        return proc.returncode, proc.stdout, proc.stderr

    def calls(out_dir):
        return [
            ["zeta", "5"],
            ["scan", "40", "20"],
            ["demo-sqrt5", "10"],
            ["verify", "--d-limit", "40"],
            ["verify", "s3-unequal", "--out-dir", str(out_dir)],
        ]

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    cli.build_parser.cache_clear()
    try:
        results = [in_process(argv) for argv in calls(tmp_path / "in-process")]
    finally:
        cli.build_parser.cache_clear()
    assert built.count("eigenprod") == 1
    assert len(built) == len(set(built))
    assert results == [alone(argv) for argv in calls(tmp_path / "alone")]
    assert [code for code, _, _ in results] == [EXIT_USAGE, 0, 0, EXIT_USAGE, 0]
    report = "report-s3-unequal.json"
    assert (tmp_path / "in-process" / report).read_bytes() == (
        tmp_path / "alone" / report
    ).read_bytes()


# Each command imports only the layers it runs.  A fresh interpreter runs
# one command and prints the package modules it loaded, and any of the
# standard modules no command needs: importing `dataclasses` costs about
# 12 ms, most of it in `inspect`, which it imports.
_UNNEEDED = ("dataclasses", "inspect")
_PRINT_LOADED = (
    "print(*(m for m in sys.modules"
    f" if m.startswith('eigenprod.') or m in {_UNNEEDED!r}))\n"
)
_LOADED_BY = (
    "import contextlib, io, sys\n"
    "from eigenprod.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    main(sys.argv[1:])\n"
) + _PRINT_LOADED
_VERIFY_LAYERS = {
    "eigenprod.interval",
    "eigenprod.verifier",
    "eigenprod.report",
    "eigenprod.fixtures",
}


def _loaded_by(code, *argv):
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        check=True,
    )
    return set(proc.stdout.split())


def test_package_import_loads_no_layer():
    assert _loaded_by("import eigenprod, sys\n" + _PRINT_LOADED) == set()
    assert _loaded_by("import eigenprod.cli, sys\n" + _PRINT_LOADED) == {"eigenprod.cli"}


@pytest.mark.parametrize(
    "argv,layers",
    [
        (["scan", "100", "12"], {"exact", "quadfield", "hmf_coeffs"}),
        (["demo-sqrt5", "8"], {"exact", "quadfield", "hmf_coeffs"}),
        (["zeta", "13", "4"], {"exact"}),
        (["field", "13"], {"exact", "quadfield"}),
    ],
    ids=["scan", "demo-sqrt5", "zeta", "field"],
)
def test_query_command_loads_only_its_layers(argv, layers):
    loaded = _loaded_by(_LOADED_BY, *argv)
    assert loaded == {"eigenprod.cli"} | {f"eigenprod.{m}" for m in layers}
    assert loaded.isdisjoint(_VERIFY_LAYERS)


def test_verify_loads_the_certified_and_report_layers():
    loaded = _loaded_by(_LOADED_BY, "verify", "s3-unequal")
    assert _VERIFY_LAYERS <= loaded
    assert loaded.isdisjoint(_UNNEEDED)
