import hashlib
import json
import time
from pathlib import Path

import pytest

from skewalg import cli
from skewalg.cli import main
from skewalg.config import Config
from skewalg.variety import MembershipCertificate, builtin_variety


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fm_command(capsys):
    code, out, _ = run(capsys, "fm", "--m", "2")
    assert code == 0
    assert out.strip() == "(x1*x2) - (x2*x1)"


def test_fm_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "fm", "--m", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["polynomial"] == "(x1*x2) - (x2*x1)"
    assert doc["terms"] == 2


def test_skew_command(capsys):
    code, out, _ = run(capsys, "skew", "--word", "(x1*x1)")
    assert code == 0
    assert out.strip() == "(x1*x2) - (x2*x1)"


def test_dim_command(capsys):
    code, out, _ = run(capsys, "dim", "--variety", "assoc", "--multideg", "1,1,1")
    assert code == 0
    assert out.strip() == "6"


def test_dim_alt(capsys):
    code, out, _ = run(capsys, "dim", "--variety", "alt", "--multideg", "1,1,1")
    assert code == 0
    assert out.strip() == "7"


def test_basis_count(capsys):
    code, out, _ = run(capsys, "basis-count", "--degree", "5")
    assert code == 0
    assert out.strip() == "4"


def test_member_true_with_certificate(tmp_path, capsys):
    poly = tmp_path / "p.txt"
    # [x^2, y] - x o [x, y], expanded into grammar words
    poly.write_text("((x1*x1)*x2) - (x2*(x1*x1)) - (x1*(x1*x2)) + (x1*(x2*x1)) "
                    "- ((x1*x2)*x1) + ((x2*x1)*x1)")
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "member", "--variety", "flex",
                       "--input", str(poly), "--certify", str(cert))
    assert code == 0
    assert out.strip() == "member"
    doc = json.loads(cert.read_text())
    assert doc["variety"] == "flex"
    assert doc["generators"]
    assert MembershipCertificate.from_json(doc).recheck(builtin_variety("flex"))


def test_member_false_exit_code(tmp_path, capsys):
    poly = tmp_path / "p.txt"
    poly.write_text("(x1*x2) - (x2*x1)")
    code, out, _ = run(capsys, "member", "--variety", "alt", "--input", str(poly))
    assert code == 1
    assert "witness" in out


def test_member_parse_error_is_usage(tmp_path, capsys):
    poly = tmp_path / "p.txt"
    poly.write_text("x1 ++ x2")
    code, _, err = run(capsys, "member", "--variety", "alt", "--input", str(poly))
    assert code == 2
    assert "error" in err


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "lemma1", "--m", "4")
    assert code == 0
    assert out.startswith("pass")


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "conjecture9")
    assert code == 2
    assert "unknown check" in err


def test_verify_needs_argument(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2


def test_verify_json_verdict_matches_text(tmp_path, capsys):
    code1, out1, _ = run(capsys, "--cert-dir", str(tmp_path / "c1"),
                         "verify", "eq1")
    code2, out2, _ = run(capsys, "--format", "json",
                         "--cert-dir", str(tmp_path / "c2"), "verify", "eq1")
    assert code1 == code2 == 0
    assert out1.startswith("pass")
    assert json.loads(out2)["verdict"] == "pass"


@pytest.mark.parametrize("after", [False, True])
def test_global_flags_before_or_after_subcommand(tmp_path, capsys, after):
    def call(command, flags):
        return run(capsys, *(command + flags if after else flags + command))

    certs = tmp_path / "certs"
    code, out, _ = call(["verify", "eq1"], ["--format", "json", "--cert-dir", str(certs)])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert [p.parent for p in map(Path, doc["certificates"])] == [certs]
    code, out, _ = call(["verify", "cor2_assoc_probe", "--degree-bound", "2"],
                        ["--format", "json", "--seed", "5"])
    assert code == 0 and json.loads(out)["details"]["seed"] == 5
    dim = ["dim", "--variety", "alt", "--multideg", "1,1,1"]
    for flag, limit in (("--max-ambient", "max_ambient_dimension"),
                        ("--max-generators", "max_generators")):
        code, _, err = call(dim, [flag, "5"])
        assert code == 3 and limit in err


@pytest.mark.parametrize("where", ["before", "after", "both"])
def test_global_flags_reach_config_by_field(monkeypatch, where):
    captured = []
    monkeypatch.setattr(cli, "cmd_basis_count", lambda args, config: captured.append(config))
    flags = ["--format", "json", "--max-ambient", "7", "--max-generators", "8",
             "--seed", "9", "--cert-dir", "certs"]
    earlier = ["--format", "text", "--max-ambient", "1", "--max-generators", "2",
               "--seed", "3", "--cert-dir", "earlier"]
    command = ["basis-count", "--degree", "3"]
    argv = {"before": flags + command, "after": command + flags,
            "both": earlier + command + flags}[where]  # a flag after the subcommand wins
    main(argv)
    assert captured == [Config(output_format="json", max_ambient_dimension=7,
                               max_generators=8, random_seed=9,
                               certificate_directory="certs")]


def test_every_global_flag_names_a_config_field():
    dests = {a.dest for a in cli.build_parser()._actions
             if a.option_strings and a.dest != "help"}
    assert dests == set(Config._fields)


@pytest.mark.parametrize("command", ["member", "skew"])
def test_deeply_nested_word_is_usage(tmp_path, capsys, command):
    deep = "(" * 5000 + "x1" + "*x1)" * 5000
    poly = tmp_path / "p.txt"
    poly.write_text(deep)
    argv = {"member": ["member", "--variety", "alt", "--input", str(poly)],
            "skew": ["skew", "--word", deep]}[command]
    assert run(capsys, *argv) == (2, "", "error: word nested too deeply\n")


def test_cor2_large_degree_bound_builds_no_pool(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "verify", "cor2_assoc", "--degree-bound", "40")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and out.startswith("pass")


def test_resource_limit_exit_code(capsys):
    code, _, err = run(capsys, "--max-ambient", "10",
                       "dim", "--variety", "alt", "--multideg", "1,1,1")
    assert code == 3
    assert "max_ambient_dimension" in err


def test_verify_resource_limit_exit(capsys):
    code, out, _ = run(capsys, "verify", "skew_dim", "--d", "6")
    assert code == 3
    assert out.startswith("resource_limit")


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["fm"])  # missing --m
    assert e.value.code == 2


@pytest.mark.parametrize("multideg", ["0,1", "2,,1", "2,1,", ",2", ""],
                         ids=["zero", "empty-inner", "empty-last", "empty-first", "empty"])
def test_bad_multidegree(capsys, multideg):
    with pytest.raises(SystemExit) as e:
        main(["dim", "--variety", "alt", "--multideg", multideg])
    assert e.value.code == 2
    assert "--multideg" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["dim", "--multideg", "1,1"], ["member", "--input", "{poly}"]],
                         ids=["dim", "member"])
def test_unknown_variety_is_usage(tmp_path, capsys, argv):
    poly = tmp_path / "p.txt"
    poly.write_text("(x1*x2)\n")
    with pytest.raises(SystemExit) as e:
        main([a.format(poly=poly) for a in argv] + ["--variety", "octonion"])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'octonion'" in captured.err


def test_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SKEWALG_MAX_AMBIENT_DIMENSION", "10")
    code, _, err = run(capsys, "dim", "--variety", "alt", "--multideg", "1,1,1")
    assert code == 3
    monkeypatch.setenv("SKEWALG_MAX_AMBIENT_DIMENSION", "50")
    code, out, _ = run(capsys, "dim", "--variety", "alt", "--multideg", "1,1,1")
    assert code == 0 and out.strip() == "7"


@pytest.mark.parametrize("variable", ["SKEWALG_MAX_GENERATORS", "SKEWALG_RANDOM_SEED"])
def test_env_int_field_not_an_integer_is_usage(capsys, monkeypatch, variable):
    monkeypatch.setenv(variable, "abc")
    code, out, err = run(capsys, "basis-count", "--degree", "3")
    assert code == 2 and out == ""
    assert f"{variable} must be an integer, got 'abc'" in err


def test_env_certificate_directory(tmp_path, capsys, monkeypatch):
    certs = tmp_path / "env-certs"
    monkeypatch.setenv("SKEWALG_CERTIFICATE_DIRECTORY", str(certs))
    assert Config.from_env().certificate_directory == str(certs)
    code, out, _ = run(capsys, "--format", "json", "verify", "eq1")
    assert code == 0
    assert [p.parent for p in map(Path, json.loads(out)["certificates"])] == [certs]
    # an empty directory name is a usage error found before the check runs
    code, out, err = run(capsys, "--cert-dir", "", "verify", "eq1")
    assert code == 2 and "certificate_directory" in err and out == ""
    monkeypatch.setenv("SKEWALG_CERTIFICATE_DIRECTORY", "")
    with pytest.raises(ValueError, match="certificate_directory"):
        Config.from_env()
    code, out, err = run(capsys, "verify", "eq1")
    assert code == 2 and "certificate_directory" in err and out == ""
    monkeypatch.delenv("SKEWALG_CERTIFICATE_DIRECTORY")
    assert Config.from_env().certificate_directory is None


@pytest.mark.parametrize("check", ["cor2_assoc", "cor2_assoc_probe"])
def test_cor2_degree_bound_below_two_is_usage(check, capsys):
    code, _, err = run(capsys, "verify", check, "--degree-bound", "1")
    assert code == 2 and "degree_bound" in err
    code, out, _ = run(capsys, "verify", check, "--degree-bound", "2")
    assert code == 0 and out.startswith("pass")


def test_custom_variety_flow(tmp_path, capsys):
    ids = tmp_path / "ids.txt"
    # the flexible law, non-linear form; linearized on load
    ids.write_text("((x1*x2)*x1) - (x1*(x2*x1))\n")
    poly = tmp_path / "p.txt"
    poly.write_text("((x1*x2)*x1) - (x1*(x2*x1))")
    code, out, _ = run(capsys, "member", "--variety", "custom",
                       "--identities", str(ids), "--input", str(poly))
    assert code == 0

    code, out, _ = run(capsys, "dim", "--variety", "custom",
                       "--identities", str(ids), "--multideg", "2,1")
    assert code == 0
    # agrees with the builtin flexible variety at the same component
    assert out.strip() == "4"


def test_custom_variety_requires_file(capsys):
    code, _, err = run(capsys, "dim", "--variety", "custom",
                       "--multideg", "1,1,1")
    assert code == 2


def test_verify_all_desk_exits_zero(tmp_path, capsys):
    # the full desk suite; reuses session caches built by the other tests
    code, out, _ = run(capsys, "--cert-dir", str(tmp_path / "c"),
                       "verify", "--all-desk")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 22  # one line per suite entry
    assert all(l.startswith("pass") for l in lines)


def test_lemma3_m5_certificate_bytes(tmp_path, capsys):
    # the certificate is a function of the alt (1^5) insertion sequence
    # alone, so these bytes pin the echelon's rows, pivots and provenance
    code, out, _ = run(capsys, "--cert-dir", str(tmp_path), "verify", "lemma3", "--m", "5")
    assert code == 0 and out.startswith("pass")
    (path,) = tmp_path.iterdir()
    data = path.read_bytes()
    assert len(data) == 202341
    assert (hashlib.sha256(data).hexdigest()
            == "648809e363453e79953eb855db9cb52bc044f29b03b2c029a230e7e48f057a88")


def test_fm_nonzero_m5_details(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "fm_nonzero", "--m", "5")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    details = report["details"]
    assert (details["ambient"], details["ideal_rank"], details["witness"]) == (
        1680, 1505, "((x5*x4)*((x3*x2)*x1))")


def test_verify_rejects_foreign_param(capsys):
    code, _, err = run(capsys, "verify", "eq1", "--m", "3")
    assert code == 2
    assert "does not take" in err
    assert "check 'eq1' does not take m" in err


@pytest.mark.parametrize("argv, message", [
    (["verify", "eq1", "--all-desk"], "--all-desk takes no"),
    (["verify", "--all-desk", "--m", "3"], "--all-desk takes no"),
    (["dim", "--variety", "alt", "--multideg", "1,1", "--identities", "{ids}"],
     "only the custom variety takes identities"),
    (["member", "--variety", "flex", "--input", "{dir}"], "Is a directory"),
    (["verify", "lemma2", "--m", "1"], "lemma2 needs m >= 2"),
    (["verify", "eq4", "--k", "0"], "eq4 needs k >= 1"),
    (["verify", "eq4", "--k", "-1"], "eq4 needs k >= 1"),
    (["verify", "eq6", "--m", "2"], "eq6 needs m >= 3"),
    (["verify", "fm_nonzero", "--m", "0"], "fm_nonzero needs m >= 1"),
    (["verify", "skew_dim", "--d", "0"], "skew_dim needs d >= 1"),
    (["verify", "skew_dim", "--d", "-2"], "skew_dim needs d >= 1"),
    (["verify", "assoc_projection", "--d", "-1"], "assoc_projection needs d >= 1"),
    (["basis-count", "--degree", "-3"], "degree must be >= 0"),
    (["verify", "cor2_assoc", "--degree-bound", "63"], "more than sys.maxsize words"),
    (["verify", "cor2_assoc_probe", "--degree-bound", "63"], "more than sys.maxsize words"),
], ids=["check-with-all-desk", "param-with-all-desk", "identities-with-builtin",
        "input-is-directory", "lemma2-m-below-two", "eq4-k-zero", "eq4-k-negative",
        "eq6-m-two", "fm_nonzero-m-zero", "skew_dim-d-zero", "skew_dim-d-negative",
        "assoc_projection-d-negative", "basis-count-negative", "cor2-pool-too-large",
        "cor2-probe-pool-too-large"])
def test_rejected_usage_runs_nothing(tmp_path, capsys, argv, message):
    ids = tmp_path / "ids.txt"
    ids.write_text("((x1*x2)*x1) - (x1*(x2*x1))\n")
    certs = tmp_path / "certs"
    argv = [a.format(ids=ids, dir=tmp_path) for a in argv]
    code, out, err = run(capsys, "--cert-dir", str(certs), *argv)
    assert code == 2
    assert message in err
    assert out == ""
    assert not certs.exists()  # nothing ran: verify would have written here
