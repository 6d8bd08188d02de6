import json
import subprocess
import sys

import jsonschema
import pytest

from mayss import cli, enumeration, grading
from mayss.algebra import Generator
from mayss.cli import MACHINE_SCHEMA, main
from mayss.enumeration import clear_memo
from mayss.errors import MayssError


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_profile_examples(capsys):
    code, out, _ = run(capsys, ["profile", "--prime", "5", "--t", "137"])
    assert (code, out) == (0, "c[-1]=1 c0=2 c1=3\n")
    code, out, _ = run(capsys, ["profile", "--prime", "5", "--t", "0"])
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, ["profile", "--prime", "5", "--t", "130194"])
    assert (code, out) == (0, "c[-1]=2 c0=4 c1=4 c4=1 c6=1\n")


def test_bad_prime_is_a_usage_error(capsys):
    code, out, err = run(capsys, ["profile", "--prime", "4", "--t", "10"])
    assert code == 2
    assert out == ""
    assert err == "error: p=4 is not an odd prime >= 5\n"


def test_huge_prime_is_rejected_before_the_primality_test(capsys, monkeypatch):
    def no_trial_division(n):
        raise AssertionError("tested %d for primality" % n)

    monkeypatch.setattr(grading, "_is_prime", no_trial_division)
    code, out, err = run(capsys, ["profile", "--prime", "2305843009213693951", "--t", "5"])
    assert (code, out) == (2, "")
    assert err == "error: p=2305843009213693951 exceeds %d\n" % grading.MAX_PRIME


def test_basis_text(capsys):
    code, out, _ = run(capsys, ["basis", "--prime", "5", "--s", "2", "--t", "49"])
    assert code == 0
    assert out == "a(0) h(2,0)  (2, 49, 4)\na(1) h(1,1)  (2, 49, 4)\n"


def test_d1_text(capsys):
    code, out, _ = run(capsys, ["d1", "h(2,0)", "--prime", "5"])
    assert (code, out) == (0, "-1*h(1,0) h(1,1)\n")
    code, out, _ = run(capsys, ["d1", "b(2,1)", "--prime", "5"])
    assert (code, out) == (0, "0\n")


def test_parse_error_reports_position(capsys):
    code, out, err = run(capsys, ["d1", "h(2,0", "--prime", "5"])
    assert code == 2
    assert err == "error: expected ')' (at position 5)\n"


def test_absurd_numbers_are_rejected_before_grading(capsys, monkeypatch):
    def no_grading(self, ctx):
        raise AssertionError("graded %s" % self.render())

    monkeypatch.setattr(Generator, "tridegree", no_grading)
    for text, message in (
            ("h(1,100000000)", "generator index 100000000 exceeds 10000 (at position 4)"),
            ("a(1)^" + "1" * 5000, "integer too long (at position 5)")):
        code, out, err = run(capsys, ["d1", text, "--prime", "5"])
        assert (code, out) == (2, "")
        assert err == "error: %s\n" % message


def test_filtration_beyond_the_search_depth_is_a_usage_error(capsys, monkeypatch):
    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(enumeration, "_search", no_search)
    for argv in (["survives", "--prime", "5", "a(1)^3000"],
                 ["survives", "--prime", "5", "a(1)^100000000000"],
                 ["basis", "--prime", "5", "--s", "513", "--t", "4617"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.count("error:") == 1 and err.startswith("error: filtration "), err
        assert "Traceback" not in err


def test_second_page_window_beyond_the_search_depth_is_rejected_first(capsys, monkeypatch):
    # s = 512 is allowed, but the query also needs s + 1 = 513.
    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(enumeration, "_search", no_search)
    code, out, err = run(capsys, ["e2", "--prime", "5", "--s", "512", "--t", "100000",
                                  "--no-cache"])
    assert (code, out, err) == (2, "", "error: filtration 513 exceeds 512\n")


def test_e2_text(capsys):
    code, out, _ = run(capsys, ["e2", "--prime", "5", "--s", "2", "--t", "49"])
    assert code == 0
    assert out == "e1_dim=2\ncycle_dim=1\nboundary_dim=1\ne2_dim=0\n"
    code, out, _ = run(capsys, ["e2", "--prime", "5", "--s", "6", "--t", "130194"])
    assert code == 0
    assert out.splitlines()[0] == "u=34: e1_dim=1 cycle_dim=0 boundary_dim=0 e2_dim=0"
    assert out.splitlines()[-1] == "e2_dim=0"


def test_survives_text(capsys):
    code, out, _ = run(capsys, [
        "survives", "a(2)^2 h(2,0) h(1,1) h(1,0) h(1,6) h(1,4)", "--prime", "5"])
    assert code == 0
    assert out == ("position: (7, 130194, 17)\n"
                   "d1_cycle: yes\nd1_boundary: no\ne2_class: nonzero\n")


def machine_doc(capsys, argv):
    code, out, _ = run(capsys, argv + ["--format", "machine"])
    doc = json.loads(out)
    jsonschema.validate(doc, MACHINE_SCHEMA)
    return code, doc


def test_machine_documents_validate(capsys, tmp_path):
    cd = ["--cache-dir", str(tmp_path)]
    code, doc = machine_doc(capsys, ["profile", "--prime", "5", "--t", "137"])
    assert code == 0 and doc["command"] == "profile"
    code, doc = machine_doc(capsys, ["basis", "--prime", "5", "--s", "2", "--t", "49"] + cd)
    assert doc["results"]["dimension"] == 2
    assert doc["results"]["monomials"][0]["monomial"] == "a(0) h(2,0)"
    code, doc = machine_doc(capsys, ["d1", "h(2,0)", "--prime", "5"])
    assert doc["results"]["image"] == "-1*h(1,0) h(1,1)"
    code, doc = machine_doc(capsys, ["e2", "--prime", "5", "--s", "2", "--t", "49"] + cd)
    assert doc["results"]["e2_dim"] == 0
    code, doc = machine_doc(capsys, ["survives", "a(0) h(2,0)", "--prime", "5"] + cd)
    assert doc["results"]["d1_cycle"] is False
    code, doc = machine_doc(capsys, ["verify", "reps", "--prime", "5",
                                     "--m", "4", "--n", "6", "--scase", "3"] + cd)
    assert code == 0
    assert doc["results"]["pass"] is True
    assert doc["params"]["s"] == 3


def test_verify_text_pass_and_exit_codes(capsys, tmp_path):
    code, out, err = run(capsys, ["verify", "main", "--prime", "5", "--m", "4",
                                  "--n", "6", "--scase", "4",
                                  "--cache-dir", str(tmp_path)])
    assert code == 0
    assert out.endswith("result: PASS (44 checks)\n")
    assert "running scenario main (p=5)..." in err


def test_verify_failure_exits_one(capsys, tmp_path):
    code, out, _ = run(capsys, ["verify", "reps", "--prime", "5", "--m", "1",
                                "--n", "2", "--scase", "2",
                                "--cache-dir", str(tmp_path)])
    assert code == 1
    assert "[FAIL] the two representatives multiply to the product class" in out
    assert out.endswith("result: FAIL (6 checks)\n")


def test_verify_strict_range_gate(capsys):
    code, out, err = run(capsys, ["verify", "lemma31", "--prime", "5", "--m", "3",
                                  "--n", "5", "--scase", "2"])
    assert code == 2
    assert "permissive mode accepts" in err


def test_verify_permissive_flag(capsys, tmp_path):
    with pytest.warns(UserWarning):
        code, out, _ = run(capsys, ["verify", "lemma31", "--prime", "5", "--m", "3",
                                    "--n", "5", "--scase", "2", "--permissive",
                                    "--cache-dir", str(tmp_path)])
    assert code in (0, 1)          # outside the proved range the verdict is the engine's
    assert "result:" in out


def test_verify_missing_scenario_args(capsys):
    code, _, err = run(capsys, ["verify", "eq34", "--prime", "5", "--n", "6"])
    assert code == 2
    assert err == "error: scenario 'eq34' needs --m\n"
    code, _, err = run(capsys, ["verify", "thm32", "--prime", "5"])
    assert code == 2
    assert "--m, --n, --scase" in err


def test_argparse_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--prime", "5", "--s", "2"])       # missing --t
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus", "--prime", "5"])         # unknown scenario
    assert exc.value.code == 2


def test_cache_transparency(capsys, tmp_path):
    argv = ["e2", "--prime", "5", "--s", "2", "--t", "49", "--format", "machine"]
    clear_memo()
    code, cold, _ = run(capsys, argv + ["--cache-dir", str(tmp_path)])
    assert code == 0
    stored = list(tmp_path.rglob("*.txt"))
    assert stored, "cold run must write cache files"
    clear_memo()
    code, warm, _ = run(capsys, argv + ["--cache-dir", str(tmp_path)])
    clear_memo()
    code, off, _ = run(capsys, argv + ["--no-cache"])
    assert cold == warm == off
    clear_memo()


def test_cache_dir_from_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MAYSS_CACHE_DIR", str(tmp_path))
    clear_memo()
    code, _, _ = run(capsys, ["basis", "--prime", "5", "--s", "2", "--t", "49"])
    assert code == 0
    assert list(tmp_path.rglob("*.txt"))
    clear_memo()


def test_module_runs_as_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mayss.cli", "profile", "--prime", "5", "--t", "137"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "c[-1]=1 c0=2 c1=3\n"


def test_internal_error_exits_three(capsys, monkeypatch):
    class InvariantError(MayssError):
        """An engine invariant that failed: no usage error, so exit code 3."""

    def broken(*args, **kwargs):
        raise InvariantError("rank of a d1 block exceeds its column count")

    monkeypatch.setattr(cli, "e2_dimension", broken)
    code, out, err = run(capsys, ["e2", "--prime", "5", "--s", "2", "--t", "49", "--no-cache"])
    assert code == 3
    assert out == ""
    assert err == "error: internal: rank of a d1 block exceeds its column count\n"
