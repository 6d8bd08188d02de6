import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from helpers import SCENARIOS
from mayss import ResultCache, cli, e2_dimension, enumeration, grading, make_context, verify
from mayss.algebra import Generator
from mayss.cli import MACHINE_SCHEMA, main
from mayss.enumeration import clear_memo

#: The command-line examples of the README.
README_EXAMPLES = (
    ["profile", "--prime", "5", "--t", "137"],
    ["basis", "--prime", "5", "--s", "2", "--t", "49"],
    ["d1", "h(2,0)", "--prime", "5"],
    ["e2", "--prime", "5", "--s", "6", "--t", "130194"],
    ["survives", "a(2)^2 h(2,0) h(1,1) h(1,0) h(1,6) h(1,4)", "--prime", "5"],
    ["verify", "main", "--prime", "5", "--m", "4", "--n", "6", "--scase", "4"],
)


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
            ("a(1)^" + "1" * 5000, "integer too long (at position 5)"),
            # str.isdigit() also passes an Arabic-Indic three and a superscript two
            ("h(1,\u0663)", "expected an integer (at position 4)"),
            ("\u0663*a(1)", "expected a generator (a, h, or b) (at position 0)"),
            ("a(\u00b2)", "expected an integer (at position 2)"),
            ("a()", "expected an integer (at position 2)")):
        code, out, err = run(capsys, ["d1", text, "--prime", "5"])
        assert (code, out) == (2, "")
        assert err == "error: %s\n" % message, text


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
    code, out, err = run(capsys, ["e2", "--prime", "5", "--s", "512", "--t", "100000"])
    assert (code, out, err) == (2, "", "error: filtration 513 exceeds 512\n")


def test_degree_past_the_printable_bound_is_rejected_before_any_search(capsys, monkeypatch):
    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(enumeration, "_search", no_search)
    for command in ("basis", "e2"):
        code, out, err = run(capsys, [command, "--prime", "5", "--s", "2", "--t", "1" * 4200])
        assert (code, out) == (2, ""), command
        assert err.count("error:") == 1, err
        assert err.endswith("error: internal degree exceeds 10^4000\n"), err


def test_rejected_query_writes_its_error_line_alone(capsys):
    # the progress line for a large t must not come before the degree check
    for command in ("basis", "e2"):
        for s, t in ((2, "1" * 4200), (-1, "300000"), (513, "300000")):
            code, out, err = run(capsys, [command, "--prime", "5", "--s", str(s), "--t", t])
            assert (code, out) == (2, ""), (command, s)
            assert err.startswith("error: ") and err.count("\n") == 1, err
    code, _, err = run(capsys, ["e2", "--prime", "5", "--s", "512", "--t", "300000"])
    assert code == 2 and err == "error: filtration 513 exceeds 512\n", err


def test_huge_degree_at_small_filtration_ends_before_the_universe(capsys, monkeypatch):
    # at t = 10^3999 the generator universe alone holds millions of
    # generators, and the walk over its generator rows takes a step per
    # tower index, thousands of them; the carry test with every column
    # supported rejects s = 0 and s = 1 without either
    def no_universe(*args):
        raise AssertionError("built the generator universe")

    def no_key(*args):
        raise AssertionError("walked the generator rows")

    monkeypatch.setattr(enumeration, "_order", no_universe)
    monkeypatch.setattr(enumeration, "_generator_rows", no_key)
    t = str(10 ** 3999)
    for command in ("basis", "e2"):
        code, out, _ = run(capsys, [command, "--prime", "5", "--s", "1", "--t", t,
                                    "--format", "machine"])
        assert code == 0, command
        results = json.loads(out)["results"]
        assert results["monomials" if command == "basis" else "blocks"] == [], command
    code, out, _ = run(capsys, ["basis", "--prime", "5", "--s", "1", "--t", t])
    assert (code, out) == (0, "")


def test_huge_tower_index_is_rejected_before_any_power(capsys, monkeypatch):
    # p**n at n = 10**7 alone takes seconds; the gate must not compute it.
    def no_degree(*args):
        raise AssertionError("computed a degree")

    monkeypatch.setattr(Generator, "tridegree", no_degree)
    monkeypatch.setattr(verify, "family_degree", no_degree)
    for scenario in ("reps", "thm32", "main"):
        code, out, err = run(capsys, ["verify", scenario, "--prime", "5", "--m", "4",
                                      "--n", "10000000", "--scase", "2"])
        assert (code, out) == (2, ""), scenario
        assert err.count("error:") == 1, err
        assert err.endswith("error: internal degree exceeds 10^4000\n"), err


def test_degrees_past_the_printable_bound_are_usage_errors(capsys):
    # each internal degree here has more digits than Python converts to text
    for argv in (["survives", "h(1,9000)", "--prime", "5"],
                 ["verify", "reps", "--prime", "5", "--m", "4", "--n", "100000", "--scase", "2"]):
        for fmt in ("text", "machine"):
            code, out, err = run(capsys, argv + ["--format", fmt])
            assert (code, out) == (2, ""), argv
            assert err.count("error:") == 1, err
            assert err.endswith("error: internal degree exceeds 10^4000\n"), err
            assert "Traceback" not in err


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


def test_machine_documents_validate(capsys):
    code, doc = machine_doc(capsys, ["profile", "--prime", "5", "--t", "137"])
    assert code == 0 and doc["command"] == "profile"
    code, doc = machine_doc(capsys, ["basis", "--prime", "5", "--s", "2", "--t", "49"])
    assert doc["results"]["dimension"] == 2
    assert doc["results"]["monomials"][0]["monomial"] == "a(0) h(2,0)"
    code, doc = machine_doc(capsys, ["d1", "h(2,0)", "--prime", "5"])
    assert doc["results"]["image"] == "-1*h(1,0) h(1,1)"
    code, doc = machine_doc(capsys, ["e2", "--prime", "5", "--s", "2", "--t", "49"])
    assert doc["results"]["e2_dim"] == 0
    code, doc = machine_doc(capsys, ["survives", "a(0) h(2,0)", "--prime", "5"])
    assert doc["results"]["d1_cycle"] is False
    code, doc = machine_doc(capsys, ["verify", "reps", "--prime", "5",
                                     "--m", "4", "--n", "6", "--scase", "3"])
    assert code == 0
    assert doc["results"]["pass"] is True
    assert doc["params"]["s"] == 3


def test_verify_text_pass_and_exit_codes(capsys):
    code, out, err = run(capsys, ["verify", "main", "--prime", "5", "--m", "4",
                                  "--n", "6", "--scase", "4"])
    assert code == 0
    assert out.endswith("result: PASS (44 checks)\n")
    assert err.startswith("scenario main finished in ")


def test_verify_failure_exits_one(capsys):
    code, out, _ = run(capsys, ["verify", "reps", "--prime", "5", "--m", "1",
                                "--n", "2", "--scase", "2"])
    assert code == 1
    assert "[FAIL] the two representatives multiply to the product class" in out
    assert out.endswith("result: FAIL (6 checks)\n")


def test_verify_reps_has_no_range_gate(capsys):
    # reps checks only degree bookkeeping, at any 1 <= m < n: below the
    # range gate of the other scenarios it runs, and passes, with or
    # without --permissive
    argv = ["verify", "reps", "--prime", "5", "--m", "2", "--n", "3", "--scase", "2"]
    for extra in ([], ["--permissive"]):
        code, out, err = run(capsys, argv + extra)
        assert code == 0, extra
        assert out.endswith("result: PASS (6 checks)\n")
        assert "warning" not in err


def test_verify_strict_range_gate(capsys):
    code, out, err = run(capsys, ["verify", "lemma31", "--prime", "5", "--m", "3",
                                  "--n", "5", "--scase", "2"])
    assert code == 2
    assert "permissive mode accepts" in err


WARNING = ("warning: m=3 is outside the range n >= m+2 > 5 in which the window "
           "results are claimed; checks may legitimately fail\n")


def test_verify_permissive_flag(capsys):
    code, out, err = run(capsys, ["verify", "lemma31", "--prime", "5", "--m", "3",
                                  "--n", "5", "--scase", "2", "--permissive"])
    assert code in (0, 1)          # outside the proved range the verdict is the engine's
    assert "result:" in out
    assert err.count("warning:") == 1 and WARNING in err


def test_permissive_main_scenario_warns_once(capsys):
    # every part of the main scenario passes the same gate; one line is enough
    code, out, err = run(capsys, ["verify", "main", "--prime", "5", "--m", "3",
                                  "--n", "5", "--scase", "2", "--permissive"])
    assert code in (0, 1)
    assert "result:" in out
    assert err.count("warning:") == 1 and WARNING in err
    assert "UserWarning" not in err and ".py" not in err


@pytest.mark.parametrize("scenario", ["eq34", "main"])
@pytest.mark.parametrize("m, n", [(3, 5), (2, 4)])
def test_permissive_critical_words_below_m4_fail_the_report(capsys, scenario, m, n):
    # the critical monomials need m >= 4; below it the report says so
    code, out, err = run(capsys, ["verify", scenario, "--prime", "5", "--m", str(m),
                                  "--n", str(n), "--scase", "4", "--permissive"])
    assert code == 1
    assert "the seven critical monomials exist\n" in out
    assert "observed: not constructible: critical monomials need n >= m+2 and m >= 4" in out
    assert out.splitlines()[-1].startswith("result: FAIL (")
    assert err.count("warning:") == 1 and "error:" not in err


def test_eq34_runs_only_at_s_p_minus_1(capsys):
    argv = ["verify", "eq34", "--prime", "5", "--m", "4", "--n", "6"]
    code, out, err = run(capsys, argv + ["--scase", "2"])
    assert (code, out) == (2, "")
    assert err.count("error:") == 1
    assert err.endswith("error: the critical differential runs at s = p-1 = 4, got s=2\n")
    code, at_p_minus_1, _ = run(capsys, argv + ["--scase", "4"])
    assert code == 0
    code, default, _ = run(capsys, argv)
    assert code == 0
    assert at_p_minus_1 == default and "params: m=4 n=6 p=5 s=4\n" in default


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


#: The command lines the CI's usage_error helper runs, and the option
#: parser's own rejections: each exits 2 with one stderr line.
USAGE_ERRORS = (
    ["verify", "eq34", "--prime", "5", "--m", "4", "--n", "6", "--scase", "2"],
    ["survives", "h(1,9000)", "--prime", "5"],
    ["d1", "h(1,\u0663)", "--prime", "5"],
    ["d1", "a(\u00b2)", "--prime", "5"],
    ["basis", "--prime", "5", "--s", "2", "--t", "\u0664\u0669"],
    ["basis", "--prime", "5", "--s", "2", "--t", "1" * 4200],
    ["verify", "reps", "--prime", "5", "--m", "4", "--n", "10000000", "--scase", "2"],
    ["e2", "--prime", "5", "--s", "2", "--t", "49", "--no-cache"],
    ["basis", "--prime", "5", "--s", "2"],
    ["verify", "bogus", "--prime", "5"],
    ["bogus"],
    [],
)


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda argv: " ".join(argv)[:40])
def test_a_usage_error_is_one_error_line(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.endswith("\n"), err


def test_integer_options_take_ascii_digits_only(capsys):
    # int() alone also reads other scripts' digits, "_", "+" and blanks
    commands = {"--prime": ["profile", "--t=7"], "--t": ["profile", "--prime=5"],
                "--s": ["basis", "--prime=5", "--t=49"], "--u": ["basis", "--prime=5", "--s=2",
                                                               "--t=49"],
                "--m": ["verify", "main", "--prime=5", "--n=6", "--scase=4"],
                "--n": ["verify", "main", "--prime=5", "--m=4", "--scase=4"],
                "--scase": ["verify", "main", "--prime=5", "--m=4", "--n=6"]}
    for option, argv in commands.items():
        for value in ("\u0664", "4_9", "+4", " 4", "4 ", "4.0", "", "--4", "1" * 5000):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["%s=%s" % (option, value)])
            assert exc.value.code == 2, (option, value)
            err = capsys.readouterr().err
            assert err.endswith("error: argument %s: invalid int value: %r\n" % (option, value))
    # README's example in other digits: int() would print the basis at (2, 49)
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--prime", "\u0665", "--s", "\u0662", "--t", "\u0664\u0669"])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    # a negative value still reaches the engine's own check
    assert run(capsys, ["profile", "--prime", "5", "--t", "-1"]) == (
        2, "", "error: internal degree must be nonnegative, got -1\n")
    assert run(capsys, ["basis", "--prime", "5", "--s", "02", "--t", "049"])[:2] == (
        0, "a(0) h(2,0)  (2, 49, 4)\na(1) h(1,1)  (2, 49, 4)\n")


def test_cache_transparency(capsys, tmp_path):
    # The library cache, cold, warm and off, gives what the CLI prints.
    ctx = make_context(5)
    clear_memo()
    code, out, _ = run(capsys, ["e2", "--prime", "5", "--s", "2", "--t", "49",
                                "--format", "machine"])
    assert code == 0
    printed = json.loads(out)["results"]
    cache = ResultCache(tmp_path)
    pages = []
    for leg in (cache, cache, None):
        clear_memo()
        pages.append(e2_dimension(ctx, 2, 49, cache=leg))
        if leg is not None:
            assert list(tmp_path.rglob("*.txt")), "the cold run must write cache entries"
    assert pages[0] == pages[1] == pages[2]
    page = pages[0]
    assert printed == {
        "e1_dim": page.e1_dim, "cycle_dim": page.cycle_dim,
        "boundary_dim": page.boundary_dim, "e2_dim": page.e2_dim,
        "blocks": [{"u": bl.u, "e1_dim": bl.e1_dim, "cycle_dim": bl.cycle_dim,
                    "boundary_dim": bl.boundary_dim, "e2_dim": bl.e2_dim}
                   for bl in page.blocks]}
    clear_memo()


@pytest.mark.parametrize("option", [["--cache-dir", "DIR"], ["--no-cache"]])
def test_removed_cache_options_are_usage_errors(capsys, option):
    for argv in README_EXAMPLES:
        with pytest.raises(SystemExit) as exc:
            main(argv + option)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments: %s" % " ".join(option) in capsys.readouterr().err


def test_cli_writes_nothing_under_home(capsys, tmp_path, monkeypatch):
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    scenario_points = [["verify", "main", "--prime", str(p), "--m", str(m), "--n", str(n),
                        "--scase", str(s)] for p, m, n, s in SCENARIOS]
    for argv in list(README_EXAMPLES) + scenario_points:
        clear_memo()
        for fmt in ("text", "machine"):
            code, _, _ = run(capsys, argv + ["--format", fmt])
            assert code == 0, argv
    assert list(home.iterdir()) == []
    clear_memo()


def test_module_runs_as_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mayss.cli", "profile", "--prime", "5", "--t", "137"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "c[-1]=1 c0=2 c1=3\n"


def _modules_after(code, *flags):
    """The modules a fresh interpreter, started with `flags`, holds after
    running `code`, with the package's source tree first on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    prelude = "import sys; sys.path.insert(0, sys.argv[1]); "
    proc = subprocess.run(
        [sys.executable, *flags, "-c", prelude + code + "; print(' '.join(sys.modules))", src],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_start_loads_no_dataclasses_or_inspect():
    # against a bare start, since a host's site module may preload modules
    bare = _modules_after("pass")
    added = _modules_after("import mayss.cli; mayss.make_context(5)") - bare
    assert "mayss.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)
    # without site, which may preload typing, the package loads none of it
    started = _modules_after("import mayss.cli; mayss.make_context(5)", "-S")
    assert "mayss.cli" in started and "typing" not in started


def test_internal_error_exits_three(capsys, monkeypatch):
    # a search that drops half of the cycle basis breaks the engine's own
    # invariant in pages._boundary_rank: an image leaves the cycle block
    search = enumeration._search

    def incomplete(ctx, s_lo, s_hi, t):
        found = search(ctx, s_lo, s_hi, t)
        full = found[s_hi]
        half = full.dimension // 2
        found[s_hi] = enumeration.BidegreeBasis(full.p, full.s, full.t, full.layout,
                                                full.keys[:half], full.weights[:half])
        return found

    clear_memo()
    monkeypatch.setattr(enumeration, "_search", incomplete)
    try:
        code, out, err = run(capsys, ["e2", "--prime", "5", "--s", "8", "--t", "130194"])
    finally:
        clear_memo()   # the truncated bases must not outlive this test
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: internal: "), err
    assert "a basis is incomplete" in err
    assert "Traceback" not in err
