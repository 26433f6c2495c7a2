"""Command-line behavior: verdict tokens, exit codes, determinism."""

from msostr import cli, parse_automaton, render_automaton
from msostr.cli import main

from corpus import SENTENCES, example_machine


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_accept(capsys):
    code, out, _ = run(capsys, "check", "--alphabet", "a,b",
                       "--formula", "ex1 x. x = 0 & a(x)", "--word", "ab")
    assert code == 0
    assert out.splitlines()[0] == "ACCEPT"


def test_check_reject(capsys):
    code, out, _ = run(capsys, "check", "--alphabet", "a,b",
                       "--formula", "ex1 x. x = 0 & a(x)", "--word", "ba")
    assert code == 1
    assert out.splitlines()[0] == "REJECT"


def test_equiv_formula_files(capsys, tmp_path):
    f1 = tmp_path / "first.txt"
    f2 = tmp_path / "second.txt"
    f1.write_text(SENTENCES["a_third_from_right"][1])
    f2.write_text(SENTENCES["a_third_from_right_alt"][1])
    code, out, _ = run(capsys, "equiv", "--alphabet", "a,b",
                       "--f1", str(f1), "--f2", str(f2))
    assert code == 0
    assert out.splitlines()[0] == "EQUIVALENT"


def test_equiv_counterexample(capsys):
    code, out, _ = run(capsys, "equiv", "--alphabet", "a,b",
                       "--f1", "ex1 x. a(x)", "--f2", "ex1 x. b(x)")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "NOT_EQUIVALENT"
    assert lines[1] == "a"


def test_empty_of_contradiction(capsys):
    code, out, _ = run(capsys, "empty", "--alphabet", "a,b",
                       "--formula", "ex1 x. a(x) & !a(x)")
    assert code == 0
    assert out.splitlines()[0] == "EMPTY"


def test_nonempty_prints_witness(capsys):
    code, out, _ = run(capsys, "empty", "--alphabet", "a,b",
                       "--formula", "ex1 x. b(x)")
    assert code == 1
    assert out.splitlines() == ["NONEMPTY", "b"]


def test_contains_automaton_in_formula(capsys, tmp_path):
    aut_path = tmp_path / "machine.json"
    aut_path.write_text(render_automaton(example_machine()))
    code, out, _ = run(capsys, "contains", "--alphabet", "a,b,c",
                       "--f1", str(aut_path), "--f2", "ex1 x. last(x) & a(x)")
    assert code == 0
    assert out.splitlines()[0] == "CONTAINED"


def test_contains_counterexample(capsys):
    code, out, _ = run(capsys, "contains", "--alphabet", "a,b",
                       "--f1", "ex1 x. a(x)", "--f2", "ex1 x. x = 0 & a(x)")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "NOT_CONTAINED"
    assert lines[1] == "ba"


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--alphabet", "a,b",
                       "--formula", "ex1 x. ex1 y. succ(x, y) & a(x) & a(y)",
                       "--max-len", "3")
    assert code == 0
    assert out.splitlines() == ["aa", "aaa", "aab", "baa"]


def test_compile_writes_files(capsys, tmp_path):
    out_path = tmp_path / "machine.json"
    dot_path = tmp_path / "machine.dot"
    code, _, _ = run(capsys, "compile", "--alphabet", "a,b",
                     "--formula", "ex1 x. last(x) & a(x)",
                     "--out", str(out_path), "--dot", str(dot_path))
    assert code == 0
    aut = parse_automaton(out_path.read_text())
    assert aut.accepts("ba") and not aut.accepts("ab")
    assert dot_path.read_text().startswith("digraph")


def test_fsa2mso_round_trip_via_cli(capsys, tmp_path):
    aut_path = tmp_path / "machine.json"
    aut_path.write_text(render_automaton(example_machine()))
    formula_path = tmp_path / "sentence.txt"
    code, _, _ = run(capsys, "fsa2mso", "--in", str(aut_path),
                     "--out", str(formula_path))
    assert code == 0
    code, out, _ = run(capsys, "equiv", "--alphabet", "a,b,c",
                       "--f1", str(formula_path), "--f2", str(aut_path))
    # the sentence denotes the machine's nonempty words; the automaton file
    # accepts exactly those (epsilon is not accepted by the machine)
    assert code == 0 and out.splitlines()[0] == "EQUIVALENT"


def test_qe_prints_quantifier_free_form(capsys):
    code, out, _ = run(capsys, "qe", "--alphabet", "a",
                       "--formula", "ex1 x. ex1 y. ex1 z. x < y & y < z")
    assert code == 0
    assert out.strip() == "last > 1"


def test_classify_finite(capsys):
    code, out, _ = run(capsys, "classify", "--alphabet", "a",
                       "--formula", "all1 x. last(x) -> x < 3")
    assert code == 0
    assert out.splitlines() == ["FINITE", "{1, 2, 3}"]


def test_classify_cofinite(capsys):
    code, out, _ = run(capsys, "classify", "--alphabet", "a",
                       "--formula", "ex1 x. ex1 y. x < y")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "COFINITE"
    assert lines[1] == "complement {1}"


def test_usage_error_exit_code(capsys):
    code, out, err = run(capsys, "check", "--alphabet", "a,b",
                         "--formula", "a(x", "--word", "ab")
    assert code == 2
    assert "error" in err


def test_output_determinism(capsys):
    args = ("enumerate", "--alphabet", "a,b",
            "--formula", "ex1 x. a(x)", "--max-len", "4")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_epsilon_flag_admits_empty_word(capsys):
    code, out, _ = run(capsys, "check", "--alphabet", "a",
                       "--formula", "all1 x. a(x)", "--word", "", "--epsilon")
    assert code == 0
    assert out.splitlines()[0] == "ACCEPT"
    # without the flag the empty word is an input error
    code, _, err = run(capsys, "check", "--alphabet", "a",
                       "--formula", "all1 x. a(x)", "--word", "")
    assert code == 2
    assert "error" in err


def test_epsilon_enumerate_prints_marker(capsys):
    code, out, _ = run(capsys, "enumerate", "--alphabet", "a",
                       "--formula", "!(ex1 x. !a(x))", "--max-len", "2",
                       "--epsilon")
    assert code == 0
    assert out.splitlines() == ["<epsilon>", "a", "aa"]


def test_crash_exits_with_internal_error(capsys, monkeypatch):
    def crash(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "_cmd_empty", crash)
    code, out, err = run(capsys, "empty", "--alphabet", "a", "--formula", "ex1 x. a(x)")
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == \
        "INTERNAL_ERROR RecursionError: maximum recursion depth exceeded"
