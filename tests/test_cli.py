import json

import pytest

from sepfrag import cli
from sepfrag.cli import run
from sepfrag.syntax import MAX_NESTING, parse_formula


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_check_sf_sentence(capsys):
    code, out = run_capture(capsys, ["check", "forall x. exists y. P(x) | Q(y)"])
    assert code == 0
    data = json.loads(out)
    assert data["is_sf"] is True
    assert data["degree"] == 1
    assert data["bounds"]["prop6"] == 4


def test_check_field_names(capsys):
    code, out = run_capture(capsys, ["check", "forall x. exists y. P(x) | Q(y)"])
    data = json.loads(out)
    assert {"degree", "components", "levels", "bounds"} <= set(data)
    assert {"lemma12", "expr1", "prop9", "prop5", "prop6"} == set(data["bounds"])


def test_to_bsr_stats(capsys):
    code, out = run_capture(capsys, ["to-bsr", "forall x. exists y. P(x) | Q(y)"])
    assert code == 0
    data = json.loads(out)
    assert data["stats"]["leading_existentials"] >= 1
    assert "elapsed_ms" in data["stats"]


def test_decide_exit_codes(capsys):
    assert run(["decide", "exists z. P(z)"]) == 0
    capsys.readouterr()
    assert run(["decide", "exists z. P(z) & ~P(z)"]) == 1
    capsys.readouterr()


def test_decide_emit_model(tmp_path, capsys):
    target = tmp_path / "model.json"
    code = run(["decide", "exists z. P(z)", "--emit-model", str(target)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(target.read_text())
    assert data["universe"]


def test_gen_hard_with_model(capsys):
    code, out = run_capture(capsys, ["gen", "hard", "--n", "1", "--with-model"])
    assert code == 0
    data = json.loads(out)
    assert "P1" in data["formula"]
    assert len(data["model"]["universe"]) == 12


def test_gen_hierarchy(capsys):
    code, out = run_capture(
        capsys, ["gen", "hierarchy", "--kappa", "1", "--mu", "2", "--with-model"]
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["model"]["universe"]) == 9


def test_gen_smp(capsys):
    code, out = run_capture(
        capsys, ["gen", "smp", "--bound", "2", "forall x. exists y. R(x, y)"]
    )
    assert code == 0
    data = json.loads(out)
    assert "Q1" in data["formula"]


def test_gen_domino(tmp_path, capsys):
    spec = tmp_path / "domino.json"
    spec.write_text(
        json.dumps({"tiles": ["A"], "H": [["A", "A"]], "V": [["A", "A"]], "word": ["A"]})
    )
    code, out = run_capture(
        capsys,
        ["gen", "domino", "--spec", str(spec), "--kappa", "1", "--mu", "2", "--with-model"],
    )
    assert code == 0
    data = json.loads(out)
    assert "H(" in data["formula"]
    assert data["model"] is not None


def test_equiv_equal(capsys):
    code, out = run_capture(
        capsys,
        [
            "equiv",
            "--up-to",
            "3",
            "exists x. P(x) | Q(x)",
            "(exists x. P(x)) | (exists y. Q(y))",
        ],
    )
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_equiv_counterexample(capsys):
    code, out = run_capture(
        capsys,
        [
            "equiv",
            "--up-to",
            "2",
            "forall x. P(x) | Q(x)",
            "(forall x. P(x)) | (forall y. Q(y))",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is False
    assert data["counterexample"]["structure"]["universe"]


def test_equiv_reads_files(tmp_path, capsys):
    a = tmp_path / "a.fol"
    b = tmp_path / "b.fol"
    a.write_text("exists x. P(x)")
    b.write_text("exists y. P(y)")
    code, out = run_capture(capsys, ["equiv", str(a), str(b)])
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_eval_command(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(
        json.dumps(
            {
                "universe": ["a", "b"],
                "constants": {"c": "a"},
                "predicates": {"P": [["a"]]},
            }
        )
    )
    code, out = run_capture(capsys, ["eval", "--model", str(model), "exists x. P(x)"])
    assert code == 0
    assert json.loads(out)["value"] is True


def test_expand_counting_command(capsys):
    code, out = run_capture(capsys, ["expand-counting", "exists>=2 y. P(y)"])
    assert code == 0
    data = json.loads(out)
    assert data["sites"] == 1 and not data["breaks_separation"]


def test_eliminate_eq_command(capsys):
    code, out = run_capture(capsys, ["eliminate-eq", "forall j. j = j"])
    assert code == 0
    assert "E(" in json.loads(out)["formula"]


def test_usage_error_exit_64():
    with pytest.raises(SystemExit) as e:
        run(["decide", "--max-size", "wat", "true"])
    assert e.value.code == 64


def test_parse_error_exit_3(capsys):
    assert run(["check", "forall . P(c)"]) == 3


def test_internal_failure_exits_3(capsys, monkeypatch):
    # an internal failure is an error with a traceback, never a verdict
    def crash(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setitem(cli._COMMANDS, "check", crash)
    assert run(["check", "P(a)"]) == 3
    assert "Traceback" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "~" * 3000 + "P(a)",
        "(" * 600 + "P(a)" + ")" * 600,
        " -> ".join(["P(a)"] * 3000),
        " <-> ".join(["P(a)"] * 3000),
    ],
    ids=["negations", "parentheses", "implications", "equivalences"],
)
def test_deep_nesting_is_a_parse_error(capsys, text):
    assert run(["check", text]) == 3
    err = capsys.readouterr().err
    assert "parse error" in err and "Traceback" not in err


@pytest.mark.parametrize("arrow", ["->", "<->"])
def test_arrow_chain_at_the_limit_parses(capsys, arrow):
    text = f" {arrow} ".join(f"P(a{i})" for i in range(MAX_NESTING + 1))
    code, out = run_capture(capsys, ["expand-counting", text])
    assert code == 0
    assert parse_formula(json.loads(out)["formula"]) == parse_formula(text)


def test_deep_satisfiable_input_never_exits_unsat(capsys):
    # satisfiable, and deep enough to exhaust the stack of a recursive solver
    f = " & ".join(f"(P(a{i}) | P(b{i}) | P(c{i}))" for i in range(400))
    assert run(["decide", f]) == 0
    capsys.readouterr()


def test_stdin_formula(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("exists x. P(x)"))
    code, out = run_capture(capsys, ["decide", "-"])
    assert code == 0


def test_text_format(capsys):
    code, out = run_capture(
        capsys, ["decide", "exists z. P(z)", "--format", "text"]
    )
    assert out.strip() == "sat"


def test_budget_exit_65(capsys):
    code = run(
        [
            "equiv",
            "--up-to",
            "3",
            "forall x y z. R(x, y, z) | T(y, x, z)",
            "forall x y z. T(y, x, z) | R(x, y, z)",
        ]
    )
    err = capsys.readouterr().err
    assert code == 65
    assert "budget" in err
