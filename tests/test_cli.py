import json

from polyplane.cli import run
from polyplane.kripke import model_from_dict, eval_formula
from polyplane.formula import parse


def test_sat_exit_codes(capsys):
    assert run(["sat", "F"]) == 1
    assert run(["sat", "p"]) == 0
    out = capsys.readouterr().out
    assert "UNSAT" in out and "SAT on crown(" in out


def test_sat_model_out(tmp_path, capsys):
    out = tmp_path / "model.json"
    assert run(["sat", "<>[]p & <>[]~p", "--model-out", str(out)]) == 0
    capsys.readouterr()
    model = model_from_dict(json.loads(out.read_text()))
    assert eval_formula(model, 0, parse("<>[]p & <>[]~p"))


def test_sat_trace(capsys):
    assert run(["sat", "p", "--trace"]) == 0
    err = capsys.readouterr().err
    assert "mosaic" in err


def test_valid_section_six_pair(capsys):
    A = "[](r -> <>(~r & p & <>~p))"
    C = "(r & <>[]s & <>[]~s) -> <>(~r & <>[]s & <>[]~s)"
    assert run(["valid", f"({A}) -> ({C})"]) == 0
    assert run(["valid", "p"]) == 1
    capsys.readouterr()


def test_usage_and_parse_errors(capsys):
    assert run(["sat", "p ->"]) == 2
    assert run(["nonsense"]) == 2
    assert run([]) == 2
    capsys.readouterr()


def test_classify_exit_codes(tmp_path, capsys):
    f = tmp_path / "frame.json"
    f.write_text(json.dumps({"worlds": 4, "rel": [[0, 1], [1, 2], [2, 3]], "root": 0}))
    assert run(["classify-frame", str(f)]) == 3
    assert capsys.readouterr().out == 'refutes B4; witness {"0":0,"1":1,"2":2,"3":3}\n'
    f.write_text(json.dumps(
        {"worlds": 5, "rel": [[0, 1], [0, 2], [0, 3], [0, 4],
                              [2, 1], [2, 3], [4, 3], [4, 1]]}))
    assert run(["classify-frame", str(f)]) == 0
    assert capsys.readouterr().out == "validates\n"


def test_reduce_and_jankov(tmp_path, capsys):
    f = tmp_path / "frame.json"
    f.write_text(json.dumps({"worlds": 3, "rel": [[0, 1], [0, 2]], "root": 0}))
    assert run(["reduce", str(f)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 2 and "embedding" in data
    assert run(["jankov", str(f)]) == 0
    text = capsys.readouterr().out.strip()
    assert parse(text) is not None and "p0" in text


def test_eval_scene_command(tmp_path, capsys):
    s = tmp_path / "scene.json"
    s.write_text(json.dumps(
        {"lines": [["1", "0", "0"]], "val": {"p": {"dnf": [[[0, ">"]]]}}}))
    assert run(["eval-scene", str(s), "<>p", "--cell", "0"]) == 0
    assert run(["eval-scene", str(s), "[]p", "--cell", "0"]) == 1
    assert run(["eval-scene", str(s), "p", "--cell", "++"]) == 2
    capsys.readouterr()


def test_realize_command(tmp_path, capsys):
    m = tmp_path / "model.json"
    m.write_text(json.dumps(
        {"worlds": 5, "root": 0, "val": {"p": [1]},
         "rel": [[0, 1], [0, 2], [0, 3], [0, 4], [2, 1], [2, 3], [4, 3], [4, 1]]}))
    svg = tmp_path / "fig.svg"
    assert run(["realize", "--model", str(m), "--svg", str(svg)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "lines" in data and "cell" in data
    assert svg.read_text().startswith("<svg")


def test_outputs_byte_stable(tmp_path, capsys):
    m = tmp_path / "model.json"
    m.write_text(json.dumps(
        {"worlds": 3, "root": 0, "val": {"p": [1]},
         "rel": [[0, 1], [0, 2], [2, 1]]}))
    refuted = tmp_path / "refuted.json"
    refuted.write_text(json.dumps(
        {"worlds": 6, "rel": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [0, 5]],
         "root": 0}))
    validating = tmp_path / "validating.json"
    validating.write_text(json.dumps(
        {"worlds": 5, "rel": [[0, 1], [0, 2], [0, 3], [0, 4],
                              [2, 1], [2, 3], [4, 3], [4, 1]]}))
    for argv in (["realize", "--model", str(m)],
                 ["classify-frame", str(refuted)],
                 ["classify-frame", str(validating)],
                 ["reduce", str(validating)]):
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        assert capsys.readouterr().out == first, argv
    # the validating frame is crown(2): it reduces to itself by the
    # identity and embeds as the whole crown
    run(["reduce", str(validating)])
    assert capsys.readouterr().out == (
        '{"embedding":{"0":0,"1":1,"2":2,"3":3,"4":4},'
        '"map":{"0":0,"1":1,"2":2,"3":3,"4":4},"n":2}\n')


def test_axioms_command(capsys):
    assert run(["axioms"]) == 0
    out = capsys.readouterr().out
    assert "(I)" in out and "(II)" in out and "xi" in out
    assert "p -> [](~p -> [](p -> []p))" in out


def test_fuzz_command(capsys):
    assert run(["fuzz", "--max-size", "4", "--max-crown", "4",
                "--seed", "1", "--count", "30"]) == 0
    got = capsys.readouterr()
    assert "seed 1" in got.err
    assert "0 disagreements" in got.out


def test_valid_model_out(tmp_path, capsys):
    out = tmp_path / "counter.json"
    assert run(["valid", "[]p", "--model-out", str(out)]) == 1
    capsys.readouterr()
    model = model_from_dict(json.loads(out.read_text()))
    assert not eval_formula(model, 0, parse("[]p"))


def test_sat_oracle_flag(capsys):
    assert run(["sat", "<>[]p & <>[]~p", "--oracle", "4"]) == 0
    assert run(["sat", "p & ~p", "--oracle", "3"]) == 1
    out = capsys.readouterr().out
    assert "oracle" in out


def test_crown_bounds_below_one_are_usage_errors(capsys):
    assert run(["sat", "p", "--oracle", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: crown bound must be >= 1\n"
    assert run(["fuzz", "--max-crown", "0", "--count", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "seed 0\nerror: crown bound must be >= 1\n"


def test_equal_deep_operands_answer(capsys):
    assert run(["sat", "(" + "~" * 400 + "p) & (" + "~" * 400 + "p)"]) == 0
    assert capsys.readouterr().out == "SAT on crown(1) at world 0\n"


def test_deep_input_is_one_line_error(capsys):
    assert run(["sat", "~" * 5000 + "p"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: formula nested too deeply\n"


def test_internal_errors_exit_two(monkeypatch, capsys):
    from polyplane import mosaic
    from polyplane.errors import VerificationError

    def broken(*args, **kw):
        raise mosaic.MosaicError("truth lemma fails at world 1 for p")

    monkeypatch.setattr(mosaic, "decide_sat", broken)
    assert run(["sat", "p"]) == 2
    assert capsys.readouterr().err == "internal error: truth lemma fails at world 1 for p\n"

    def refuted(*args, **kw):
        raise VerificationError("crown walk map is not an onto p-morphism")

    monkeypatch.setattr(mosaic, "decide_sat", refuted)
    assert run(["valid", "p"]) == 2
    assert capsys.readouterr().err.startswith("internal error: crown walk map")


def test_out_of_memory_is_one_line_error(monkeypatch, capsys):
    from polyplane import mosaic

    def exhausted(*args, **kw):
        raise MemoryError()

    monkeypatch.setattr(mosaic, "decide_sat", exhausted)
    assert run(["sat", "p"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"
