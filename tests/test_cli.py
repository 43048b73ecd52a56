import hashlib
import json

import pytest

from polyplane.cli import run
from polyplane.geometry import eval_scene, scene_from_dict
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
    assert run(["sat", "p", "--strict-middle"]) == 2
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


def test_cell_of_unknown_characters_is_usage_error(tmp_path, capsys):
    s = tmp_path / "scene.json"
    s.write_text(json.dumps({"lines": [["1", "0", "0"], ["0", "1", "0"]]}))
    assert run(["eval-scene", str(s), "p", "--cell", "+x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --cell takes one of the characters +, 0, - per line\n"


def test_realize_eight_pattern_model(tmp_path, capsys):
    # all eight sign patterns of p, q, r as endpoints: crown(12), whose
    # even cycle takes 6 concurrent lines
    theta = " & ".join(f"<>[]({a}p & {b}q & {c}r)"
                       for a in ("", "~") for b in ("", "~") for c in ("", "~"))
    m = tmp_path / "model.json"
    assert run(["sat", theta, "--model-out", str(m)]) == 0
    assert capsys.readouterr().out == "SAT on crown(12) at world 0\n"
    assert run(["realize", "--model", str(m), "--svg", str(tmp_path / "fig.svg")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["lines"]) == 6 and data["cell"] == "0" * 6
    scene, val = scene_from_dict(data)
    assert eval_scene(scene, val, (0,) * 6, parse(theta))


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


def test_failed_svg_write_prints_no_scene(tmp_path, capsys):
    m = tmp_path / "model.json"
    m.write_text(json.dumps(
        {"worlds": 5, "root": 0, "val": {"p": [1]},
         "rel": [[0, 1], [0, 2], [0, 3], [0, 4], [2, 1], [2, 3], [4, 3], [4, 1]]}))
    missing = str(tmp_path / "missing" / "fig.svg")
    assert run(["realize", "--model", str(m), "--svg", missing]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] No such file")
    # a good run prints the same JSON, byte for byte, with or without --svg
    scene = ('{"cell":"00","lines":[["0","1","0"],["1","-1","0"]],'
             '"val":{"p":{"dnf":[[[0,"<"],[1,">"]],[[0,">"],[1,"<"]]]}}}\n')
    assert run(["realize", "--model", str(m), "--svg", str(tmp_path / "fig.svg")]) == 0
    assert capsys.readouterr().out == scene
    assert run(["realize", "--model", str(m)]) == 0
    assert capsys.readouterr().out == scene


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

    # a diamond witnessed only at a middle, and one witnessed at the root
    out = tmp_path / "sat.json"
    run(["sat", "<>[]q & <>[]~q & <>(p & <>~p & ~<>[]q)", "--model-out",
         str(out), "--trace"])
    got = capsys.readouterr()
    assert got.out == "SAT on crown(4) at world 0\n"
    assert out.read_text() == (
        '{"rel":[[0,1],[0,2],[0,3],[0,4],[0,5],[0,6],[0,7],[0,8],[2,1],'
        '[2,3],[4,3],[4,5],[6,5],[6,7],[8,1],[8,7]],"root":0,'
        '"val":{"p":[1,2,3,4,5,6],"q":[1,3,6]},"worlds":9}\n')
    # four tiles, 3,011 bytes of trace
    assert got.err.count("\nmosaic ") == 3
    assert hashlib.sha256(got.err.encode()).hexdigest() == (
        "d7b7768c98140f95fc580488ed38d2bbecb8d74d7f2dd0a40d3771cb38122c5b")
    run(["sat", "<>(p & <>~p)", "--model-out", str(out), "--trace"])
    got = capsys.readouterr()
    assert got.out == "SAT on crown(2) at world 0\n"
    assert out.read_text() == (
        '{"rel":[[0,1],[0,2],[0,3],[0,4],[2,1],[2,3],[4,1],[4,3]],"root":0,'
        '"val":{"p":[1,4]},"worlds":5}\n')
    assert got.err == (
        'mosaic [["<>(p & <>~p)", "<>~p", "~(p & <>~p)", "~p"], '
        '["<>~p", "~(p & <>~p)", "~<>(p & <>~p)", "~p"], '
        '["p", "~(p & <>~p)", "~<>(p & <>~p)", "~<>~p"], '
        '["<>~p", "~(p & <>~p)", "~<>(p & <>~p)", "~p"]]\n'
        'mosaic [["<>(p & <>~p)", "<>~p", "~(p & <>~p)", "~p"], '
        '["<>(p & <>~p)", "<>~p", "p", "p & <>~p"], '
        '["p", "~(p & <>~p)", "~<>(p & <>~p)", "~<>~p"], '
        '["<>~p", "~(p & <>~p)", "~<>(p & <>~p)", "~p"]]\n')


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


def test_failed_model_write_prints_no_verdict(tmp_path, capsys):
    missing = str(tmp_path / "missing" / "model.json")
    for argv in (["sat", "p", "--model-out", missing],
                 ["sat", "p", "--oracle", "2", "--model-out", missing],
                 ["valid", "p", "--model-out", missing]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: [Errno 2] No such file"), argv


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
    # fuzz checks its bounds before its first line, so each error is the
    # only line, even when no formula would reach the oracle
    for argv, err in [
            (["--max-crown", "0", "--count", "3"], "crown bound must be >= 1"),
            (["--max-crown", "0", "--count", "0"], "crown bound must be >= 1"),
            (["--max-size", "0"], "formula size bound must be >= 1"),
            (["--count", "-3"], "formula count must be >= 0")]:
        assert run(["fuzz", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"


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


@pytest.mark.parametrize("command", [["classify-frame"], ["reduce"],
                                     ["realize", "--model"]])
def test_too_many_worlds_is_one_line_error(tmp_path, capsys, monkeypatch,
                                           command):
    # refused before any row is allocated: a Frame built here fails the test
    # instead of trying to allocate 10**12 rows
    from polyplane import kripke

    def no_frame(*args, **kw):
        raise AssertionError("a frame was built")

    monkeypatch.setattr(kripke, "Frame", no_frame)
    f = tmp_path / "input.json"
    f.write_text(json.dumps({"worlds": 10**12, "rel": [[0, 1]]}))
    assert run(command + [str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ('error: "worlds" is 1000000000000, above the '
                            'limit of 4096\n')


def test_world_limit_is_inclusive():
    from polyplane.kripke import MAX_WORLDS, frame_from_dict

    assert frame_from_dict({"worlds": MAX_WORLDS}).n == MAX_WORLDS


@pytest.mark.parametrize("command,data,message", [
    (["classify-frame"], {"worlds": 3, "rel": [[0, 1], [1, 2]], "root": 9},
     "root 9 out of range"),
    (["reduce"], {"worlds": 2, "rel": [[1, 0]], "root": -1},
     "root -1 out of range"),
    (["classify-frame"], [1, 2], "'list' object has no attribute 'get'"),
    (["reduce"], {"worlds": "3"},
     '"worlds" holds \'3\' where an integer is needed'),
    (["jankov"], {"worlds": 2, "rel": [[0, 1.5]]},
     '"rel" holds 1.5 where an integer is needed'),
    (["realize", "--model"], {"worlds": 1, "val": {"p": 3}},
     "'int' object is not iterable"),
    (["eval-scene"], {"lines": [["1/0", "0", "0"]]}, "Fraction(1, 0)"),
    # JSON booleans are Python ints, so each int field rejects them by name
    (["reduce"], {"worlds": 2, "rel": [[0, 1]], "root": False},
     '"root" holds a boolean'),
    (["classify-frame"], {"worlds": True}, '"worlds" holds a boolean'),
    (["classify-frame"], {"worlds": 2, "rel": [[0, True]]},
     '"rel" holds a boolean'),
    (["realize", "--model"], {"worlds": 1, "val": {"p": [False]}},
     '"val.p" holds a boolean'),
    (["eval-scene"], {"lines": [["1", "0", "0"]],
                      "val": {"p": {"dnf": [[[True, ">"]]]}}},
     '"val.p.dnf" holds a boolean'),
    # nor does a number with a fraction or a string pass as an int
    (["eval-scene"], {"lines": [["1", "0", "0"]],
                      "val": {"p": {"dnf": [[[0.9, ">"]]]}}},
     '"val.p.dnf" holds 0.9 where an integer is needed'),
    (["eval-scene"], {"lines": [["1", "0", "0"]],
                      "val": {"p": {"dnf": [[["0", ">"]]]}}},
     '"val.p.dnf" holds \'0\' where an integer is needed'),
    (["realize", "--model"], {"worlds": 3, "rel": [[0, 1], [0, 2], [2, 1]],
                              "root": 0, "val": {"p": [1.5]}},
     '"val.p" holds 1.5 where an integer is needed'),
    (["realize", "--model"], {"worlds": 3, "rel": [[0, 1], [0, 2], [2, 1]],
                              "root": 0, "val": {"p": [1.0]}},
     '"val.p" holds 1.0 where an integer is needed'),
], ids=["root-past-end", "root-negative", "frame-list", "worlds-string",
        "pair-float", "val-int", "scene-zero-denominator", "root-bool",
        "worlds-bool", "pair-bool", "val-bool", "dnf-bool", "dnf-float",
        "dnf-string", "val-fraction", "val-float-int"])
def test_input_of_the_wrong_shape_is_one_line_error(tmp_path, capsys, command,
                                                    data, message):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(data))
    extra = ["p", "--cell", "+"] if command == ["eval-scene"] else []
    assert run(command + [str(f)] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
