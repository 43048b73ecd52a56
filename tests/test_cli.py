import hashlib
import io
import json
import re
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyplane.axioms import forbidden_frames
from polyplane.cli import run
from polyplane.crown import crown
from polyplane.geometry import Line, eval_scene, scene_from_dict
from polyplane.kripke import (Model, frame_to_dict, model_from_dict,
                              model_to_dict, eval_formula)
from polyplane.formula import parse, pretty

from helpers import formulas


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


def test_sat_trace_names_the_folded_formula(capsys):
    # the tiles list the members of the formula searched, constants folded
    # out; stdout is the answer alone
    assert run(["sat", "p & ~F -> <>q", "--trace"]) == 0
    got = capsys.readouterr()
    assert got.out == "SAT on crown(1) at world 0\n"
    lines = got.err.splitlines()
    assert lines[0] == "searched p -> <>q"
    rows = [json.loads(line[len("mosaic "):]) for line in lines[1:]]
    assert rows and all(line.startswith("mosaic ") for line in lines[1:])
    assert {f for row in rows for label in row for f in label} <= {
        "p", "~p", "q", "~q", "<>q", "~<>q", "p -> <>q", "~(p -> <>q)"}
    # nothing folds: no searched line
    assert run(["sat", "p -> <>q", "--trace"]) == 0
    assert not capsys.readouterr().err.startswith("searched")


def test_valid_section_six_pair(capsys):
    A = "[](r -> <>(~r & p & <>~p))"
    C = "(r & <>[]s & <>[]~s) -> <>(~r & <>[]s & <>[]~s)"
    assert run(["valid", f"({A}) -> ({C})"]) == 0
    assert run(["valid", "p"]) == 1
    capsys.readouterr()


def test_usage_and_parse_errors(tmp_path, capsys):
    # argparse's errors come without its usage line, like every other error
    s = tmp_path / "scene.json"
    s.write_text(json.dumps({"lines": [["1", "0", "0"]]}))
    for argv, err in [
            (["sat", "p ->"], "syntax error: unexpected 'end of input' at "
             "line 1, column 5 (expected: identifier, T, F, ~, [], <>, ()"),
            (["nonsense"], "error: argument command: invalid choice: "
             "'nonsense' (choose from 'sat', 'valid', 'classify-frame', "
             "'reduce', 'jankov', 'eval-scene', 'realize', 'fuzz', 'axioms')"),
            ([], "error: the following arguments are required: command"),
            (["sat"], "error: the following arguments are required: formula"),
            (["sat", "p", "--strict-middle"],
             "error: unrecognized arguments: --strict-middle"),
            (["eval-scene", str(s), "p", "--cell"],
             "error: argument --cell: expected one argument"),
            # a line break in an argument is shown escaped
            (["sat", "p", "q\nr"], "error: unrecognized arguments: q\\nr")]:
        assert run(argv) == 2, argv
        assert capsys.readouterr() == ("", err + "\n"), argv


def test_help_is_on_stdout(capsys):
    for argv in (["--help"], ["eval-scene", "-h"]):
        assert run(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: polyplane") and err == ""


@pytest.mark.parametrize("cell,codes", [("-+", [0, 0, 1]), ("--", [1, 1, 0]),
                                        ("-0-", [0, 0, 1])],
                         ids=["-+", "--", "-0-"])
def test_cell_signatures_may_start_with_a_minus(tmp_path, capsys, cell, codes):
    # each answers as its attached form, which argparse never took for an
    # option; p holds where y >= 0, and the open cell -- sees only itself.
    # A signature of the wrong length is still refused
    s = tmp_path / "scene.json"
    s.write_text(json.dumps({"lines": [["1", "0", "0"], ["0", "1", "0"],
                                       ["1", "1", "0"]][:len(cell)],
                             "val": {"p": {"dnf": [[[1, ">="]]]}}}))
    got = []
    for argv in (["--cell", cell], [f"--cell={cell}"]):
        for phi in ("p", "<>p", "[]~p"):
            got.append((run(["eval-scene", str(s), phi, *argv]),
                        capsys.readouterr()))
    assert got[:3] == got[3:]
    assert [code for code, _ in got] == codes * 2
    assert run(["eval-scene", str(s), "p", "--cell", cell + "+"]) == 2
    assert capsys.readouterr() == (
        "", "error: cell signature length does not match the line count\n")


@pytest.mark.parametrize("flag", ["--cel", "--ce", "--c"])
def test_cell_option_prefixes_take_signatures(tmp_path, capsys, flag):
    # argparse takes a prefix of --cell for it, so the value after a prefix
    # is attached too, and a signature such as -+ is not read as an option
    s = tmp_path / "scene.json"
    s.write_text(json.dumps({"lines": [["1", "0", "0"], ["0", "1", "0"]],
                             "val": {"p": {"dnf": [[[1, ">="]]]}}}))
    got = []
    for argv in ([flag, "-+"], [f"{flag}=-+"], ["--cell=-+"], [flag, "+0"]):
        got.append((run(["eval-scene", str(s), "p", *argv]),
                    capsys.readouterr()))
    assert got == [(0, ("true\n", ""))] * 4


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


@pytest.mark.parametrize("text", ["p & ~p", "<>p & []~p"])
def test_oracle_stops_once_its_states_stop_changing(text, capsys):
    # a state set that extends to itself ends the search, so a crown bound
    # of a billion costs a round or two, not a budget-out after half a minute
    started = time.perf_counter()
    assert run(["sat", text, "--oracle", "1000000000"]) == 1
    assert time.perf_counter() - started < 1
    assert capsys.readouterr() == ("UNSAT (oracle, crowns up to 1000000000)\n", "")


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


def test_deep_input_file_error_names_the_file(tmp_path, capsys):
    f = tmp_path / "deep.json"
    f.write_text("[" * 100_000)
    for command in (["classify-frame", str(f)], ["realize", "--model", str(f)],
                    ["eval-scene", str(f), "p", "--cell", "+"]):
        assert run(command) == 2
        assert capsys.readouterr() == (
            "", f"error: input in {f} nested too deeply\n")


def test_huge_scene_coefficient_is_refused_at_once(tmp_path, capsys):
    f = tmp_path / "scene.json"
    f.write_text('{"lines": [["1e200000", "1", "0"], ["1", "-1", "1"]]}')
    started = time.perf_counter()
    assert run(["eval-scene", str(f), "p", "--cell", "++"]) == 2
    assert time.perf_counter() - started < 0.1
    assert capsys.readouterr() == ("", 'error: "lines" holds a coefficient over '
                                   '100 characters or with an exponent beyond '
                                   '99\n')


def test_scene_file_over_the_line_cap_is_refused_at_once(tmp_path, capsys):
    # the count is checked before any row is read: 200,000 rows are refused
    # within 0.1 s of reading the JSON (2.4 s when every row became a Line
    # first), and 25 rows that repeat a line get the count message, not the
    # duplicate one
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"lines": [[str(k), "1", "0"]
                                         for k in range(200_000)]}))
    started = time.perf_counter()
    json.loads(big.read_text())
    reading = time.perf_counter() - started
    started = time.perf_counter()
    assert run(["eval-scene", str(big), "p", "--cell", "+"]) == 2
    assert time.perf_counter() - started < reading + 0.1
    assert capsys.readouterr() == ("", "error: more than 24 lines\n")
    repeated = tmp_path / "repeated.json"
    repeated.write_text(json.dumps(
        {"lines": [["1", "0", "0"]] * 2 + [["1", "0", str(k)] for k in range(1, 24)]}))
    assert run(["eval-scene", str(repeated), "p", "--cell", "+" * 25]) == 2
    assert capsys.readouterr() == ("", "error: more than 24 lines\n")


def test_oracle_model_file_is_byte_stable(tmp_path, capsys):
    # the oracle's model keeps every atom of the formula, true nowhere or
    # not, and a countermodel file has the same layout
    out = tmp_path / "model.json"
    assert run(["sat", "<>[]p & <>[]~p & (q -> q)", "--oracle", "3",
                "--model-out", str(out)]) == 0
    assert capsys.readouterr().out == "SAT on crown(2) at world 0 (oracle)\n"
    assert out.read_text() == (
        '{"rel":[[0,1],[0,2],[0,3],[0,4],[2,1],[2,3],[4,1],[4,3]],"root":0,'
        '"val":{"p":[1],"q":[]},"worlds":5}\n')
    assert run(["valid", "p -> []p", "--model-out", str(out)]) == 1
    assert capsys.readouterr().out == "invalid: countermodel on crown(1) at world 0\n"
    assert out.read_text() == (
        '{"rel":[[0,1],[0,2],[2,1]],"root":0,"val":{"p":[0,2]},"worlds":3}\n')


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


@pytest.mark.parametrize("text,shown", [
    ('{"lines": [[true, 0, 0]]}', "a boolean"),
    ('{"lines": [["1", false, "0"]]}', "a boolean"),
    ('{"lines": [[1e400, 0, 0]]}', "inf"),
    ('{"lines": [[0, 1, -Infinity]]}', "-inf"),
    ('{"lines": [[NaN, 1, 0]]}', "nan"),
], ids=["true", "false", "1e400", "infinity", "nan"])
def test_scene_lines_refuse_booleans_and_non_finite_numbers(tmp_path, capsys,
                                                            text, shown):
    # JSON true would read as 1, and 1e400 reads as inf, which no rational
    # equals; both are refused by field name, never a traceback or exit 1
    f = tmp_path / "scene.json"
    f.write_text(text)
    assert run(["eval-scene", str(f), "p", "--cell", "+"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f'error: "lines" holds {shown} where a finite '
                            f'number is needed\n')


def test_scene_lines_take_integers_finite_numbers_and_fractions(tmp_path,
                                                                capsys):
    f = tmp_path / "scene.json"
    f.write_text('{"lines": [[2, 0, -1.0], ["0", "1/2", "-1/4"]],'
                 ' "val": {"p": {"dnf": [[[0, ">"]]]}}}')
    assert run(["eval-scene", str(f), "<>p", "--cell", "00"]) == 0
    assert run(["eval-scene", str(f), "p", "--cell", "+0"]) == 0
    assert run(["eval-scene", str(f), "p", "--cell=-+"]) == 1
    assert capsys.readouterr().out == "true\ntrue\nfalse\n"
    scene, _ = scene_from_dict(json.loads(f.read_text()))
    assert scene.lines == (Line.make(1, 0, Fraction(-1, 2)),
                           Line.make(0, 1, Fraction(-1, 2)))


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


# ---------------------------------------------------------------------------
# The exit-code contract as a property: whatever the arguments and input
# files, run returns 0 to 4 without raising, and a usage or input error
# (exit 2) prints nothing on stdout and one line on stderr

JUNK_ATOMS = st.one_of(
    st.booleans(), st.none(), st.integers(-3, 3),
    st.sampled_from([-10**12, 10**12, 4097, 2**63]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "0", "x", "1/0", "-1/3", "\u00e9", "\n"]))
JUNK = st.one_of(
    JUNK_ATOMS, st.lists(JUNK_ATOMS, max_size=3),
    st.dictionaries(st.sampled_from(["worlds", "rel", "root", "val", "lines",
                                     "dnf"]), JUNK_ATOMS, max_size=2),
    st.integers(1, 60).map(lambda k: json.loads("[" * k + "]" * k)))


def near(valid):
    """A value of the valid strategy, or about one time in eight a wrong
    one."""
    return st.integers(0, 7).flatmap(lambda k: JUNK if k == 3 else valid)


WORLD = near(st.integers(-1, 5))
VAL = near(st.dictionaries(st.sampled_from(["p", "q"]),
                           near(st.lists(WORLD, max_size=4)), max_size=2))
NEAR_FRAMES = st.fixed_dictionaries(
    {"worlds": near(st.integers(-1, 6))},
    optional={"rel": near(st.lists(near(st.lists(WORLD, min_size=2,
                                                 max_size=2)), max_size=6)),
              "root": WORLD, "val": VAL})
FRAMES = st.one_of(NEAR_FRAMES, st.sampled_from(
    [frame_to_dict(crown(n)) for n in (1, 2)]
    + [frame_to_dict(ff.frame) for ff in forbidden_frames()]))
MODELS = st.one_of(NEAR_FRAMES, st.integers(1, 2).flatmap(
    lambda n: st.dictionaries(st.sampled_from(["p", "q"]), st.frozensets(
        st.integers(0, 2 * n), max_size=3), max_size=2).map(
        lambda val: model_to_dict(Model(crown(n), val)))))
COEF = near(st.one_of(st.integers(-2, 2), st.floats(-2, 2),
                      st.sampled_from(["1/2", "-1/3", "0", "1/0", "2.5",
                                       "1e200000", "1" * 101])))
CONSTRAINT = near(st.tuples(near(st.integers(-1, 4)), near(st.sampled_from(
    ["<", "<=", "=", ">=", ">", "!"]))).map(list))
SCENES = st.fixed_dictionaries(
    {"lines": near(st.lists(near(st.lists(COEF, min_size=3, max_size=3)),
                            max_size=4))},
    optional={"val": near(st.dictionaries(
        st.sampled_from(["p", "q"]), near(st.fixed_dictionaries(
            {"dnf": near(st.lists(near(st.lists(CONSTRAINT, max_size=3)),
                                  max_size=2))})), max_size=2))})
RAW = st.sampled_from([b"", b"\xff\xfe{}", b'{"worlds": 2', b"[" * 100_000,
                       b'{"worlds": "\xe9"}', b'{"lines": [[1, 0, 0]]'])


def contents(shape):
    """Bytes of an input file: mostly JSON of the shape the command reads,
    else JSON of any shape, or bytes that are not JSON or not UTF-8."""
    data = st.one_of(shape, shape, shape, FRAMES, MODELS, SCENES, JUNK)
    return st.one_of(data.map(lambda v: json.dumps(v).encode()), RAW)


TEXTS = st.one_of(formulas(max_size=6).map(pretty),
                  st.text("pq()&|~<>[]-FT \n", max_size=10))
NUMBERS = st.one_of(st.integers(-2, 3).map(str),
                    st.sampled_from(["x", "", "1.5", "-", "--"]))
CELLS = st.one_of(st.text("+0-", max_size=4), st.text("+0-x", max_size=4))
# "IN" stands for the input file, "OUT" for a file to write, "MISSING" for
# a path in a directory that does not exist
IN = st.sampled_from(["IN"] * 7 + ["MISSING"])
OUT = st.sampled_from(["OUT"] * 3 + ["MISSING"])
# each subcommand's positionals and options with strategies for their
# values (None for a switch), and the shape of its input file
COMMANDS = {
    "sat": ([TEXTS], {"--model-out": OUT, "--trace": None, "--oracle": NUMBERS},
            JUNK),
    "valid": ([TEXTS], {"--model-out": OUT}, JUNK),
    "classify-frame": ([IN], {}, FRAMES),
    "reduce": ([IN], {}, FRAMES),
    "jankov": ([IN], {}, FRAMES),
    "eval-scene": ([IN, TEXTS], {"--cell": CELLS}, SCENES),
    "realize": ([], {"--model": IN, "--world": NUMBERS, "--svg": OUT}, MODELS),
    "fuzz": ([], {"--max-size": NUMBERS, "--max-crown": NUMBERS,
                  "--seed": NUMBERS, "--count": NUMBERS}, JUNK),
    "axioms": ([], {}, JUNK),
}
REQUIRED = {"--cell", "--model"}


@st.composite
def command_lines(draw):
    """(argv, input file bytes): a subcommand (or none, or an unknown one)
    with most of its positionals and required options, some of its other
    options, and now and then a stray token."""
    name = draw(st.sampled_from([*COMMANDS, *COMMANDS, "nonsense", None]))
    positionals, options, shape = COMMANDS.get(name, ([], {}, JUNK))
    argv = [] if name is None else [name]
    # hypothesis draws the ends of a range more often than the middle, so
    # an argument is left out on a value from the middle
    for value in positionals:
        if draw(st.integers(0, 15)) != 7:
            argv.append(draw(value))
    for flag, value in options.items():
        keep = (draw(st.integers(0, 15)) != 7 if flag in REQUIRED
                else draw(st.booleans()))
        if keep:
            argv += [flag] if value is None else [flag, draw(value)]
    if draw(st.integers(0, 7)) in (2, 5):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.one_of(
            st.sampled_from(["--bogus", "-x", "--help", "--", "--cell"]),
            st.text("-pq \n", min_size=1, max_size=4))))
    return argv, draw(contents(shape))


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@settings(max_examples=500)
@given(command_lines(), st.sampled_from(["input.json", "in\nput"]))
# argparse printed its usage line before the error; a line break in an
# argument, or in the name of a malformed input file, split the error line
@example(([], b""), "input.json")
@example((["sat", "p", "q\nr"], b""), "input.json")
@example((["classify-frame", "IN"], b"[1, 2]"), "in\nput")
# each documented answer at least once
@example((["eval-scene", "IN", "<>p", "--cell", "0"],
          b'{"lines": [[1, 0, 0]], "val": {"p": {"dnf": [[[0, ">"]]]}}}'), "input.json")
@example((["eval-scene", "IN", "[]p", "--cell", "0"],
          b'{"lines": [[1, 0, 0]], "val": {"p": {"dnf": [[[0, ">"]]]}}}'), "input.json")
@example((["realize", "--model", "IN", "--world", "2"],
          json.dumps(model_to_dict(Model(crown(2), {"p": {1, 2}}))).encode()),
         "input.json")
@example((["classify-frame", "IN"], json.dumps(frame_to_dict(crown(2))).encode()),
         "input.json")
@example((["classify-frame", "IN"],
          json.dumps(frame_to_dict(forbidden_frames()[2].frame)).encode()), "input.json")
@example((["reduce", "IN"], json.dumps(frame_to_dict(crown(3))).encode()), "input.json")
def test_exit_code_contract(cli_dir, command, name):
    # a fresh directory each time: new files are quick to write, while
    # overwriting one is slow on some file systems
    argv, content = command
    where = Path(tempfile.mkdtemp(dir=cli_dir))
    path = where / name
    path.write_bytes(content)
    paths = {"IN": str(path), "OUT": str(where / "out"),
             "MISSING": str(where / "missing" / name)}
    code, out, err = run_captured([paths.get(a, a) for a in argv])
    assert code in range(5)
    if code == 2:
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n"), err
    else:
        documented_stdout(argv, code, out)


def _compact_json(out, *shapes):
    """The object of a one-line JSON answer, printed with sorted keys and no
    spaces, whose set of keys is one of `shapes` when any are given."""
    data = json.loads(out)
    assert out == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    assert not shapes or set(data) in shapes, data
    return data


def _formula_line(out):
    assert out.count("\n") == 1 and pretty(parse(out[:-1])) == out[:-1], out


def _realized(out):
    data = _compact_json(out, {"lines", "val", "cell"})
    assert re.fullmatch("[-+0]*", data["cell"])
    assert len(data["cell"]) == len(data["lines"]) >= 2


# what each command prints on stdout, by exit code: a pattern of the whole
# output, or a check of it
STDOUT = {
    "sat": {0: r"SAT on crown\(\d+\) at world \d+( \(oracle\))?\n",
            1: r"UNSAT( \(oracle, crowns up to \d+\))?\n"},
    "valid": {0: "valid\n",
              1: r"invalid: countermodel on crown\(\d+\) at world \d+\n"},
    "classify-frame": {0: "validates\n", 3: r"refutes B[1-5]; witness \{.*\}\n"},
    "reduce": {0: lambda out: _compact_json(out, {"n", "map"},
                                            {"n", "map", "embedding"})},
    "jankov": {0: _formula_line},
    "eval-scene": {0: "true\n", 1: "false\n"},
    "realize": {0: _realized},
    "fuzz": {0: r"\d+ formulas, 0 disagreements\n",
             1: r"\d+ formulas, [1-9]\d* disagreements\n"},
    "axioms": {0: r"\(I\)  .+\n\(II\) .+\nxi   .+\n"},
}


def documented_stdout(argv, code, out):
    """Stdout of an exit 0, 1 or 3 is the answer the command documents, or
    argparse's help on exit 0; exit 4 (budget) prints nothing there."""
    if code == 4:
        assert out == ""
        return
    if out.startswith("usage: polyplane"):
        assert code == 0 and "--help" in argv
        return
    command = next(a for a in argv if a in COMMANDS)
    want = STDOUT[command][code]
    if callable(want):
        want(out)
    else:
        assert re.fullmatch(want, out), (command, code, out)
    if command == "sat":
        assert ("(oracle" in out) == ("--oracle" in argv), out
    if command == "classify-frame" and code == 3:
        _compact_json(out.split("; witness ", 1)[1])
