"""prog-v1 files are validated in full when they are loaded.

The generated matcher relies on every step carrying a value of its type, so
a defect in a program file must stop the load with ProgramFormatError, and
`analogue scan` must report it with the program's own reason.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from analogue.cli import main
from analogue.compiler import (ASCEND, BIND, CHECK, DESCEND, KIND, NEXT, SYMBOL,
                               ProgramFormatError, compile_template,
                               deserialize_program, serialize_program,
                               validate_program)
from analogue.php_parser import parse_source
from analogue.template import derive_template

SEED = "<?php\n$a = $_POST['x'];\n$r = mysql_query(\"SELECT '$a'\");\n"


def program_doc() -> dict:
    unit = parse_source(SEED)
    p = compile_template(derive_template(unit, unit.children_of(unit.nodes[unit.root])))
    return json.loads(serialize_program(p))


def first_step(doc: dict, op: str) -> dict:
    return next(s for s in doc["steps"] if s["op"] == op)


def load(doc: dict):
    return deserialize_program(json.dumps(doc))


def test_a_compiled_program_loads():
    doc = program_doc()
    assert {s["op"] for s in doc["steps"]} >= {KIND, SYMBOL, BIND, CHECK, DESCEND, ASCEND}
    validate_program(load(doc))


def test_unknown_op_is_rejected():
    doc = program_doc()
    doc["steps"][0]["op"] = "kindd"
    with pytest.raises(ProgramFormatError, match="step 0: unknown op 'kindd'"):
        load(doc)


def test_child_index_given_as_a_string_is_rejected():
    doc = program_doc()
    first_step(doc, DESCEND)["child"] = "0"
    with pytest.raises(ProgramFormatError, match="child must be an int >= 0"):
        load(doc)


def test_negative_child_index_is_rejected():
    doc = program_doc()
    first_step(doc, DESCEND)["child"] = -1
    with pytest.raises(ProgramFormatError, match="child must be an int >= 0"):
        load(doc)


def test_missing_child_index_is_rejected():
    doc = program_doc()
    del first_step(doc, DESCEND)["child"]
    with pytest.raises(ProgramFormatError, match="child must be an int >= 0"):
        load(doc)


@pytest.mark.parametrize("kind", [7, None, ["Assign"]])
def test_kind_that_is_not_a_string_is_rejected(kind):
    doc = program_doc()
    doc["steps"][0]["kind"] = kind
    with pytest.raises(ProgramFormatError, match="step 0: kind must be a string"):
        load(doc)


@pytest.mark.parametrize("name", [3, None, {"n": "mysql_query"}])
def test_name_that_is_not_a_string_is_rejected(name):
    doc = program_doc()
    first_step(doc, SYMBOL)["name"] = name
    with pytest.raises(ProgramFormatError, match="name must be a string"):
        load(doc)


@pytest.mark.parametrize("op", [BIND, CHECK])
@pytest.mark.parametrize("class_id", ["0", 0.0, True, None])
def test_class_that_is_not_an_int_is_rejected(op, class_id):
    doc = program_doc()
    first_step(doc, op)["class"] = class_id
    with pytest.raises(ProgramFormatError, match="class must be an int"):
        load(doc)


def test_arity_may_be_absent_but_not_a_string():
    doc = program_doc()
    del doc["steps"][0]["arity"]
    assert load(doc).steps[0].arity is None
    doc["steps"][0]["arity"] = "2"
    with pytest.raises(ProgramFormatError, match="step 0: arity must be an int >= 0"):
        load(doc)


def test_unbalanced_navigation_is_a_format_error():
    doc = program_doc()
    i = doc["steps"].index(first_step(doc, ASCEND))
    del doc["steps"][i]
    with pytest.raises(ProgramFormatError, match="statement boundary inside a subtree"):
        load(doc)


@pytest.mark.parametrize("key,value", [("template_depth", "3"),
                                       ("statement_count", -1),
                                       ("query_id", 5),
                                       ("symbol_policy", "keep"),
                                       ("origin", {"path": "x.php"}),
                                       ("origin", {"lines": [1, 2]}),
                                       ("origin", {"path": [1], "lines": [1, 2]}),
                                       ("origin", {"path": "x.php", "lines": [1.5, 2]}),
                                       ("origin", "x.php:1-2")])
def test_malformed_header_is_a_format_error(key, value):
    doc = program_doc()
    doc[key] = value
    with pytest.raises(ProgramFormatError):
        load(doc)


@pytest.mark.parametrize("key", ["statement_count", "var_class_count", "template_depth"])
def test_a_header_count_the_steps_do_not_imply_is_rejected(key):
    doc = program_doc()
    assert doc[key] == getattr(load(doc), key)
    for wrong in (doc[key] + 1, doc[key] - 1, 50, True, float(doc[key])):
        doc[key] = wrong
        with pytest.raises(ProgramFormatError, match="^%s is " % key):
            load(doc)
    del doc[key]
    assert load(doc) == load(program_doc())


@pytest.mark.parametrize("edit", [
    lambda doc: doc["steps"][0].update(node=[1]),
    lambda doc: doc["steps"][0].update({"class": 0}),
    lambda doc: first_step(doc, DESCEND).update(kind="Var"),
    lambda doc: first_step(doc, ASCEND).update(child=0),
    lambda doc: first_step(doc, SYMBOL).update({"class": "x"}),
])
def test_a_node_that_is_not_an_int_or_a_field_the_op_does_not_read_is_rejected(edit):
    doc = program_doc()
    edit(doc)
    with pytest.raises(ProgramFormatError,
                       match=r"^step \d+: (node must be an int|"
                             r"a \w+ step carries a field it does not read)$"):
        load(doc)


def test_a_template_depth_too_deep_for_the_steps_is_reported_by_scan(tmp_path, capsys,
                                                                      fixtures_dir):
    """Pruned by a depth the steps do not imply, the scan would drop the
    seed's own match; the file does not load instead."""
    seed = str(fixtures_dir / "tutorial_books.php")
    tmpl = tmp_path / "q.tmpl.jsonl"
    assert main(["derive", seed, "--lines", "5:6", "-o", str(tmpl)]) == 0
    assert main(["compile", str(tmpl), "--out-dir", str(tmp_path)]) == 0
    prog = next(tmp_path.glob("*.prog.json"))
    doc = json.loads(prog.read_text())
    doc["template_depth"] = 50
    prog.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["scan", str(prog), seed]) == 1
    err = capsys.readouterr().err
    assert err == "error: %s: template_depth is 50, but the steps imply 4\n" % prog


def test_scan_reports_a_bad_program_with_its_reason(tmp_path, capsys):
    doc = program_doc()
    i = doc["steps"].index(first_step(doc, ASCEND))
    del doc["steps"][i]
    prog = tmp_path / "bad.prog.json"
    prog.write_text(json.dumps(doc))
    target = tmp_path / "s.php"
    target.write_text(SEED)
    assert main(["scan", str(prog), str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: step " % prog)
    assert "statement boundary inside a subtree" in err
    assert "Traceback" not in err


# Program files the engine would once have tried at every statement, or
# beyond the end of a run: each statement must open with a KIND step.
UNOPENED = {
    "step-less": ([], "step 0: a statement opens with a kind step, "
                      "not the end of the program"),
    "bind-only": ([{"op": BIND, "node": 0, "class": 0}],
                  "step 0: a statement opens with a kind step, not a bind step"),
    "trailing-next": ([{"op": KIND, "node": 0, "kind": "Assign"},
                       {"op": NEXT, "node": 1}],
                      "step 2: a statement opens with a kind step, "
                      "not the end of the program"),
}


@pytest.mark.parametrize("command", ["scan", "mine"])
@pytest.mark.parametrize("name", UNOPENED)
def test_a_program_file_whose_statement_does_not_open_with_a_kind_step_is_refused(
        tmp_path, capsys, monkeypatch, name, command):
    steps, reason = UNOPENED[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q").mkdir()
    prog = Path("q", "bad.prog.json")
    prog.write_text(json.dumps({"format": "prog-v1", "query_id": "q", "steps": steps}))
    (tmp_path / "repo").mkdir()
    (tmp_path / "repo" / "a.php").write_text("<?php $a = 1; foo(); if ($x) { echo 2; }\n")
    (tmp_path / "repos.txt").write_text("repo\n")
    argv = {"scan": ["scan", str(prog), "repo/a.php"],
            "mine": ["mine", "--repos", "repos.txt", "--queries", "q", "--out", "out"]}
    assert main(argv[command]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: %s: %s\n" % (prog, reason)
    assert not (tmp_path / "out").exists()
