"""The command-line front end: one verb per construct, JSON report on
stdout, human summary on stderr, exit 0 / 1 / 2.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from algebroids import cli
from algebroids.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_d_on_a_dual_basis_form(capsys):
    code, report, err = run_cli(capsys, "d", "--algebroid", "so3",
                                "--form", "estar3")
    assert code == 0
    assert report["status"] == "pass"
    assert report["items"][0]["result"]["pretty"] == "-e*1∧e*2"
    assert report["items"][0]["result"]["terms"] == {"1,2": "-1"}
    assert "-e*1∧e*2" in err


def test_bracket_of_the_poisson_bivector_with_itself(capsys):
    code, report, _ = run_cli(capsys, "bracket", "--kind", "schouten",
                              "--a", "P", "--b", "P")
    assert code == 0
    assert report["items"][0]["result"]["pretty"] == "0"
    assert report["items"][0]["result"]["degree"] == 3


def test_bracket_kinds(capsys):
    for kind, a, b in (("sym", "e1", "e2"), ("nr", "e1", "e2"),
                       ("fn", "e1", "e2")):
        code, report, _ = run_cli(capsys, "bracket", "--kind", kind,
                                  "--algebroid", "so3", "--a", a, "--b", b)
        assert code == 0, (kind, report)
    code, report, _ = run_cli(capsys, "bracket", "--kind", "extended",
                              "--poisson", "poisson-plane",
                              "--algebroid", "plane-xp",
                              "--a", "estar1", "--b", "estar2")
    assert code == 0
    # koszul / extended without --poisson is an input error
    code, report, _ = run_cli(capsys, "bracket", "--kind", "koszul",
                              "--algebroid", "plane-xp",
                              "--a", "estar1", "--b", "estar2")
    assert code == 2
    assert report["error"]["type"] == "UnknownName"


def test_validate_lists_every_structure(capsys):
    code, report, err = run_cli(capsys, "validate")
    assert code == 0
    ids = [item["id"] for item in report["items"]]
    assert "algebroid/so3" in ids and "poisson/poisson-four" in ids
    assert len(ids) == 9
    assert "9 item(s), 9 pass" in err


def test_validate_model_file(capsys):
    code, report, _ = run_cli(capsys, "validate",
                              "--model", "fixtures/so3.json")
    assert code == 0
    assert [i["id"] for i in report["items"]] == ["algebroid/so3"]


def test_broken_model_file_is_an_input_error(capsys):
    code, report, err = run_cli(capsys, "validate",
                                "--model", "fixtures/broken_anchor.json")
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["type"] == "ValidationError"
    assert "witness" in report["error"]
    assert "pair" in report["error"]["witness"]
    assert "error" in err


@pytest.mark.parametrize("duals", [["a", "b"], ["a", "b", "a"], ["a", 2, "c"]],
                         ids=["wrong-length", "duplicate", "not-a-string"])
def test_hostile_dual_names_are_an_input_error(tmp_path, capsys, duals):
    with open("fixtures/so3.json", encoding="utf-8") as handle:
        document = json.load(handle)
    document["algebroids"]["so3"]["duals"] = duals
    path = tmp_path / "duals.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, report, _ = run_cli(capsys, "validate", "--model", str(path))
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["type"] == "ValidationError"


def test_an_unbounded_coefficient_degree_is_an_input_error(tmp_path, capsys):
    """A rank-1, one-trial model whose draws may reach degree 10^8 is
    refused before any draw, not drawn for minutes."""
    path = tmp_path / "degree.json"
    path.write_text(json.dumps({
        "charts": {"line": ["x"]},
        "algebroids": {"line": {"chart": "line", "fibers": ["e"], "anchor": [["1"]]}},
        "suite": {"trials": 1, "max_degree": 10 ** 8}}), encoding="utf-8")
    started = time.perf_counter()
    code, report, _ = run_cli(capsys, "suite", "--name", "theorem-1", "--model", str(path))
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert report["error"]["type"] == "ValidationError"


def test_nonpositive_trials_are_an_input_error(capsys):
    code, report, _ = run_cli(capsys, "suite", "--name", "theorem-24",
                              "--trials", "-5")
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("anchor, document", [
    # a polynomial nested past the parser's bound
    ("(" * 3000 + "x" + ")" * 3000, None),
    # JSON nested past the interpreter's recursion limit
    (None, "[" * 100000 + "]" * 100000),
    # an integer literal longer than int() reads
    ("1" * 5000, None),
], ids=["polynomial", "json", "long-literal"])
def test_deep_nesting_is_an_input_error(tmp_path, anchor, document):
    if document is None:
        document = json.dumps({
            "charts": {"line": ["x"]},
            "algebroids": {"deep": {"chart": "line", "fibers": ["e1"],
                                    "anchor": [[anchor]]}}})
    path = tmp_path / "deep.json"
    path.write_text(document, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "algebroids", "validate", "--model", str(path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["status"] == "error"
    assert "Traceback" not in proc.stderr


def test_a_negative_exponent_report_does_not_echo_the_entry(tmp_path):
    """An anchor entry of 200,000 terms (about 800 KB, under the model
    size bound) with a negative exponent at its start: the error report
    names the position, not the text."""
    anchor = "x^-1" + " + x" * 199_999
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({
        "charts": {"line": ["x"]},
        "algebroids": {"long": {"chart": "line", "fibers": ["e1"],
                                "anchor": [[anchor]]}}}), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "algebroids", "validate", "--model", str(path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["status"] == "error"
    assert report["error"]["type"] == "ParseError"
    assert report["error"]["message"].endswith("negative exponent at position 2")
    assert len(proc.stdout) < 4096 and len(proc.stderr) < 4096
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_unreadable_model_is_an_input_error(tmp_path, case):
    path = tmp_path if case == "directory" else tmp_path / "model.json"
    if case == "not-utf8":
        path.write_bytes(b'{"charts": {"line": ["\xe9"]}}')  # Latin-1, not UTF-8
    proc = subprocess.run(
        [sys.executable, "-m", "algebroids", "validate", "--model", str(path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["status"] == "error"
    assert report["error"]["type"] == "ParseError"
    assert str(path) in report["error"]["message"]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("table", ["charts", "algebroids", "tensors"])
def test_a_name_utf8_cannot_hold_is_an_input_error(tmp_path, table):
    """A lone surrogate is valid JSON (the escape \\ud800) but no UTF-8
    text: a model naming one is refused with a report that can be written,
    not a UnicodeEncodeError traceback from writing one that names it."""
    with open("fixtures/so3.json", encoding="utf-8") as handle:
        document = json.load(handle)
    document["tensors"] = {"t": {"owner": "so3", "kind": "mv", "degree": 1,
                                 "terms": {"1": "1"}}}
    (body,) = document[table].values()
    document[table] = {"\ud800": body}
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "algebroids", "validate", "--model", str(path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["status"] == "error"
    assert report["error"]["type"] == "ParseError"
    assert report["error"]["message"].startswith(f"{table}: ")
    assert "Traceback" not in proc.stderr


def test_a_path_that_is_not_utf8_gives_a_utf8_report(tmp_path):
    """The byte 0xff of a path argument decodes to the lone surrogate
    U+DCFF, which the report writes as its JSON escape, not as the raw
    byte: stdout is UTF-8 and reads back as the argument."""
    path = os.fsencode(tmp_path) + b"/\xff.json"
    proc = subprocess.run(
        [sys.executable, "-m", "algebroids", "validate", "--model", path],
        capture_output=True, timeout=120)
    assert proc.returncode == 2
    text = proc.stdout.decode("utf-8")
    assert "\\udcff" in text
    report = json.loads(text)
    assert report["status"] == "error"
    assert report["command"] == ["validate", "--model", os.fsdecode(path)]
    assert os.fsdecode(path) in report["error"]["message"]
    assert b"Traceback" not in proc.stderr


def test_a_closed_stdout_exits_2_without_a_traceback():
    """The reader takes 20 bytes and closes the pipe, as ``| head -c 20``
    does.  The pipe holds one page, so most of the report (about 20 KB) is
    still unwritten when the reader closes, and writing it must fail."""
    fcntl = pytest.importorskip("fcntl")
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    with open(read_end, "rb", buffering=0) as reader:
        proc = subprocess.Popen(
            [sys.executable, "-m", "algebroids", "suite", "--name", "all",
             "--trials", "1"], stdout=write_end, stderr=subprocess.PIPE)
        os.close(write_end)
        assert len(reader.read(20)) == 20
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert b"Traceback" not in err


def test_oversized_model_is_an_input_error(tmp_path):
    # one character past the documented 1,000,000, trailing spaces only
    with open("fixtures/standard.json", encoding="utf-8") as handle:
        text = handle.read().ljust(1_000_001)
    path = tmp_path / "oversized.json"
    path.write_text(text, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "algebroids", "validate", "--model", str(path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["status"] == "error"
    assert report["error"]["type"] == "ParseError"
    assert str(path) in report["error"]["message"]
    assert "Traceback" not in proc.stderr


def test_polynomial_blow_up_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "blow-up.json"
    path.write_text(json.dumps({
        "charts": {"space": ["x", "y", "z"]},
        "algebroids": {"big": {"chart": "space", "fibers": ["e1"],
                               "anchor": [["(x+y+z+1)^20", "0", "0"]]}}}),
        encoding="utf-8")
    code, report, _ = run_cli(capsys, "validate", "--model", str(path))
    assert code == 2
    assert report["status"] == "error"
    assert "terms" in report["error"]["message"]


def test_memory_error_is_an_input_error(capsys, monkeypatch):
    def exhausted(model, args):
        raise MemoryError
    monkeypatch.setitem(cli._HANDLERS, "validate", exhausted)
    code, report, err = run_cli(capsys, "validate")
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["type"] == "MemoryError"
    assert "Traceback" not in err


def test_unknown_tensor_is_an_input_error(capsys):
    code, report, _ = run_cli(capsys, "bracket", "--kind", "schouten",
                              "--a", "nope", "--b", "P")
    assert code == 2
    assert report["error"]["type"] == "UnknownName"


def test_basis_names_need_an_owner(capsys):
    code, report, _ = run_cli(capsys, "d", "--form", "estar1")
    assert code == 2
    assert "--algebroid" in report["error"]["message"]


def test_lie_and_contract(capsys):
    code, report, _ = run_cli(capsys, "lie", "--algebroid", "so3",
                              "--x", "e1", "--t", "estar2")
    assert code == 0
    code, report, _ = run_cli(capsys, "contract", "--algebroid", "so3",
                              "--x", "e1", "--t", "estar1")
    assert code == 0
    assert report["items"][0]["result"]["pretty"] == "1"


def test_lift_section_maps(capsys):
    for kind in ("V", "T"):
        code, report, _ = run_cli(capsys, "lift", "--kind", kind,
                                  "--algebroid", "so3", "--t", "e1")
        assert code == 0
        assert report["items"][0]["result"]["kind"] == "mv"
    code, report, _ = run_cli(capsys, "lift", "--kind", "Vpi",
                              "--algebroid", "so3", "--t", "estar1")
    assert code == 0
    code, report, _ = run_cli(capsys, "lift", "--kind", "G",
                              "--algebroid", "nonconstant-rank2", "--t", "e2")
    assert code == 0
    # a lift that needs a tensor flags its absence
    code, report, _ = run_cli(capsys, "lift", "--kind", "V")
    assert code == 2


def test_lift_structures(capsys):
    code, report, _ = run_cli(capsys, "lift", "--kind", "tangent-algebroid",
                              "--algebroid", "so3")
    assert code == 0
    body = report["items"][0]["result"]
    assert body["fibers"] == ["1_bar", "2_bar", "3_bar",
                              "1_dot", "2_dot", "3_dot"]
    assert body["provenance"] == "tangent-lift"

    code, report, _ = run_cli(capsys, "lift", "--kind", "cotangent-algebroid",
                              "--algebroid", "so3")
    assert code == 0

    code, report, _ = run_cli(capsys, "lift", "--kind", "linear-poisson",
                              "--algebroid", "so3")
    assert code == 0
    assert report["items"][0]["result"]["chart"] == ["xi_1", "xi_2", "xi_3"]

    code, report, _ = run_cli(capsys, "lift", "--kind", "tangent-poisson",
                              "--poisson", "poisson-so3")
    assert code == 0
    assert len(report["items"][0]["result"]["chart"]) == 6


def test_kind_mismatch_is_an_input_error(capsys):
    code, report, _ = run_cli(capsys, "lift", "--kind", "Gmix",
                              "--algebroid", "so3", "--t", "e1")
    assert code == 2
    assert report["error"]["type"] == "KindMismatch"


def test_suite_single_and_failure_free(capsys):
    code, report, err = run_cli(capsys, "suite", "--name", "theorem-12",
                                "--seed", "7", "--trials", "50")
    assert code == 0
    suite = report["items"][0]["result"]
    assert suite["status"] == "pass"
    assert [i["id"] for i in suite["items"]] == sorted(
        i["id"] for i in suite["items"])
    assert sum(i["checked"] for i in suite["items"]) >= 150
    assert "150 instances" in err


def test_suite_unknown_name(capsys):
    code, report, _ = run_cli(capsys, "suite", "--name", "theorem-99")
    assert code == 2


def test_suite_reports_are_deterministic(capsys):
    _, first, _ = run_cli(capsys, "suite", "--name", "theorem-3",
                          "--trials", "4")
    _, again, _ = run_cli(capsys, "suite", "--name", "theorem-3",
                          "--trials", "4")
    first.pop("timing"), again.pop("timing")
    assert first == again


def test_eval_at_rational_point(capsys):
    code, report, _ = run_cli(capsys, "eval", "--tensor", "P",
                              "--at", "x=1,y=2,p_x=3,p_y=-1/2")
    assert code == 0
    result = report["items"][0]["result"]
    assert result["point"]["p_y"] == "-1/2"
    assert set(result["values"]) == {"1,3", "2,4"}
    # unlisted coordinates default to zero
    code, report, _ = run_cli(capsys, "eval", "--tensor", "P", "--at", "x=5")
    assert code == 0
    assert report["items"][0]["result"]["point"]["y"] == "0"
    # unknown coordinates are input errors
    code, report, _ = run_cli(capsys, "eval", "--tensor", "P", "--at", "q=1")
    assert code == 2
    assert report["error"]["type"] == "UnknownName"


@pytest.mark.parametrize("value", [
    "1e5000", "\u0663", "1.5", "1/0", "0x10", "--1", "1/-2", "",
    "9" * 101, "1/" + "9" * 101])
def test_eval_point_takes_only_bounded_ascii_rationals(capsys, value):
    code, report, err = run_cli(capsys, "eval", "--tensor", "P",
                                "--at", f"x={value}")
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["type"] == "BadPoint"
    assert "Traceback" not in err


def test_eval_point_accepts_the_model_rationals(capsys):
    big = "9" * 100
    code, report, _ = run_cli(capsys, "eval", "--tensor", "P",
                              "--at", f"x=-{big}/7{big[1:]},y= 3 ")
    assert code == 0
    assert report["items"][0]["result"]["point"]["x"] == f"-{big}/7{big[1:]}"
    assert report["items"][0]["result"]["point"]["y"] == "3"


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
                    reason="no int-to-str digit limit in this interpreter")
def test_eval_value_too_long_to_print_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "power.json"
    path.write_text(json.dumps({
        "charts": {"line": ["x"]},
        "algebroids": {"line": {"chart": "line", "fibers": ["e"],
                                "anchor": [["1"]]}},
        "tensors": {"t": {"owner": "line", "kind": "mv", "degree": 0,
                          "terms": {"": "x^100"}}},
    }), encoding="utf-8")
    code, report, err = run_cli(capsys, "eval", "--model", str(path),
                                "--tensor", "t", "--at", "x=" + "9" * 100)
    assert code == 2
    assert report["error"]["type"] == "ValidationError"
    assert "Traceback" not in err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "algebroids", "contract", "--algebroid", "so3",
         "--x", "e2", "--t", "estar2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "pass"
    assert "pass" in proc.stderr


def test_identity_failure_exits_one(capsys):
    # exit 1 is unreachable with healthy inputs (the identities are theorems),
    # so force it the same way the witness-replay test does
    from algebroids import tensor as tensor_conventions

    assert tensor_conventions.CONTRACTION_ORDER == "first-factor-innermost"
    tensor_conventions.CONTRACTION_ORDER = "last-factor-innermost"
    try:
        code, report, err = run_cli(capsys, "suite", "--name", "theorem-6",
                                    "--trials", "8")
    finally:
        tensor_conventions.CONTRACTION_ORDER = "first-factor-innermost"
    assert code == 1
    assert report["status"] == "fail"
    (item,) = report["items"]
    assert item["status"] == "fail"
    inner = [i for i in item["result"]["items"] if i["status"] == "fail"]
    assert inner and all(i["witness"]["replay"] for i in inner)
    assert "fail" in err
