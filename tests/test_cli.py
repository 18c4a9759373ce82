import hashlib
import json

import pytest
from click.testing import CliRunner

import starsep.cli
import starsep.errors
import starsep.treewidth
from starsep.cli import main
from starsep.cutsets import clique_cutset_atoms
from starsep.graph_core import Graph, dumps_graph
from starsep.generators import make

from . import oracles
from .conftest import star_member_with_apex_hub, star_member_with_pyramids


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def w93_file(tmp_path):
    p = tmp_path / "w93.json"
    p.write_text(dumps_graph(make("W93")))
    return str(p)


def _json_out(result):
    return json.loads(result.output)


def test_recognize_member(runner, w93_file):
    res = runner.invoke(main, ["recognize", "--t", "4", w93_file])
    assert res.exit_code == 0
    assert _json_out(res)["member"] is True


def test_recognize_nonmember_exit3(runner, tmp_path):
    p = tmp_path / "w5.json"
    p.write_text(dumps_graph(make("WHEEL(5,{1,2,3,4,5})")))
    res = runner.invoke(main, ["recognize", "--t", "4", str(p)])
    assert res.exit_code == 3
    out = _json_out(res)
    assert out["obstruction"]["kind"] == "diamond"


def test_atoms_command(runner, tmp_path):
    p = tmp_path / "bowtie.json"
    p.write_text(dumps_graph(make("bowtie")))
    res = runner.invoke(main, ["atoms", str(p)])
    assert res.exit_code == 0
    assert sorted(_json_out(res)["atoms"]) == [[0, 1, 2], [0, 3, 4]]


def test_separations_command(runner, tmp_path):
    p = tmp_path / "p9.json"
    p.write_text(dumps_graph(make("P9")))
    res = runner.invoke(main, ["separations", str(p)])
    assert res.exit_code == 0
    out = _json_out(res)
    assert out["U"] == [0, 1, 2, 6, 7, 8]
    assert out["order"]["minimal"] == [2, 6]


def test_hubdiv_command(runner, w93_file):
    res = runner.invoke(main, ["hubdiv", "--t", "4", w93_file])
    assert res.exit_code == 0
    out = _json_out(res)
    assert out["division"]["ordering"] == [9]
    assert out["no_wheels_in_bag"]["passed"] is True


def test_separator_command(runner, w93_file):
    res = runner.invoke(main, ["separator", "--t", "4", w93_file])
    assert res.exit_code == 0
    assert _json_out(res)["separator"] == [0, 3, 6, 9]


def test_separator_with_weights_file(runner, w93_file, tmp_path):
    wp = tmp_path / "w.json"
    wp.write_text(json.dumps(["1/2"] * 10))
    res = runner.invoke(main, ["separator", "--t", "4",
                               "--weights", str(wp), w93_file])
    assert res.exit_code == 2  # those weights do not sum to one
    wp.write_text(json.dumps(["7/10"] + ["1/30"] * 9))
    res2 = runner.invoke(main, ["separator", "--t", "4",
                                "--weights", str(wp), w93_file])
    assert res2.exit_code == 0


def test_float_weights_are_read_as_decimals(runner, w93_file, tmp_path):
    """JSON numbers in a weights file are the decimals they are written
    as: ten 0.1 total exactly 1 and print as fractions, and three
    0.3333333333 total 1 only within a rounding error, so they exit 2."""
    wp = tmp_path / "w.json"
    wp.write_text("[" + ", ".join(["0.1"] * 10) + "]")
    res = runner.invoke(main, ["separator", "--t", "4",
                               "--weights", str(wp), w93_file])
    assert res.exit_code == 0
    uniform = runner.invoke(main, ["separator", "--t", "4", w93_file])
    assert res.output == uniform.output
    gp = tmp_path / "p3.json"
    gp.write_text(dumps_graph(make("P3")))
    wp.write_text("[0.3333333333, 0.3333333333, 0.3333333333]")
    res = runner.invoke(main, ["separator", "--t", "4",
                               "--weights", str(wp), str(gp)])
    assert res.exit_code == 2
    assert "must sum to 1" in _json_out(res)["message"]


@pytest.mark.parametrize("args, text", [
    (["--weights", "W"], '["1e-999999999", "1"]'),
    (["--weights", "W"], "[1e-999999999, 1]"),
    (["--balance", "1e-999999999"], None),
])
def test_huge_exponent_exits_2_at_once(runner, tmp_path, args, text):
    """A decimal exponent above Python's int digit limit is refused
    before its power of ten is built, in a weights file (a string or a
    JSON number) and as a balance constant."""
    import time
    gp, wp = tmp_path / "g.json", tmp_path / "w.json"
    gp.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    if text is not None:
        wp.write_text(text)
    args = [str(wp) if a == "W" else a for a in args]
    start = time.perf_counter()
    res = runner.invoke(main, ["separator", "--t", "4", *args, str(gp)])
    assert time.perf_counter() - start < 1
    assert res.exit_code == 2
    out = _json_out(res)
    assert out["error"] == "input" and "exponent" in out["message"]


def test_weight_outside_the_vertex_list_exits_2(runner, tmp_path):
    """Weights that total 1 over all n slots but put some of it on a
    vertex outside the file's vertex list are bad input."""
    gp, wp = tmp_path / "g.json", tmp_path / "w.json"
    gp.write_text(json.dumps({"n": 4, "vertices": [0, 1, 2],
                              "edges": [[0, 1], [1, 2]]}))
    wp.write_text(json.dumps(["0", "0", "1/2", "1/2"]))
    res = runner.invoke(main, ["separator", "--t", "4",
                               "--weights", str(wp), str(gp)])
    assert res.exit_code == 2
    out = _json_out(res)
    assert out["error"] == "input" and "outside the graph" in out["message"]
    wp.write_text(json.dumps(["0", "1/2", "1/2", "0"]))
    res = runner.invoke(main, ["separator", "--t", "4",
                               "--weights", str(wp), str(gp)])
    assert res.exit_code == 0


def test_separator_failed_recheck_exits_4(runner, w93_file, monkeypatch):
    monkeypatch.setattr(starsep.cli, "verify_certificate",
                        lambda g, w, cert: False)
    res = runner.invoke(main, ["separator", "--t", "4", w93_file])
    assert res.exit_code == 4
    out = _json_out(res)
    assert out["error"] == "hypothesis_violation"
    assert out["witness"] == {"separator": [0, 3, 6, 9]}


def test_decompose_small_t_is_an_input_error(runner, w93_file):
    res = runner.invoke(main, ["decompose", "--t", "3", w93_file])
    assert res.exit_code == 2
    assert _json_out(res) == {"error": "input",
                              "message": "class membership needs t >= 4"}


def test_decompose_nonmember_exit3_with_recognize_json(runner, tmp_path):
    p = tmp_path / "w5.json"
    p.write_text(dumps_graph(make("WHEEL(5,{1,2,3,4,5})")))
    dec = runner.invoke(main, ["decompose", "--t", "4", str(p)])
    rec = runner.invoke(main, ["recognize", "--t", "4", str(p)])
    assert dec.exit_code == rec.exit_code == 3
    assert dec.output == rec.output
    assert _json_out(dec)["obstruction"]["kind"] == "diamond"


def test_decompose_and_verify(runner, w93_file, tmp_path):
    res = runner.invoke(main, ["decompose", "--t", "4", w93_file])
    assert res.exit_code == 0
    out = _json_out(res)
    assert out["report"]["validation_passed"] is True
    dec = tmp_path / "dec.json"
    dec.write_text(json.dumps(out))
    res2 = runner.invoke(main, ["verify-cert", w93_file, str(dec)])
    assert res2.exit_code == 0
    assert _json_out(res2)["validation"]["passed"] is True
    # corrupt a bag and expect a failing revalidation
    out["decomposition"]["bags"][0] = []
    dec.write_text(json.dumps(out))
    res3 = runner.invoke(main, ["verify-cert", w93_file, str(dec)])
    assert res3.exit_code == 4


def test_exact_tw_and_capacity(runner, w93_file, tmp_path):
    res = runner.invoke(main, ["exact-tw", w93_file])
    assert res.exit_code == 0 and _json_out(res)["treewidth"] == 3
    big = tmp_path / "c20.json"
    big.write_text(json.dumps(
        {"n": 20, "edges": [[i, (i + 1) % 20] for i in range(20)]}))
    res2 = runner.invoke(main, ["exact-tw", str(big)])
    assert res2.exit_code == 5


def test_gen_named_and_random(runner, tmp_path):
    out = tmp_path / "g.json"
    res = runner.invoke(main, ["gen", "--kind", "C6", "--out", str(out)])
    assert res.exit_code == 0
    assert json.loads(out.read_text())["n"] == 6
    res2 = runner.invoke(main, ["gen", "--kind", "random", "--n", "8",
                                "--seed", "2"])
    assert res2.exit_code == 0
    obj = json.loads(res2.output)
    assert obj["n"] == 8
    res3 = runner.invoke(main, ["gen", "--kind", "random", "--n", "8",
                                "--seed", "2"])
    assert res3.output == res2.output  # reproducible


def test_gen_unwritable_out_exits_2(runner, tmp_path):
    """Writing --out runs under the guard like every other failure."""
    out = str(tmp_path / "missing" / "g.json")
    res = runner.invoke(main, ["gen", "--kind", "C5", "--out", out])
    assert res.exit_code == 2
    obj = _json_out(res)
    assert obj["error"] == "io" and out in obj["message"]


@pytest.mark.parametrize("kind", ["THETA(a,b,c)", "PRISM(2,,3)"])
def test_gen_non_integer_lengths_exit_2(runner, kind):
    res = runner.invoke(main, ["gen", "--kind", kind])
    assert res.exit_code == 2
    obj = _json_out(res)
    assert obj["error"] == "input" and kind in obj["message"]


@pytest.mark.parametrize("kind", [
    "P" + "9" * 5000, "WHEEL(" + "9" * 5000 + ",{1,2,3})",
    "THETA(" + "9" * 5000 + ",2,2)",
])
def test_gen_number_past_the_digit_limit_exits_2(runner, kind):
    """A name's number past Python's int digit limit is bad input."""
    res = runner.invoke(main, ["gen", "--kind", kind])
    assert res.exit_code == 2
    obj = _json_out(res)
    assert obj["error"] == "input" and kind in obj["message"]
    assert "digits" in obj["message"]


@pytest.mark.parametrize("name,text", [
    ("huge.json", '{"n": 258048, "edges": []}'),
    ("huge.col", "p edge 258048 0\n"),
])
def test_recognize_over_vertex_cap_exits_5(runner, tmp_path, name, text):
    """A vertex count above the graph6 limit is refused from the file's
    header, before any graph is built."""
    p = tmp_path / name
    p.write_text(text)
    res = runner.invoke(main, ["recognize", "--t", "4", str(p)])
    assert res.exit_code == 5
    obj = _json_out(res)
    assert obj["error"] == "capacity" and "258048" in obj["message"]


@pytest.mark.parametrize("at_cap,over_cap", [
    ("P10", "P11"), ("C10", "C11"), ("K10", "K11"),
    ("WHEEL(9,{1,4,7})", "WHEEL(10,{1,4,7})"),
    ("THETA(2,3,6)", "THETA(2,3,7)"),
])
def test_gen_named_graph_over_vertex_cap_exits_5(runner, monkeypatch,
                                                 at_cap, over_cap):
    """A named graph may have as many vertices as a graph file, and no
    more: above the cap it is refused from its name before any edge is
    built.  The cap is lowered to 10 here, so that no test builds a
    graph of the real cap's size."""
    import starsep.generators
    from starsep.graph_core import MAX_VERTICES
    assert starsep.generators.MAX_VERTICES == MAX_VERTICES
    monkeypatch.setattr(starsep.generators, "MAX_VERTICES", 10)
    res = runner.invoke(main, ["gen", "--kind", at_cap])
    assert res.exit_code == 0 and _json_out(res)["n"] == 10
    res = runner.invoke(main, ["gen", "--kind", over_cap])
    assert res.exit_code == 5
    assert _json_out(res) == {
        "error": "capacity",
        "message": f"named graphs hold at most 10 vertices, not 11: "
                   f"{over_cap!r}"}


def test_gen_graph6(runner):
    res = runner.invoke(main, ["gen", "--kind", "C6", "--g6"])
    assert res.exit_code == 0
    from starsep.graph_core import from_graph6
    assert from_graph6(res.output.strip()) == make("C6")


def test_batch_summary(runner, tmp_path):
    d = tmp_path / "graphs"
    d.mkdir()
    (d / "a_p9.json").write_text(dumps_graph(make("P9")))
    (d / "b_w93.json").write_text(dumps_graph(make("W93")))
    (d / "c_k4.json").write_text(dumps_graph(make("K4")))
    res = runner.invoke(main, ["batch", "--t", "4", str(d)])
    assert res.exit_code == 0
    rows = _json_out(res)["instances"]
    assert [r["instance"] for r in rows] == \
        ["a_p9.json", "b_w93.json", "c_k4.json"]
    assert rows[0]["checks"]["validation"] is True
    assert rows[2]["member"] is False and rows[2]["obstruction"] == "K_t"
    res2 = runner.invoke(main, ["batch", "--t", "4", str(d)])
    assert res2.output == res.output


def test_batch_tests_membership_once_per_instance(runner, tmp_path,
                                                  monkeypatch):
    d = tmp_path / "graphs"
    d.mkdir()
    (d / "a_w93.json").write_text(dumps_graph(make("W93")))
    (d / "b_k4.json").write_text(dumps_graph(make("K4")))
    real = starsep.treewidth.class_membership
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (starsep.cli, starsep.treewidth):
        monkeypatch.setattr(module, "class_membership", counting)
    res = runner.invoke(main, ["batch", "--t", "4", str(d)])
    assert res.exit_code == 0
    assert len(calls) == 2


def test_batch_malformed_file_exits_2(runner, tmp_path):
    d = tmp_path / "graphs"
    d.mkdir()
    (d / "a_w93.json").write_text(dumps_graph(make("W93")))
    (d / "bad.json").write_text("{")
    res = runner.invoke(main, ["batch", "--t", "4", str(d)])
    assert res.exit_code == 2
    rows = _json_out(res)["instances"]
    assert rows[0]["instance"] == "a_w93.json" and rows[0]["member"] is True
    assert rows[1]["instance"] == "bad.json"
    assert rows[1]["error"] == "InputError"


MALFORMED = {
    "bad.col": b"p edge x 3\n",
    "bad.json": b'{"n": 3, "edges": [[0, "1"]]}',
    "bad_edges.json": b'{"n": 3, "edges": 5}',
    "bad.g6": b"\xc3\x28\n",
    # a count past Python's 4,300-digit limit for reading an int
    "huge_n.json": b'{"n": ' + b"9" * 5000 + b', "edges": []}',
}


def test_batch_keeps_going_past_malformed_files(runner, tmp_path):
    d = tmp_path / "graphs"
    d.mkdir()
    (d / "a_w93.json").write_text(dumps_graph(make("W93")))
    for name, data in MALFORMED.items():
        (d / name).write_bytes(data)
    res = runner.invoke(main, ["batch", "--t", "4", str(d)])
    assert res.exit_code == 2
    rows = _json_out(res)["instances"]
    assert [r["instance"] for r in rows] == ["a_w93.json"] + sorted(MALFORMED)
    assert rows[0]["member"] is True and rows[0]["checks"]["validation"]
    assert all(r["error"] == "InputError" for r in rows[1:])


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_recognize_malformed_file_exits_2(runner, tmp_path, name):
    p = tmp_path / name
    p.write_bytes(MALFORMED[name])
    res = runner.invoke(main, ["recognize", "--t", "4", str(p)])
    assert res.exit_code == 2
    assert _json_out(res)["error"] == "input"


def test_malformed_weights_file_exits_2(runner, w93_file, tmp_path):
    wp = tmp_path / "w.json"
    for text in ("[", "5", '{"a": 1}', "[" + "1" * 5000 + ", 0]"):
        wp.write_text(text)
        res = runner.invoke(main, ["separator", "--t", "4",
                                   "--weights", str(wp), w93_file])
        assert res.exit_code == 2
        assert _json_out(res)["error"] == "input"


@pytest.mark.parametrize("weights, code", [
    (["1e400", 0.5], 2),   # too large for a float: out of [0, 1]
    (["-1e400", 0.5], 2),
    (["1/2", 0.5], 0),     # a string beside a float is still read
    (["1e4300", "0"], 2),  # exact, with more digits than str() prints
])
def test_weight_too_large_for_a_float_is_out_of_range(runner, tmp_path,
                                                      weights, code):
    gp, wp = tmp_path / "g.json", tmp_path / "w.json"
    gp.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    wp.write_text(json.dumps(weights))
    res = runner.invoke(main, ["separator", "--t", "4",
                               "--weights", str(wp), str(gp)])
    assert res.exit_code == code
    out = _json_out(res)
    if code:
        assert out["error"] == "input"
        assert "outside [0, 1]" in out["message"]


@pytest.mark.parametrize("weights", [
    {"1/2": 0, "1/4": 0, "0.25": 1},  # its keys would be three weights
    "100",                            # its characters would be 1, 0, 0
])
def test_weights_that_are_not_a_list_exit_2(runner, tmp_path, weights):
    gp, wp = tmp_path / "g.json", tmp_path / "w.json"
    gp.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    wp.write_text(json.dumps(weights))
    res = runner.invoke(main, ["separator", "--t", "4",
                               "--weights", str(wp), str(gp)])
    assert res.exit_code == 2
    assert _json_out(res)["error"] == "input"
    gp.write_text(json.dumps({"n": 3, "edges": [], "weights": weights}))
    res = runner.invoke(main, ["recognize", "--t", "4", str(gp)])
    assert res.exit_code == 2
    assert _json_out(res)["error"] == "input"


@pytest.mark.parametrize("raised,code", [
    ((), 2),
    (("CapacityError",), 5),
    (("HypothesisViolation",), 4),
    (("CapacityError", "HypothesisViolation"), 4),
])
def test_batch_exit_code_follows_worst_error(runner, tmp_path, monkeypatch,
                                             raised, code):
    # one unreadable file, plus one failing certify call per raised error
    d = tmp_path / "graphs"
    d.mkdir()
    for i in range(len(raised)):
        (d / f"g{i}.json").write_text(dumps_graph(make("W93")))
    (d / "z_bad.json").write_text("{")
    errors = iter(raised)

    def failing(*args, **kwargs):
        raise getattr(starsep.errors, next(errors))("forced")

    monkeypatch.setattr(starsep.cli, "certify", failing)
    res = runner.invoke(main, ["batch", "--t", "4", str(d)])
    assert res.exit_code == code
    rows = _json_out(res)["instances"]
    assert [r["error"] for r in rows] == list(raised) + ["InputError"]


@pytest.mark.parametrize("error,code,kind", starsep.cli.FAILURES)
def test_every_command_failure_follows_the_table(runner, w93_file,
                                                 monkeypatch, error, code,
                                                 kind):
    def failing(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr(starsep.cli, "certify", failing)
    res = runner.invoke(main, ["decompose", "--t", "4", w93_file])
    assert res.exit_code == code
    out = _json_out(res)
    assert (out["error"], out["message"]) == (kind, "forced")


@pytest.mark.parametrize("error,name", [
    (FileNotFoundError, "OSError"),
    (starsep.errors.SamplingError, "SamplingError"),
])
def test_batch_rows_name_failures_by_their_table_entry(runner, tmp_path,
                                                      monkeypatch, error,
                                                      name):
    """A failing instance is a row naming its entry in the failure table,
    and the batch goes on."""
    d = tmp_path / "graphs"
    d.mkdir()
    (d / "a.json").write_text(dumps_graph(make("W93")))

    def failing(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr(starsep.cli, "certify", failing)
    res = runner.invoke(main, ["batch", "--t", "4", str(d)])
    assert res.exit_code == 2
    assert _json_out(res)["instances"] == [
        {"instance": "a.json", "error": name, "message": "forced"}]


@pytest.mark.parametrize("balance", ["abc", "nan", "inf", "-inf", "1e400",
                                     "1/0", "1/3", "1"])
def test_separator_bad_balance_exits_2(runner, w93_file, balance):
    res = runner.invoke(main, ["separator", "--t", "4",
                               "--balance", balance, w93_file])
    assert res.exit_code == 2
    assert _json_out(res)["error"] == "input"


@pytest.mark.parametrize("args,digest", [
    (["separator", "--t", "4", "--balance", "0.6"],  # prints "3/5"
     "9b06a14173d1f9dd6ac20cc65666ece775051670b2445b7688aade4d30e6905d"),
    (["separator", "--t", "4", "--balance", "2/3"],
     "b0651f9df07f62ed9fc02056fc596af19b7029d7b15e54ff97da4c6084599972"),
    (["hubdiv", "--t", "4"],  # prints the inherited weights
     "19d3be7b71af4eb777c629d4b1e91f2249f1c81e866567750c1b4a5ecd8e24e6"),
])
def test_valid_balance_and_hubdiv_output_pinned(runner, w93_file, args,
                                                digest):
    res = runner.invoke(main, args + [w93_file])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == digest


@pytest.mark.parametrize("balance", ["0.60", "6e-1", "3/5"])
def test_decimal_balance_is_read_exactly(runner, w93_file, balance):
    """A decimal balance constant is the Fraction it was written as, so
    0.6 and 3/5 give one certificate, and the certificate of 0.6 is the
    one pinned before decimals were read exactly, but for its balance."""
    res = runner.invoke(main, ["separator", "--t", "4", "--balance", balance,
                               w93_file])
    out = runner.invoke(main, ["separator", "--t", "4", "--balance", "0.6",
                               w93_file]).output
    assert res.exit_code == 0 and res.output == out
    assert json.loads(out)["balance"] == "3/5"
    pinned = out.replace('"balance": "3/5"', '"balance": "0.6"', 1)
    assert hashlib.sha256(pinned.encode()).hexdigest() == \
        "52141b006dd2c23bfe019b01f2485a752a8cc856e1810d1252b4780ff9bbd258"


@pytest.mark.parametrize("name,digest", [
    ("W93", "62dd7a2673d1f6261a6cb418be26e64c47f95170d499247a12af5ffa39400011"),
    ("P9", "1a9017855a816bc7813116c2b8852c327a0d4d4060628ee5c072eec3b65d9a56"),
])
def test_separations_output_pinned(runner, tmp_path, name, digest):
    p = tmp_path / f"{name}.json"
    p.write_text(dumps_graph(make(name)))
    res = runner.invoke(main, ["separations", str(p)])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == digest


@pytest.mark.parametrize("content", [
    b"{not json", b"[1, 2]", b'"bags"', b"\xc3\x28",
    b'{"decomposition": "x"}', b'{"bags": [[-1]], "edges": []}',
    b'{"bags": [[0, 1]], "edges": [[0, 1, 2]]}',
])
def test_verify_cert_malformed_decomposition_exits_2(runner, w93_file,
                                                     tmp_path, content):
    td = tmp_path / "td.json"
    td.write_bytes(content)
    res = runner.invoke(main, ["verify-cert", w93_file, str(td)])
    assert res.exit_code == 2
    assert _json_out(res)["error"] == "input"


def test_verify_cert_dangling_tree_edge_fails_validation(runner, w93_file,
                                                         tmp_path):
    td = tmp_path / "td.json"
    td.write_text(json.dumps({"bags": [list(range(10))], "edges": [[0, 5]]}))
    res = runner.invoke(main, ["verify-cert", w93_file, str(td)])
    assert res.exit_code == 4
    failures = _json_out(res)["validation"]["failures"]
    assert [f["condition"] for f in failures] == ["tree_shape"]


@pytest.fixture
def p3_file(tmp_path):
    p = tmp_path / "p3.json"
    p.write_text(dumps_graph(make("P3")))
    return str(p)


@pytest.mark.parametrize("td, message", [
    ({"bags": [[0, 1, 99], [1, 2]], "edges": [[0, 1]]},
     "bag vertex 99 out of range for n=3"),
    ({"bags": [[0, 1], [1, -1]], "edges": [[0, 1]]},
     "bag vertex -1 out of range for n=3"),
    ({"bags": [[0, 1], [1, 2]], "edges": [[0.7, 1]]},
     "bad tree decomposition JSON"),
    ({"nodes": [0, 1], "edges": [[0, 1]]},
     "bad tree decomposition JSON: missing key 'bags'"),
])
def test_verify_cert_rejects_ids_it_cannot_read(runner, p3_file, tmp_path,
                                                 td, message):
    """Vertex ids outside [0, n) and non-integer node indices are input
    errors, found before any bag is turned into a mask."""
    path = tmp_path / "td.json"
    path.write_text(json.dumps(td))
    res = runner.invoke(main, ["verify-cert", p3_file, str(path)])
    assert res.exit_code == 2
    out = _json_out(res)
    assert out["error"] == "input" and out["message"].startswith(message)


@pytest.mark.parametrize("command, graph, td", [
    (["decompose", "--t", "4"], {"n": True, "edges": []}, None),
    (["recognize", "--t", "4"], {"n": 2, "edges": [[False, True]]}, None),
    (["verify-cert"], {"n": 2, "edges": [[0, 1]]},
     {"bags": [[True, False]], "edges": []}),
    (["verify-cert"], {"n": 2, "edges": [[0, 1]]},
     {"bags": [[0, 1]], "edges": [[True, 0]]}),
    (["recognize", "--t", "4"],
     {"n": 3, "edges": [], "vertices": [10 ** 14]}, None),
])
def test_integers_read_from_files_are_checked(runner, tmp_path, command,
                                              graph, td):
    """A boolean is not a vertex count, vertex id or node index, and a
    vertex id is range-checked before any mask is built from it (a mask
    of the id 10**14 would not fit in memory)."""
    args = command + [str(tmp_path / "g.json")]
    (tmp_path / "g.json").write_text(json.dumps(graph))
    if td is not None:
        (tmp_path / "td.json").write_text(json.dumps(td))
        args.append(str(tmp_path / "td.json"))
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert _json_out(res)["error"] == "input"


def test_verify_cert_reads_a_huge_integer_as_bad_json(runner, w93_file,
                                                     tmp_path):
    """A decomposition file holding an integer too long for Python to
    read is a bad file, not a crash."""
    td = tmp_path / "td.json"
    td.write_text('{"bags": [], "edges": [], "width": %s}' % ("9" * 5000))
    res = runner.invoke(main, ["verify-cert", w93_file, str(td)])
    assert res.exit_code == 2
    out = _json_out(res)
    assert out["error"] == "input" and "digits" in out["message"]


def test_verify_cert_names_an_obstruction_report(runner, tmp_path):
    """decompose's exit-3 output is an obstruction report: verify-cert
    says so rather than naming a missing key."""
    k4 = tmp_path / "k4.json"
    k4.write_text(dumps_graph(make("K4")))
    res = runner.invoke(main, ["decompose", "--t", "4", str(k4)])
    assert res.exit_code == 3
    dec = tmp_path / "dec.json"
    dec.write_text(res.output)
    res = runner.invoke(main, ["verify-cert", str(k4), str(dec)])
    assert res.exit_code == 2
    assert _json_out(res) == {
        "error": "input",
        "message": f"{dec} holds an obstruction report, not a decomposition"}


@pytest.mark.parametrize("args, error, message", [
    (["recognize", "--t", "4", "{missing}"], "input", "cannot read"),
    (["atoms", "{missing}"], "input", "cannot read"),
    (["decompose", "--t", "4", "{missing}"], "input", "cannot read"),
    (["verify-cert", "{missing}", "{graph}"], "input", "cannot read"),
    (["verify-cert", "{graph}", "{missing}"], "io", "[Errno 2]"),
    (["batch", "--t", "4", "{missing}"], "io", "[Errno 2]"),
    (["batch", "--t", "4", "{graph}"], "input",
     "Invalid value for 'DIRECTORY'"),
    (["recognize", "--t", "4", "{dir}"], "input", "Invalid value for 'FILE'"),
    (["recognize", "--t", "4", "--variant", "C_x", "{graph}"], "input",
     "Invalid value for '--variant'"),
    (["decompose", "{graph}"], "input", "Missing option '--t'"),
    (["recognize", "--t", "four", "{graph}"], "input",
     "Invalid value for '--t'"),
    (["recognize", "--t", "4", "--bogus", "{graph}"], "input",
     "No such option '--bogus'"),
])
def test_bad_paths_and_options_exit_2_with_json(runner, w93_file, tmp_path,
                                                args, error, message):
    """A file or directory that is missing or of the wrong kind, and an
    option value click rejects, exit 2 with JSON on stdout."""
    places = {"missing": str(tmp_path / "nope.json"), "graph": w93_file,
              "dir": str(tmp_path)}
    res = runner.invoke(main, [a.format(**places) for a in args])
    assert res.exit_code == 2
    out = _json_out(res)
    assert out["error"] == error and out["message"].startswith(message)


def test_help_is_unchanged_by_the_guard(runner):
    res = runner.invoke(main, ["recognize", "--help"])
    assert res.exit_code == 0
    assert res.output.startswith("Usage: ")


def test_verify_cert_names_a_bag_vertex_outside_the_graph(runner, tmp_path):
    """Vertex 3 of an induced graph is in range but not a vertex."""
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]],
                             "vertices": [0, 1, 2]}))
    td = tmp_path / "td.json"
    td.write_text(json.dumps({"bags": [[1, 2], [0, 1, 3]],
                              "edges": [[0, 1]]}))
    res = runner.invoke(main, ["verify-cert", str(g), str(td)])
    assert res.exit_code == 4
    assert _json_out(res)["validation"]["failures"] == [
        {"condition": "bag_vertices", "vertex": 3, "node": 1}]


@pytest.fixture
def deep_path(tmp_path):
    """A 1,200-vertex path: its clique-cutset atom tree is deeper than the
    recursion limit, and every tree walk keeps an explicit stack."""
    d = tmp_path / "deep"
    d.mkdir()
    (d / "p1200.json").write_text(dumps_graph(make("P1200")))
    return d


def test_deep_path_is_recognised(runner, deep_path):
    res = runner.invoke(main, ["recognize", "--t", "4",
                               str(deep_path / "p1200.json")])
    assert res.exit_code == 0
    assert _json_out(res)["member"] is True


def test_deep_path_decomposes_and_verifies(runner, deep_path, tmp_path):
    p = str(deep_path / "p1200.json")
    res = runner.invoke(main, ["decompose", "--t", "4", p])
    assert res.exit_code == 0
    assert _json_out(res)["report"]["width"] == 1
    dec = tmp_path / "dec.json"
    dec.write_text(res.output)
    res = runner.invoke(main, ["verify-cert", p, str(dec)])
    assert res.exit_code == 0
    assert _json_out(res) == {"validation": {"passed": True, "failures": []},
                              "width": 1}


def test_batch_certifies_a_deep_path(runner, deep_path):
    (deep_path / "w93.json").write_text(dumps_graph(make("W93")))
    res = runner.invoke(main, ["batch", "--t", "4", str(deep_path)])
    assert res.exit_code == 0
    rows = _json_out(res)["instances"]
    assert [r["instance"] for r in rows] == ["p1200.json", "w93.json"]
    for row in rows:
        assert row["member"] is True and all(row["checks"].values()), row
    assert rows[0]["width"] == 1


def test_long_hole_is_recognised(runner, tmp_path):
    """A 1,200-vertex cycle, one hole longer than the recursion limit, is
    a member: hole and induced-path enumeration do not recurse."""
    p = tmp_path / "c1200.json"
    p.write_text(dumps_graph(make("C1200")))
    res = runner.invoke(main, ["recognize", "--t", "4", str(p)])
    assert res.exit_code == 0
    assert _json_out(res)["member"] is True


def test_star_member_with_pyramids_certifies(runner, tmp_path):
    """Pyramids in the pyramid-permitting class do not stop decompose;
    only an apex at the balanced hub of a central bag would."""
    p = tmp_path / "star16.json"
    p.write_text(dumps_graph(star_member_with_pyramids()))
    res = runner.invoke(main, ["decompose", "--t", "5", "--variant", "star",
                               str(p)])
    assert res.exit_code == 0
    dec = tmp_path / "dec.json"
    dec.write_text(res.output)
    check = runner.invoke(main, ["verify-cert", str(p), str(dec)])
    assert check.exit_code == 0


def test_star_member_with_apex_hub_exits_4_with_the_pyramid(runner,
                                                            tmp_path):
    g = star_member_with_apex_hub()
    p = tmp_path / "star13.json"
    p.write_text(dumps_graph(g))
    args = ["--t", "5", "--variant", "star", str(p)]
    assert runner.invoke(main, ["recognize"] + args).exit_code == 0
    res = runner.invoke(main, ["decompose"] + args)
    assert res.exit_code == 4
    out = _json_out(res)
    assert out["error"] == "hypothesis_violation"
    wit = out["witness"]
    assert (wit["apex"], wit["base"]) == (4, [0, 1, 12])
    assert oracles.is_pyramid_witness(oracles.to_nx(g), wit["apex"],
                                      wit["base"], wit["paths"])


def test_apex_atom_behind_a_pendant_vertex_names_the_host_vertices(
        runner, tmp_path):
    """The same graph with every vertex moved up by one and a pendant
    vertex 0 on vertex 1: certify decomposes its apex atom, vertices 1
    to 13 but 4, in this graph's vertex ids, and the pyramid it exits 4
    with names this graph's vertices."""
    a = star_member_with_apex_hub()
    g = Graph(a.n + 1, [(0, 1)] + [(u + 1, v + 1) for u, v in a.edges()])
    assert clique_cutset_atoms(g).atoms == (0b11, 0b11111111101110, 0b111000)
    p = tmp_path / "star14.json"
    p.write_text(dumps_graph(g))
    res = runner.invoke(main, ["decompose", "--t", "5", "--variant", "star",
                               str(p)])
    assert res.exit_code == 4
    assert _json_out(res)["witness"] == {
        "apex": 5, "base": [1, 2, 13],
        "paths": [[5, 6, 1], [5, 3, 2], [5, 12, 13]]}
