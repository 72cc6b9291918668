"""End-to-end command line runs through main(argv): exit codes, JSON
reports, file round trips, and the CSV pair-table export."""

import csv
import hashlib
import json

import pytest

from regulab import (
    ProbMatrixSpec,
    SubgraphPair,
    concentration_test,
    gen_gnpij,
    make_star,
)
from regulab import io
from regulab.cli import EXIT_FAILED, EXIT_INPUT, EXIT_OK, EXIT_UNCERTIFIED, main

from _helpers import complete_graph

# stars legitimately trip both warnings when reloaded from disk
pytestmark = [
    pytest.mark.filterwarnings("ignore::regulab.quasirandom.ScaleWarning"),
    pytest.mark.filterwarnings("ignore::regulab.core.HeavyVertexWarning"),
]


def write_pair(path, P, A=None, B=None):
    payload = io.pair_to_dict(P, A=A, B=B)
    path.write_text(json.dumps(io.json_safe(payload)))
    return str(path)


@pytest.fixture()
def k8_pair(tmp_path):
    # complete unit host; F is the staircase between the two halves
    G = complete_graph(8)
    f_edges = [(i, 4 + j) for i in range(4) for j in range(4) if i <= j]
    P = SubgraphPair.from_edges(G, f_edges)
    return write_pair(tmp_path / "half.json", P, A=[0, 1, 2, 3], B=[4, 5, 6, 7])


@pytest.fixture()
def bipartite_pair(tmp_path):
    G = complete_graph(8)
    f_edges = [(i, 4 + j) for i in range(4) for j in range(4)]
    P = SubgraphPair.from_edges(G, f_edges)
    return write_pair(tmp_path / "bip.json", P)


@pytest.fixture()
def sampled_pair(tmp_path):
    G = gen_gnpij(16, ProbMatrixSpec.constant(0.5), seed=3)
    return write_pair(tmp_path / "sampled.json", SubgraphPair.full(G))


# -- gen ------------------------------------------------------------------------


def test_gen_writes_a_loadable_graph(tmp_path):
    out = tmp_path / "g.json"
    assert main([
        "gen", "--model", "constant", "--n", "20", "--p", "0.5",
        "--seed", "1", "-o", str(out),
    ]) == EXIT_OK
    G = io.load_graph(out)
    assert G.n == 20
    payload = json.loads(out.read_text())
    assert payload["model"] == {"kind": "constant", "p": 0.5, "seed": 1}


def test_gen_stdout_mode(capsys):
    assert main(["gen", "--model", "star", "--n", "6"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == {"kind": "star"}
    assert payload["n"] == 6


def test_gen_counterexample_records_the_parts(capsys):
    assert main([
        "gen", "--model", "counterexample", "--n", "16", "--seed", "0",
    ]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"]["kind"] == "counterexample"
    assert payload["model"]["parts"]["A1"] == [0, 1, 2, 3]


@pytest.mark.parametrize("model", [
    ["constant", "--p", "0.5"], ["uniform"], ["star"], ["counterexample"],
])
def test_gen_writes_the_same_bytes_to_a_file_and_to_stdout(model, tmp_path, capsysbinary):
    argv = ["gen", "--model", *model, "--n", "16", "--seed", "2"]
    out = tmp_path / "g.json"
    assert main(argv + ["-o", str(out)]) == EXIT_OK
    assert main(argv) == EXIT_OK
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_gen_constant_requires_p(capsys):
    assert main(["gen", "--model", "constant", "--n", "8"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error:")


def test_bad_choice_exits_through_argparse():
    with pytest.raises(SystemExit):
        main(["gen", "--model", "nope", "--n", "4"])


# -- check-qr ----------------------------------------------------------------------


def test_check_qr_pass_and_fail(tmp_path, capsys):
    k8 = tmp_path / "k8.json"
    io.save_graph(complete_graph(8), k8)
    assert main([
        "check-qr", "--graph", str(k8), "--beta", "0.3", "--no-timestamp",
    ]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"]["passed"] is True
    assert report["verdict"]["worst_deviation"] == 0.125

    star = tmp_path / "star.json"
    io.save_graph(make_star(8), star)
    assert main([
        "check-qr", "--graph", str(star), "--beta", "0.1", "--no-timestamp",
    ]) == EXIT_FAILED


def test_missing_graph_file(capsys):
    assert main([
        "check-qr", "--graph", "/nonexistent/g.json", "--beta", "0.1",
    ]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check-qr", "--graph", str(bad), "--beta", "0.1"]) == EXIT_INPUT
    assert "invalid JSON" in capsys.readouterr().err


HUGE = "1" + "0" * 400  # a JSON integer beyond the float range


@pytest.mark.parametrize(
    "mu, weight, message",
    [
        (HUGE, "1", f"mu[0]: vertex weight must be a positive finite number, got {HUGE}"),
        ("1", HUGE, "edges[0]: edge weight must be finite and positive, got inf"),
    ],
    ids=["mu", "weight"],
)
def test_integer_beyond_the_float_range_is_an_input_error(mu, weight, message, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(f'{{"n": 3, "mu": [{mu}, 1, 1], "edges": [[0, 1, {weight}]]}}')
    assert main(["check-qr", "--graph", str(path), "--beta", "0.1"]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


# -- check-pair ---------------------------------------------------------------------


def test_side_vertex_beyond_int64_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "huge-side.json"
    path.write_text(json.dumps({"n": 3, "mu": [1, 1, 1], "edges": [[0, 1, 1]],
                                "f_edges": [], "A": [10**30], "B": [1]}))
    assert main(["check-pair", "--pair", str(path), "--eps", "0.3"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: A: vertex indices must lie in [0, 3)\n"


def test_check_pair_star_hub_leaves(tmp_path, capsys):
    path = write_pair(
        tmp_path / "star.json", SubgraphPair.full(make_star(8)),
        A=[0], B=list(range(1, 8)),
    )
    assert main([
        "check-pair", "--pair", path, "--eps", "0.5", "--no-timestamp",
    ]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"]["passed"] is True
    assert report["verdict"]["base_density"] == pytest.approx(112.0)


def test_check_pair_finds_the_staircase_witness(k8_pair, capsys):
    assert main([
        "check-pair", "--pair", k8_pair, "--eps", "0.3", "--no-timestamp",
    ]) == EXIT_FAILED
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"]["worst_deviation"] == 0.625


def test_check_pair_sides_override(k8_pair, capsys):
    # restricting to a flat corner of the staircase passes
    assert main([
        "check-pair", "--pair", k8_pair, "--eps", "0.9",
        "--A", "0,1", "--B", "6,7", "--no-timestamp",
    ]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["A"] == [0, 1] and report["B"] == [6, 7]


def test_check_pair_requires_sides(tmp_path, capsys):
    path = write_pair(tmp_path / "nosides.json", SubgraphPair.full(complete_graph(4)))
    assert main(["check-pair", "--pair", path, "--eps", "0.3"]) == EXIT_INPUT
    assert "sides A and B" in capsys.readouterr().err


def test_boolean_f_edge_endpoints_are_an_input_error(tmp_path, capsys):
    payload = io.pair_to_dict(SubgraphPair.full(complete_graph(4)), A=[0, 1], B=[2, 3])
    payload["f_edges"] = [[False, True]]
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(payload))
    assert main(["check-pair", "--pair", str(path), "--eps", "0.3"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: f_edges[0]: endpoints must be integers\n"


def test_search_with_no_restarts_is_an_input_error(k8_pair, tmp_path, capsys):
    k8 = tmp_path / "k8.json"
    io.save_graph(complete_graph(8), k8)
    for argv in (["check-qr", "--graph", str(k8), "--beta", "0.3"],
                 ["check-pair", "--pair", k8_pair, "--eps", "0.3"]):
        assert main([*argv, "--mode", "search", "--restarts", "0"]) == EXIT_INPUT
        assert "at least one restart" in capsys.readouterr().err


# -- decompose ---------------------------------------------------------------------


def test_decompose_certifies_the_bipartite_mask(bipartite_pair, capsys):
    assert main([
        "decompose", "--pair", bipartite_pair, "--eps", "0.5",
        "--c", "10", "--no-timestamp",
    ]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    d = report["decomposition"]
    assert d["M"] == 1 and d["certified"] is True
    assert d["terms"][0]["coefficient"] == 1.0


def test_decompose_budget_stop_is_uncertified(bipartite_pair, capsys):
    assert main([
        "decompose", "--pair", bipartite_pair, "--eps", "0.5",
        "--M-max", "0", "--no-timestamp",
    ]) == EXIT_UNCERTIFIED
    report = json.loads(capsys.readouterr().out)
    assert report["decomposition"]["stop_reason"] == "term_budget"


# -- partition / verify ---------------------------------------------------------------


def test_partition_then_verify_roundtrip(sampled_pair, tmp_path, capsys):
    out = tmp_path / "partition_report.json"
    code = main([
        "partition", "--pair", sampled_pair, "--eps", "0.4", "--L", "2",
        "--seed", "0", "-o", str(out), "--no-timestamp",
    ])
    assert code == EXIT_UNCERTIFIED  # bullets pass, decomposition uncertified
    report = json.loads(out.read_text())
    assert report["result"]["passed"] is True
    assert report["result"]["bullets"]["irregular_pairs"]["value"] == 0

    part_file = tmp_path / "partition.json"
    part_file.write_text(json.dumps(report["partition"]))
    assert main([
        "verify", "--pair", sampled_pair, "--partition", str(part_file),
        "--eps", "0.4", "--no-timestamp",
    ]) == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["report"]["passed"] is True
    assert verdict["report"]["pairs"]["total"] == 120


def test_verify_rejects_a_heavy_exceptional_cluster(sampled_pair, tmp_path):
    part = {"clusters": [list(range(8))] + [[v] for v in range(8, 16)]}
    part_file = tmp_path / "bad_partition.json"
    part_file.write_text(json.dumps(part))
    assert main([
        "verify", "--pair", sampled_pair, "--partition", str(part_file),
        "--eps", "0.4", "--no-timestamp", "-o", str(tmp_path / "v.json"),
    ]) == EXIT_FAILED


def test_verify_rejects_a_broken_cover(sampled_pair, tmp_path, capsys):
    part_file = tmp_path / "cover.json"
    part_file.write_text(json.dumps({"clusters": [[], [0, 1]]}))
    assert main([
        "verify", "--pair", sampled_pair, "--partition", str(part_file),
        "--eps", "0.4",
    ]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_partition_csv_table(sampled_pair, tmp_path):
    csv_path = tmp_path / "pairs.csv"
    main([
        "partition", "--pair", sampled_pair, "--eps", "0.4", "--L", "2",
        "--seed", "0", "-o", str(tmp_path / "r.json"), "--csv", str(csv_path),
    ])
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 120
    assert set(rows[0]) == {
        "i", "j", "regular", "deviation", "energy", "energy_ok", "vacuous",
    }
    assert all(r["regular"] == "True" for r in rows)


def test_verify_csv_table(sampled_pair, tmp_path):
    part = {"clusters": [[]] + [[v] for v in range(16)]}
    part_file = tmp_path / "p.json"
    part_file.write_text(json.dumps(part))
    csv_path = tmp_path / "verdicts.csv"
    main([
        "verify", "--pair", sampled_pair, "--partition", str(part_file),
        "--eps", "0.4", "-o", str(tmp_path / "v.json"), "--csv", str(csv_path),
    ])
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 120
    assert set(rows[0]) == {"i", "j", "passed", "worst_deviation", "certified"}


# -- concentration ------------------------------------------------------------------


def test_concentration_exit_matches_the_library(tmp_path):
    G = gen_gnpij(300, ProbMatrixSpec.constant(0.5), seed=2)
    path = tmp_path / "g.json"
    io.save_graph(G, path)
    expected = concentration_test(G, 0.3, seed=3).passed
    code = main([
        "concentration", "--graph", str(path), "--beta", "0.3",
        "--seed", "3", "-o", str(tmp_path / "c.json"),
    ])
    assert code == (EXIT_OK if expected else EXIT_FAILED)


def test_concentration_infeasible_sizes(tmp_path, capsys):
    path = tmp_path / "g.json"
    io.save_graph(gen_gnpij(12, ProbMatrixSpec.constant(0.5), seed=0), path)
    assert main([
        "concentration", "--graph", str(path), "--beta", "0.4",
    ]) == EXIT_INPUT
    assert "infeasible" in capsys.readouterr().err


# -- demos and determinism -------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["demo", "--name", "star"],
        ["demo", "--name", "counterexample", "--n", "40", "--seed", "1"],
        ["demo", "--name", "concentration", "--n", "300", "--seed", "2"],
    ],
)
def test_demos_run_clean(argv, capsys):
    assert main(argv + ["--no-timestamp"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["demo"] == argv[2]


def test_no_timestamp_output_is_byte_stable(tmp_path):
    k8 = tmp_path / "k8.json"
    io.save_graph(complete_graph(8), k8)
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for f in (f1, f2):
        main(["check-qr", "--graph", str(k8), "--beta", "0.3",
              "--no-timestamp", "-o", str(f)])
    assert f1.read_bytes() == f2.read_bytes()


def test_verify_report_bytes_are_pinned(k8_pair, tmp_path, monkeypatch, capsysbinary):
    # the report layout is a stable contract (README, "File formats"); the
    # files are named relative to the working directory, since the report
    # records their names
    monkeypatch.chdir(tmp_path)
    (tmp_path / "part.json").write_text(json.dumps({"clusters": [[], [0, 1], [2, 3], [4, 5], [6, 7]]}))
    assert main([
        "verify", "--pair", "half.json", "--partition", "part.json", "--eps", "0.3",
        "--no-timestamp",
    ]) == EXIT_OK
    out = capsysbinary.readouterr().out
    assert out.startswith(b'{\n  "command": "verify",\n') and out.endswith(b"\n}\n")
    assert hashlib.sha256(out).hexdigest() == (
        "39d381cee3e3f4af35b09772e6ef7b3087aa69a0b87b8a771546eab45d072447"
    )
