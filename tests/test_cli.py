import csv
import gzip
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import settings, given
from hypothesis import strategies as st

import specwalk
from specwalk.cli import main
from specwalk.graph import read_snapshot
from specwalk.ntriples import open_text
from specwalk.skipgram import EmbeddingModel, TrainConfig, train
from specwalk.specificity import SemanticRelationship
from specwalk.walks import read_corpus_lines

from conftest import build, scan_trials, v1_snapshot_bytes, v2_snapshot_bytes

SYNTH = "http://synth.specwalk.local/"
FILM = SYNTH + "class/Film"


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_meta(path):
    with open(str(path) + ".meta.json", encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Shared franchise pipeline artifacts: graph, snapshot, corpus, model."""
    root = tmp_path_factory.mktemp("pipeline")
    nt = root / "g.nt"
    truth = root / "truth.json"
    snap = root / "g.snap"
    corpus = root / "walks.txt"
    model = root / "model.txt"
    assert main(["synth", "--kind", "franchise", "--out", str(nt),
                 "--truth-out", str(truth), "--seed", "1"]) == 0
    assert main(["ingest", str(nt), "--out", str(snap)]) == 0
    assert main(["walk", str(snap), "--out", str(corpus), "--type", FILM,
                 "--depth", "2", "--walks", "60", "--seed", "3",
                 "--workers", "2"]) == 0
    assert main(["train", str(corpus), "--out", str(model), "--dim", "16",
                 "--window", "4", "--negatives", "5", "--epochs", "2",
                 "--seed", "3"]) == 0
    return root


@pytest.fixture(scope="module")
def spec_table(pipeline):
    """A depth-1 specificity table of the pipeline graph, small budget."""
    table = pipeline / "spec.tsv"
    assert main(["specificity", str(pipeline / "g.snap"), "--out", str(table),
                 "--type", FILM, "--depth", "1", "--seed-set-size", "10",
                 "--n-walks", "80"]) == 0
    return table


# Every flag of every subcommand; a new or removed flag shows up here.
OPTIONS = {
    "ingest": "--config --help --out --rdf-type --seed --strict",
    "pagerank": "--config --damping --help --out --seed",
    "specificity": "--config --depth --exact --help --include-type-edges "
                   "--n-walks --out --seed --seed-set-size --threshold --type",
    "walk": "--bias --config --depth --entities --help --limit --no-depth1 "
            "--out --pruning --scores --seed --stats --table --threshold "
            "--type --walks --workers",
    "train": "--config --dim --epochs --help --lr --min-count --negatives "
             "--out --seed --subsample --window",
    "recommend": "--config --help --k --out --query --seed --snapshot --type",
    "eval": "--allow-mismatch --config --depth --help --k --label --out "
            "--seed --snapshot --truth --type",
    "sensitivity": "--config --depth --help --include-type-edges --n-walks "
                   "--out --repeats --seed --seed-set-size --sweep "
                   "--threshold --type --values",
    "synth": "--config --distractors --films-per --franchises --help "
             "--info-out --kind --out --seed --truth-out",
}


def test_subcommand_option_strings(capsys):
    found = {}
    for command in OPTIONS:
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        found[command] = " ".join(
            sorted(set(re.findall(r"--[a-z][a-z0-9-]*", help_text))))
    assert found == OPTIONS


SWEEP = ["--sweep", "n_walks", "--values", "60,120", "--depth", "1",
         "--seed-set-size", "10"]


@pytest.mark.parametrize("command, extra", [
    ("specificity", ["--depth", "0"]),
    ("walk", ["--walks", "0"]),
    ("walk", ["--walks", "-3"]),
    ("walk", ["--threshold", "5", "--bias", "specificity",
              "--table", "TABLE"]),
    ("walk", ["--limit", "0"]),
    ("walk", ["--limit", "-2"]),
    ("walk", ["--workers", "0"]),
    ("walk", ["--workers", "-3"]),
    ("sensitivity", SWEEP + ["--repeats", "0"]),
    ("sensitivity", SWEEP + ["--repeats", "-1"]),
], ids=["depth-0", "walks-0", "walks-negative", "walk-threshold-5",
        "limit-0", "limit-negative", "workers-0", "workers-negative",
        "repeats-0", "repeats-negative"])
def test_out_of_range_value_is_data_error(pipeline, spec_table, tmp_path,
                                          command, extra):
    out = tmp_path / "out.txt"
    extra = [str(spec_table) if a == "TABLE" else a for a in extra]
    assert main([command, str(pipeline / "g.snap"), "--out", str(out),
                 "--type", FILM] + extra) == 2
    assert not out.exists()
    assert not (tmp_path / "out.txt.meta.json").exists()


class TestIngest:
    def test_counts_reported(self, tmp_path, capsys):
        nt = tmp_path / "five.nt"
        nt.write_text("".join(
            f"<http://x/s{i}> <http://x/p> <http://x/o> .\n" for i in range(5)))
        assert main(["ingest", str(nt), "--out", str(tmp_path / "g.snap")]) == 0
        out = capsys.readouterr().out
        assert "triples=5" in out
        assert "terms=7" in out

    def test_typed_entities_counts_nodes_not_type_triples(self, tmp_path,
                                                          capsys):
        rdf_type = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
        nt = tmp_path / "typed.nt"
        nt.write_text(f"<http://x/e> <{rdf_type}> <http://x/A> .\n"
                      f"<http://x/e> <{rdf_type}> <http://x/B> .\n")
        assert main(["ingest", str(nt), "--out", str(tmp_path / "g.snap")]) == 0
        assert "typed_entities=1 types=2" in capsys.readouterr().out

    def test_gzip_input_same_checksum(self, tmp_path):
        text = "<http://x/s> <http://x/p> <http://x/o> .\n"
        plain = tmp_path / "g.nt"
        plain.write_text(text)
        gz = tmp_path / "g.nt.gz"
        with gzip.open(gz, "wt") as f:
            f.write(text)
        assert main(["ingest", str(plain), "--out", str(tmp_path / "a.snap")]) == 0
        assert main(["ingest", str(gz), "--out", str(tmp_path / "b.snap")]) == 0
        a = read_meta(tmp_path / "a.snap")["graph_checksum"]
        b = read_meta(tmp_path / "b.snap")["graph_checksum"]
        assert a == b

    def test_snapshot_reingest_checksum_stable(self, pipeline, tmp_path):
        snap = pipeline / "g.snap"
        assert main(["ingest", str(snap), "--out", str(tmp_path / "g2.snap")]) == 0
        assert read_meta(snap)["graph_checksum"] == \
            read_meta(tmp_path / "g2.snap")["graph_checksum"]

    def test_snapshot_reingest_reproduces_bytes(self, pipeline, tmp_path):
        g2 = tmp_path / "g2.snap"
        assert main(["ingest", str(pipeline / "g.snap"), "--out", str(g2)]) == 0
        assert g2.read_bytes() == (pipeline / "g.snap").read_bytes()

    @pytest.mark.parametrize("command", ["ingest", "pagerank"])
    def test_snapshot_not_utf8_names_the_file(self, tmp_path, capsys,
                                             command):
        nt = tmp_path / "g.nt"
        nt.write_text("<http://x/é> <http://x/p> <http://x/o> .\n",
                      encoding="utf-8")
        snap = tmp_path / "bad.snap"
        assert main(["ingest", str(nt), "--out", str(snap)]) == 0
        snap.write_bytes(snap.read_bytes().replace("é".encode(), b"\xff\xfe"))
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([command, str(snap), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(snap) in err and "utf-8" in err
        assert not out.exists()
        assert not (tmp_path / "out.meta.json").exists()

    def test_format_1_snapshot_asks_for_reingest(self, tmp_path, capsys):
        snap = tmp_path / "old.snap"
        snap.write_bytes(v1_snapshot_bytes(build(
            [("http://x/s", "http://x/p", "http://x/o")])))
        out = tmp_path / "g.snap"
        assert main(["ingest", str(snap), "--out", str(out)]) == 2
        assert f"format 1 snapshot; re-run ingest on the N-Triples input: " \
            f"{snap}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [snap]

    @pytest.mark.parametrize("command", ["ingest", "pagerank"])
    def test_format_2_snapshot_asks_for_reingest(self, tmp_path, capsys,
                                                 command):
        snap = tmp_path / "old.snap"
        snap.write_bytes(v2_snapshot_bytes(build(
            [("http://x/s", "http://x/p", "http://x/o")])))
        out = tmp_path / "out"
        assert main([command, str(snap), "--out", str(out)]) == 2
        assert f"format 2 snapshot; re-run ingest on the N-Triples input: " \
            f"{snap}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [snap]

    def test_strict_parse_failure_is_data_error(self, tmp_path):
        nt = tmp_path / "bad.nt"
        nt.write_text("not a triple\n")
        assert main(["ingest", str(nt), "--out", str(tmp_path / "g.snap"),
                     "--strict"]) == 2

    @pytest.mark.parametrize("strict, code", [(True, 2), (False, 0)])
    def test_blank_node_iri_is_malformed(self, tmp_path, capsys, strict,
                                         code):
        nt = tmp_path / "g.nt"
        nt.write_text("<http://x/a> <http://x/q> <_:b> .\n"
                      "<http://x/a> <http://x/q> _:b .\n")
        argv = ["ingest", str(nt), "--out", str(tmp_path / "g.snap")]
        assert main(argv + ["--strict"] * strict) == code
        out, err = capsys.readouterr()
        if strict:
            assert "line 1" in err
        else:
            assert "triples=1 " in out
            assert "skipped_lines=1" in err

    @pytest.mark.parametrize("strict, code", [(True, 2), (False, 0)])
    def test_quote_in_iri_is_malformed(self, tmp_path, capsys, strict, code):
        # the IRI <"a"> would intern as the term of the literal "a"
        rdf_type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
        nt = tmp_path / "g.nt"
        nt.write_text(f"<http://x/a> {rdf_type} <http://x/T> .\n"
                      '<http://x/a> <http://x/p> "a" .\n'
                      '<http://x/b> <http://x/p> <"a"> .\n')
        argv = ["ingest", str(nt), "--out", str(tmp_path / "g.snap")]
        assert main(argv + ["--strict"] * strict) == code
        out, err = capsys.readouterr()
        if strict:
            assert "line 3" in err
        else:
            assert "triples=2 " in out
            assert "skipped_lines=1" in err

    @pytest.mark.parametrize("strict, code", [(True, 2), (False, 0)])
    def test_empty_iri_is_malformed(self, tmp_path, capsys, strict, code):
        # the IRI <> would render as an empty corpus token
        rdf_type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
        nt = tmp_path / "g.nt"
        nt.write_text(f"<http://x/c> {rdf_type} <http://x/T> .\n"
                      f"<> {rdf_type} <http://x/T> .\n"
                      "<http://x/c> <http://x/p> <http://x/b> .\n")
        argv = ["ingest", str(nt), "--out", str(tmp_path / "g.snap")]
        assert main(argv + ["--strict"] * strict) == code
        out, err = capsys.readouterr()
        if strict:
            assert "line 2" in err
        else:
            assert "triples=2 " in out
            assert "skipped_lines=1" in err

    def test_empty_iri_graph_trains_a_loadable_model(self, tmp_path):
        rdf_type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
        nt = tmp_path / "g.nt"
        nt.write_text(f"<> {rdf_type} <http://x/T> .\n"
                      f"<http://x/c> {rdf_type} <http://x/T> .\n"
                      "<> <http://x/p> <http://x/b> .\n"
                      "<http://x/c> <http://x/p> <http://x/b> .\n")
        snap, corpus = tmp_path / "g.snap", tmp_path / "c.txt"
        model = tmp_path / "m.txt"
        assert main(["ingest", str(nt), "--out", str(snap)]) == 0
        assert main(["walk", str(snap), "--out", str(corpus), "--type",
                     "http://x/T", "--depth", "1", "--walks", "10"]) == 0
        assert main(["train", str(corpus), "--out", str(model), "--dim", "4",
                     "--window", "2", "--negatives", "2", "--epochs", "1"]) == 0
        with open(model, encoding="utf-8") as f:
            vocab = set(EmbeddingModel.load_text(f).vocab.tokens)
        _, *lines = corpus.read_text().splitlines()
        assert vocab == {t for line in lines for t in line.split(" ")}
        assert "" not in vocab and "http://x/c" in vocab

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_damaged_gzip_is_data_error(self, tmp_path, capsys, damage):
        text = "".join(f"<http://x/s{i}> <http://x/p> <http://x/o{i % 7}> .\n"
                       for i in range(200))
        data = bytearray(gzip.compress(text.encode(), mtime=0))
        if damage == "truncated":  # raises EOFError while reading
            del data[30:]
        else:  # overwritten deflate bytes raise zlib.error
            data[10:40] = b"\xff" * 30
        gz = tmp_path / "g.nt.gz"
        gz.write_bytes(bytes(data))
        assert main(["ingest", str(gz), "--out", str(tmp_path / "g.snap")]) == 2
        assert str(gz) in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.nt.gz"]

    @pytest.mark.parametrize("strict", [True, False])
    def test_byte_order_mark_keeps_first_triple(self, tmp_path, capsys,
                                                strict):
        nt = tmp_path / "g.nt"
        nt.write_bytes("\ufeff<http://x/a> <http://x/p> <http://x/b> .\n"
                       "<http://x/b> <http://x/p> <http://x/c> .\n"
                       .encode("utf-8"))
        snap = tmp_path / "g.snap"
        argv = ["ingest", str(nt), "--out", str(snap)]
        assert main(argv + ["--strict"] * strict) == 0
        out, err = capsys.readouterr()
        assert "triples=2 terms=4 " in out and err == ""
        assert read_snapshot(str(snap)).terms[0] == "http://x/a"

    def test_sidecar_counters(self, tmp_path, capsys):
        nt = tmp_path / "g.nt"
        nt.write_text("# header\n\n"
                      "<http://x/a> <http://x/p> <http://x/b> .\n"
                      "not a triple\n"
                      "<http://x/a> <http://x/p> <http://x/b> .\n"
                      "<http://x/b> <http://x/p> <http://x/c> .\n"
                      "<http://x/b> <http://x/p>\n")
        argv = ["ingest", str(nt), "--out", str(tmp_path / "g.snap")]
        sidecars = []
        for _ in range(2):
            assert main(argv) == 0
            sidecars.append((tmp_path / "g.snap.meta.json").read_bytes())
        assert sidecars[0] == sidecars[1]
        counters = json.loads(sidecars[0])["counters"]
        assert counters == {"parsed_lines": 3, "skipped_lines": 2,
                            "duplicate_triples": 1}
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == \
            f"skipped_lines={counters['skipped_lines']}"
        # a snapshot input parses no lines, so it has no counters
        assert main(["ingest", str(tmp_path / "g.snap"),
                     "--out", str(tmp_path / "g2.snap")]) == 0
        assert "counters" not in read_meta(tmp_path / "g2.snap")

    @pytest.mark.parametrize("name", ["latin1.nt", "latin1.nt.gz"])
    def test_non_utf8_input_names_the_file(self, tmp_path, capsys, name):
        data = ("<http://x/a> <http://x/p> <http://x/caf\u00e9> .\n"
                .encode("latin-1"))
        nt = tmp_path / name
        nt.write_bytes(gzip.compress(data, mtime=0) if name.endswith(".gz")
                       else data)
        assert main(["ingest", str(nt), "--out", str(tmp_path / "g.snap")]) == 2
        err = capsys.readouterr().err
        assert f"input {nt} is not UTF-8" in err
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_missing_input_is_data_error(self, tmp_path):
        assert main(["ingest", str(tmp_path / "absent.nt"),
                     "--out", str(tmp_path / "g.snap")]) == 2

    def test_missing_required_flag_exit_one(self, tmp_path):
        assert main(["ingest", str(tmp_path / "x.nt")]) == 1


class TestSpecificity:
    def test_single_chain_scores_one(self, tmp_path):
        nt = tmp_path / "chain.nt"
        nt.write_text(
            "<http://x/f> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
            "<http://x/T> .\n"
            "<http://x/f> <http://x/p> <http://x/obj> .\n")
        snap = tmp_path / "g.snap"
        table = tmp_path / "spec.tsv"
        assert main(["ingest", str(nt), "--out", str(snap)]) == 0
        assert main(["specificity", str(snap), "--out", str(table),
                     "--type", "http://x/T", "--depth", "1",
                     "--seed-set-size", "1", "--n-walks", "50"]) == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "depth\trelationship\tscore\tsupport"
        depth, rel, score, support = lines[1].split("\t")
        assert (depth, rel, score) == ("1", "http://x/p", "1.000000")

    def test_one_sidecar_like_every_command(self, pipeline, tmp_path):
        table = tmp_path / "spec.tsv"
        assert main(["specificity", str(pipeline / "g.snap"),
                     "--out", str(table), "--type", FILM, "--depth", "1",
                     "--seed-set-size", "10", "--n-walks", "80"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["spec.tsv", "spec.tsv.meta.json"]
        meta = read_meta(table)
        snap_meta = read_meta(pipeline / "g.snap")
        # ingest and alg2 both add their counters to the keys every sidecar has
        assert meta.keys() == snap_meta.keys()
        assert "counters" in meta
        assert meta["command"] == "specificity"
        assert meta["graph_checksum"] == snap_meta["graph_checksum"]

    def test_sidecar_counters_rerun_identical(self, pipeline, tmp_path):
        table = tmp_path / "spec.tsv"
        argv = ["specificity", str(pipeline / "g.snap"), "--out", str(table),
                "--type", FILM, "--depth", "2", "--seed-set-size", "10",
                "--n-walks", "80", "--threshold", "0"]
        sidecars = []
        for _ in range(2):
            assert main(argv) == 0
            sidecars.append((tmp_path / "spec.tsv.meta.json").read_bytes())
        assert sidecars[0] == sidecars[1]
        counters = json.loads(sidecars[0])["counters"]
        rows = [line.split("\t") for line in table.read_text().splitlines()[1:]]
        assert sorted((d, r) for d, r, _, _ in rows) == sorted(
            (d, r) for d, by_rel in counters.items() for r in by_rel)
        for depth, rel, score, support in rows:
            c = counters[depth][rel]
            p = c["hits"] / c["trials"]
            assert (c["trials"], f"{p:.6f}") == (int(support), score)
            assert 0 <= c["dead"] <= c["trials"] - c["hits"]
            assert c["se"] == math.sqrt(p * (1 - p) / c["trials"])
        assert main(argv + ["--exact"]) == 0
        assert "counters" not in read_meta(table)

    def test_sidecar_dead_ends_match_scalar_count(self, tmp_path):
        # 2 of 30 seeds have p, so most trials retry and many still dead-end
        rdf_type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
        nt = tmp_path / "g.nt"
        nt.write_text("".join(
            f"<http://x/e{i}> {rdf_type} <http://x/T> .\n"
            f"<http://x/e{i}> <http://x/q> <http://x/y> .\n" for i in range(30))
            + "<http://x/e0> <http://x/p> <http://x/x> .\n"
            "<http://x/e1> <http://x/p> <http://x/x> .\n"
            "<http://x/x> <http://x/r> <http://x/z> .\n"
            "<http://x/w> <http://x/r> <http://x/z> .\n")
        snap, table = tmp_path / "g.snap", tmp_path / "spec.tsv"
        assert main(["ingest", str(nt), "--out", str(snap)]) == 0
        assert main(["specificity", str(snap), "--out", str(table), "--type",
                     "http://x/T", "--depth", "2", "--seed-set-size", "30",
                     "--n-walks", "120", "--threshold", "0", "--seed",
                     "7"]) == 0
        counters = read_meta(table)["counters"]
        g = read_snapshot(str(snap))
        seeds = sorted(g.entities_of_type(g.term_id("http://x/T")))
        dead = {}
        for depth, by_rel in counters.items():
            for name in by_rel:
                r = SemanticRelationship(tuple(g.term_id(p)
                                               for p in name.split("|")))
                dead[name] = sum(d for _, d in scan_trials(
                    g, r, seeds, set(seeds), 120, 7))
        assert {r: c["dead"] for by_rel in counters.values()
                for r, c in by_rel.items()} == dead
        assert dead["http://x/p"] > 0 and dead["http://x/p|http://x/r"] > 0

    def test_unknown_type_is_data_error(self, pipeline, tmp_path):
        assert main(["specificity", str(pipeline / "g.snap"),
                     "--out", str(tmp_path / "spec.tsv"),
                     "--type", "http://x/NotAType"]) == 2

    def test_exact_mode_matches_estimator_on_chain(self, tmp_path):
        nt = tmp_path / "chain.nt"
        nt.write_text(
            "<http://x/f> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
            "<http://x/T> .\n"
            "<http://x/f> <http://x/p> <http://x/obj> .\n")
        snap = tmp_path / "g.snap"
        assert main(["ingest", str(nt), "--out", str(snap)]) == 0
        est = tmp_path / "est.tsv"
        exact = tmp_path / "exact.tsv"
        base = ["specificity", str(snap), "--type", "http://x/T",
                "--depth", "1", "--seed-set-size", "1", "--n-walks", "50"]
        assert main(base + ["--out", str(est)]) == 0
        assert main(base + ["--out", str(exact), "--exact"]) == 0
        # identical up to the support column (walk count vs path count)
        strip = lambda text: [l.split("\t")[:3] for l in text.splitlines()]  # noqa: E731
        assert strip(est.read_text()) == strip(exact.read_text())

    def test_exact_past_count_bound_is_data_error(self, tmp_path, capsys):
        # 2048 predicates each way between two nodes: 2**55 paths of
        # length 5 into each, past the 2**53 that float64 counts exactly
        nt = tmp_path / "two.nt"
        nt.write_text(
            "<http://x/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
            "<http://x/T> .\n" + "".join(
                f"<http://x/{s}> <http://x/p{i}> <http://x/{o}> .\n"
                for i in range(2048) for s, o in (("a", "b"), ("b", "a"))))
        snap = tmp_path / "g.snap"
        assert main(["ingest", str(nt), "--out", str(snap)]) == 0
        capsys.readouterr()
        assert main(["specificity", str(snap), "--out",
                     str(tmp_path / "spec.tsv"), "--type", "http://x/T",
                     "--exact", "--threshold", "0", "--depth", "5",
                     "--seed-set-size", "1", "--n-walks", "50"]) == 2
        assert "2**53" in capsys.readouterr().err


class TestWalk:
    def test_corpus_line_budget(self, pipeline):
        corpus = pipeline / "walks.txt"
        lines = [l for l in corpus.read_text().splitlines()
                 if not l.startswith("#")]
        # 30 films x 60 attempts x two depth passes is the hard ceiling
        assert 0 < len(lines) <= 30 * 60 * 2

    def test_specificity_bias_requires_table(self, pipeline, tmp_path):
        assert main(["walk", str(pipeline / "g.snap"),
                     "--out", str(tmp_path / "c.txt"), "--type", FILM,
                     "--bias", "specificity"]) == 1

    def test_pagerank_bias_requires_scores(self, pipeline, tmp_path):
        assert main(["walk", str(pipeline / "g.snap"),
                     "--out", str(tmp_path / "c.txt"), "--type", FILM,
                     "--bias", "pagerank"]) == 1

    def test_type_or_entities_required(self, pipeline, tmp_path):
        assert main(["walk", str(pipeline / "g.snap"),
                     "--out", str(tmp_path / "c.txt")]) == 1

    @pytest.mark.parametrize("extra", [
        ["--type", FILM, "--entities", "ENTITIES"],
        ["--type", "http://x/NotAType", "--entities", "ENTITIES"],
        ["--entities", "ENTITIES", "--limit", "1"],
    ], ids=["type-and-entities", "absent-type-and-entities",
            "entities-with-limit"])
    def test_conflicting_root_flags_are_usage_errors(self, pipeline,
                                                     tmp_path, extra):
        entities = tmp_path / "entities.txt"
        entities.write_text(SYNTH + "film/f0_0\n" + SYNTH + "film/f0_1\n")
        extra = [str(entities) if a == "ENTITIES" else a for a in extra]
        assert main(["walk", str(pipeline / "g.snap"),
                     "--out", str(tmp_path / "c.txt")] + extra) == 1
        assert list(tmp_path.iterdir()) == [entities]

    @pytest.mark.parametrize("name", ["roots.txt", "roots.txt.gz"])
    def test_non_utf8_entities_file_names_it(self, pipeline, tmp_path, capsys,
                                             name):
        data = (SYNTH + "film/f0_0\n" + SYNTH + "caf\u00e9\n").encode("latin-1")
        entities = tmp_path / name
        entities.write_bytes(gzip.compress(data, mtime=0)
                             if name.endswith(".gz") else data)
        assert main(["walk", str(pipeline / "g.snap"),
                     "--out", str(tmp_path / "c.txt"),
                     "--entities", str(entities)]) == 2
        assert f"input {entities} is not UTF-8" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [entities]

    def test_entity_without_edges_warns_empty(self, tmp_path, capsys):
        nt = tmp_path / "chain.nt"
        nt.write_text("<http://x/f> <http://x/p> <http://x/obj> .\n")
        snap = tmp_path / "g.snap"
        assert main(["ingest", str(nt), "--out", str(snap)]) == 0
        entities = tmp_path / "entities.txt"
        entities.write_text("http://x/obj\n")
        out = tmp_path / "c.txt"
        assert main(["walk", str(snap), "--out", str(out),
                     "--entities", str(entities), "--walks", "10"]) == 0
        captured = capsys.readouterr()
        assert "no walks generated" in captured.err
        assert [l for l in out.read_text().splitlines()
                if not l.startswith("#")] == []

    @pytest.mark.parametrize("row", [
        "1\thttp://x/p|http://x/q\t1.000000\t1",  # two predicates at depth 1
        "1\thttp://x/p\t1.000000",                # three fields
    ], ids=["depth-mismatch", "three-fields"])
    def test_malformed_table_is_data_error(self, tmp_path, capsys, row):
        nt = tmp_path / "chain.nt"
        nt.write_text(
            "<http://x/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
            "<http://x/T> .\n"
            "<http://x/a> <http://x/p> <http://x/b> .\n"
            "<http://x/b> <http://x/q> <http://x/c> .\n")
        snap = tmp_path / "g.snap"
        assert main(["ingest", str(nt), "--out", str(snap)]) == 0
        table = tmp_path / "spec.tsv"
        table.write_text("depth\trelationship\tscore\tsupport\n" + row + "\n")
        out = tmp_path / "c.txt"
        assert main(["walk", str(snap), "--out", str(out), "--type",
                     "http://x/T", "--depth", "1", "--bias", "specificity",
                     "--table", str(table)]) == 2
        assert "specificity table line 2:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["chain.nt", "g.snap", "g.snap.meta.json", "spec.tsv"]

    def test_no_depth1_flag_drops_short_walks(self, pipeline, tmp_path):
        out = tmp_path / "deep.txt"
        assert main(["walk", str(pipeline / "g.snap"), "--out", str(out),
                     "--type", FILM, "--depth", "3", "--walks", "30",
                     "--no-depth1", "--seed", "1"]) == 0
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        # single extraction pass (no depth-1 concatenation)
        assert 0 < len(lines) <= 30 * 30
        # dead ends may shorten walks, but full-depth walks must appear
        assert any(len(l.split(" ")) == 7 for l in lines)

    def test_rerun_identical_output(self, pipeline, tmp_path):
        args = ["walk", str(pipeline / "g.snap"), "--type", FILM,
                "--depth", "2", "--walks", "40", "--seed", "8"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + ["--out", str(a), "--workers", "1"]) == 0
        assert main(args + ["--out", str(b), "--workers", "4"]) == 0
        assert a.read_text() == b.read_text()

    def test_default_workers_independent_of_cpu_count(self, pipeline, tmp_path,
                                                      monkeypatch):
        out = tmp_path / "c.txt"
        sidecars = []
        for cpus in (2, 8):
            monkeypatch.setattr("os.cpu_count", lambda: cpus)
            assert main(["walk", str(pipeline / "g.snap"), "--out", str(out),
                         "--type", FILM, "--walks", "5"]) == 0
            assert read_meta(out)["params"]["workers"] == 1
            sidecars.append(file_hash(tmp_path / "c.txt.meta.json"))
        assert sidecars[0] == sidecars[1]

    @pytest.mark.parametrize("limit", [None, "30", "31"])
    def test_limit_at_or_above_member_count_walks_all(self, pipeline,
                                                      tmp_path, limit):
        # the franchise graph has 30 films; corpus headers omit --limit
        out = tmp_path / "c.txt"
        extra = [] if limit is None else ["--limit", limit]
        assert main(["walk", str(pipeline / "g.snap"), "--out", str(out),
                     "--type", FILM, "--depth", "2", "--walks", "60",
                     "--seed", "3", "--workers", "2"] + extra) == 0
        assert out.read_bytes() == (pipeline / "walks.txt").read_bytes()

    def test_space_and_underscore_literals_keep_apart(self, tmp_path):
        # "x y" once became the token "x_y", so the two nodes shared a vector
        rdf_type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
        nt = tmp_path / "g.nt"
        nt.write_text(f"<http://x/a> {rdf_type} <http://x/T> .\n"
                      '<http://x/a> <http://x/p> "x y" .\n'
                      '<http://x/a> <http://x/p> "x_y" .\n')
        snap, corpus = tmp_path / "g.snap", tmp_path / "c.txt"
        model = tmp_path / "m.txt"
        assert main(["ingest", str(nt), "--out", str(snap)]) == 0
        assert main(["walk", str(snap), "--out", str(corpus), "--type",
                     "http://x/T", "--depth", "1", "--walks", "40"]) == 0
        literals = {'"x\\u0020y"', '"x_y"'}
        ends = {line.split(" ")[-1]
                for line in corpus.read_text().splitlines()[1:]}
        assert literals <= ends
        assert main(["train", str(corpus), "--out", str(model), "--dim", "4",
                     "--window", "2", "--negatives", "2", "--epochs", "1"]) == 0
        with open(model, encoding="utf-8") as f:
            assert literals <= set(EmbeddingModel.load_text(f).vocab.tokens)

    def test_hash_leading_root_keeps_its_walks(self, tmp_path, capsys):
        # <#a> renders as the token #a, so its corpus lines start with '#'
        rdf_type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
        nt = tmp_path / "g.nt"
        nt.write_text(f"<#a> {rdf_type} <http://x/T> .\n"
                      f"<http://x/c> {rdf_type} <http://x/T> .\n"
                      "<#a> <http://x/p> <http://x/b> .\n"
                      "<http://x/c> <http://x/p> <http://x/b> .\n"
                      "<http://x/b> <http://x/q> <#a> .\n")
        snap, corpus = tmp_path / "g.snap", tmp_path / "c.txt"
        model = tmp_path / "m.txt"
        assert main(["ingest", str(nt), "--out", str(snap)]) == 0
        assert main(["walk", str(snap), "--out", str(corpus), "--type",
                     "http://x/T", "--depth", "2", "--walks", "10"]) == 0
        printed = capsys.readouterr().out
        header, *lines = corpus.read_text().splitlines()
        assert header.startswith("# ") and "bias=uniform" in header
        assert any(line.startswith("#a ") for line in lines)
        assert f"walks={len(lines)} " in printed
        with open_text(str(corpus)) as f:
            assert list(read_corpus_lines(f)) == [l.split(" ") for l in lines]
        assert main(["train", str(corpus), "--out", str(model), "--dim", "4",
                     "--window", "2", "--negatives", "2", "--epochs", "1"]) == 0
        with open(model, encoding="utf-8") as f:
            vocab = set(EmbeddingModel.load_text(f).vocab.tokens)
        assert "#a" in vocab
        assert vocab == {t for line in lines for t in line.split(" ")}

    def test_walk_sidecar_counters(self, tmp_path):
        # a -> b -> a is pruned by NRSE; x has no out-edge, so it is dead
        rdf_type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
        nt = tmp_path / "g.nt"
        nt.write_text(f"<http://x/a> {rdf_type} <http://x/T> .\n"
                      "<http://x/a> <http://x/p> <http://x/b> .\n"
                      "<http://x/b> <http://x/p> <http://x/a> .\n"
                      "<http://x/b> <http://x/q> <http://x/x> .\n")
        snap, entities = tmp_path / "g.snap", tmp_path / "roots.txt"
        entities.write_text("http://x/a\nhttp://x/b\nhttp://x/x\n")
        assert main(["ingest", str(nt), "--out", str(snap)]) == 0
        out, stats = tmp_path / "c.txt", tmp_path / "c.csv"
        sidecars = []
        for _ in range(2):
            assert main(["walk", str(snap), "--out", str(out), "--entities",
                         str(entities), "--depth", "2", "--walks", "40",
                         "--pruning", "NRSE", "--stats", str(stats)]) == 0
            sidecars.append(file_hash(tmp_path / "c.txt.meta.json"))
        assert sidecars[0] == sidecars[1]
        counters = read_meta(out)["counters"]
        assert sorted(counters) == ["1", "2"]
        for c in counters.values():
            assert sorted(c) == ["accepted", "attempts", "dead", "distinct",
                                 "pruned"]
            assert c["attempts"] == c["accepted"] + c["pruned"] + c["dead"]
            assert c["attempts"] == 3 * 40
            assert c["dead"] == 40
        assert counters["1"]["pruned"] == 0 < counters["2"]["pruned"]
        with open(stats, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        for depth, part in (("1", rows[:3]), ("2", rows[3:])):
            for field, column in (("attempts", "attempts"),
                                  ("accepted", "walks"),
                                  ("distinct", "distinct")):
                assert counters[depth][field] == sum(int(r[column])
                                                     for r in part)
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == sum(c["accepted"] for c in counters.values())

    def test_stats_csv_rerun_identical(self, pipeline, tmp_path):
        stats = []
        for name in ("a", "b"):
            stats.append(tmp_path / f"{name}.csv")
            assert main(["walk", str(pipeline / "g.snap"), "--type", FILM,
                         "--out", str(tmp_path / f"{name}.txt"),
                         "--walks", "20", "--seed", "5",
                         "--stats", str(stats[-1])]) == 0
        assert stats[0].read_bytes() == stats[1].read_bytes()
        assert stats[0].read_text().splitlines()[0] == \
            "entity,attempts,walks,distinct"


class TestTrainRecommendEval:
    def test_train_sidecar_counters(self, pipeline, tmp_path):
        corpus = pipeline / "walks.txt"
        args = ["--dim", "8", "--window", "3", "--negatives", "2",
                "--epochs", "3", "--seed", "4"]
        out = tmp_path / "model.txt"
        sidecars = []
        for _ in range(2):
            assert main(["train", str(corpus), "--out", str(out)] + args) == 0
            sidecars.append(file_hash(tmp_path / "model.txt.meta.json"))
        assert sidecars[0] == sidecars[1]
        with open_text(str(corpus)) as f:
            model = train(read_corpus_lines(f), TrainConfig(
                dim=8, window=3, negatives=2, epochs=3, seed=4))
        assert read_meta(out)["counters"] == {
            "vocab_size": len(model.vocab), "epoch_pairs": model.epoch_pairs,
            "epoch_losses": model.epoch_losses, "final_lr": model.final_lr}

    def test_recommend_stdout(self, pipeline, capsys):
        assert main(["recommend", str(pipeline / "model.txt"),
                     "--query", SYNTH + "film/f0_0", "--k", "3",
                     "--snapshot", str(pipeline / "g.snap"),
                     "--type", FILM]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        token, score = lines[0].split("\t")
        assert token.startswith(SYNTH + "film/")
        float(score)

    @pytest.mark.parametrize("command", ["recommend", "eval"])
    @pytest.mark.parametrize("half", ["--snapshot", "--type"])
    def test_candidate_filter_needs_both_halves(self, pipeline, tmp_path,
                                                command, half):
        out = tmp_path / "out.csv"
        value = str(pipeline / "g.snap") if half == "--snapshot" else FILM
        extra = (["--query", SYNTH + "film/f0_0"] if command == "recommend"
                 else ["--truth", str(pipeline / "truth.json")])
        assert main([command, str(pipeline / "model.txt"), "--out", str(out),
                     half, value] + extra) == 1
        assert list(tmp_path.iterdir()) == []

    def test_recommend_unknown_query_is_data_error(self, pipeline):
        assert main(["recommend", str(pipeline / "model.txt"),
                     "--query", "http://x/none"]) == 2

    @pytest.mark.parametrize("text, line", [
        ("", 1),                               # empty
        ("3 2\na 0.1 0.2\nb 0.3 0.4\n", 4),    # fewer rows than the header
        ("2 2\na 0.1 0.2\nb 0.3\n", 3),        # ragged row
        ("2 2\na 0.1 0.2 0.5\nb 0.3 0.4\n", 2),  # row wider than dim
        ("2 2\na 0.1 0.2\nb nan 0.4\n", 3),     # not a number
        ("2 2\na 0.1 inf\nb 0.3 0.4\n", 2),     # infinite
        ("1 1\na 1e39\n", 2),                  # beyond float32
        ("3 2\na 1 0\nb 0.9 0.1\na 0 1\n", 4),  # a token on two rows
    ], ids=["empty", "short", "ragged", "too-wide", "nan", "inf",
            "float32-overflow", "repeated"])
    def test_recommend_malformed_model_is_data_error(self, tmp_path, capsys,
                                                     text, line):
        model = tmp_path / "model.txt"
        model.write_text(text)
        assert main(["recommend", str(model), "--query", "a"]) == 2
        assert f"model line {line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "-1"), ("--lr", "0"), ("--epochs", "-2"),
        ("--subsample", "-0.5"), ("--min-count", "0"), ("--dim", "0"),
    ])
    def test_train_invalid_config_is_data_error(self, pipeline, tmp_path,
                                                flag, value):
        out = tmp_path / "model.txt"
        assert main(["train", str(pipeline / "walks.txt"), "--out", str(out),
                     flag, value]) == 2
        assert not out.exists()

    def test_train_divergence_is_data_error(self, pipeline, tmp_path, capsys):
        out = tmp_path / "model.txt"
        assert main(["train", str(pipeline / "walks.txt"), "--out", str(out),
                     "--lr", "1", "--dim", "16", "--epochs", "2"]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_writes_csv(self, pipeline, tmp_path):
        out = tmp_path / "eval.csv"
        assert main(["eval", str(pipeline / "model.txt"),
                     "--truth", str(pipeline / "truth.json"),
                     "--out", str(out), "--label", "uniform",
                     "--depth", "2",
                     "--snapshot", str(pipeline / "g.snap"),
                     "--type", FILM]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "scheme,depth,query,k,precision"
        assert len(lines) == 21  # header + 20 film queries
        assert all(l.startswith("uniform,2,") for l in lines[1:])

    def test_eval_sidecar_counters(self, pipeline, tmp_path, capsys):
        truth = json.loads((pipeline / "truth.json").read_text())
        truth.update({SYNTH + "film/absent1": [SYNTH + "film/f0_0"],
                      SYNTH + "film/absent2": [SYNTH + "film/f0_1"]})
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(truth))
        out = tmp_path / "eval.csv"
        sidecars = []
        for _ in range(2):
            assert main(["eval", str(pipeline / "model.txt"),
                         "--truth", str(path), "--out", str(out),
                         "--allow-mismatch"]) == 0
            sidecars.append(file_hash(tmp_path / "eval.csv.meta.json"))
            warnings = [line for line in capsys.readouterr().err.splitlines()
                        if line.startswith("warning: query not in vocab")]
        assert sidecars[0] == sidecars[1]
        counters = read_meta(out)["counters"]
        assert counters == {"queries": len(truth),
                            "scored": len(out.read_text().splitlines()) - 1,
                            "missing_queries": len(warnings)}
        assert counters["missing_queries"] == 2

    def test_eval_k_mismatch_is_usage_error(self, pipeline, tmp_path):
        assert main(["eval", str(pipeline / "model.txt"),
                     "--truth", str(pipeline / "truth.json"),
                     "--out", str(tmp_path / "eval.csv"), "--k", "5"]) == 1
        assert main(["eval", str(pipeline / "model.txt"),
                     "--truth", str(pipeline / "truth.json"),
                     "--out", str(tmp_path / "eval.csv"), "--k", "5",
                     "--allow-mismatch"]) == 0

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_eval_k_below_one_is_data_error(self, pipeline, tmp_path, capsys,
                                            k):
        out = tmp_path / "eval.csv"
        for extra in ([], ["--allow-mismatch"]):
            assert main(["eval", str(pipeline / "model.txt"),
                         "--truth", str(pipeline / "truth.json"),
                         "--out", str(out), "--k", k, *extra]) == 2
            assert "--k must be >= 1" in capsys.readouterr().err
            assert not list(tmp_path.iterdir())  # no CSV, no sidecar

    @pytest.mark.parametrize("truth", ['[]', '{"q": 5}', '{"q": "<iri>"}',
                                       '{"q": [5]}', '"q"', '{"q": []}'])
    def test_eval_malformed_truth_is_data_error(self, pipeline, tmp_path,
                                                capsys, truth):
        # a string value was read as a set of characters (|truth| = 5 here)
        path = tmp_path / "truth.json"
        path.write_text(truth)
        out = tmp_path / "eval.csv"
        assert main(["eval", str(pipeline / "model.txt"), "--truth",
                     str(path), "--out", str(out), "--allow-mismatch"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "list of strings" in err
        assert not out.exists()


class TestConfig:
    def test_config_file_sets_defaults(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"depth": 1, "n_walks": 80,
                                   "seed_set_size": 10}))
        table = tmp_path / "spec.tsv"
        assert main(["specificity", str(pipeline / "g.snap"),
                     "--out", str(table), "--type", FILM,
                     "--config", str(cfg)]) == 0
        meta = read_meta(table)["params"]
        assert meta["n_walks"] == 80
        assert meta["seed_set_size"] == 10
        assert meta["depth"] == 1

    def test_flag_overrides_config(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"depth": 1, "n_walks": 80,
                                   "seed_set_size": 10}))
        table = tmp_path / "spec.tsv"
        assert main(["specificity", str(pipeline / "g.snap"),
                     "--out", str(table), "--type", FILM,
                     "--config", str(cfg), "--n-walks", "90"]) == 0
        assert read_meta(table)["params"]["n_walks"] == 90

    def test_config_equals_form(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"depth": 1, "n_walks": 80,
                                   "seed_set_size": 10}))
        tables = []
        for name, flag in (("a", ["--config", str(cfg)]),
                           ("b", [f"--config={cfg}"])):
            tables.append(tmp_path / f"{name}.tsv")
            assert main(["specificity", str(pipeline / "g.snap"),
                         "--out", str(tables[-1]), "--type", FILM] + flag) == 0
        a, b = tables
        assert a.read_bytes() == b.read_bytes()
        params = [read_meta(t)["params"] for t in tables]
        for p in params:
            del p["out"]
        assert params[0] == params[1]
        assert params[1]["n_walks"] == 80

    def test_config_without_path_is_usage_error(self, pipeline, tmp_path,
                                                capsys):
        assert main(["specificity", str(pipeline / "g.snap"),
                     "--out", str(tmp_path / "t.tsv"), "--type", FILM,
                     "--config"]) == 1
        assert "--config" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"walk_budget": 10}))
        assert main(["specificity", str(pipeline / "g.snap"),
                     "--out", str(tmp_path / "t.tsv"), "--type", FILM,
                     "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("command, key, value", [
        ("specificity", "candidates", 5),
        ("specificity", "retry_limit", 3),
        ("pagerank", "epsilon", 1e-6),
        ("pagerank", "max_iters", 0),
    ])
    def test_removed_config_key_is_usage_error(self, pipeline, tmp_path,
                                               command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out.tsv"
        extra = ["--type", FILM] if command == "specificity" else []
        assert main([command, str(pipeline / "g.snap"), "--out", str(out),
                     "--config", str(cfg)] + extra) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("specificity", "depth", 2.5),
        ("specificity", "depth", None),
        ("specificity", "n_walks", True),
        ("ingest", "strict", "false"),
        ("walk", "no_depth1", 1),
        ("walk", "bias", "bogus"),
        ("walk", "pruning", "bogus"),
        ("walk", "snapshot", "other.snap"),
    ])
    def test_config_value_type_mismatch_is_usage_error(
            self, pipeline, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        source = "g.nt" if command == "ingest" else "g.snap"
        extra = [] if command == "ingest" else ["--type", FILM]
        assert main([command, str(pipeline / source), "--out", str(out),
                     "--config", str(cfg)] + extra) == 1
        assert re.search(key.replace("_", "[_-]"), capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command, config, flags", [
        ("specificity",
         {"exact": True, "depth": 2, "threshold": 0.25, "seed_set_size": 10},
         ["--exact", "--depth", "2", "--threshold", "0.25",
          "--seed-set-size", "10"]),
        ("walk",
         {"no_depth1": True, "walks": 20, "threshold": 0.25,
          "pruning": "UE", "depth": 3},
         ["--no-depth1", "--walks", "20", "--threshold", "0.25",
          "--pruning", "UE", "--depth", "3"]),
    ])
    def test_config_equals_its_flags(self, pipeline, tmp_path, command,
                                     config, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        base = [command, str(pipeline / "g.snap"), "--out", str(out),
                "--type", FILM, "--seed", "4"]
        written = []
        for extra in (["--config", str(cfg)], flags):
            assert main(base + extra) == 0
            written.append((out.read_bytes(),
                            file_hash(tmp_path / "out.meta.json")))
        assert written[0] == written[1]

    @pytest.mark.parametrize("strict, code", [(True, 2), (False, 0)])
    def test_config_switch_value(self, tmp_path, strict, code):
        nt = tmp_path / "bad.nt"
        nt.write_text("not a triple\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strict": strict}))
        assert main(["ingest", str(nt), "--out", str(tmp_path / "g.snap"),
                     "--config", str(cfg)]) == code


class TestSensitivityAndPagerank:
    def test_pagerank_command(self, pipeline, tmp_path):
        out = tmp_path / "scores.tsv"
        assert main(["pagerank", str(pipeline / "g.snap"),
                     "--out", str(out)]) == 0
        rows = [l.split("\t") for l in out.read_text().splitlines()]
        total = sum(float(v) for _, v in rows)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("score", ["-1000", "nan", "inf"])
    def test_walk_rejects_negative_or_non_finite_score(self, pipeline,
                                                       tmp_path, capsys,
                                                       score):
        # with person/dir0 at -1000, 20 of 150 attempts dead-ended and 4
        # walks were not graph triples, such as film/f1_0 p/genre movement/x9
        scores = tmp_path / "scores.tsv"
        assert main(["pagerank", str(pipeline / "g.snap"),
                     "--out", str(scores)]) == 0
        rows = scores.read_text().splitlines()
        at = [r.split("\t")[0] for r in rows].index(SYNTH + "person/dir0")
        rows[at] = f"{SYNTH}person/dir0\t{score}"
        scores.write_text("\n".join(rows) + "\n")
        out = tmp_path / "c.txt"
        assert main(["walk", str(pipeline / "g.snap"), "--out", str(out),
                     "--type", FILM, "--bias", "pagerank", "--scores",
                     str(scores), "--depth", "1", "--walks", "5"]) == 2
        assert "finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", [30, 3000])
    def test_truncated_snapshot_is_data_error(self, pipeline, tmp_path, size):
        snap = tmp_path / "truncated.snap"
        snap.write_bytes((pipeline / "g.snap").read_bytes()[:size])
        assert main(["pagerank", str(snap),
                     "--out", str(tmp_path / "scores.tsv")]) == 2

    def test_sensitivity_csv(self, pipeline, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sensitivity", str(pipeline / "g.snap"),
                     "--out", str(out), "--sweep", "n_walks",
                     "--values", "60,120", "--type", FILM, "--depth", "1",
                     "--seed-set-size", "10", "--repeats", "2"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n_walks,depth,ndcg,repeats"
        values = {int(l.split(",")[0]): float(l.split(",")[2])
                  for l in lines[1:]}
        assert values[120] == pytest.approx(1.0)
        assert set(values) == {60, 120}

    @pytest.mark.parametrize("via_config", [False, True])
    def test_malformed_values_is_usage_error(self, pipeline, tmp_path,
                                             via_config):
        # a repeated value would be averaged in as an extra repeat
        for bad in ("60,1x0", "60,60,120"):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"values": bad}))
            values = ["--values", "60,120", "--config", str(cfg)] \
                if via_config else ["--values", bad]
            out = tmp_path / "sweep.csv"
            assert main(["sensitivity", str(pipeline / "g.snap"),
                         "--out", str(out), "--sweep", "n_walks",
                         "--type", FILM, "--depth", "1",
                         "--seed-set-size", "10"] + values) == 1
            assert not out.exists()


_RDF_TYPE_IRI = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
_FUZZ_IRIS = ["<#>", "<#a>", "<x\\y>", "<http://x/é>", "<\U0001D11E>",
              "<http://x/a>"]
_FUZZ_NODES = st.sampled_from(_FUZZ_IRIS + ["_:b", "_:b1"])
_FUZZ_OBJECTS = st.one_of(_FUZZ_NODES, st.sampled_from([
    '"a\\"b"', '"x y"@en', '"1"^^<#int>', '"\\\\"', '"é\\n"@fr-CA']))
_FUZZ_LINES = st.lists(st.one_of(
    st.builds("{} {} {} .\n".format, _FUZZ_NODES,
              st.sampled_from(["<#p>", "<http://x/q>", "<#>"]), _FUZZ_OBJECTS),
    st.builds(f"{{}} {_RDF_TYPE_IRI} <#T> .\n".format, _FUZZ_NODES),
    st.sampled_from(["# comment\n", "\n", "<#a> <#p> .\n",
                     "<#a> <#p> <#b>\n", " <#a>\t<#p>\t<#b> . # c\n"])),
    min_size=1, max_size=15)


def _run_pipeline(d):
    """ingest -> pagerank -> specificity -> walk (pagerank and specificity
    bias) -> train in directory d; each step runs only if the ones it reads
    exited 0. Returns the exit codes by step."""
    def at(name):
        return os.path.join(d, name)

    steps = {
        "ingest": ["ingest", at("g.nt"), "--out", at("g.snap")],
        "pagerank": ["pagerank", at("g.snap"), "--out", at("pr.tsv")],
        "specificity": ["specificity", at("g.snap"), "--out", at("spec.tsv"),
                        "--type", "#T", "--seed-set-size", "5",
                        "--n-walks", "20", "--threshold", "0"],
        "walk_pagerank": ["walk", at("g.snap"), "--out", at("wp.txt"),
                          "--type", "#T", "--bias", "pagerank",
                          "--scores", at("pr.tsv"), "--walks", "4"],
        "walk_specificity": ["walk", at("g.snap"), "--out", at("ws.txt"),
                             "--type", "#T", "--bias", "specificity",
                             "--table", at("spec.tsv"), "--threshold", "0",
                             "--walks", "4"],
        "train_pagerank": ["train", at("wp.txt"), "--out", at("mp.txt"),
                           "--dim", "4", "--window", "2", "--negatives", "2",
                           "--epochs", "1"],
        "train_specificity": ["train", at("ws.txt"), "--out", at("ms.txt"),
                              "--dim", "4", "--window", "2",
                              "--negatives", "2", "--epochs", "1"],
    }
    needs = {"pagerank": ["ingest"], "specificity": ["ingest"],
             "walk_pagerank": ["pagerank"],
             "walk_specificity": ["specificity"],
             "train_pagerank": ["walk_pagerank"],
             "train_specificity": ["walk_specificity"]}
    codes = {}
    for step, argv in steps.items():
        if all(codes.get(n) == 0 for n in needs.get(step, [])):
            codes[step] = main(argv + ["--seed", "2"])
    return codes


class TestPipelineContract:
    def test_runtime_needs_only_numpy(self, tmp_path):
        # the whole pipeline, in a process where importing scipy or
        # hypothesis (test-only dependencies) raises ImportError
        child = (
            "import os, sys\n"
            "sys.modules['scipy'] = sys.modules['hypothesis'] = None\n"
            "from specwalk.cli import main\n"
            "def at(name):\n"
            "    return os.path.join(sys.argv[1], name)\n"
            "for argv in (\n"
            "        ['synth', '--kind', 'franchise', '--out', at('g.nt')],\n"
            "        ['ingest', at('g.nt'), '--out', at('g.snap')],\n"
            "        ['pagerank', at('g.snap'), '--out', at('pr.tsv')],\n"
            "        ['walk', at('g.snap'), '--out', at('w.txt'), '--type',\n"
            f"         '{FILM}', '--bias', 'pagerank', '--scores',\n"
            "         at('pr.tsv'), '--walks', '5'],\n"
            "        ['train', at('w.txt'), '--out', at('m.txt'), '--dim',\n"
            "         '8', '--epochs', '1']):\n"
            "    if main(argv) != 0:\n"
            "        sys.exit(f'{argv[0]} failed')\n"
            "with open(at('w.txt'), encoding='utf-8') as f:\n"
            "    query = f.readlines()[1].split()[0]\n"
            "sys.exit(main(['recommend', at('m.txt'), '--query', query,\n"
            "               '--k', '3']))\n")
        src = os.path.dirname(os.path.dirname(specwalk.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", child, str(tmp_path)],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        ranked = done.stdout.splitlines()[-3:]
        assert len(ranked) == 3 and all("\t" in row for row in ranked)

    @settings(max_examples=12, deadline=None)
    @given(lines=_FUZZ_LINES)
    def test_odd_terms_keep_the_pipeline_contract(self, lines):
        # odd IRIs (<#>, <x\y>, astral), literals with escapes, tags and
        # datatypes, blank nodes, and comment, blank and malformed lines
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "g.nt"), "w", encoding="utf-8") as f:
                f.writelines(lines)
            runs = []
            for _ in range(2):
                codes = _run_pipeline(d)
                files = {}
                for name in sorted(os.listdir(d)):
                    with open(os.path.join(d, name), "rb") as f:
                        files[name] = f.read()
                runs.append((codes, files))
            assert runs[0] == runs[1]
            assert set(codes.values()) <= {0, 2}
            for bias in ("pagerank", "specificity"):
                if codes.get(f"train_{bias}") != 0:
                    continue
                with open(os.path.join(d, f"w{bias[0]}.txt"),
                          encoding="utf-8") as f:
                    tokens = {t for walk in read_corpus_lines(f) for t in walk}
                with open(os.path.join(d, f"m{bias[0]}.txt"),
                          encoding="utf-8") as f:
                    assert set(EmbeddingModel.load_text(f).vocab.tokens) \
                        == tokens

    def test_hand_written_corpus_with_extra_spaces(self, tmp_path, capsys):
        # doubled, leading and trailing spaces and a tab separate tokens as
        # one space does: no empty token reaches the model
        corpus, model = tmp_path / "w.txt", tmp_path / "m.txt"
        corpus.write_text("a p  b \n b p\ta\na q  c  \n", encoding="utf-8")
        assert main(["train", str(corpus), "--out", str(model), "--dim", "4",
                     "--window", "2", "--negatives", "2", "--epochs",
                     "1"]) == 0
        with open(model, encoding="utf-8") as f:
            assert sorted(EmbeddingModel.load_text(f).vocab.tokens) == [
                "a", "b", "c", "p", "q"]
        with open(corpus, encoding="utf-8") as f:
            assert list(read_corpus_lines(f)) == [
                ["a", "p", "b"], ["b", "p", "a"], ["a", "q", "c"]]
        capsys.readouterr()
        assert main(["recommend", str(model), "--query", "a", "--k",
                     "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
