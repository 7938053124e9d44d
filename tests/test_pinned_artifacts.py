"""Pinned sha256 digests of the README pipeline's artifacts at small scale.

A change that alters any of these bytes (an RNG stream, a pick rule, a
float sum's order, a file format) fails here; such a change must update the
pins and say so in CHANGES.md. Models and PageRank scores are left out:
their float sums may round differently across machines.
"""
import hashlib

import pytest

from specwalk.cli import main

FILM = "http://synth.specwalk.local/class/Film"

PIPELINE = [
    ["synth", "--kind", "franchise", "--out", "graph.nt", "--truth-out",
     "truth.json", "--seed", "1"],
    ["ingest", "graph.nt", "--out", "graph.snap"],
    ["specificity", "graph.snap", "--out", "spec.tsv", "--type", FILM,
     "--depth", "2", "--seed-set-size", "20", "--n-walks", "200"],
    ["specificity", "graph.snap", "--out", "exact.tsv", "--type", FILM,
     "--depth", "2", "--seed-set-size", "20", "--exact"],
    ["walk", "graph.snap", "--out", "uniform.txt", "--type", FILM,
     "--depth", "2", "--walks", "20", "--pruning", "UET",
     "--stats", "uniform.csv"],
    ["walk", "graph.snap", "--out", "frequency.txt", "--type", FILM,
     "--depth", "2", "--walks", "20", "--bias", "frequency",
     "--pruning", "NRSE", "--stats", "frequency.csv"],
    ["walk", "graph.snap", "--out", "specificity.txt", "--type", FILM,
     "--depth", "2", "--walks", "20", "--bias", "specificity",
     "--table", "spec.tsv", "--stats", "specificity.csv"],
    ["sensitivity", "graph.snap", "--out", "sweep.csv", "--sweep", "n_walks",
     "--values", "100,200", "--type", FILM, "--depth", "1",
     "--seed-set-size", "20"],
]

PINNED = {
    "spec.tsv": "1eca61775aafbb6802d38e0ffd04e6c3d4010e66c0292251fce86c1c6ad0b11f",
    "exact.tsv": "f3f6ef65fa00543dcb6dc14b7fa32c1dc2caa9d3f1ef95fc311ef3ee8348171b",
    "uniform.txt": "bb19b160302a2b536a970cd9eff99261f559098c9f18b81e5c3c744b54a04cfa",
    "uniform.csv": "b6bf8968ca76bbfd2552831aee4170b63cd6d01c65a7745f0f5a4c240d6d8a93",
    "frequency.txt": "3dcd1f5b154f466349baac763667349c7f2fe35537059e12427285a2b9c9f045",
    "frequency.csv": "aa9398d013350823e9129fb007fca85d7ca4da4b433aea9feed4c9f76b3c3234",
    "specificity.txt": "5e7300d254e17b5aa6fc67532d5ff6b3b97e527b39d59d2ce8e7eaa4a2c6dc0c",
    "specificity.csv": "0f587975800a9cf257cc53fcc9950da23767dc5eb2942af1d6462842e7522d99",
    "sweep.csv": "ec366299ed8a78555a2f8df68648c1aed55e6e17e4325fe28b24b01e0a9d46f6",
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for cmd in PIPELINE:
            assert main(cmd) == 0, cmd
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
            for name in PINNED}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_artifact_digest_pinned(digests, name):
    assert digests[name] == PINNED[name]
