"""The golden corpus (tests/golden/make.py): each command prints what
tests/golden/expected.txt records for it, replayed in process, and three
of them in fresh interpreters under PYTHONHASHSEED 0 and 1."""

import difflib
import shlex

import pytest

from tests.golden import make
from tests.test_cli import run_module


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return make.workspaces(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def expected():
    return make.entries(make.EXPECTED.read_text(encoding="utf-8"))


def diff(argv, got: str, expected: dict) -> str:
    """The unified diff of argv's entry from the expected one, "" if none."""
    want = expected[shlex.join(argv)]
    return "".join(difflib.unified_diff(
        want.splitlines(True), got.splitlines(True), "expected", "got"))


def test_expected_lists_the_corpus_in_order(expected):
    assert list(expected) == [shlex.join(argv) for argv in make.CORPUS]


def test_replay_in_process(paths, expected):
    diffs = [diff(argv, make.record(argv, *make.run(argv, paths)), expected)
             for argv in make.CORPUS]
    assert not any(diffs), "".join(diffs)


@pytest.mark.parametrize("hash_seed", ["0", "1"])
@pytest.mark.parametrize("argv", [
    ["query", "paper", "--query", "Q", "--instance", "J", "--crosscheck"],
    ["migrate", "company-12-nulls", "--mapping", "G", "--instance", "W",
     "--mode", "pi", "--format", "json"],
    ["homs", "company-96-nulls", "--from", "W", "--to", "W"],
], ids=["query-Q-J", "migrate-G-pi-company-12-nulls",
        "homs-W-W-company-96-nulls"])
def test_replay_in_a_fresh_interpreter(paths, expected, argv, hash_seed):
    key, path = argv[1], paths[argv[1]]
    done = run_module(argv[0], path, *argv[2:], hash_seed=hash_seed)
    got = make.record(argv, done.returncode,
                      done.stdout.replace(path, key),
                      done.stderr.replace(path, key))
    d = diff(argv, got, expected)
    assert not d, d
