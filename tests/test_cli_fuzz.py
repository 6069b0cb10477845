"""Byte fuzz of the inputs the CLI parses: episode datasets, the monitor's stdin
and config files.

Whatever bytes a dataset line, a stdin line or a config file holds, `cli.main`
ends in an exit code (0 or 1 for data, 0, 1 or 2 for config), never in a
traceback.
"""

import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forewarn.cli import DEFAULTS, main
from forewarn.data import write_episodes
from forewarn.simulate import SimConfig, generate_dataset

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# tokens a hand edit or a broken writer might leave in a record
TOKENS = [b"null", b"1e999", b"9" * 400, b"[]", b"{}", b'"x"', b"\n", b"-", b"0", b",", b":"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory for each example's files, and the bytes of a 2-episode, 12-step dataset."""
    root = tmp_path_factory.mktemp("fuzz")
    write_episodes(root / "base.jsonl", generate_dataset(SimConfig(n_scenarios=2, episode_len=12)))
    return root, (root / "base.jsonl").read_bytes()


@st.composite
def _mutations(draw, base):
    """A single-byte overwrite or a short slice replacement of `base`: (start, stop, new).

    The line comes first and the offset is uniform over it, so the edits
    spread over every record, its last columns included; a byte offset drawn
    over the whole file lands mostly in the first record's header. The offset
    comes from a random.Random that hypothesis seeds, since hypothesis's own
    numbers lean to the low end: over 300 examples, a fraction of the line from
    st.floats(0, 1) put a third of the edits in its first eighth, and
    st.integers over the line put nearly two thirds there.
    """
    lines = base.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    offset = draw(st.randoms(use_true_random=True)).randrange(len(lines[i]))
    start = sum(map(len, lines[:i])) + offset
    if draw(st.booleans()):
        return start, start + 1, bytes([draw(st.integers(0, 255))])
    stop = min(len(base), start + draw(st.integers(0, 8)))
    return start, stop, draw(st.sampled_from(TOKENS) | st.binary(max_size=4))


def _train(data, out) -> int:
    return main([
        "train", "--family", "seq2seq", "--epochs", "1", "--h", "1", "--cm", "1",
        "--data", str(data), "--out", str(out),
    ])


def test_the_unmutated_dataset_trains(files):
    root, _ = files
    assert _train(root / "base.jsonl", root / "out") == 0


@FUZZ
@given(data=st.data())
def test_a_mutated_dataset_exits_0_or_1(files, data):
    root, base = files
    start, stop, new = data.draw(_mutations(base))
    path = root / "mutated.jsonl"
    path.write_bytes(base[:start] + new + base[stop:])
    assert _train(path, root / "out") in (0, 1)


@pytest.fixture(scope="module")
def checkpoint(files):
    """One seq2seq checkpoint trained on the unmutated dataset."""
    root, _ = files
    assert _train(root / "base.jsonl", root / "model") == 0
    return str(root / "model" / "seq2seq_h1_cm1.ckpt")


@FUZZ
@given(data=st.data())
def test_a_mutated_stream_to_monitor_exits_0_or_1(files, checkpoint, data):
    _, base = files
    start, stop, new = data.draw(_mutations(base))
    stdin = io.TextIOWrapper(io.BytesIO(base[:start] + new + base[stop:]))
    # hypothesis refuses function-scoped fixtures, so no monkeypatch or capsys
    with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(io.StringIO()):
        assert main(["monitor", "--model", checkpoint]) in (0, 1)


ODD_VALUES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
    | st.sampled_from([10**400, -(10**400), [], {}, [1], ["x"], {"a": 1}, "1e999", "nan"])
)


@FUZZ
@given(
    raw=st.binary(max_size=64)
    | st.builds(
        lambda key, value: json.dumps({key: value}).encode(),
        st.sampled_from(sorted(DEFAULTS["simulate"]) + ["command", "not_a_setting"]),
        ODD_VALUES,
    )
)
def test_an_odd_config_file_exits_0_1_or_2(files, raw):
    root, _ = files
    path = root / "cfg.json"
    path.write_bytes(raw)
    argv = ["simulate", "--scenarios", "1", "--episode-len", "10", "--config", str(path)]
    assert main([*argv, "--out", str(root / "sim")]) in (0, 1, 2)
