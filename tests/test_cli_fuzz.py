"""Byte fuzz of the inputs the CLI parses: episode datasets, the monitor's stdin,
checkpoints and config files.

Whatever bytes a dataset line, a stdin line, a checkpoint or a config file
holds, `cli.main` ends in an exit code (0 or 1 for data and checkpoints, 0, 1
or 2 for config), never in a traceback.
"""

import contextlib
import io
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
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
def _mutations(draw, parts):
    """A single-byte overwrite or a short slice replacement of the joined `parts`:
    (start, stop, new).

    The part comes first and the offset is uniform over it, so the edits
    spread over every part: each record of a dataset, its last columns
    included, or each of a checkpoint's magic, header and payload. A byte
    offset drawn over the whole file lands mostly in the largest part. The
    part and the offset come from a random.Random that hypothesis seeds,
    since hypothesis's own numbers lean to the low end: over 300 examples, a
    fraction of the line from st.floats(0, 1) put a third of the edits in its
    first eighth, and st.integers over the line put nearly two thirds there;
    st.integers over a checkpoint's three parts put 53 of 100 in the magic.
    """
    rnd = draw(st.randoms(use_true_random=True))
    i = rnd.randrange(len(parts))
    offset = rnd.randrange(len(parts[i]))
    start = sum(map(len, parts[:i])) + offset
    if draw(st.booleans()):
        return start, start + 1, bytes([draw(st.integers(0, 255))])
    stop = min(sum(map(len, parts)), start + draw(st.integers(0, 8)))
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
    start, stop, new = data.draw(_mutations(base.splitlines(keepends=True)))
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
    start, stop, new = data.draw(_mutations(base.splitlines(keepends=True)))
    stdin = io.TextIOWrapper(io.BytesIO(base[:start] + new + base[stop:]))
    # hypothesis refuses function-scoped fixtures, so no monkeypatch or capsys
    with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(io.StringIO()):
        assert main(["monitor", "--model", checkpoint]) in (0, 1)


@FUZZ
@given(data=st.data())
def test_a_mutated_checkpoint_exits_0_or_1(files, checkpoint, data):
    root, base = files
    blob = Path(checkpoint).read_bytes()
    magic, header, payload = blob.split(b"\n", 2)
    start, stop, new = data.draw(_mutations([magic + b"\n", header + b"\n", payload]))
    path = root / "mutated.ckpt"
    path.write_bytes(blob[:start] + new + blob[stop:])
    stdin = io.TextIOWrapper(io.BytesIO(base))
    with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(io.StringIO()):
        assert main(["monitor", "--model", str(path)]) in (0, 1)


ODD_VALUES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
    | st.sampled_from([10**400, -(10**400), [], {}, [1], ["x"], {"a": 1}, "1e999", "nan"])
    | st.just("[" * 100_000)  # JSON nested too deep for a dict setting to parse
)


def _config_files(cmd):
    """(cmd, bytes of a config file): raw bytes, or one of cmd's keys or a stray key
    holding an odd value."""
    return st.tuples(st.just(cmd), st.binary(max_size=64) | st.builds(
        lambda key, value: json.dumps({key: value}).encode(),
        st.sampled_from(sorted(DEFAULTS[cmd]) + ["command", "not_a_setting"]),
        ODD_VALUES,
    ))


@FUZZ
@given(config=st.sampled_from(["simulate", "train", "tune"]).flatmap(_config_files))
@example(config=("train", json.dumps({"params": "[" * 100_000}).encode()))
@example(config=("tune", json.dumps({"axes": "[" * 100_000}).encode()))
def test_an_odd_config_file_exits_0_1_or_2(files, config):
    root, _ = files
    cmd, raw = config
    path = root / "cfg.json"
    path.write_bytes(raw)
    if cmd == "simulate":
        argv = ["simulate", "--scenarios", "1", "--episode-len", "10"]
    else:  # settings are coerced before the data is read, so a missing file keeps it cheap
        argv = [cmd, "--family", "seq2seq", "--data", str(root / "missing.jsonl")]
    assert main([*argv, "--config", str(path), "--out", str(root / cmd)]) in (0, 1, 2)
