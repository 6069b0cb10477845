"""Byte fuzz of the two files the CLI parses: episode datasets and config files.

Whatever bytes a dataset line or a config file holds, `cli.main` ends in an
exit code (0 or 1 for data, 0, 1 or 2 for config), never in a traceback.
"""

import json

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
def _mutations(draw, size):
    """A single-byte overwrite or a short slice replacement of `size` bytes: (start, stop, new)."""
    start = draw(st.integers(0, size - 1))
    if draw(st.booleans()):
        return start, start + 1, bytes([draw(st.integers(0, 255))])
    stop = min(size, start + draw(st.integers(0, 8)))
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
    start, stop, new = data.draw(_mutations(len(base)))
    path = root / "mutated.jsonl"
    path.write_bytes(base[:start] + new + base[stop:])
    assert _train(path, root / "out") in (0, 1)


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
