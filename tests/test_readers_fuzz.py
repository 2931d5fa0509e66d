"""Fuzzed readers: whatever the bytes or JSON, nothing but a ``ComemError`` escapes.

Covers the feature file reader, one QA line and the checkpoint manifest.
Example counts are capped to keep the suite fast; hypothesis replays any
failing example it has saved before drawing new ones.
"""

import copy
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comem.data import MAGIC, VERSION, load_qa_file, read_feature_file
from comem.errors import ComemError, FormatError
from comem.model import CoMemoryModel, tiny_model_config
from comem.training import CHECKPOINT_FORMAT, TrainConfig, load_checkpoint, save_checkpoint

FUZZ = settings(max_examples=150, deadline=None)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _read(reader, *args):
    try:
        reader(*args)
    except ComemError:
        pass


# -- feature files ---------------------------------------------------------------


@st.composite
def feature_files(draw):
    """A header that mostly parses, then a payload of about the size it announces."""
    length, width = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    header = MAGIC + struct.pack("<III", draw(st.sampled_from([VERSION, VERSION + 1])), length, width)
    size = max(0, length * width * 4 + draw(st.sampled_from([0, 0, 0, -4, 1])))
    return header + draw(st.binary(min_size=size, max_size=size))


@FUZZ
@given(raw=st.binary(max_size=48) | feature_files())
def test_feature_reader_raises_only_comem_errors(workdir, raw):
    path = workdir / "f.cmf"
    path.write_bytes(raw)
    _read(read_feature_file, path)


# -- QA lines --------------------------------------------------------------------


QA_FIELDS = {
    "id": st.text(max_size=4),
    "task": st.sampled_from(["action", "trans", "count", "frame"]),
    "video": st.text(max_size=4),
    "question": st.lists(st.integers(-1, 20), max_size=3),
    "answer": st.integers(-1, 12),
    "candidates": st.lists(st.lists(st.integers(-1, 20), max_size=2), max_size=6),
}
QA_LIKE = st.fixed_dictionaries({}, optional={k: v | JSON_VALUES for k, v in QA_FIELDS.items()})


@FUZZ
@given(value=JSON_VALUES | QA_LIKE, sizes=st.sampled_from([(None, None), (16, 8)]))
def test_qa_line_reader_raises_only_comem_errors(workdir, value, sizes):
    path = workdir / "qa.jsonl"
    path.write_text(json.dumps(value) + "\n", encoding="utf-8")
    _read(load_qa_file, path, *sizes)


@FUZZ
@given(video=st.text(alphabet=st.sampled_from("./\\\0a"), max_size=6) | st.text(max_size=6) | JSON_VALUES)
def test_a_loaded_video_names_a_file_inside_features(workdir, video):
    """Whatever a QA line's ``video`` holds, an accepted one joins ``features/`` as a plain file name."""
    path = workdir / "qa.jsonl"
    line = {"id": "x", "task": "frame", "video": video, "question": [1], "answer": 0}
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    try:
        item, = load_qa_file(path)
    except FormatError:
        return
    features = workdir / "features"
    assert item.video == video
    assert (features / f"{item.video}_a.cmf").resolve().parent == features.resolve()


# -- checkpoint manifests -----------------------------------------------------------


@pytest.fixture(scope="module")
def checkpoint(workdir):
    path = workdir / "c.ckpt"
    model = CoMemoryModel(tiny_model_config("frame"), seed=0)
    save_checkpoint(path, model, TrainConfig(task="frame"), 1, [])
    return path, path.read_text(encoding="utf-8")


def _containers(node) -> list:
    """Every non-empty dict and list inside a JSON value, outermost first."""
    if not isinstance(node, (dict, list)) or not node:
        return []
    children = node.values() if isinstance(node, dict) else node
    return [node] + [c for child in children for c in _containers(child)]


DELETE = object()
REPLACEMENTS = (st.just(DELETE) | JSON_VALUES | st.integers(-2, 2**70)
                | st.sampled_from([[], {}, "", [2**31, 2**31], CHECKPOINT_FORMAT]).map(copy.deepcopy))


@FUZZ
@given(data=st.data())
def test_checkpoint_manifest_reader_raises_only_comem_errors(checkpoint, data):
    path, original = checkpoint
    manifest = json.loads(original)
    for _ in range(data.draw(st.integers(1, 3))):
        containers = _containers(manifest)
        if not containers:
            break
        node = data.draw(st.sampled_from(containers))
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        value = data.draw(REPLACEMENTS)
        if value is DELETE:
            del node[key]
        else:
            node[key] = value
    path.write_text(json.dumps(manifest), encoding="utf-8")
    _read(load_checkpoint, path)
