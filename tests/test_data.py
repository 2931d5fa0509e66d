"""Feature/QA file formats and the deterministic synthetic generator."""

import filecmp
import hashlib
import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import comem
from comem.data import (
    MAGIC,
    Dataset,
    FeatureSequence,
    QAItem,
    SyntheticSpec,
    build_vocabulary,
    derive_seed,
    feature_projections,
    generate_dataset,
    generate_episode,
    load_qa_file,
    read_feature_file,
    split_of,
    write_feature_file,
)
from comem.decoders import COUNT_MAX, NUM_CHOICES, TaskKind
from comem.errors import DomainError, FormatError


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


# -- feature files ---------------------------------------------------------------


def test_feature_round_trip_bit_exact(tmp_path):
    values = _rng(0).standard_normal((34, 64)).astype(np.float32)
    path = tmp_path / "v.cmf"
    write_feature_file(path, FeatureSequence(values))
    back = read_feature_file(path)
    assert back.values.dtype == np.float32
    assert np.array_equal(back.values, values)
    assert back.values.tobytes() == values.tobytes()


def test_feature_header_arithmetic(tmp_path):
    values = np.ones((3, 5), dtype=np.float32)
    path = tmp_path / "v.cmf"
    write_feature_file(path, FeatureSequence(values))
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    version, length, width = struct.unpack("<III", raw[4:16])
    assert (version, length, width) == (1, 3, 5)
    assert len(raw) == 16 + 3 * 5 * 4


def test_feature_bad_magic(tmp_path):
    path = tmp_path / "bad.cmf"
    path.write_bytes(b"NOPE" + struct.pack("<III", 1, 1, 1) + b"\x00" * 4)
    with pytest.raises(FormatError, match="magic"):
        read_feature_file(path)


def test_feature_bad_version(tmp_path):
    path = tmp_path / "bad.cmf"
    path.write_bytes(MAGIC + struct.pack("<III", 9, 1, 1) + b"\x00" * 4)
    with pytest.raises(FormatError, match="version"):
        read_feature_file(path)


def test_feature_truncation_errors(tmp_path):
    path = tmp_path / "bad.cmf"
    path.write_bytes(MAGIC + b"\x01")
    with pytest.raises(FormatError, match="truncated"):
        read_feature_file(path)
    path.write_bytes(MAGIC + struct.pack("<III", 1, 2, 2) + b"\x00" * 8)  # needs 16
    with pytest.raises(FormatError, match="payload length"):
        read_feature_file(path)


def test_feature_rejects_invalid_values():
    with pytest.raises(DomainError):
        FeatureSequence(np.zeros(5, dtype=np.float32))  # 1-d
    with pytest.raises(DomainError):
        FeatureSequence(np.full((2, 2), np.nan))


# -- QA file validation -----------------------------------------------------------


def _write_lines(tmp_path, lines):
    path = tmp_path / "qa.jsonl"
    path.write_text("\n".join(json.dumps(d) for d in lines) + "\n", encoding="utf-8")
    return path


def _good_mc():
    return {"id": "e0_action", "task": "action", "video": "v0",
            "question": [1, 2], "answer": 3, "candidates": [[0], [1], [2], [3], [4]]}


def test_qa_round_trip(tmp_path):
    path = _write_lines(tmp_path, [
        _good_mc(),
        {"id": "e0_count", "task": "count", "video": "v0", "question": [5], "answer": 2},
    ])
    items = load_qa_file(path)
    assert len(items) == 2
    assert items[0].task is TaskKind.REPEATING_ACTION
    assert items[0].candidates == [[0], [1], [2], [3], [4]]
    assert items[1].task is TaskKind.REPETITION_COUNT


def test_qa_rejects_four_candidates_with_line_number(tmp_path):
    bad = _good_mc()
    bad["candidates"] = bad["candidates"][:4]
    path = _write_lines(tmp_path, [_good_mc(), bad])
    with pytest.raises(FormatError, match="line 2.*5 candidates"):
        load_qa_file(path)


def test_qa_rejects_count_answer_out_of_range(tmp_path):
    path = _write_lines(tmp_path, [
        {"id": "c", "task": "count", "video": "v0", "question": [1], "answer": 12},
    ])
    with pytest.raises(FormatError, match="line 1.*12 outside 0..10"):
        load_qa_file(path)


def test_qa_rejects_missing_field_and_bad_task(tmp_path):
    path = _write_lines(tmp_path, [{"id": "x", "task": "frame", "video": "v0", "question": [1]}])
    with pytest.raises(FormatError, match="line 1.*'answer'"):
        load_qa_file(path)
    path = _write_lines(tmp_path, [{"id": "x", "task": "sort", "video": "v0", "question": [1], "answer": 0}])
    with pytest.raises(FormatError, match="unknown task"):
        load_qa_file(path)


def test_qa_rejects_mc_answer_outside_slots(tmp_path):
    bad = _good_mc()
    bad["answer"] = 5
    path = _write_lines(tmp_path, [bad])
    with pytest.raises(FormatError, match="outside 0..4"):
        load_qa_file(path)


def test_qa_rejects_candidates_on_open_tasks(tmp_path):
    path = _write_lines(tmp_path, [
        {"id": "f", "task": "frame", "video": "v0", "question": [1], "answer": 0, "candidates": [[1]] * 5},
    ])
    with pytest.raises(FormatError, match="only allowed for multiple-choice"):
        load_qa_file(path)


@pytest.mark.parametrize("value", [5, None, "id task video question answer"])
def test_qa_rejects_lines_that_are_not_objects(tmp_path, value):
    """A number or null is not a mapping, and ``in`` on a string tests substrings."""
    path = _write_lines(tmp_path, [_good_mc(), value])
    with pytest.raises(FormatError, match="line 2: expected a JSON object"):
        load_qa_file(path)


@pytest.mark.parametrize("value", [7, None, ["e0"]])
def test_qa_rejects_an_id_that_is_not_a_string(tmp_path, value):
    path = _write_lines(tmp_path, [{**_good_mc(), "id": value}])
    with pytest.raises(FormatError, match="line 1: id must be a string"):
        load_qa_file(path)


@pytest.mark.parametrize("video", ["../../outside", "a/b", "/v0", "a\\b", ".", "..", "", "v\x000", 3, None])
def test_qa_rejects_a_video_that_is_not_a_plain_file_name_stem(tmp_path, video):
    """``Dataset.features`` joins the stem to ``features/``; nothing may lead it outside."""
    path = _write_lines(tmp_path, [{**_good_mc(), "video": video}])
    with pytest.raises(FormatError, match="line 1: video .* is not a plain file-name stem"):
        load_qa_file(path)


@pytest.mark.parametrize("video", ["v0", "...", "e000001", "clip.2"])
def test_qa_accepts_plain_video_stems(tmp_path, video):
    assert load_qa_file(_write_lines(tmp_path, [{**_good_mc(), "video": video}]))[0].video == video


def test_qa_rejects_invalid_json_with_line_number(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_text('{"id": "a"}\n{broken\n', encoding="utf-8")
    with pytest.raises(FormatError, match="line 1"):
        load_qa_file(path)


def test_qa_line_that_is_not_json_is_format_error(tmp_path):
    path = _write_lines(tmp_path, [_good_mc()])
    path.write_text(path.read_text(encoding="utf-8") + "{broken\n", encoding="utf-8")
    with pytest.raises(FormatError, match="line 2: invalid JSON"):
        load_qa_file(path)


# -- generator -------------------------------------------------------------------


def test_derive_seed_is_order_sensitive():
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(1, 2) == derive_seed(1, 2)
    assert 0 <= derive_seed(0) < 2**64


def test_generate_episode_deterministic():
    spec = SyntheticSpec(seed=3)
    a1, b1, items1, trace1 = generate_episode(spec, 7)
    a2, b2, items2, trace2 = generate_episode(spec, 7)
    assert np.array_equal(a1.values, a2.values)
    assert np.array_equal(b1.values, b2.values)
    assert [i.to_json() for i in items1] == [i.to_json() for i in items2]
    assert trace1 == trace2


def test_generated_datasets_byte_identical(tmp_path):
    spec = SyntheticSpec(seed=5)
    m1 = generate_dataset(spec, 12, tmp_path / "d1")
    m2 = generate_dataset(spec, 12, tmp_path / "d2")
    assert m1 == m2
    files1 = sorted(p.relative_to(tmp_path / "d1") for p in (tmp_path / "d1").rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(tmp_path / "d2") for p in (tmp_path / "d2").rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert filecmp.cmp(tmp_path / "d1" / rel, tmp_path / "d2" / rel, shallow=False), rel


def _tree_sha256(root: Path) -> str:
    """One sha256 over every file under ``root``, in sorted path order: its relative path (UTF-8), then its bytes."""
    h = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()):
        h.update(rel.encode("utf-8"))
        h.update((root / rel).read_bytes())
    return h.hexdigest()


PINNED = [
    (SyntheticSpec(seed=1), 200, "5da71ef961502d78caafea8b25b355e70c2187d646d01df81c09fd3ea530be57"),
    (SyntheticSpec(seed=7, length=20, actions=6, objects=5), 40,
     "595ef539bf78831fc57bc650731651735e3f9cf030d8f7cd07764306fd2ae379"),
]
PINNED_IDS = ["default-seed1", "short-seed7"]


@pytest.mark.parametrize("spec, episodes, sha256", PINNED, ids=PINNED_IDS)
def test_generator_output_is_pinned(tmp_path, spec, episodes, sha256):
    """Every file the generator writes, byte for byte: a change that moves a draw, a format or the
    vocabulary changes this hash.  Feature files, traces and QA splits all feed the criterion-7
    data and the benchmark digests, so a new hash is a new dataset."""
    generate_dataset(spec, episodes, tmp_path / "d")
    assert _tree_sha256(tmp_path / "d") == sha256


@pytest.mark.parametrize("spec, episodes", [pinned[:2] for pinned in PINNED], ids=PINNED_IDS)
def test_generator_draws_one_performer_per_action_and_distinct_distractors(tmp_path, spec, episodes):
    """The frame and action questions take these draws of ``_draw_runs`` on trust: each action
    has one object per episode, and an action question's four distractors are distinct actions
    other than its answer."""
    out = tmp_path / "d"
    generate_dataset(spec, episodes, out)
    performers = {}
    for line in (out / "traces.jsonl").read_text(encoding="utf-8").splitlines():
        trace = json.loads(line)
        objects = {}
        for a, obj, _ in trace["runs"]:
            objects.setdefault(a, set()).add(obj)
        assert all(len(objs) == 1 for objs in objects.values()), trace
        performers[trace["video"]] = {a: objs.pop() for a, objs in objects.items()}
    inv = {v: k for k, v in build_vocabulary(spec).items()}
    frame = action = 0
    for split in ("train", "val", "test"):
        for item in load_qa_file(out / "qa" / f"frame_{split}.jsonl"):
            assert item.answer == performers[item.video][int(inv[item.question[-1]].split("_")[1])]
            frame += 1
        for item in load_qa_file(out / "qa" / f"action_{split}.jsonl"):
            truth = item.candidates[item.answer]
            distractors = {tuple(c) for j, c in enumerate(item.candidates) if j != item.answer}
            assert len(distractors) == NUM_CHOICES - 1 and tuple(truth) not in distractors
            action += 1
    assert frame == action == episodes  # every episode asks both


def test_importing_data_loads_no_model_module():
    """The data layer builds batches without the model stack; a fresh interpreter shows what it imports."""
    root = str(Path(comem.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {root!r}); import comem.data; print(' '.join(sorted(sys.modules)))"
    loaded = set(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                check=True).stdout.split())
    assert "comem.data" in loaded
    assert not loaded & {"comem.model", "comem.memory", "comem.facts", "comem.encoders"}


def test_generate_refuses_nonempty_dir_without_force(tmp_path):
    out = tmp_path / "d"
    out.mkdir()
    (out / "stale.txt").write_text("x")
    with pytest.raises(DomainError, match="not empty"):
        generate_dataset(SyntheticSpec(), 2, out)
    generate_dataset(SyntheticSpec(), 2, out, force=True)  # force overwrites


def test_trace_replay_reproduces_all_answers(tmp_path):
    """Recompute every answer from the latent run traces alone."""
    spec = SyntheticSpec(seed=9)
    out = tmp_path / "d"
    generate_dataset(spec, 30, out)
    vocab = build_vocabulary(spec)
    inv = {v: k for k, v in vocab.items()}
    traces = {json.loads(l)["video"]: json.loads(l)["runs"]
              for l in (out / "traces.jsonl").read_text().splitlines()}

    def token_action(t):
        return int(inv[t].split("_")[1])

    checked = 0
    for task in TaskKind:
        for split in ("train", "val", "test"):
            for item in load_qa_file(out / "qa" / f"{task.value}_{split}.jsonl"):
                runs = traces[item.video]
                actions = [r[0] for r in runs]
                if task is TaskKind.REPETITION_COUNT:
                    x = token_action(item.question[4])
                    assert item.answer == min(COUNT_MAX, actions.count(x))
                elif task is TaskKind.REPEATING_ACTION:
                    k = int(inv[item.question[4]].split("_")[1])
                    truth = token_action(item.candidates[item.answer][0])
                    assert actions.count(truth) == k
                    for j, cand in enumerate(item.candidates):
                        if j != item.answer:
                            assert actions.count(token_action(cand[0])) != k
                elif task is TaskKind.STATE_TRANSITION:
                    x = token_action(item.question[-1])
                    first = actions.index(x)
                    truth = token_action(item.candidates[item.answer][0])
                    assert actions[first + 1] == truth
                else:  # frame: which object performs action X
                    x = token_action(item.question[-1])
                    objs = {r[1] for r in runs if r[0] == x}
                    assert objs == {item.answer}
                checked += 1
    assert checked >= 4 * 30 * 0.8  # most episodes admit all four tasks


def test_answers_and_candidates_in_range(tmp_path):
    spec = SyntheticSpec(seed=11)
    out = tmp_path / "d"
    generate_dataset(spec, 40, out)
    for task in TaskKind:
        ds = Dataset(out, task)
        for split, items in ds.items.items():
            for item in items:
                if task.is_multiple_choice:
                    assert 0 <= item.answer < NUM_CHOICES
                    assert len(item.candidates) == NUM_CHOICES
                    assert len({tuple(c) for c in item.candidates}) == NUM_CHOICES
                elif task is TaskKind.REPETITION_COUNT:
                    assert 0 <= item.answer <= COUNT_MAX
                else:
                    assert 0 <= item.answer < spec.objects


@pytest.mark.parametrize("fields, match", [
    (dict(actions=4), "at least 5 actions"),
    (dict(objects=4), "at least 5 actions"),
    (dict(run_len_min=0), "run lengths"),
    (dict(run_len_min=3, run_len_max=2), "run lengths"),
    (dict(active_min=0), "active action range"),
    (dict(active_min=3, active_max=2), "active action range"),
    (dict(actions=5, active_max=6), "active action range"),
    (dict(length=0), "length must be positive"),
], ids=["actions", "objects", "run-min", "run-order", "active-min", "active-order", "active-max", "length"])
def test_synthetic_spec_refuses_an_impossible_episode(fields, match):
    with pytest.raises(DomainError, match=match):
        SyntheticSpec(**fields)


def test_generate_refuses_zero_episodes(tmp_path):
    with pytest.raises(DomainError, match="episodes must be positive"):
        generate_dataset(SyntheticSpec(), 0, tmp_path / "d")
    assert not (tmp_path / "d").exists()


def test_split_sizes():
    assert split_of(0, 10) == "train"
    assert split_of(7, 10) == "train"
    assert split_of(8, 10) == "val"
    assert split_of(9, 10) == "test"
    counts = {"train": 0, "val": 0, "test": 0}
    for i in range(2000):
        counts[split_of(i, 2000)] += 1
    assert counts == {"train": 1600, "val": 200, "test": 200}


def test_feature_projections_fixed_per_spec_seed():
    p1 = feature_projections(SyntheticSpec(seed=4))
    p2 = feature_projections(SyntheticSpec(seed=4))
    p3 = feature_projections(SyntheticSpec(seed=5))
    assert np.array_equal(p1[0], p2[0]) and np.array_equal(p1[1], p2[1])
    assert not np.array_equal(p1[0], p3[0])


def test_features_compose_object_and_action_projections(tmp_path):
    """Motion features carry action identity; appearance carries the object
    identity plus a weaker cue of the ongoing action."""
    spec = SyntheticSpec(seed=13, noise=0.0)
    appearance, motion, items, trace = generate_episode(spec, 0)
    p_obj, p_act, p_act_a = feature_projections(spec)
    pos = 0
    for action, obj, dur in trace["runs"]:
        assert np.allclose(motion.values[pos], p_act[action], atol=1e-6)
        expected = p_obj[obj] + spec.appearance_action_mix * p_act_a[action]
        assert np.allclose(appearance.values[pos], expected, atol=1e-6)
        pos += dur
    assert pos == spec.length


def test_appearance_action_mix_zero_gives_pure_object_features():
    spec = SyntheticSpec(seed=13, noise=0.0, appearance_action_mix=0.0)
    appearance, _, _, trace = generate_episode(spec, 0)
    p_obj, _, _ = feature_projections(spec)
    first_action, first_obj, _ = trace["runs"][0]
    assert np.allclose(appearance.values[0], p_obj[first_obj], atol=1e-6)


def test_dataset_batching(tmp_path):
    out = tmp_path / "d"
    generate_dataset(SyntheticSpec(seed=15), 10, out)
    ds = Dataset(out, TaskKind.STATE_TRANSITION)
    items = ds.items["train"][:3]
    batch = ds.batch(items)
    assert batch["features_a"].shape == (3, 34, 64)
    assert batch["features_b"].shape == (3, 34, 64)
    assert batch["answers"].shape == (3,)
    assert batch["cand_ids"].shape[:2] == (3, NUM_CHOICES)
    assert batch["q_ids"].shape[0] == 3
    # each question's length counts exactly its real tokens
    for i, item in enumerate(items):
        assert batch["q_len"][i] == len(item.question)


def test_dataset_requires_manifest(tmp_path):
    with pytest.raises(FormatError, match="manifest"):
        Dataset(tmp_path, TaskKind.FRAME_QA)


@pytest.fixture
def small_dataset(tmp_path):
    out = tmp_path / "d"
    generate_dataset(SyntheticSpec(seed=15), 10, out)
    return out


def test_dataset_missing_vocab_is_format_error(small_dataset):
    (small_dataset / "vocab.json").unlink()
    with pytest.raises(FormatError, match="vocab.json"):
        Dataset(small_dataset, TaskKind.FRAME_QA)


def test_dataset_corrupt_manifest_is_format_error(small_dataset):
    (small_dataset / "manifest.json").write_text('{"episodes": 10,', encoding="utf-8")
    with pytest.raises(FormatError, match="manifest.json"):
        Dataset(small_dataset, TaskKind.FRAME_QA)


def test_dataset_manifest_must_be_an_object(small_dataset):
    (small_dataset / "manifest.json").write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(FormatError, match="manifest.json: expected a JSON object"):
        Dataset(small_dataset, TaskKind.FRAME_QA)


def test_dataset_vocab_must_be_an_object(small_dataset):
    (small_dataset / "vocab.json").write_text("5", encoding="utf-8")
    with pytest.raises(FormatError, match="vocab.json: expected a JSON object"):
        Dataset(small_dataset, TaskKind.FRAME_QA)


def test_dataset_answer_vocab_must_be_an_integer(small_dataset):
    path = small_dataset / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text(encoding="utf-8")), "answer_vocab": "eight"}),
                    encoding="utf-8")
    with pytest.raises(FormatError, match="answer_vocab"):
        Dataset(small_dataset, TaskKind.FRAME_QA)


def test_dataset_missing_feature_file_is_format_error(small_dataset):
    ds = Dataset(small_dataset, TaskKind.FRAME_QA)
    video = ds.items["train"][0].video
    (small_dataset / "features" / f"{video}_b.cmf").unlink()
    with pytest.raises(FormatError, match=f"{video}_b.cmf"):
        ds.features(video)


@pytest.mark.parametrize("suffix, shape", [("a", (20, 64)), ("b", (34, 63))])
def test_dataset_checks_feature_shapes_against_the_spec(small_dataset, suffix, shape):
    ds = Dataset(small_dataset, TaskKind.FRAME_QA)
    video = ds.items["train"][0].video
    write_feature_file(small_dataset / "features" / f"{video}_{suffix}.cmf",
                       FeatureSequence(np.zeros(shape, dtype=np.float32)))
    with pytest.raises(FormatError, match=rf"{video}_{suffix}.cmf: features of shape \({shape[0]}, {shape[1]}\)"):
        ds.batch(ds.items["train"][:2])


@pytest.mark.parametrize("spec", [None, [34, 64, 64], {"length": 34, "d_a": 64}, {"length": 34, "d_a": 64, "d_b": "64"},
                                  {"length": True, "d_a": 64, "d_b": 64}])
def test_dataset_manifest_spec_needs_integer_feature_dimensions(small_dataset, spec):
    path = small_dataset / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text(encoding="utf-8")), "spec": spec}), encoding="utf-8")
    with pytest.raises(FormatError, match="spec needs integer length, d_a and d_b"):
        Dataset(small_dataset, TaskKind.FRAME_QA)


def _rewrite_first_item(root, task: str, **fields):
    path = root / "qa" / f"{task}_train.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), **fields})
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("token", [-1, 999])
def test_dataset_rejects_question_token_outside_vocabulary(small_dataset, token):
    """-1 would wrap to the last embedding row and 999 would index past the table."""
    _rewrite_first_item(small_dataset, "frame", question=[1, token])
    with pytest.raises(FormatError, match=f"line 1: question token id {token} outside 0"):
        Dataset(small_dataset, TaskKind.FRAME_QA)


@pytest.mark.parametrize("fields, match", [
    ({"answer": True}, "answer must be an integer"),
    ({"question": [1, True]}, "question must be a non-empty list of token ids"),
], ids=["answer", "question-token"])
def test_dataset_rejects_json_booleans_as_integers(small_dataset, fields, match):
    """JSON ``true`` is a Python ``int`` equal to 1; a reader that wants an integer refuses it."""
    _rewrite_first_item(small_dataset, "frame", **fields)
    with pytest.raises(FormatError, match=f"line 1: {match}"):
        Dataset(small_dataset, TaskKind.FRAME_QA)


def test_dataset_rejects_candidate_token_outside_vocabulary(small_dataset):
    vocab_size = len(json.loads((small_dataset / "vocab.json").read_text(encoding="utf-8")))
    _rewrite_first_item(small_dataset, "trans", candidates=[[1]] * 4 + [[vocab_size]])
    with pytest.raises(FormatError, match=f"candidate 4 token id {vocab_size} outside 0..{vocab_size - 1}"):
        Dataset(small_dataset, TaskKind.STATE_TRANSITION)


def test_dataset_rejects_frame_answer_outside_answer_vocabulary(small_dataset):
    answer_vocab = json.loads((small_dataset / "manifest.json").read_text(encoding="utf-8"))["answer_vocab"]
    _rewrite_first_item(small_dataset, "frame", answer=answer_vocab)
    with pytest.raises(FormatError, match=f"frame answer {answer_vocab} outside 0..{answer_vocab - 1}"):
        Dataset(small_dataset, TaskKind.FRAME_QA)


def test_dataset_rejects_a_qa_line_of_another_task(small_dataset):
    """A trans line in the frame file would otherwise load with its answer checked against trans's 0..4."""
    trans_line = (small_dataset / "qa" / "trans_train.jsonl").read_text(encoding="utf-8").splitlines()[0]
    path = small_dataset / "qa" / "frame_train.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines() + [trans_line]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match=f"line {len(lines)}: task 'trans' in a 'frame' QA file"):
        Dataset(small_dataset, TaskKind.FRAME_QA)


def test_missing_qa_file_is_format_error(tmp_path):
    with pytest.raises(FormatError, match="nope.jsonl"):
        load_qa_file(tmp_path / "nope.jsonl")


def test_count_answer_distribution_is_wide(tmp_path):
    """Counts must include zeros and spread enough that guessing the mean is
    clearly penalized (the constant-mean baseline stays well above 2.5)."""
    spec = SyntheticSpec(seed=1)
    answers = []
    for i in range(300):
        _, _, items, _ = generate_episode(spec, i)
        answers += [it.answer for it in items if it.task is TaskKind.REPETITION_COUNT]
    answers = np.asarray(answers, dtype=np.float64)
    assert (answers == 0).mean() > 0.15
    assert answers.max() >= 4
    baseline = np.mean((answers - answers.mean()) ** 2)
    assert baseline >= 2.5
