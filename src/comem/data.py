"""Feature/QA persistence and the deterministic synthetic video-QA generator.

A synthetic episode is a sequence of runs (action id, object id, duration)
covering ``length`` units.  Motion features are a fixed random projection
of the per-unit action one-hot plus Gaussian noise; appearance features
project the object one-hot the same way.  One QA item per task kind is
emitted where the episode admits an unambiguous question.

File formats
  feature file: magic ``CMF1``, u32 version=1, u32 L, u32 D (little endian),
    then L*D float32 values row-major.
  QA file: one JSON object per line with keys id/task/video/question/answer
    and, for multiple choice, candidates (exactly 5 token sequences).
  vocab file: JSON mapping token string -> id.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional

import numpy as np

from .decoders import COUNT_MAX, NUM_CHOICES, TaskKind, num_answers
from .errors import DomainError, FormatError
from .model import make_batch

MAGIC = b"CMF1"
VERSION = 1

BASE_WORDS = [
    "how", "many", "times", "does", "occur", "which", "action", "occurs",
    "exactly", "follows", "the", "first", "run", "of", "object", "performs",
]


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Combine integers into one 64-bit stream key (splitmix64 chaining)."""
    acc = 0x243F6A8885A308D3
    for p in parts:
        acc = _splitmix64(acc ^ (int(p) & 0xFFFFFFFFFFFFFFFF))
    return acc


def _rng(*parts: int) -> np.random.Generator:
    # Philox is counter-based, so streams are platform-independent.
    return np.random.Generator(np.random.Philox(key=np.uint64(derive_seed(*parts))))


# -- feature sequences ---------------------------------------------------------


class FeatureSequence:
    """L x D single-precision unit features for one modality of one video."""

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.float32)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise DomainError(f"FeatureSequence: need a non-empty 2-d array, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise DomainError("FeatureSequence: values must be finite")
        self.values = values

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def write_feature_file(path, seq: FeatureSequence):
    payload = np.ascontiguousarray(seq.values, dtype="<f4").tobytes()
    header = MAGIC + struct.pack("<III", VERSION, seq.length, seq.width)
    Path(path).write_bytes(header + payload)


def read_feature_file(path) -> FeatureSequence:
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise FormatError(f"{path}: unreadable feature file ({e.strerror})") from None
    if len(raw) < 16:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    version, length, width = struct.unpack("<III", raw[4:16])
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if length < 1 or width < 1:
        raise FormatError(f"{path}: invalid shape {length}x{width}")
    expected = 16 + length * width * 4
    if len(raw) != expected:
        raise FormatError(f"{path}: payload length {len(raw) - 16} does not match L*D*4 = {length * width * 4}")
    values = np.frombuffer(raw[16:], dtype="<f4").reshape(length, width)
    return FeatureSequence(values.copy())


# -- QA items ------------------------------------------------------------------


@dataclass
class QAItem:
    id: str
    task: TaskKind
    video: str
    question: list[int]
    answer: int
    candidates: Optional[list[list[int]]] = None

    def to_json(self) -> dict:
        d = {"id": self.id, "task": self.task.value, "video": self.video,
             "question": self.question, "answer": self.answer}
        if self.candidates is not None:
            d["candidates"] = self.candidates
        return d


def _validate_item(d: dict, lineno: int, vocab_size: Optional[int] = None,
                   answer_vocab: Optional[int] = None) -> QAItem:
    """One QA line as a ``QAItem``; token ids and frame answers are bounded when the sizes are given."""
    def fail(msg):
        raise FormatError(f"line {lineno}: {msg}")

    def check_range(value: int, top: Optional[int], what: str):
        if value < 0 or (top is not None and value >= top):
            fail(f"{what} {value} outside 0..{'' if top is None else top - 1}")

    def tokens(seq, what: str) -> list[int]:
        if not isinstance(seq, list) or not seq or not all(isinstance(t, int) for t in seq):
            fail(f"{what} must be a non-empty list of token ids")
        for t in seq:
            check_range(t, vocab_size, f"{what} token id")
        return list(seq)

    if not isinstance(d, dict):
        fail(f"expected a JSON object, got {type(d).__name__}")
    for key in ("id", "task", "video", "question", "answer"):
        if key not in d:
            fail(f"missing field {key!r}")
    if not isinstance(d["id"], str):
        fail("id must be a string")
    video = d["video"]
    if not isinstance(video, str) or video in ("", ".", "..") or any(c in video for c in "/\\\0"):
        fail(f"video {video!r} is not a plain file-name stem")
    try:
        task = TaskKind(d["task"])
    except ValueError:
        fail(f"unknown task {d['task']!r}")
    question = tokens(d["question"], "question")
    answer = d["answer"]
    if not isinstance(answer, int):
        fail("answer must be an integer")
    candidates = d.get("candidates")
    if task.is_multiple_choice:
        if not isinstance(candidates, list) or len(candidates) != NUM_CHOICES:
            fail(f"expected {NUM_CHOICES} candidates")
        candidates = [tokens(c, f"candidate {k}") for k, c in enumerate(candidates)]
    elif candidates is not None:
        fail("candidates only allowed for multiple-choice tasks")
    check_range(answer, num_answers(task, answer_vocab), f"{task.value} answer")
    return QAItem(id=d["id"], task=task, video=video, question=question,
                  answer=answer, candidates=candidates)


def load_qa_file(path, vocab_size: Optional[int] = None, answer_vocab: Optional[int] = None) -> list[QAItem]:
    """Validated QA items; ``vocab_size`` and ``answer_vocab`` bound token ids and frame answers."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"{path}: unreadable QA file ({e})") from None
    items = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError as e:
            raise FormatError(f"line {lineno}: invalid JSON ({e.msg})")
        items.append(_validate_item(d, lineno, vocab_size, answer_vocab))
    return items


def _read_json_object(path) -> dict:
    """A JSON file's top-level object; anything else, or an unreadable file, is a ``FormatError``."""
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:  # ValueError covers JSON and UTF-8 decoding
        raise FormatError(f"{path}: unreadable JSON file ({e})") from None
    if not isinstance(value, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(value).__name__}")
    return value


# -- synthetic generator -------------------------------------------------------


@dataclass
class SyntheticSpec:
    length: int = 34
    actions: int = 8
    objects: int = 8
    run_len_min: int = 1
    run_len_max: int = 4
    active_min: int = 2
    active_max: int = 4
    d_a: int = 64
    d_b: int = 64
    noise: float = 0.1
    # like real video frames, the appearance stream also carries a (weaker)
    # cue of the ongoing action; 0 makes the streams fully independent
    appearance_action_mix: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.actions < NUM_CHOICES or self.objects < NUM_CHOICES:
            raise DomainError(f"need at least {NUM_CHOICES} actions and objects to form distinct candidates")
        if self.run_len_min < 1 or self.run_len_max < self.run_len_min:
            raise DomainError("run lengths must satisfy 1 <= min <= max")
        if not 1 <= self.active_min <= self.active_max <= self.actions:
            raise DomainError("active action range must satisfy 1 <= min <= max <= actions")
        if self.length < 1:
            raise DomainError("length must be positive")


def build_vocabulary(spec: SyntheticSpec) -> dict[str, int]:
    words = list(BASE_WORDS)
    words += [f"action_{i}" for i in range(spec.actions)]
    words += [f"object_{i}" for i in range(spec.objects)]
    words += [f"num_{i}" for i in range(COUNT_MAX + 1)]
    return {w: i for i, w in enumerate(words)}


def feature_projections(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed per-spec projections of object/action one-hots into feature space.

    Returns (object -> appearance, action -> motion, action -> appearance);
    the last one injects the appearance stream's action cue.
    """
    rng = _rng(spec.seed, 0xFEED)
    p_obj = rng.standard_normal((spec.objects, spec.d_a)).astype(np.float32)
    p_act = rng.standard_normal((spec.actions, spec.d_b)).astype(np.float32)
    p_act_a = rng.standard_normal((spec.actions, spec.d_a)).astype(np.float32)
    return p_obj, p_act, p_act_a


def _draw_runs(spec: SyntheticSpec, rng: np.random.Generator) -> list[tuple[int, int, int]]:
    k = int(rng.integers(spec.active_min, spec.active_max + 1))
    active = rng.choice(spec.actions, size=k, replace=False)
    # one performer per action for the whole episode, so every unit of an
    # action's runs carries the same object identity
    performer = {int(a): int(o) for a, o in zip(active, rng.integers(0, spec.objects, size=k))}
    runs, covered, prev = [], 0, -1
    while covered < spec.length:
        choices = [a for a in active if a != prev] or list(active)
        action = int(choices[rng.integers(0, len(choices))])
        obj = performer[action]
        dur = int(rng.integers(spec.run_len_min, spec.run_len_max + 1))
        dur = min(dur, spec.length - covered)
        runs.append((action, obj, dur))
        covered += dur
        prev = action
    return runs


def _unit_labels(runs, length) -> tuple[np.ndarray, np.ndarray]:
    acts = np.empty(length, dtype=np.int64)
    objs = np.empty(length, dtype=np.int64)
    pos = 0
    for action, obj, dur in runs:
        acts[pos : pos + dur] = action
        objs[pos : pos + dur] = obj
        pos += dur
    return acts, objs


class _Question:
    """Token rendering against the generator vocabulary."""

    def __init__(self, vocab: dict[str, int]):
        self.vocab = vocab

    def ids(self, *words: str) -> list[int]:
        return [self.vocab[w] for w in words]

    def action(self, a: int) -> int:
        return self.vocab[f"action_{a}"]


def _make_items(spec, runs, index, rng, q: _Question) -> Optional[list[QAItem]]:
    """Build one QA item per feasible task; None forces an episode retry."""
    video = f"v{index:06d}"
    actions_in = [r[0] for r in runs]
    counts: dict[int, int] = {}
    for a in actions_in:
        counts[a] = counts.get(a, 0) + 1
    items: list[QAItem] = []

    def mc_candidates(truth_token: int, pool: list[int]) -> tuple[list[list[int]], int]:
        picked = rng.choice(len(pool), size=NUM_CHOICES - 1, replace=False)
        cands = [[q.action(pool[int(i)])] for i in picked]
        slot = int(rng.integers(0, NUM_CHOICES))
        cands.insert(slot, [truth_token])
        return cands, slot

    # count: how many runs of action X (X uniform over all actions, so the
    # answer is 0 when X never occurs and the distribution stays wide)
    x = int(rng.integers(0, spec.actions))
    items.append(QAItem(
        id=f"e{index:06d}_count", task=TaskKind.REPETITION_COUNT, video=video,
        question=q.ids("how", "many", "times", "does") + [q.action(x)] + q.ids("occur"),
        answer=min(COUNT_MAX, counts.get(x, 0)),
    ))

    # action: which action occurs exactly k times (count must be unambiguous)
    unique = [a for a, c in counts.items() if sum(1 for v in counts.values() if v == c) == 1 and c <= COUNT_MAX]
    if not unique:
        return None
    x = unique[int(rng.integers(0, len(unique)))]
    k = counts[x]
    pool = [a for a in range(spec.actions) if counts.get(a, 0) != k]
    if len(pool) < NUM_CHOICES - 1:
        return None
    cands, slot = mc_candidates(q.action(x), pool)
    items.append(QAItem(
        id=f"e{index:06d}_action", task=TaskKind.REPEATING_ACTION, video=video,
        question=q.ids("which", "action", "occurs", "exactly") + [q.vocab[f"num_{k}"]] + q.ids("times"),
        answer=slot, candidates=cands,
    ))

    # trans: which action follows the first run of X
    followers = {}
    for i, a in enumerate(actions_in[:-1]):
        if a not in followers:
            followers[a] = actions_in[i + 1]
    if followers:
        xs = sorted(followers)
        x = xs[int(rng.integers(0, len(xs)))]
        truth = followers[x]
        pool = [a for a in range(spec.actions) if a != truth]
        cands, slot = mc_candidates(q.action(truth), pool)
        items.append(QAItem(
            id=f"e{index:06d}_trans", task=TaskKind.STATE_TRANSITION, video=video,
            question=q.ids("which", "action", "follows", "the", "first", "run", "of") + [q.action(x)],
            answer=slot, candidates=cands,
        ))

    # frame: which object performs action X (X must bind a single object)
    by_action: dict[int, set[int]] = {}
    for action, obj, _ in runs:
        by_action.setdefault(action, set()).add(obj)
    unambiguous = sorted(a for a, objs in by_action.items() if len(objs) == 1)
    if not unambiguous:
        return None
    x = unambiguous[int(rng.integers(0, len(unambiguous)))]
    items.append(QAItem(
        id=f"e{index:06d}_frame", task=TaskKind.FRAME_QA, video=video,
        question=q.ids("which", "object", "performs") + [q.action(x)],
        answer=int(next(iter(by_action[x]))),
    ))
    return items


def generate_episode(spec: SyntheticSpec, index: int):
    """Deterministic episode: (appearance, motion, QA items, latent trace)."""
    vocab = build_vocabulary(spec)
    p_obj, p_act, p_act_a = feature_projections(spec)
    question = _Question(vocab)
    for attempt in range(100):
        rng = _rng(spec.seed, index, attempt)
        runs = _draw_runs(spec, rng)
        items = _make_items(spec, runs, index, rng, question)
        if items is None:
            continue
        acts, objs = _unit_labels(runs, spec.length)
        appearance = (p_obj[objs] + spec.appearance_action_mix * p_act_a[acts]
                      + spec.noise * rng.standard_normal((spec.length, spec.d_a)).astype(np.float32))
        motion = p_act[acts] + spec.noise * rng.standard_normal((spec.length, spec.d_b)).astype(np.float32)
        trace = {"video": f"v{index:06d}", "runs": [list(r) for r in runs], "attempt": attempt}
        return FeatureSequence(appearance), FeatureSequence(motion), items, trace
    raise DomainError(f"episode {index}: no feasible question set after 100 attempts")


SPLITS = ("train", "val", "test")


def split_of(index: int, episodes: int) -> str:
    train_end = int(episodes * 0.8)
    val_end = int(episodes * 0.9)
    if index < train_end:
        return "train"
    return "val" if index < val_end else "test"


def generate_dataset(spec: SyntheticSpec, episodes: int, out_dir, force: bool = False) -> dict:
    """Write feature files, per-task QA splits, vocab, traces, and a manifest."""
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()) and not force:
        raise DomainError(f"{out}: directory not empty (use force to overwrite)")
    (out / "features").mkdir(parents=True, exist_ok=True)
    (out / "qa").mkdir(parents=True, exist_ok=True)

    vocab = build_vocabulary(spec)
    buckets: dict[tuple[str, str], list[QAItem]] = {}
    counts_by_task: dict[str, int] = {}
    with open(out / "traces.jsonl", "w", encoding="utf-8") as trace_fh:
        for index in range(episodes):
            appearance, motion, items, trace = generate_episode(spec, index)
            write_feature_file(out / "features" / f"v{index:06d}_a.cmf", appearance)
            write_feature_file(out / "features" / f"v{index:06d}_b.cmf", motion)
            trace_fh.write(json.dumps(trace, sort_keys=True) + "\n")
            split = split_of(index, episodes)
            for item in items:
                buckets.setdefault((item.task.value, split), []).append(item)
                counts_by_task[item.task.value] = counts_by_task.get(item.task.value, 0) + 1

    for task in TaskKind:
        for split in SPLITS:
            items = buckets.get((task.value, split), [])
            with open(out / "qa" / f"{task.value}_{split}.jsonl", "w", encoding="utf-8") as fh:
                for item in items:
                    fh.write(json.dumps(item.to_json(), sort_keys=True) + "\n")

    (out / "vocab.json").write_text(json.dumps(vocab, sort_keys=True, indent=1), encoding="utf-8")
    manifest = {
        "spec": asdict(spec),
        "episodes": episodes,
        "vocab_size": len(vocab),
        "answer_vocab": spec.objects,
        "items_by_task": dict(sorted(counts_by_task.items())),
        "splits": {s: sum(1 for i in range(episodes) if split_of(i, episodes) == s) for s in SPLITS},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1), encoding="utf-8")
    return manifest


# -- dataset access -------------------------------------------------------------


class Dataset:
    """In-memory view of a generated directory for one task."""

    def __init__(self, root, task: TaskKind):
        self.root = Path(root)
        self.task = task
        self.manifest = _read_json_object(self.root / "manifest.json")
        self.vocab: dict[str, int] = _read_json_object(self.root / "vocab.json")
        if not isinstance(self.manifest.get("answer_vocab", 0), int):
            raise FormatError(f"{self.root / 'manifest.json'}: answer_vocab must be an integer")
        spec = self.manifest.get("spec")
        dims = [spec.get(key) for key in ("length", "d_a", "d_b")] if isinstance(spec, dict) else []
        if len(dims) != 3 or not all(isinstance(n, int) for n in dims):
            raise FormatError(f"{self.root / 'manifest.json'}: spec needs integer length, d_a and d_b")
        self._feature_shapes = ((dims[0], dims[1]), (dims[0], dims[2]))  # appearance, motion
        self.items: dict[str, list[QAItem]] = {
            split: load_qa_file(self.root / "qa" / f"{task.value}_{split}.jsonl", self.vocab_size, self.answer_vocab)
            for split in SPLITS
        }
        self._features: dict[str, np.ndarray] = {}

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    @property
    def answer_vocab(self) -> int:
        return self.manifest.get("answer_vocab", 0)

    def features(self, video: str) -> tuple[np.ndarray, np.ndarray]:
        """A video's appearance and motion features; each file is checked against the spec on first read."""
        cached = self._features.get(video)
        if cached is None:
            cached = []
            for suffix, shape in zip("ab", self._feature_shapes):
                path = self.root / "features" / f"{video}_{suffix}.cmf"
                values = read_feature_file(path).values
                if values.shape != shape:
                    raise FormatError(f"{path}: features of shape {values.shape}, the manifest's spec says {shape}")
                cached.append(values)
            cached = self._features[video] = tuple(cached)
        return cached

    def batch(self, items: list[QAItem]) -> dict:
        """Assemble padded numpy arrays for one batch of items."""
        feats = [self.features(i.video) for i in items]
        batch = make_batch([f[0] for f in feats], [f[1] for f in feats], [i.question for i in items],
                           [i.candidates for i in items] if self.task.is_multiple_choice else None)
        batch["ids"] = [i.id for i in items]
        batch["answers"] = np.asarray([i.answer for i in items], dtype=np.int64)
        return batch
