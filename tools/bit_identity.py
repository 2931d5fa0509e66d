"""Print sha256 digests of the model's outputs, to compare two checkouts bit for bit.

A refactor that claims to leave the numbers unchanged runs this script at the
parent commit and at the change, on the same host and BLAS thread count, and
shows that every line matches:

    python tools/bit_identity.py

``gradients`` covers the float64 loss and every parameter gradient of
``build_gradcheck_case`` for all four tasks at seeds 0 and 1.  ``training``
covers, for all four tasks, the float32 ``train()`` history at tiny widths
(without the wall-clock ``seconds``), the test metric and the per-item
``evaluate`` dump of the saved checkpoint.  ``weights`` covers every
parameter's name and initial value for float32 trans and frame models at the
paper's widths, seeds 0 and 1, and one float64 trans model at width 256: the
tiny widths above draw no parameter large enough to be split across threads.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from comem.data import SyntheticSpec, generate_dataset  # noqa: E402
from comem.decoders import TaskKind  # noqa: E402
from comem.model import CoMemoryModel, ModelConfig, build_gradcheck_case  # noqa: E402
from comem.training import TrainConfig, evaluate, train  # noqa: E402

TINY_DIMS = dict(embed_dim=5, question_hidden=4, fact_channels=4, context_dim=4, memory_dim=4, gate_dim=4)
MID_DIMS = dict(input_width_a=64, input_width_b=64, embed_dim=256, question_hidden=256, fact_channels=256,
                context_dim=256, memory_dim=256, gate_dim=256)


def gradients_digest() -> str:
    h = hashlib.sha256()
    for task in TaskKind:
        for seed in (0, 1):
            f, tensors = build_gradcheck_case(task.value, seed=seed)
            loss = f()
            loss.backward()
            h.update(loss.data.tobytes())
            for t in tensors:
                h.update(b"none" if t.grad is None else t.grad.tobytes())
    return h.hexdigest()


def weights_digest() -> str:
    models = [(ModelConfig(task=task, vocab_size=43, answer_vocab=16), seed, np.float32)
              for task in ("trans", "frame") for seed in (0, 1)]
    models.append((ModelConfig(task="trans", vocab_size=43, **MID_DIMS), 0, np.float64))
    h = hashlib.sha256()
    for cfg, seed, dtype in models:
        for name, t in CoMemoryModel(cfg, seed=seed, dtype=dtype).store.items():
            h.update(name.encode())
            h.update(t.data.tobytes())
    return h.hexdigest()


def training_digest(work: Path) -> str:
    generate_dataset(SyntheticSpec(seed=5), 60, work / "data")
    h = hashlib.sha256()
    for task in TaskKind:
        ckpt = work / f"{task.value}.ckpt"
        cfg = TrainConfig(task=task.value, epochs=3, batch_size=8, levels=2, seed=0)
        history = train(cfg, work / "data", ckpt, dims=TINY_DIMS)
        metric, dump = evaluate(ckpt, work / "data")
        record = {"history": [{k: v for k, v in e.items() if k != "seconds"} for e in history],
                  "metric": metric, "dump": dump}
        h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest()


def main():
    print(f"gradients {gradients_digest()}")
    print(f"weights {weights_digest()}")
    with tempfile.TemporaryDirectory() as tmp:
        print(f"training {training_digest(Path(tmp))}")


if __name__ == "__main__":
    main()
