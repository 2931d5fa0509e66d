"""Command-line entry point: gen / train / eval / gradcheck / inspect.

Exit codes: 0 success, 1 usage, 2 data/format, 3 numeric failure.
Every run echoes its fully-resolved configuration to a sidecar JSON file
next to its primary output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import Dataset, SyntheticSpec, generate_dataset
from .decoders import TaskKind
from .errors import ComemError, ConfigError, FormatError, NumericError
from .tensor import grad_check
from .training import TrainConfig, evaluate_model, load_checkpoint, train, write_metric_log

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

GRADCHECK_TOLERANCE = 1e-4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _echo_config(path, payload: dict):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8")


def _build_parser() -> _Parser:
    parser = _Parser(prog="comem", description="Co-memory video QA: synthetic data, training, inspection.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--out", required=True)
    gen.add_argument("--episodes", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--length", type=int, default=34)
    gen.add_argument("--actions", type=int, default=8)
    gen.add_argument("--objects", type=int, default=8)
    gen.add_argument("--force", action="store_true")

    tr = sub.add_parser("train", help="train one task")
    tr.add_argument("--task", required=True, choices=[t.value for t in TaskKind])
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True, help="checkpoint path")
    tr.add_argument("--epochs", type=int, default=50)
    tr.add_argument("--lr", type=float, default=0.001)
    tr.add_argument("--batch", type=int, default=64)
    tr.add_argument("--cycles", type=int, default=2)
    tr.add_argument("--levels", type=int, default=3)
    tr.add_argument("--seed", type=int, default=0)

    ev = sub.add_parser("eval", help="evaluate a checkpoint")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--dump", required=True, help="per-item predictions (JSON lines)")
    ev.add_argument("--split", default="test", choices=["train", "val", "test"])

    ins = sub.add_parser("inspect", help="export attention maps for one QA item")
    ins.add_argument("--ckpt", required=True)
    ins.add_argument("--data", required=True)
    ins.add_argument("--id", required=True, dest="qa_id")
    ins.add_argument("--out", required=True)

    gc = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    gc.add_argument("--config", default="tiny", choices=["tiny", "default"])
    gc.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_gen(args) -> int:
    spec = SyntheticSpec(length=args.length, actions=args.actions, objects=args.objects, seed=args.seed)
    out = Path(args.out)
    manifest = generate_dataset(spec, args.episodes, out, force=args.force)
    _echo_config(out / "run_config.json", {"command": "gen", "episodes": args.episodes, "spec": manifest["spec"]})
    print(f"wrote {manifest['episodes']} episodes to {out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = TrainConfig(
        task=args.task, learning_rate=args.lr, batch_size=args.batch,
        epochs=args.epochs, cycles=args.cycles, levels=args.levels, seed=args.seed,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _echo_config(str(out) + ".config.json", {"command": "train", "data": str(args.data), "config": cfg.__dict__})

    def log(entry):
        print(f"epoch {entry['epoch']}: train_loss={entry['train_loss']:.4f} "
              f"val_metric={entry['val_metric']:.4f} ({entry['seconds']}s)", flush=True)

    history = train(cfg, args.data, out, log_fn=log)
    write_metric_log(str(out) + ".metrics.csv", history)
    print(f"checkpoint: {out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    task = model.config.task_kind()
    dataset = Dataset(args.data, task)
    metric, dump = evaluate_model(model, dataset, split=args.split)
    dump_path = Path(args.dump)
    dump_path.parent.mkdir(parents=True, exist_ok=True)
    with open(dump_path, "w", encoding="utf-8") as fh:
        for row in dump:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    _echo_config(str(dump_path) + ".config.json",
                 {"command": "eval", "ckpt": str(args.ckpt), "data": str(args.data), "split": args.split})
    print(f"{task.metric_name}={metric:.4f}")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    task = model.config.task_kind()
    dataset = Dataset(args.data, task)
    item = None
    for split_items in dataset.items.values():
        for it in split_items:
            if it.id == args.qa_id:
                item = it
                break
    if item is None:
        raise FormatError(f"QA id {args.qa_id!r} not found in {args.data} for task {task.value!r}")
    fa, fb = dataset.features(item.video)
    report = model.inspect(fa, fb, item.question, item.candidates)
    report["id"] = item.id
    report["gold"] = item.answer
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, sort_keys=True, indent=1), encoding="utf-8")
    _echo_config(str(out) + ".config.json",
                 {"command": "inspect", "ckpt": str(args.ckpt), "data": str(args.data), "id": args.qa_id})
    print(f"wrote attention maps for {item.id} to {out}")
    return EXIT_OK


def full_model_gradcheck(config: str = "tiny", seed: int = 0, max_coords: int = 2) -> float:
    """Finite-difference check across all four task losses; returns max error."""
    from .verification import build_gradcheck_case

    worst = 0.0
    for task in TaskKind:
        f, tensors = build_gradcheck_case(task.value, seed=seed, size=config)
        worst = max(worst, grad_check(f, tensors, eps=1e-4, max_coords=max_coords, seed=seed))
    return worst


def _cmd_gradcheck(args) -> int:
    err = full_model_gradcheck(config=args.config, seed=args.seed)
    _echo_config(f"gradcheck_{args.config}_{args.seed}.config.json",
                 {"command": "gradcheck", "config": args.config, "seed": args.seed})
    print(f"max relative error: {err:.3e}")
    return EXIT_OK if err <= GRADCHECK_TOLERANCE else EXIT_NUMERIC


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    handlers = {
        "gen": _cmd_gen,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "inspect": _cmd_inspect,
        "gradcheck": _cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ComemError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
