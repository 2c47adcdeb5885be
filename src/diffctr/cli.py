"""Command-line interface.

Subcommands: generate-data, pretrain, finetune, verify, experiment.
Exit codes: 0 success, 1 usage error, 2 data/config/checkpoint error,
3 numeric failure (including failed verification suites).
Every output lands under --out next to a manifest.txt of checksums.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import replace

import numpy as np

from .config import (
    Config,
    DEFAULTS,
    default_config_text,
    load_config,
    to_data_files,
    to_loss_config,
    to_model_config,
    to_run_config,
    to_schedule,
    to_synthetic_spec,
)
from .data import (
    Dataset,
    atomic_write,
    generate_synthetic,
    load_delimited,
    load_training_delimited,
    make_output_dir,
    save_delimited,
    split_indices,
    subset,
    write_csv,
)
from .errors import CheckpointError, ConfigError, DataError, DiffCtrError, NumericError, ShapeError
from .experiments import SUITES as EXPERIMENT_SUITES
from .experiments import Environment, run_suite, write_report_files
from .model import Model, load_checkpoint, save_checkpoint
from .train import TRANSFERS, finetune, pretrain
from .verify import SUITES as VERIFY_SUITES
from .verify import run_suites

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


class CliParser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _config_key_epilog() -> str:
    lines = ["config keys and defaults:"]
    for section, entries in DEFAULTS.items():
        pairs = ", ".join(f"{k}={v}" for k, v in entries.items())
        lines.append(f"  [{section}] {pairs}")
    return "\n".join(lines)


def build_parser() -> CliParser:
    with_keys = {"epilog": _config_key_epilog(), "formatter_class": argparse.RawDescriptionHelpFormatter}
    parser = CliParser(
        prog="diffctr",
        description="Generative pretraining plus fine-tuning for CTR models.",
        **with_keys,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=CliParser)

    p = sub.add_parser("generate-data", help="synthesize train/validation/test splits", **with_keys)
    p.add_argument("--config", help="config file (defaults used when omitted)")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("print-config", help="print the full default config")

    p = sub.add_parser("pretrain", help="masked-reconstruction pretraining", **with_keys)
    p.add_argument("--config", help="config file")
    p.add_argument("--data", required=True, help="directory with the data files")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("finetune", help="click-logloss fine-tuning", **with_keys)
    p.add_argument("--config", help="config file")
    p.add_argument("--data", required=True, help="directory with the data files")
    p.add_argument("--init", help="checkpoint to transfer from")
    p.add_argument("--transfer", choices=TRANSFERS,
                   help="override the config transfer mode")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("verify", help="run exact-identity oracle suites")
    p.add_argument("--suite", default="all",
                   choices=sorted(VERIFY_SUITES) + ["all"], help="suite to run")
    p.add_argument("--negative-control", action="store_true",
                   help="corrupt one adjoint so the gradcheck suite must fail")

    p = sub.add_parser("experiment", help="multi-seed comparison suites", **with_keys)
    p.add_argument("--suite", required=True, choices=sorted(EXPERIMENT_SUITES))
    p.add_argument("--config", help="config file")
    p.add_argument("--data", help="data directory (synthetic from config when omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seeds", type=int, default=5, help="number of seeds (0..n-1)")
    return parser


def _load_conf(path: str | None) -> Config:
    return load_config(path) if path else Config()


def write_manifest(out_dir: str) -> str:
    entries = []
    for root, _, files in os.walk(out_dir):
        for name in sorted(files):
            if name == "manifest.txt":
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            entries.append((os.path.relpath(path, out_dir), digest))
    manifest = os.path.join(out_dir, "manifest.txt")
    with atomic_write(manifest) as fh:
        for rel, digest in sorted(entries):
            fh.write(f"{digest}  {rel}\n")
    return manifest


def _write_run_rows(path: str, config_id: str, seed: int, report) -> None:
    rows = []
    for log in report.epochs:
        rows.append([config_id, seed, "train", f"loss_epoch{log.epoch}", repr(log.train_loss)])
        if log.validation is not None:
            for metric, value in log.validation.as_rows():
                rows.append([config_id, seed, "validation", f"{metric}_epoch{log.epoch}", repr(value)])
    if report.test is not None:
        for metric, value in report.test.as_rows():
            rows.append([config_id, seed, "test", metric, repr(value)])
    write_csv(path, ["config_id", "seed", "split", "metric", "value"], rows)


def _synthetic_splits(cfg: Config) -> list[tuple[Dataset, np.ndarray]]:
    """The train, validation and test splits, each with the Bayes scores of its rows."""
    spec = to_synthetic_spec(cfg)
    dataset, bayes = generate_synthetic(spec)
    parts = split_indices(spec.samples, spec.seed)
    return [
        (subset(dataset, idx, name), bayes[idx])
        for name, idx in zip(("train", "validation", "test"), parts)
    ]


def cmd_generate_data(args) -> int:
    cfg = _load_conf(args.config)
    d = to_data_files(cfg)
    splits = _synthetic_splits(cfg)
    make_output_dir(args.out)
    scores = []
    for piece, bayes in splits:
        save_delimited(piece, os.path.join(args.out, d[piece.split]))
        scores += [[piece.split, row, repr(float(p))] for row, p in enumerate(bayes)]
        print(f"{piece.split}: {len(piece.token_matrix())} rows -> {d[piece.split]}")
    write_csv(os.path.join(args.out, "bayes_scores.csv"), ["split", "row", "score"], scores)
    write_manifest(args.out)
    return EXIT_OK


def _environment(cfg: Config, data_dir: str | None) -> Environment:
    """The splits in data_dir, or synthesized from cfg when it is None, and every config of a run."""
    if data_dir is None:
        train, validation, test = (piece for piece, _ in _synthetic_splits(cfg))
    else:
        d = to_data_files(cfg)
        train, vocabs = load_training_delimited(os.path.join(data_dir, d["train"]))
        validation = load_delimited(os.path.join(data_dir, d["validation"]), vocabs, split="validation")
        test = load_delimited(os.path.join(data_dir, d["test"]), vocabs, split="test")
    return Environment(
        train=train,
        validation=validation,
        test=test,
        model_cfg=to_model_config(cfg),
        run_cfg=to_run_config(cfg),
        schedule=to_schedule(cfg, train.num_fields),
        loss_cfg=to_loss_config(cfg),
    )


def cmd_pretrain(args) -> int:
    env = _environment(_load_conf(args.config), args.data)
    run_cfg = env.run_cfg
    model = Model.init(env.model_cfg, env.train.schema, run_cfg.seed)
    make_output_dir(args.out)
    model, report = pretrain(model, env.train, env.schedule, run_cfg, env.loss_cfg, out_dir=args.out)
    save_checkpoint(model, os.path.join(args.out, "pretrained.dgct"),
                    meta={"seed": run_cfg.seed, "epochs": len(report.epochs)})
    _write_run_rows(os.path.join(args.out, "pretrain_rows.csv"), "pretrain", run_cfg.seed, report)
    write_manifest(args.out)
    for log in report.epochs:
        print(f"epoch {log.epoch}: loss {log.train_loss:.6f}")
    if report.diverged:
        print("aborted on non-finite loss; kept last completed epoch", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"checkpoint: {os.path.join(args.out, 'pretrained.dgct')}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    env = _environment(_load_conf(args.config), args.data)
    run_cfg = replace(env.run_cfg, transfer=args.transfer) if args.transfer else env.run_cfg
    if run_cfg.transfer != "none" and not args.init:
        raise UsageError(f"--transfer {run_cfg.transfer} requires --init CHECKPOINT")
    if run_cfg.transfer == "none" and args.init:
        raise UsageError("--transfer none trains from scratch and takes no --init")
    if run_cfg.transfer == "none":
        model = Model.init(env.model_cfg, env.train.schema, run_cfg.seed)
    else:
        model = load_checkpoint(args.init, run_cfg.transfer, env.model_cfg, env.train.schema, run_cfg.seed)
    make_output_dir(args.out)
    model, report = finetune(model, env.train, env.validation, env.test, run_cfg, out_dir=args.out)
    _write_run_rows(os.path.join(args.out, "finetune_rows.csv"), "finetune", run_cfg.seed, report)
    write_manifest(args.out)
    for log in report.epochs:
        val = f", val auc {log.validation.auc:.4f}" if log.validation else ""
        print(f"epoch {log.epoch}: loss {log.train_loss:.6f}{val}")
    if report.test is not None:
        line = f"test auc {report.test.auc:.4f}, logloss {report.test.logloss:.4f}"
        if report.test.gauc_pv is not None:
            line += f", gauc_pv {report.test.gauc_pv:.4f}"
        print(line)
    if report.diverged:
        print("aborted on non-finite loss; kept the best validation snapshot", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_verify(args) -> int:
    names = sorted(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, negative_control=args.negative_control)
    for r in results:
        print(r.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERIC


def cmd_experiment(args) -> int:
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    env = _environment(_load_conf(args.config), args.data)
    seeds = list(range(args.seeds))
    make_output_dir(args.out)  # before the suite runs, not after
    report = run_suite(EXPERIMENT_SUITES[args.suite](env), seeds)
    write_report_files(report, args.out)
    write_manifest(args.out)
    for cid, metric, mean, std in report.summary():
        print(f"{cid:<22} {metric:<8} {mean:.4f} +- {std:.4f}")
    for cid, p in report.pvalues():
        print(f"p-value vs full [{cid}] auc: {p:.4f}")
    for cid, seed, err in report.failures:
        print(f"failed: {cid} seed {seed}: {err}", file=sys.stderr)
    return EXIT_OK


class UsageError(DiffCtrError):
    pass


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate-data": cmd_generate_data,
        "print-config": lambda a: (print(default_config_text(), end=""), EXIT_OK)[1],
        "pretrain": cmd_pretrain,
        "finetune": cmd_finetune,
        "verify": cmd_verify,
        "experiment": cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, DataError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, ShapeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
