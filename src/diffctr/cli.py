"""Command-line interface.

Subcommands: generate-data, pretrain, finetune, verify, experiment.
Exit codes: 0 success, 1 usage error, 2 data/config/checkpoint error,
3 numeric failure (including failed verification suites).
Every output lands under --out next to a manifest.txt of checksums.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import sys

import numpy as np

from .config import (
    Config,
    DEFAULTS,
    default_config_text,
    load_config,
    to_loss_config,
    to_model_config,
    to_run_config,
    to_schedule,
    to_synthetic_spec,
)
from .data import (
    Dataset,
    generate_synthetic,
    load_delimited,
    load_training_delimited,
    make_output_dir,
    save_delimited,
    split_indices,
    subset,
)
from .errors import CheckpointError, ConfigError, DataError, DiffCtrError, NumericError, ShapeError
from .experiments import SUITES as EXPERIMENT_SUITES
from .experiments import Environment, write_report_files
from .model import Model, load_checkpoint, save_checkpoint
from .train import evaluate, finetune, pretrain, reinit_label_head
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
    parser = CliParser(
        prog="diffctr",
        description="Generative pretraining plus fine-tuning for CTR models.",
        epilog=_config_key_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=CliParser)

    p = sub.add_parser("generate-data", help="synthesize train/validation/test splits",
                       epilog=_config_key_epilog(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", help="config file (defaults used when omitted)")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("print-config", help="print the full default config")

    p = sub.add_parser("pretrain", help="masked-reconstruction pretraining",
                       epilog=_config_key_epilog(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", help="config file")
    p.add_argument("--data", required=True, help="directory with the data files")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("finetune", help="click-logloss fine-tuning",
                       epilog=_config_key_epilog(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", help="config file")
    p.add_argument("--data", required=True, help="directory with the data files")
    p.add_argument("--init", help="checkpoint to transfer from")
    p.add_argument("--transfer", choices=["full", "embeddings-only", "scoring-network-only", "none"],
                   help="override the config transfer mode")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("verify", help="run exact-identity oracle suites")
    p.add_argument("--suite", default="all",
                   choices=sorted(VERIFY_SUITES) + ["all"], help="suite to run")
    p.add_argument("--negative-control", action="store_true",
                   help="corrupt one adjoint so the gradcheck suite must fail")

    p = sub.add_parser("experiment", help="multi-seed comparison suites",
                       epilog=_config_key_epilog(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
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
    with open(manifest, "w") as fh:
        for rel, digest in sorted(entries):
            fh.write(f"{digest}  {rel}\n")
    return manifest


def _write_run_rows(path: str, config_id: str, seed: int, report) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["config_id", "seed", "split", "metric", "value"])
        for log in report.epochs:
            w.writerow([config_id, seed, "train", f"loss_epoch{log.epoch}", repr(log.train_loss)])
            if log.validation is not None:
                for metric, value in log.validation.as_rows():
                    w.writerow([config_id, seed, "validation", f"{metric}_epoch{log.epoch}", repr(value)])
        if report.test is not None:
            for metric, value in report.test.as_rows():
                w.writerow([config_id, seed, "test", metric, repr(value)])


def _load_splits(cfg: Config, data_dir: str) -> tuple[Dataset, Dataset, Dataset]:
    d = cfg.values["data"]
    train, vocabs = load_training_delimited(os.path.join(data_dir, d["train"]))
    validation = load_delimited(os.path.join(data_dir, d["validation"]), vocabs, split="validation")
    test = load_delimited(os.path.join(data_dir, d["test"]), vocabs, split="test")
    return train, validation, test


def _synthetic_splits(cfg: Config) -> tuple[Dataset, Dataset, Dataset, np.ndarray]:
    spec = to_synthetic_spec(cfg)
    dataset, bayes = generate_synthetic(spec)
    tr, va, te = split_indices(spec.samples, spec.seed)
    return (
        subset(dataset, tr, "train"),
        subset(dataset, va, "validation"),
        subset(dataset, te, "test"),
        bayes,
    )


def cmd_generate_data(args) -> int:
    cfg = _load_conf(args.config)
    make_output_dir(args.out)
    spec = to_synthetic_spec(cfg)
    dataset, bayes = generate_synthetic(spec)
    parts = split_indices(spec.samples, spec.seed)
    names = ("train", "validation", "test")
    d = cfg.values["data"]
    sidecar = os.path.join(args.out, "bayes_scores.csv")
    with open(sidecar, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["split", "row", "score"])
        for split_name, idx in zip(names, parts):
            piece = subset(dataset, idx, split_name)
            save_delimited(piece, os.path.join(args.out, d[split_name]))
            for row, i in enumerate(idx):
                w.writerow([split_name, row, repr(float(bayes[int(i)]))])
            print(f"{split_name}: {len(piece.token_matrix())} rows -> {d[split_name]}")
    write_manifest(args.out)
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = _load_conf(args.config)
    run_cfg = to_run_config(cfg)
    train, _, _ = _load_splits(cfg, args.data)
    make_output_dir(args.out)
    model = Model.init(to_model_config(cfg), train.schema, run_cfg.seed)
    schedule = to_schedule(cfg, train.num_fields)
    model, report = pretrain(model, train, schedule, run_cfg, to_loss_config(cfg), out_dir=args.out)
    save_checkpoint(model, os.path.join(args.out, "pretrained.dgct"),
                    meta={"seed": run_cfg.seed, "epochs": run_cfg.pretrain_epochs})
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
    cfg = _load_conf(args.config)
    run_cfg = to_run_config(cfg)
    if args.transfer:
        run_cfg.transfer = args.transfer
    if run_cfg.transfer != "none" and not args.init:
        raise UsageError(f"--transfer {run_cfg.transfer} requires --init CHECKPOINT")
    train, validation, test = _load_splits(cfg, args.data)
    make_output_dir(args.out)
    model_cfg = to_model_config(cfg)
    if run_cfg.transfer == "none":
        model = Model.init(model_cfg, train.schema, run_cfg.seed)
    else:
        model = load_checkpoint(args.init, run_cfg.transfer, model_cfg, train.schema, run_cfg.seed)
    if run_cfg.no_label:
        reinit_label_head(model, run_cfg.seed)
    model, report = finetune(model, train, validation, test, run_cfg, out_dir=args.out)
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
    return EXIT_NUMERIC if report.diverged else EXIT_OK


def cmd_verify(args) -> int:
    names = sorted(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, negative_control=args.negative_control)
    for r in results:
        print(r.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERIC


def cmd_experiment(args) -> int:
    cfg = _load_conf(args.config)
    if args.data:
        train, validation, test = _load_splits(cfg, args.data)
    else:
        train, validation, test, _ = _synthetic_splits(cfg)
    env = Environment(
        train=train,
        validation=validation,
        test=test,
        model_cfg=to_model_config(cfg),
        run_cfg=to_run_config(cfg),
        schedule=to_schedule(cfg, train.num_fields),
        loss_cfg=to_loss_config(cfg),
    )
    seeds = list(range(args.seeds))
    make_output_dir(args.out)  # before the suite runs, not after
    report = EXPERIMENT_SUITES[args.suite](env, seeds)
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
