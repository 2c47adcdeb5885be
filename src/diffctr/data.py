"""Field schemas, delimited dataset IO, and the synthetic CTR generator.

All fields are categorical token ids. The label is an ordinary field
appended after the N feature fields, with a two-token vocabulary. Every
field reserves one extra id (equal to vocab_size) as its mask token;
clean data never contains it.

Synthetic data comes from a latent-cluster generator whose click logit
is an explicit function of the drawn tokens, so the exact posterior
P(click | tokens) is available as a per-sample oracle score.
"""

from __future__ import annotations

import csv
import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .rng import stream

LABEL_FIELD = "label"
SESSION_COLUMN = "session_id"
OOV_ID = 0


@dataclass(frozen=True)
class FieldSchema:
    index: int
    name: str
    vocab_size: int

    def __post_init__(self):
        if self.vocab_size < 1:
            raise DataError(f"field '{self.name}': vocab_size must be >= 1")


@dataclass
class Sample:
    tokens: tuple[int, ...]  # one id per field, label last
    session_id: str | None = None


@dataclass
class Dataset:
    schema: list[FieldSchema]
    samples: list[Sample]
    split: str = "train"

    def __post_init__(self):
        if not self.samples:
            raise DataError(f"dataset split '{self.split}' is empty")
        width = len(self.schema)
        try:
            tokens = np.array([s.tokens for s in self.samples], dtype=np.int64)
        except (TypeError, ValueError):  # ragged rows, or tokens that are not integers
            tokens = None
        if tokens is None or tokens.shape != (len(self.samples), width):
            for i, s in enumerate(self.samples):
                if len(s.tokens) != width:
                    raise DataError(f"sample {i}: expected {width} tokens, got {len(s.tokens)}")
            raise DataError("sample tokens must be integer ids")
        tokens.flags.writeable = False
        self._tokens = tokens
        names = [f.name for f in self.schema]
        if len(set(names)) != len(names):
            raise DataError("field names must be unique")
        if self.schema[-1].name != LABEL_FIELD or self.schema[-1].vocab_size != 2:
            raise DataError("last field must be the binary label")
        vocab = np.array([f.vocab_size for f in self.schema])
        bad = (self._tokens < 0) | (self._tokens >= vocab)
        if bad.any():
            i, k = np.argwhere(bad)[0]
            f = self.schema[k]
            raise DataError(
                f"sample {i}: token {self._tokens[i, k]} out of range for field '{f.name}' "
                f"(vocab {f.vocab_size})"
            )

    @property
    def num_fields(self) -> int:
        """Feature fields, label excluded."""
        return len(self.schema) - 1

    def token_matrix(self) -> np.ndarray:
        """Read-only (n, num_fields + 1) int64 matrix, one row per sample."""
        return self._tokens

    def labels(self) -> np.ndarray:
        return self._tokens[:, -1]

    def session_ids(self) -> list[str] | None:
        """One session id per row, or None when any row lacks one."""
        ids = [s.session_id for s in self.samples]
        return None if None in ids else ids


def feature_schema(vocab_sizes: list[int] | tuple[int, ...], names: list[str] | None = None) -> list[FieldSchema]:
    """Schema for len(vocab_sizes) feature fields plus the label field."""
    if names is None:
        names = [f"f{k}" for k in range(len(vocab_sizes))]
    fields = [FieldSchema(k, names[k], int(v)) for k, v in enumerate(vocab_sizes)]
    fields.append(FieldSchema(len(vocab_sizes), LABEL_FIELD, 2))
    return fields


# ---------------------------------------------------------------------------
# delimited IO

def load_delimited(path: str, vocabs: dict[str, dict[str, int]], split: str = "train") -> Dataset:
    """Load a delimited file using previously built vocabularies.

    Unseen tokens map to the OOV id 0. The label column must hold 0/1.
    """
    return _dataset(path, *_read_rows(path), vocabs, split)


def load_training_delimited(path: str) -> tuple[Dataset, dict[str, dict[str, int]]]:
    """Load a training file and the per-field vocabularies built from it; id 0 is reserved OOV."""
    header, rows = _read_rows(path)
    feature_cols = [c for c in header if c not in (LABEL_FIELD, SESSION_COLUMN)]
    vocabs: dict[str, dict[str, int]] = {c: {} for c in feature_cols}
    for row in rows:
        for c in feature_cols:
            vocab = vocabs[c]
            tok = row[c]
            if tok not in vocab:
                vocab[tok] = len(vocab) + 1  # first-appearance order, 0 kept for OOV
    return _dataset(path, header, rows, vocabs, "train"), vocabs


def _dataset(path: str, header: list[str], rows: list[dict[str, str]],
             vocabs: dict[str, dict[str, int]], split: str) -> Dataset:
    if LABEL_FIELD not in header:
        raise DataError(f"{path}: missing '{LABEL_FIELD}' column")
    feature_cols = [c for c in header if c not in (LABEL_FIELD, SESSION_COLUMN)]
    for c in feature_cols:
        if c not in vocabs:
            raise DataError(f"{path}: column '{c}' not present in vocabularies")
    missing = [c for c in vocabs if c not in feature_cols]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")

    schema = feature_schema([len(vocabs[c]) + 1 for c in feature_cols], names=feature_cols)
    has_session = SESSION_COLUMN in header
    samples = []
    for lineno, row in enumerate(rows, start=2):  # line 1 is the header
        label_raw = row[LABEL_FIELD]
        if label_raw not in ("0", "1"):
            raise DataError(f"{path}: line {lineno}: label value {label_raw!r} is not 0 or 1")
        toks = tuple(vocabs[c].get(row[c], OOV_ID) for c in feature_cols) + (int(label_raw),)
        session = row[SESSION_COLUMN] if has_session else None
        if session is not None and not session.strip():
            raise DataError(f"{path}: line {lineno}: empty {SESSION_COLUMN}")
        samples.append(Sample(tokens=toks, session_id=session))
    return Dataset(schema=schema, samples=samples, split=split)


def make_output_dir(path: str) -> None:
    """Create an output directory and its parents; an unusable path is a DataError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise DataError(f"cannot create output directory {path}: {e.strerror}") from None


@contextmanager
def atomic_write(path: str, mode: str = "w", **open_args):
    """Write to path + ".tmp", then rename it over path.

    A failed write removes the temporary file and leaves any previous
    file at path untouched, so a crash never clobbers a good file. An
    OSError from opening, writing (a full disk) or renaming is a
    DataError.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as e:
        raise DataError(f"cannot write {path}: {e.strerror or e}") from None
    finally:
        if os.path.exists(tmp):  # only after a failed write
            os.remove(tmp)


def write_csv(path: str, header: list[str], rows) -> None:
    """Atomically write a UTF-8 CSV file: the header, then each row."""
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_delimited(dataset: Dataset, path: str) -> None:
    """Write a dataset out with its token ids as the cells."""
    feature_names = [f.name for f in dataset.schema[:-1]]
    has_session = any(s.session_id is not None for s in dataset.samples)
    if has_session and dataset.session_ids() is None:  # a blank cell would not load back
        raise DataError(f"cannot write {path}: some rows have a {SESSION_COLUMN} and others none")
    header = feature_names + [LABEL_FIELD] + ([SESSION_COLUMN] if has_session else [])

    def rows():
        for s in dataset.samples:
            row = [str(tok) for tok in s.tokens]
            if has_session:
                row.append(s.session_id)
            yield row

    write_csv(path, header, rows())


def _read_rows(path: str) -> tuple[list[str], list[dict[str, str]]]:
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot open {path}: {e}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = []
            for lineno, raw in enumerate(reader, start=2):
                if not raw:
                    continue
                if len(raw) != len(header):
                    raise DataError(f"{path}: line {lineno}: expected {len(header)} columns, got {len(raw)}")
                rows.append(dict(zip(header, raw)))
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        except (UnicodeDecodeError, csv.Error) as e:
            raise DataError(f"{path}: unreadable as UTF-8 CSV: {e}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, rows


# ---------------------------------------------------------------------------
# synthetic generator

@dataclass
class SyntheticSpec:
    """Latent-cluster categorical generator with a pairwise click logit.

    Tokens are drawn per field from a cluster-conditional distribution;
    the click label is Bernoulli(sigmoid(intercept + main effects +
    pairwise cross effects)) over the drawn tokens. The logit depends on
    tokens only, so sigmoid(logit) is the exact posterior P(click | F).
    """

    vocab_sizes: tuple[int, ...]
    num_clusters: int
    samples: int
    seed: int
    cluster_probs: list[np.ndarray]  # per field: (C, V) rows summing to 1
    main_effects: list[np.ndarray]  # per field: (V,)
    cross_effects: dict[tuple[int, int], np.ndarray]  # (k, l) with k < l: (V_k, V_l)
    intercept: float = 0.0

    @property
    def num_fields(self) -> int:
        return len(self.vocab_sizes)

    def validate(self) -> None:
        if self.num_fields < 1 or self.num_clusters < 1 or self.samples < 1:
            raise DataError("synthetic spec needs >= 1 field, cluster, and sample")
        for k, v in enumerate(self.vocab_sizes):
            probs = self.cluster_probs[k]
            if probs.shape != (self.num_clusters, v):
                raise DataError(f"field {k}: cluster_probs shape {probs.shape} != ({self.num_clusters}, {v})")
            if np.any(probs < 0) or not np.allclose(probs.sum(axis=1), 1.0, atol=1e-9):
                raise DataError(f"field {k}: cluster distributions must be nonnegative and sum to 1")
            if self.main_effects[k].shape != (v,):
                raise DataError(f"field {k}: main_effects shape mismatch")
        for (k, l), w in self.cross_effects.items():
            if not 0 <= k < l < self.num_fields:
                raise DataError(f"cross effect key ({k}, {l}) out of order")
            if w.shape != (self.vocab_sizes[k], self.vocab_sizes[l]):
                raise DataError(f"cross effect ({k}, {l}) has shape {w.shape}")

    def logits(self, tokens: np.ndarray) -> np.ndarray:
        """Click logit for each row of feature tokens (n, num_fields)."""
        out = np.full(tokens.shape[0], self.intercept, dtype=np.float64)
        for k in range(self.num_fields):
            out += self.main_effects[k][tokens[:, k]]
        for (k, l), w in self.cross_effects.items():
            out += w[tokens[:, k], tokens[:, l]]
        return out


def random_spec(
    num_fields: int = 8,
    vocab: int = 50,
    clusters: int = 10,
    samples: int = 60000,
    seed: int = 7,
    intercept: float = 0.0,
    main_scale: float = 0.5,
    cross_scale: float = 0.4,
    cross_density: float = 1.0,
    cross_rank: int = 6,
    cross_noise: float = 0.6,
    concentration: float = 0.25,
) -> SyntheticSpec:
    """Draw generator tables deterministically from the seed.

    Cross tables are factorization-structured: every (field, token) gets
    one latent vector, partially aligned with the token's cluster
    posterior, and the (k, l) table is the outer product of the two
    fields' latent vectors scaled by cross_scale^2. Aligning the latent
    geometry with token co-occurrence is what makes the cross structure
    recoverable by an embedding model at this scale. cross_density is
    the fraction of field pairs carrying a nonzero table.
    """
    for name, value, ok, want in (
        ("fields", num_fields, num_fields >= 1, ">= 1"),
        ("vocab", vocab, vocab >= 1, ">= 1"),
        ("clusters", clusters, clusters >= 1, ">= 1"),
        ("samples", samples, samples >= 1, ">= 1"),
        ("cross_rank", cross_rank, cross_rank >= 0, ">= 0"),
        ("main_scale", main_scale, 0 <= main_scale < np.inf, "finite and >= 0"),
        ("cross_scale", cross_scale, 0 <= cross_scale < np.inf, "finite and >= 0"),
        ("cross_noise", cross_noise, 0 <= cross_noise < np.inf, "finite and >= 0"),
        ("concentration", concentration, 0 < concentration < np.inf, "finite and > 0"),
        ("cross_density", cross_density, 0 <= cross_density <= 1, "in [0, 1]"),
        ("intercept", intercept, -np.inf < intercept < np.inf, "finite"),
    ):
        if not ok:  # NaN fails every comparison
            raise DataError(f"[synthetic] {name} must be {want}, got {value!r}")
    rng = stream(seed, "synthetic-spec")
    vocab_sizes = tuple([vocab] * num_fields)
    cluster_probs = [rng.dirichlet(np.full(vocab, concentration), size=clusters) for _ in range(num_fields)]
    main_effects = [rng.normal(0.0, main_scale, size=vocab) for _ in range(num_fields)]

    cluster_dirs = rng.normal(size=(clusters, cross_rank))
    cluster_dirs *= 0.6 + 0.8 * rng.random((clusters, 1))  # varied cluster strengths
    latents = []
    for k in range(num_fields):
        probs = cluster_probs[k]
        posterior = (probs / np.maximum(probs.sum(axis=0, keepdims=True), 1e-300)).T  # (V, C)
        latents.append(
            cross_scale * (posterior @ cluster_dirs + cross_noise * rng.normal(size=(vocab, cross_rank)))
        )
    cross_effects = {}
    offset = 0.0
    cluster_means = [cluster_probs[k] @ latents[k] for k in range(num_fields)]  # (C, r)
    for k in range(num_fields):
        for l in range(k + 1, num_fields):
            active = rng.random() < cross_density
            cross_effects[(k, l)] = latents[k] @ latents[l].T if active else np.zeros((vocab, vocab))
            if active:
                # expected pair contribution under the cluster mixture, so the
                # aligned quadratic does not shift the base click rate
                offset += float(np.mean((cluster_means[k] * cluster_means[l]).sum(axis=1)))
    spec = SyntheticSpec(
        vocab_sizes=vocab_sizes,
        num_clusters=clusters,
        samples=samples,
        seed=seed,
        cluster_probs=cluster_probs,
        main_effects=main_effects,
        cross_effects=cross_effects,
        intercept=intercept - offset,
    )
    spec.validate()
    return spec


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, np.ndarray]:
    """Sample a dataset plus the exact posterior P(click | F) per row."""
    spec.validate()
    rng = stream(spec.seed, "synthetic-draw")
    n = spec.samples
    clusters = rng.integers(0, spec.num_clusters, size=n)
    tokens = np.empty((n, spec.num_fields), dtype=np.int64)
    for k in range(spec.num_fields):
        u = rng.random(n)
        cdf = np.cumsum(spec.cluster_probs[k], axis=1)
        # inverse-cdf draw against each row's cluster distribution
        tokens[:, k] = np.minimum(
            (u[:, None] > cdf[clusters]).sum(axis=1), spec.vocab_sizes[k] - 1
        )
    logits = spec.logits(tokens)
    bayes = 1.0 / (1.0 + np.exp(-logits))
    labels = (rng.random(n) < bayes).astype(np.int64)

    schema = feature_schema(spec.vocab_sizes)
    samples = [
        Sample(tokens=tuple(tokens[i]) + (int(labels[i]),)) for i in range(n)
    ]
    return Dataset(schema=schema, samples=samples, split="train"), bayes


def split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic 80/10/10 hash split: order rows by hash(seed, index), cut exactly."""
    digests = np.empty(n, dtype=np.uint64)
    for i in range(n):
        h = hashlib.blake2s(f"{seed}:{i}".encode(), digest_size=8).digest()
        digests[i] = int.from_bytes(h, "little")
    order = np.argsort(digests, kind="stable")
    n_train = round(n * 0.8)
    n_val = round(n * 0.1)
    return order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :]


def subset(dataset: Dataset, indices: np.ndarray, split: str) -> Dataset:
    return Dataset(
        schema=dataset.schema,
        samples=[dataset.samples[int(i)] for i in indices],
        split=split,
    )


def batch_iter(dataset: Dataset, batch_size: int, seed: int, epoch: int):
    """Shuffled (B, P) int64 token batches for one epoch; the final short batch is emitted."""
    if batch_size < 1:
        raise DataError("batch_size must be >= 1")
    tokens = dataset.token_matrix()
    perm = stream(seed, "shuffle", epoch).permutation(len(tokens))
    for start in range(0, len(perm), batch_size):
        yield tokens[perm[start : start + batch_size]]
