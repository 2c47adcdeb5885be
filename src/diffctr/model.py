"""The trainable scoring network.

Per-field input embedding tables carry one extra mask row; per-field
target tables (no mask row) supply the candidate vectors the sampled
softmax compares against. A small stack of pre-norm bidirectional
attention blocks mixes the field positions; there is no time or noise
input anywhere, so one network serves every corruption level. Position
k of the output is the context vector used to predict field k.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import parallel
from .autodiff import Tensor
from .data import FieldSchema, atomic_write
from .errors import CheckpointError, DataError, ShapeError
from .optim import ParamStore, xavier_init

CHECKPOINT_MAGIC = b"DGCT"
CHECKPOINT_VERSION = 1

TRANSFER_MODES = ("full", "embeddings-only", "scoring-network-only")


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 32
    blocks: int = 2
    heads: int = 2
    ffn_width: int = 64
    temperature: float = 0.1

    def __post_init__(self):
        if self.embed_dim < 1 or self.blocks < 0 or self.heads < 1 or self.ffn_width < 1:
            raise DataError("model dimensions must be positive (blocks may be 0)")
        if self.embed_dim % self.heads != 0:
            raise DataError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}"
            )
        if not 0 < self.temperature < float("inf"):  # NaN fails too
            raise DataError(f"temperature must be finite and > 0, got {self.temperature}")
        if 1.0 / float(self.temperature) == float("inf"):  # the logits' scale
            raise DataError(f"temperature must have a finite reciprocal, got {self.temperature}")


class Model:
    """Config, field schema, and the parameter store that realizes them."""

    def __init__(self, cfg: ModelConfig, schema: list[FieldSchema], params: ParamStore):
        self.cfg = cfg
        self.schema = schema
        self.params = params
        self.mask_ids = np.array([f.vocab_size for f in schema], dtype=np.int64)

    @property
    def num_positions(self) -> int:
        return len(self.schema)

    @property
    def label_position(self) -> int:
        return len(self.schema) - 1

    @classmethod
    def init(cls, cfg: ModelConfig, schema: list[FieldSchema], seed: int) -> "Model":
        d, dh = cfg.embed_dim, cfg.embed_dim // cfg.heads
        arrays = {}
        for f in schema:
            arrays[f"embed/input/{f.name}"] = xavier_init((f.vocab_size + 1, d), seed, "in", f.name)
            arrays[f"embed/target/{f.name}"] = xavier_init((f.vocab_size, d), seed, "tg", f.name)
        arrays["embed/field_pos"] = xavier_init((len(schema), d), seed, "pos")
        for b in range(cfg.blocks):
            arrays[f"net/b{b}/attn_gain"] = np.ones(d)
            for h in range(cfg.heads):
                for w in ("wq", "wk", "wv"):
                    arrays[f"net/b{b}/h{h}/{w}"] = xavier_init((d, dh), seed, b, h, w)
                arrays[f"net/b{b}/h{h}/wo"] = xavier_init((dh, d), seed, b, h, "wo")
            arrays[f"net/b{b}/ffn_gain"] = np.ones(d)
            arrays[f"net/b{b}/ffn_w1"] = xavier_init((d, cfg.ffn_width), seed, b, "w1")
            arrays[f"net/b{b}/ffn_b1"] = np.zeros(cfg.ffn_width)
            arrays[f"net/b{b}/ffn_w2"] = xavier_init((cfg.ffn_width, d), seed, b, "w2")
            arrays[f"net/b{b}/ffn_b2"] = np.zeros(d)
        if cfg.blocks > 0:
            arrays["net/out_gain"] = np.ones(d)
            arrays["net/out_proj"] = xavier_init((d, d), seed, "out")
        model = cls(cfg, schema, ParamStore(arrays))
        for f in schema:
            if np.any(np.linalg.norm(model.target_table(f.index).data, axis=1) == 0.0):
                raise DataError(f"field '{f.name}': zero target row after init")
        return model

    def target_table(self, field_index: int) -> Tensor:
        return self.params[f"embed/target/{self.schema[field_index].name}"]

    def fingerprint(self) -> dict:
        return {
            "fields": [[f.name, f.vocab_size] for f in self.schema],
            "embed_dim": self.cfg.embed_dim,
            "blocks": self.cfg.blocks,
            "heads": self.cfg.heads,
        }

    def clone(self) -> "Model":
        return Model(self.cfg, self.schema, self.params.clone())


def _distinct_pairs(model: Model, tokens: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Block 0's input rows embed/input[tok] + embed/field_pos[k], once per distinct
    (field, token) pair in tokens, and the (B, P) index of each entry's pair.

    Pairs are numbered by per-field offsets into the concatenated input
    tables, so there are at most min(B * P, sum(V_k + 1)) of them.
    """
    offsets = np.concatenate([[0], np.cumsum(model.mask_ids + 1)[:-1]])
    pairs, index = np.unique(tokens + offsets, return_inverse=True)
    field = np.searchsorted(offsets, pairs, side="right") - 1
    per_field = np.split(pairs - offsets[field], np.searchsorted(field, np.arange(1, len(offsets))))
    rows = np.concatenate([model.params[f"embed/input/{f.name}"].data[tok]
                           for f, tok in zip(model.schema, per_field)])
    x = ad.add(ad.const(rows), ad.gather_rows(model.params["embed/field_pos"], field))
    return x, index.reshape(tokens.shape)


def check_batch_shape(model: Model, tokens: np.ndarray) -> None:
    """A batch's first check, before any of its values is read: (B, P) tokens, B >= 1."""
    P = model.num_positions
    if tokens.ndim != 2 or tokens.shape[1] != P:
        raise ShapeError(f"encode: tokens must be (B, {P}), got {tokens.shape}")
    if not len(tokens):
        raise ShapeError(f"encode: tokens must hold at least one row, got {tokens.shape}")


def check_tokens(model: Model, tokens: np.ndarray) -> None:
    """encode's input check: (B, P) tokens, each in [0, vocab] (vocab is the mask id)."""
    check_batch_shape(model, tokens)
    for f in model.schema:
        col = tokens[:, f.index]
        if col.min() < 0 or col.max() > f.vocab_size:
            raise ShapeError(
                f"encode: token out of range for field '{f.name}' (vocab {f.vocab_size})"
            )


def _check_unmasked(model: Model, tokens: np.ndarray) -> None:
    """label_logit_diff's input check: no feature holds its mask id."""
    for f in model.schema[:-1]:
        if np.any(tokens[:, f.index] >= f.vocab_size):
            raise DataError(f"ctr scoring requires unmasked field '{f.name}'")


def encode(model: Model, tokens: np.ndarray, keep: int | None = None) -> Tensor:
    """Contextual vectors, one per field position: (B, P, d).

    tokens is (B, P) in field order; mask ids are allowed. keep, a
    position, returns only its (B, d) vectors: the last block still
    attends over every position, then runs its output projection,
    residual, FFN and the final projection on that one row. Every node
    it reads is a parameter or one it makes, so a part of in_parts that
    calls encode owns its whole tape, field-position rows included.

    Each block is rms_scale, one autodiff.attention node (its heads,
    their output projections and the residual), then rms_scale and one
    ffn node. Every route below calls these nodes, on the thread of the
    part that calls encode.

    While no tape is recorded (under no_grad) encode computes only what
    its output needs. Its values equal the taped route's bit for bit
    wherever BLAS sums a GEMM row alike at every row count, as OpenBLAS
    does at the default shapes; at some head widths (4 wide at d = 16,
    B * P above ~10^4) it does not, and values differ by up to ~1e-14:
    - block 0's input row and rms_scale run once per distinct (field,
      token) pair of the batch, and attention projects Q/K/V once per
      pair, then gathers them to (B, P, .) (its spread);
    - when keep is the last position (the label's), the last block's
      attention projects the query, and runs scores, softmax and mixing,
      for the last two positions alone. Two rows, not one: numpy sends a
      one-row matmul to BLAS gemv, which sums in another order than the
      gemm of the full block. The last two: BLAS may sum the leading rows
      of a small batched gemm in another order than a two-row block's,
      while the last row agrees.
    The taped route runs every row. label_logit_diff's parts rest on the
    same property: a row's value does not depend on the rows encoded
    beside it, so parts score each row as one call does.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    check_tokens(model, tokens)
    P = model.num_positions
    cfg = model.cfg
    pairs = None
    if ad.recording() or cfg.blocks == 0 or P == 1:
        x = ad.stack([ad.gather_rows(model.params[f"embed/input/{f.name}"], tokens[:, f.index])
                      for f in model.schema], axis=1)  # (B, P, d)
        x = ad.add(x, ad.gather_rows(model.params["embed/field_pos"], np.arange(P)))
    else:  # P >= 2 gives at least two pairs, so no projection drops to gemv
        x, pairs = _distinct_pairs(model, tokens)  # (U, d) and (B, P)
    # one row would run the tail through BLAS gemv, which sums in another
    # order than the gemm of the full route, so a single row keeps every row
    tail_block = cfg.blocks - 1 if keep is not None and len(tokens) > 1 else None
    for b in range(cfg.blocks):
        h = ad.rms_scale(x, model.params[f"net/b{b}/attn_gain"])
        heads = [[model.params[f"net/b{b}/h{head}/{w}"] for w in ("wq", "wk", "wv", "wo")]
                 for head in range(cfg.heads)]
        x = ad.attention(x, h, heads, keep=keep if b == tail_block else None,
                         spread=pairs if b == 0 else None)
        x = ad.ffn(x, ad.rms_scale(x, model.params[f"net/b{b}/ffn_gain"]),
                   *(model.params[f"net/b{b}/ffn_{w}"] for w in ("w1", "b1", "w2", "b2")))

    if cfg.blocks > 0:
        x = ad.matmul(ad.rms_scale(x, model.params["net/out_gain"]), model.params["net/out_proj"])
    if keep is not None and x.data.ndim == 3:  # no blocks, or a single row
        x = ad.take_position(x, keep)
    return x


def _target_columns(model: Model, field_index: int, candidates: np.ndarray) -> Tensor:
    """The candidate tokens' target rows, unit-normalised and transposed: (d, m)."""
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.size == 0:
        raise DataError("field_logits: empty candidate set")
    f = model.schema[field_index]
    if candidates.min() < 0 or candidates.max() >= f.vocab_size:
        raise ShapeError(f"field_logits: candidate out of range for field '{f.name}'")
    return ad.transpose(ad.l2_normalize(ad.gather_rows(model.target_table(field_index), candidates)))


def _cosine_logits(model: Model, context: Tensor, columns: Tensor) -> Tensor:
    cosines = ad.clip_unit(ad.matmul(ad.l2_normalize(context), columns))
    return ad.smul(cosines, 1.0 / model.cfg.temperature)


def field_logits(model: Model, field_index: int, context: Tensor, candidates: np.ndarray) -> Tensor:
    """Cosine logits of candidate tokens against a context batch: (B, m)."""
    return _cosine_logits(model, context, _target_columns(model, field_index, candidates))


def label_logit_diff(model: Model, tokens: np.ndarray) -> Tensor:
    """Differentiable click-vs-no-click logit gap (B,), label masked internally.

    It checks the whole batch (unmasked features, token ranges), so a
    bad row raises alike in any part, and builds the label's two target
    columns once, before the parts, which read them. ad.in_parts runs
    _part_logit_diff on parts of parallel.PART_ROWS rows or more, on a
    thread per CPU, and joins the gaps: at the default shapes their
    values equal one call on every row bit for bit. On a tape each part
    sums its own gradients and the parts' sums are added in part order,
    so gradients are the same bits on any CPU count and differ from one
    tape over every row only in summation order: within 1e-13 at the
    default shapes (one part is that tape), 1e-12 elsewhere (encode's
    docstring).
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    lbl = model.label_position
    check_batch_shape(model, tokens)
    _check_unmasked(model, tokens)
    masked = tokens.copy()
    masked[:, lbl] = model.mask_ids[lbl]
    check_tokens(model, masked)
    columns = _target_columns(model, lbl, np.array([0, 1]))
    return ad.in_parts(len(tokens), parallel.PART_ROWS,
                       lambda a, b: _part_logit_diff(model, masked[a:b], columns))


def _part_logit_diff(model: Model, masked: np.ndarray, columns: Tensor) -> Tensor:
    """label_logit_diff of label-masked rows, from the label's target columns.

    The last block's tail runs on the label row alone (encode's keep):
    values equal the full route's, and gradients differ from it only in
    summation order.
    """
    ctx = encode(model, masked, keep=model.label_position)
    logits = _cosine_logits(model, ctx, columns)
    return ad.tsum(ad.mul(logits, ad.const(np.array([-1.0, 1.0]))), axis=1)


def ctr_score(model: Model, tokens: np.ndarray) -> np.ndarray:
    """P(click | features) per row; the input label token is ignored. Records no tape.

    The sigmoid of label_logit_diff, whose parts run on a thread per CPU,
    each BLAS call on one thread, so at the default shapes the scores
    equal one unsplit call's bit for bit (encode's docstring names the
    shapes where they do not). The call runs once, under autodiff.quiet,
    which the parts' threads inherit: a non-finite value raises the
    NumericError of the op that produced it.
    """
    with ad.no_grad():
        return ad.quiet(lambda: ad.sigmoid(label_logit_diff(model, tokens)))().data


# ---------------------------------------------------------------------------
# checkpoint IO
#
# layout: magic "DGCT" | u32 version | u32 header length | JSON header
#         | float64 little-endian payload | sha256(payload)

def save_checkpoint(model: Model, path: str, meta: dict | None = None) -> None:
    names = model.params.names()
    payload = bytearray()
    directory = []
    offset = 0
    for name in names:
        arr = model.params.get_data(name)
        directory.append([name, list(arr.shape), offset])
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        payload.extend(raw)
        offset += arr.size
    header = {
        "fingerprint": model.fingerprint(),
        "meta": meta or {},
        "params": directory,
        "config": asdict(model.cfg),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(bytes(payload))
        fh.write(hashlib.sha256(bytes(payload)).digest())


def _well_formed(header) -> bool:
    def count(v) -> bool:
        return type(v) is int and v >= 0

    return (
        isinstance(header, dict)
        and isinstance(header.get("fingerprint"), dict)
        and isinstance(header.get("params"), list)
        and all(
            isinstance(e, list) and len(e) == 3 and isinstance(e[0], str)
            and isinstance(e[1], list) and all(count(d) for d in e[1]) and count(e[2])
            for e in header["params"]
        )
    )


def read_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse and verify a checkpoint; returns (header, arrays by name)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from None
    if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    version, header_len = struct.unpack("<II", blob[4:12])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unknown checkpoint version {version}")
    header_end = 12 + header_len
    if len(blob) < header_end + 32:
        raise CheckpointError(f"{path}: truncated checkpoint")
    try:
        header = json.loads(blob[12:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: bad header: {e}") from None
    if not _well_formed(header):
        raise CheckpointError(f"{path}: bad header: need a fingerprint object and "
                              "params entries [name, [dims >= 0], offset >= 0]")
    payload = blob[header_end:-32]
    if hashlib.sha256(payload).digest() != blob[-32:]:
        raise CheckpointError(f"{path}: payload checksum mismatch")
    arrays = {}
    total = len(payload) // 8
    for name, shape, offset in header["params"]:
        size = math.prod(shape)  # exact: numpy's int64 product wraps
        if offset + size > total:
            raise CheckpointError(f"{path}: truncated payload for parameter '{name}'")
        flat = np.frombuffer(payload, dtype="<f8", count=size, offset=offset * 8)
        try:
            arrays[name] = flat.astype(np.float64).reshape(shape)
        except ValueError:  # an empty shape with a side numpy cannot hold
            raise CheckpointError(f"{path}: parameter '{name}' has shape {shape}, "
                                  "which numpy cannot hold") from None
        if not np.all(np.isfinite(arrays[name])):
            raise CheckpointError(f"{path}: parameter '{name}' holds non-finite values")
    return header, arrays


def load_checkpoint(
    path: str,
    mode: str,
    cfg: ModelConfig,
    schema: list[FieldSchema],
    seed: int,
) -> Model:
    """Materialize a model from a checkpoint.

    full: every parameter restored, fingerprint must match exactly.
    embeddings-only / scoring-network-only: that subset restored, the
    rest freshly initialized from the seed.
    """
    if mode not in TRANSFER_MODES:
        raise CheckpointError(f"unknown transfer mode '{mode}'")
    header, arrays = read_checkpoint(path)
    model = Model.init(cfg, schema, seed)
    fp, want = header["fingerprint"], model.fingerprint()

    if mode == "full":
        if fp != want:
            raise CheckpointError(f"fingerprint mismatch: checkpoint {fp}, model {want}")
        prefix = None
    elif mode == "embeddings-only":
        if fp.get("fields") != want["fields"] or fp.get("embed_dim") != want["embed_dim"]:
            raise CheckpointError("embedding transfer needs matching fields and embed_dim")
        prefix = "embed/"
    else:
        if any(fp.get(k) != want[k] for k in ("embed_dim", "blocks", "heads")):
            raise CheckpointError("scoring-network transfer needs matching embed_dim/blocks/heads")
        prefix = "net/"

    wanted = [n for n in model.params.names() if prefix is None or n.startswith(prefix)]
    missing = [n for n in wanted if n not in arrays]
    if missing:
        raise CheckpointError(f"checkpoint lacks parameters {missing}")
    if mode == "full" and set(arrays) != set(model.params.names()):
        extra = sorted(set(arrays) - set(model.params.names()))
        raise CheckpointError(f"checkpoint has unexpected parameters {extra}")
    for name in wanted:
        have, need = arrays[name].shape, model.params.get_data(name).shape
        if have != need:
            raise CheckpointError(f"checkpoint parameter '{name}' has shape {have}, model needs {need}")
        model.params.set_data(name, arrays[name])
    return model
