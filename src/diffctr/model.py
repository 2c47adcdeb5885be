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
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
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
        params = ParamStore()
        for f in schema:
            params.add(f"embed/input/{f.name}", xavier_init((f.vocab_size + 1, d), seed, "in", f.name))
            params.add(f"embed/target/{f.name}", xavier_init((f.vocab_size, d), seed, "tg", f.name))
        params.add("embed/field_pos", xavier_init((len(schema), d), seed, "pos"))
        for b in range(cfg.blocks):
            params.add(f"net/b{b}/attn_gain", np.ones(d))
            for h in range(cfg.heads):
                for w in ("wq", "wk", "wv"):
                    params.add(f"net/b{b}/h{h}/{w}", xavier_init((d, dh), seed, b, h, w))
                params.add(f"net/b{b}/h{h}/wo", xavier_init((dh, d), seed, b, h, "wo"))
            params.add(f"net/b{b}/ffn_gain", np.ones(d))
            params.add(f"net/b{b}/ffn_w1", xavier_init((d, cfg.ffn_width), seed, b, "w1"))
            params.add(f"net/b{b}/ffn_b1", np.zeros(cfg.ffn_width))
            params.add(f"net/b{b}/ffn_w2", xavier_init((cfg.ffn_width, d), seed, b, "w2"))
            params.add(f"net/b{b}/ffn_b2", np.zeros(d))
        if cfg.blocks > 0:
            params.add("net/out_gain", np.ones(d))
            params.add("net/out_proj", xavier_init((d, d), seed, "out"))
        model = cls(cfg, schema, params)
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


def rms_scale(x: Tensor, gain: Tensor, d: int) -> Tensor:
    """Unit-normalize the last axis, restore scale sqrt(d), apply gain."""
    return ad.mul(ad.smul(ad.l2_normalize(x), float(np.sqrt(d))), gain)


def _distinct_pairs(model: Model, tokens: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Block 0's input rows embed/input[tok] + field_pos[k], once per distinct
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


# an overflow inside the network surfaces as the op's NumericError, not a RuntimeWarning
@np.errstate(over="ignore", invalid="ignore")
def encode(model: Model, tokens: np.ndarray, keep: int | None = None) -> Tensor:
    """Contextual vectors, one per field position: (B, P, d).

    tokens is (B, P) in field order; mask ids are allowed. keep, a
    position, returns only its (B, d) vectors: the last block still
    attends over every position, then runs its output projection,
    residual, FFN and the final projection on that one row.

    While no tape is recorded (under no_grad) encode computes only what
    its output needs. Its values equal the taped route's bit for bit
    wherever BLAS sums a GEMM row alike at every row count, as OpenBLAS
    does at the default shapes; at some head widths (4 wide at d = 16,
    B * P above ~10^4) it does not, and values differ by up to ~1e-14:
    - block 0's input row, rms_scale and Q/K/V run once per distinct
      (field, token) pair of the batch, then are gathered to (B, P, .);
    - when keep is the last position (the label's), the last block
      projects the query, and runs scores, softmax and mixing, for the
      last two positions alone. Two rows, not one: numpy sends a one-row
      matmul to BLAS gemv, which sums in another order than the gemm of
      the full block. The last two: BLAS may sum the leading rows of a
      small batched gemm in another order than a two-row block's, while
      the last row agrees.
    The taped route runs every row, so its weight gradients sum as before.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    P = model.num_positions
    if tokens.ndim != 2 or tokens.shape[1] != P:
        raise ShapeError(f"encode: tokens must be (B, {P}), got {tokens.shape}")
    for f in model.schema:
        col = tokens[:, f.index]
        if col.min() < 0 or col.max() > f.vocab_size:
            raise ShapeError(
                f"encode: token out of range for field '{f.name}' (vocab {f.vocab_size})"
            )

    cfg = model.cfg
    d, dh = cfg.embed_dim, cfg.embed_dim // cfg.heads
    pairs = None
    if ad.recording() or cfg.blocks == 0 or P == 1:
        columns = [ad.gather_rows(model.params[f"embed/input/{f.name}"], tokens[:, f.index])
                   for f in model.schema]
        x = ad.stack(columns, axis=1)  # (B, P, d)
        x = ad.add(x, ad.gather_rows(model.params["embed/field_pos"], np.arange(P)))
    else:  # P >= 2 gives at least two pairs, so no projection drops to gemv
        x, pairs = _distinct_pairs(model, tokens)  # (U, d) and (B, P)
    # one row would run the tail through BLAS gemv, which sums in another
    # order than the gemm of the full route, so a single row keeps every row
    tail_block = cfg.blocks - 1 if keep is not None and len(tokens) > 1 else None
    every = slice(0, P)
    query = slice(P - 2, P) if pairs is not None and keep == P - 1 else every

    for b in range(cfg.blocks):
        tail = b == tail_block
        spread = pairs if b == 0 else None  # x holds one row per distinct pair
        rows = query if tail else every
        h = rms_scale(x, model.params[f"net/b{b}/attn_gain"], d)
        hq = h if spread is not None or rows == every else ad.take_position(h, rows)
        attn_total = None
        for head in range(cfg.heads):
            q = ad.matmul(hq, model.params[f"net/b{b}/h{head}/wq"])
            k = ad.matmul(h, model.params[f"net/b{b}/h{head}/wk"])
            v = ad.matmul(h, model.params[f"net/b{b}/h{head}/wv"])
            if spread is not None:
                q, k, v = (ad.gather_rows(q, spread[:, rows]), ad.gather_rows(k, spread),
                           ad.gather_rows(v, spread))
            scores = ad.smul(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(dh))
            mixed = ad.matmul(ad.softmax(scores, axis=-1), v)
            if tail:
                mixed = ad.take_position(mixed, keep - rows.start)
            out = ad.matmul(mixed, model.params[f"net/b{b}/h{head}/wo"])
            attn_total = out if attn_total is None else ad.add(attn_total, out)
        if spread is not None:
            x = ad.gather_rows(x, spread[:, keep] if tail else spread)
        elif tail:
            x = ad.take_position(x, keep)
        x = ad.add(x, attn_total)
        g = rms_scale(x, model.params[f"net/b{b}/ffn_gain"], d)
        inner = ad.relu(ad.add(ad.matmul(g, model.params[f"net/b{b}/ffn_w1"]), model.params[f"net/b{b}/ffn_b1"]))
        x = ad.add(x, ad.add(ad.matmul(inner, model.params[f"net/b{b}/ffn_w2"]), model.params[f"net/b{b}/ffn_b2"]))

    if cfg.blocks > 0:
        x = ad.matmul(rms_scale(x, model.params["net/out_gain"], d), model.params["net/out_proj"])
    if keep is not None and x.data.ndim == 3:  # no blocks, or a single row
        x = ad.take_position(x, keep)
    return x


def field_logits(model: Model, field_index: int, context: Tensor, candidates: np.ndarray) -> Tensor:
    """Cosine logits of candidate tokens against a context batch: (B, m)."""
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.size == 0:
        raise DataError("field_logits: empty candidate set")
    f = model.schema[field_index]
    if candidates.min() < 0 or candidates.max() >= f.vocab_size:
        raise ShapeError(f"field_logits: candidate out of range for field '{f.name}'")
    rows = ad.gather_rows(model.target_table(field_index), candidates)
    return ad.smul(ad.cosine_matrix(context, rows), 1.0 / model.cfg.temperature)


def full_vocab_logits(model: Model, field_index: int, context: Tensor) -> Tensor:
    return field_logits(model, field_index, context, np.arange(model.schema[field_index].vocab_size))


def label_logit_diff(model: Model, tokens: np.ndarray) -> Tensor:
    """Differentiable click-vs-no-click logit gap, label masked internally.

    The last block's tail runs on the label row alone (encode's keep),
    for training and scoring alike: values equal the full route's, and
    gradients differ from it only in summation order.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    lbl = model.label_position
    for f in model.schema[:-1]:
        if np.any(tokens[:, f.index] >= f.vocab_size):
            raise DataError(f"ctr scoring requires unmasked field '{f.name}'")
    masked = tokens.copy()
    masked[:, lbl] = model.mask_ids[lbl]
    ctx = encode(model, masked, keep=lbl)
    logits = field_logits(model, lbl, ctx, np.array([0, 1]))
    return ad.tsum(ad.mul(logits, ad.const(np.array([-1.0, 1.0]))), axis=1)


@ad.no_grad()
@np.errstate(over="ignore", invalid="ignore")
def ctr_score(model: Model, tokens: np.ndarray) -> np.ndarray:
    """P(click | features) per row; the input label token is ignored. Records no tape."""
    return ad.sigmoid(label_logit_diff(model, tokens)).data


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
        size = int(np.prod(shape)) if shape else 1
        if offset + size > total:
            raise CheckpointError(f"{path}: truncated payload for parameter '{name}'")
        flat = np.frombuffer(payload, dtype="<f8", count=size, offset=offset * 8)
        arrays[name] = flat.astype(np.float64).reshape(shape)
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
