"""Versioned plain-text model serialization.

Layout: a format header, ``key=value`` metadata, one ``token=`` line per
vocabulary entry, then per-record lines.  Reals use 17 significant digits so
float64 values round-trip exactly.

An n-gram row is ``context=<ids>|<fill>|<id>:<p> <id>:<p> ...``: ``fill`` is
the row's most frequent value (the smallest on a tie), and the pairs list, in
increasing token id, every entry that differs from it.  A fitted row repeats
its smoothing value for every unseen token, so the file grows with the seen
(context, token) pairs rather than with n per context.  The loader also reads
the dense v1 rows, ``context=<ids>|<p> <p> ...``.

A reweighted model lists its factors, then the reference model of its
log-ratio factors under ``reference:`` (when it has any), then its base under
``base:``.  Log-ratio factor t is rebuilt against the chain before it, the
base with factors 0..t-1.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .boost import ReweightedModel
from .corpus import Vocabulary
from .distinguish import StepDistinguisher, ngram_indicator, step_log_ratio, token_indicator
from .models import NGramModel, SequentialModel, UniformModel

FORMAT_HEADER = "seqboost-model v2"
READABLE_HEADERS = ("seqboost-model v1", FORMAT_HEADER)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _vocab_lines(vocab: Vocabulary) -> list[str]:
    return [f"token={t}" for t in vocab.tokens]


def _sparse_row(row: np.ndarray) -> str:
    values, counts = np.unique(row, return_counts=True)
    fill = values[np.argmax(counts)]
    # Compare bits, not values, so that -0.0 and 0.0 both come back as written.
    ids = np.flatnonzero(row.view(np.int64) != fill.view(np.int64))
    pairs = " ".join(f"{i}:{p:.17g}" for i, p in zip(ids.tolist(), row[ids].tolist()))
    return f"{_fmt(fill)}|{pairs}"


def _log_ratio_reference(model: ReweightedModel) -> SequentialModel | None:
    """The one reference of the model's log-ratio factors; each factor must
    compare the chain before it, as ``run_boost`` builds them."""
    reference = None
    for t, (_, g) in enumerate(model.factors):
        if g.kind != "log-ratio":
            continue
        q, ref = g.models
        base, factors = (q.base, q.factors) if isinstance(q, ReweightedModel) else (q, [])
        if base is not model.base or factors != model.factors[:t]:
            raise ValueError("cannot serialize a log-ratio factor not built on the chain before it")
        if reference is not None and ref is not reference:
            raise ValueError("cannot serialize log-ratio factors with more than one reference")
        reference = ref
    return reference


def model_to_text(model: SequentialModel) -> str:
    lines = [FORMAT_HEADER]
    if isinstance(model, ReweightedModel):
        lines.append("kind=reweighted")
        lines.append(f"n={model.vocab.n}")
        lines.append(f"length={model.length}")
        lines.append(f"factors={len(model.factors)}")
        for b, g in model.factors:
            if g.kind == "custom":
                raise ValueError("cannot serialize a custom step distinguisher")
            payload = json.dumps({"kind": g.kind, "params": list(g.params)})
            lines.append(f"factor={_fmt(b)}|{payload}")
        reference = _log_ratio_reference(model)
        if reference is not None:
            lines.append("reference:")
            lines.append(model_to_text(reference))
        lines.append("base:")
        lines.append(model_to_text(model.base))
        return "\n".join(lines)
    lines.extend(_vocab_lines(model.vocab))
    if isinstance(model, NGramModel):
        lines.insert(1, "kind=ngram")
        lines.insert(2, f"order={model.order}")
        lines.insert(3, f"lambda={_fmt(model.lam)}")
        lines.insert(4, f"n={model.vocab.n}")
        lines.insert(5, f"length={model.length}")
        for ctx in sorted(model.cond):
            ctx_label = ",".join(str(t) for t in ctx)
            row = np.asarray(model.cond[ctx], dtype=np.float64)
            lines.append(f"context={ctx_label}|{_sparse_row(row)}")
    elif isinstance(model, UniformModel):
        lines.insert(1, "kind=uniform")
        lines.insert(2, f"n={model.vocab.n}")
        lines.insert(3, f"length={model.length}")
    else:
        raise ValueError(f"cannot serialize model of type {type(model).__name__}")
    return "\n".join(lines)


def save_model(model: SequentialModel, path: str | Path) -> None:
    Path(path).write_text(model_to_text(model) + "\n", encoding="utf-8")


def _parse_meta(lines: list[str], idx: int) -> tuple[dict[str, str], list[str], int]:
    meta: dict[str, str] = {}
    tokens: list[str] = []
    while idx < len(lines):
        line = lines[idx]
        if line in ("base:", "reference:", ""):
            break
        key, _, value = line.partition("=")
        if key == "token":
            tokens.append(value)
        elif key == "context" or key == "factor":
            break
        else:
            meta[key] = value
        idx += 1
    return meta, tokens, idx


def _rebuild_factor(
    b: float,
    payload: dict,
    base: SequentialModel,
    before: list[tuple[float, StepDistinguisher]],
    reference: SequentialModel | None,
) -> tuple[float, StepDistinguisher]:
    kind = payload["kind"]
    params = payload["params"]
    flip = False
    while params and params[-1] == "flip":
        params, flip = params[:-1], not flip
    if kind == "token-indicator":
        return b, token_indicator(base.vocab, int(params[0]), flip)
    if kind == "ngram-indicator":
        ctx = tuple(int(t) for t in params[:-1])
        return b, ngram_indicator(base.vocab, ctx, int(params[-1]), flip)
    if kind == "log-ratio":
        if reference is None:
            raise ValueError("log-ratio factor without a reference section")
        return b, step_log_ratio(ReweightedModel(base, before), reference, float(params[0]), flip)
    raise ValueError(f"cannot deserialize factor kind {kind!r}")


def _parse_row(body: str, n: int, order: int) -> tuple[tuple[int, ...], np.ndarray]:
    """One n-gram row, sparse (v2) or dense (v1); a malformed row raises ValueError."""
    ctx_label, _, probs = body.partition("|")
    ctx = tuple(int(t) for t in ctx_label.split(",")) if ctx_label else ()
    if len(ctx) > order - 1 or not all(0 <= t < n for t in ctx):
        raise ValueError(f"bad context {ctx_label!r} for order {order} over {n} tokens")
    fill, sparse, pairs = probs.partition("|")
    if sparse:
        row = np.full(n, float(fill))
        split = [pair.split(":") for pair in pairs.split()]
        if any(len(pair) != 2 for pair in split):
            raise ValueError(f"context {ctx_label!r}: entries must be <id>:<p>")
        ids = [int(i) for i, _ in split]
        bounds = [-1] + ids + [n]
        if any(i >= j for i, j in zip(bounds, bounds[1:])):
            raise ValueError(f"context {ctx_label!r}: token ids must increase within 0..{n - 1}")
        row[ids] = [float(p) for _, p in split]
    else:
        row = np.array([float(p) for p in fill.split()])
        if row.size != n:
            raise ValueError(f"context {ctx_label!r} has {row.size} entries, not {n}")
    if not (np.all(row >= 0.0) and abs(row.sum() - 1.0) <= 1e-9):
        raise ValueError(f"context {ctx_label!r} is not a probability distribution")
    return ctx, row


def model_from_text(text: str) -> SequentialModel:
    """Parse a model file; a malformed one raises ValueError."""
    lines = text.splitlines()
    try:
        model, idx = _model_from_lines(lines, 0)
    except (KeyError, IndexError) as exc:
        raise ValueError(f"malformed model file: missing {exc}") from None
    if any(line.strip() for line in lines[idx:]):
        raise ValueError(f"malformed model file: unexpected line {lines[idx]!r}")
    return model


def _model_from_lines(lines: list[str], idx: int) -> tuple[SequentialModel, int]:
    """The model whose header is at ``idx``, and the index of the line after it."""
    if idx >= len(lines) or lines[idx] not in READABLE_HEADERS:
        raise ValueError("not a recognized model file")
    meta, tokens, idx = _parse_meta(lines, idx + 1)
    kind = meta.get("kind")
    if kind == "reweighted":
        raw_factors: list[tuple[float, dict]] = []
        while idx < len(lines) and lines[idx].startswith("factor="):
            body = lines[idx][len("factor=") :]
            b_text, _, payload = body.partition("|")
            raw_factors.append((float(b_text), json.loads(payload)))
            idx += 1
        reference = None
        if idx < len(lines) and lines[idx] == "reference:":
            reference, idx = _model_from_lines(lines, idx + 1)
        if idx >= len(lines) or lines[idx] != "base:":
            raise ValueError("reweighted model file missing base section")
        base, idx = _model_from_lines(lines, idx + 1)
        factors: list[tuple[float, StepDistinguisher]] = []
        for b, payload in raw_factors:
            factors.append(_rebuild_factor(b, payload, base, factors, reference))
        return ReweightedModel(base, factors), idx
    n = int(meta["n"])
    if n != len(tokens):
        raise ValueError(f"n={n} but the file lists {len(tokens)} tokens")
    vocab = Vocabulary(tuple(tokens), pad_token=tokens[0])
    length = int(meta["length"])
    if kind == "uniform":
        return UniformModel(vocab, length), idx
    if kind == "ngram":
        order = int(meta["order"])
        cond: dict[tuple[int, ...], np.ndarray] = {}
        while idx < len(lines) and lines[idx].startswith("context="):
            ctx, row = _parse_row(lines[idx][len("context=") :], n, order)
            cond[ctx] = row
            idx += 1
        return NGramModel(vocab, length, order, cond, float(meta["lambda"])), idx
    raise ValueError(f"unknown model kind {kind!r}")


def load_model(path: str | Path) -> SequentialModel:
    return model_from_text(Path(path).read_text(encoding="utf-8"))
