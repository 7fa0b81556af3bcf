"""Versioned plain-text model serialization.

Layout: a format header, ``key=value`` metadata, one ``token=`` line per
vocabulary entry, then per-record lines.  Reals use 17 significant digits so
float64 values round-trip exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .boost import ReweightedModel
from .corpus import Vocabulary
from .distinguish import StepDistinguisher, ngram_indicator, step_log_ratio, token_indicator
from .models import NGramModel, SequentialModel, UniformModel

FORMAT_HEADER = "seqboost-model v1"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _vocab_lines(vocab: Vocabulary) -> list[str]:
    return [f"token={t}" for t in vocab.tokens]


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
            probs = " ".join(_fmt(p) for p in model.cond[ctx])
            lines.append(f"context={ctx_label}|{probs}")
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
        if line == "base:" or line == "":
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


def _rebuild_factor(b: float, payload: dict, vocab: Vocabulary) -> tuple[float, StepDistinguisher]:
    kind = payload["kind"]
    params = payload["params"]
    flip = False
    while params and params[-1] == "flip":
        params, flip = params[:-1], not flip
    if kind == "token-indicator":
        return b, token_indicator(vocab, int(params[0]), flip)
    if kind == "ngram-indicator":
        ctx = tuple(int(t) for t in params[:-1])
        return b, ngram_indicator(vocab, ctx, int(params[-1]), flip)
    raise ValueError(f"cannot deserialize factor kind {kind!r}")


def model_from_text(text: str) -> SequentialModel:
    """Parse a model file; a malformed one raises ValueError."""
    try:
        return _model_from_lines(text.splitlines())
    except (KeyError, IndexError) as exc:
        raise ValueError(f"malformed model file: missing {exc}") from None


def _model_from_lines(lines: list[str]) -> SequentialModel:
    if not lines or lines[0] != FORMAT_HEADER:
        raise ValueError("not a recognized model file")
    meta, tokens, idx = _parse_meta(lines, 1)
    kind = meta.get("kind")
    if kind == "reweighted":
        factors: list[tuple[float, StepDistinguisher]] = []
        raw_factors: list[tuple[float, dict]] = []
        while idx < len(lines) and lines[idx].startswith("factor="):
            body = lines[idx][len("factor=") :]
            b_text, _, payload = body.partition("|")
            raw_factors.append((float(b_text), json.loads(payload)))
            idx += 1
        if idx >= len(lines) or lines[idx] != "base:":
            raise ValueError("reweighted model file missing base section")
        base = _model_from_lines(lines[idx + 1 :])
        factors = [_rebuild_factor(b, payload, base.vocab) for b, payload in raw_factors]
        return ReweightedModel(base, factors)
    vocab = Vocabulary(tuple(tokens), pad_token=tokens[0])
    length = int(meta["length"])
    if kind == "uniform":
        return UniformModel(vocab, length)
    if kind == "ngram":
        cond: dict[tuple[int, ...], np.ndarray] = {}
        while idx < len(lines) and lines[idx].startswith("context="):
            body = lines[idx][len("context=") :]
            ctx_label, _, probs = body.partition("|")
            ctx = tuple(int(t) for t in ctx_label.split(",")) if ctx_label else ()
            cond[ctx] = np.array([float(p) for p in probs.split()])
            idx += 1
        return NGramModel(vocab, length, int(meta["order"]), cond, float(meta["lambda"]))
    raise ValueError(f"unknown model kind {kind!r}")


def load_model(path: str | Path) -> SequentialModel:
    return model_from_text(Path(path).read_text(encoding="utf-8"))
