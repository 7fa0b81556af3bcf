"""Versioned plain-text model serialization.

Layout: a format header, ``key=value`` metadata, one ``token=`` line per
vocabulary entry, then per-record lines.  Reals use 17 significant digits so
float64 values round-trip exactly.

An n-gram row is ``context=<ids>|<fill>|<id>:<p> <id>:<p> ...``: ``fill`` is
the row's most frequent value (the smallest on a tie), and the pairs list, in
increasing token id, every entry that differs from it.  A fitted row repeats
its smoothing value for every unseen token, so the file grows with the seen
(context, token) pairs rather than with n per context.  The loader also reads
the dense v1 rows, ``context=<ids>|<p> <p> ...``.  Rows are written and read
in blocks of at most ``BLOCK_ENTRIES`` table entries, each checked as a whole;
a loaded model's rows are row views of one (contexts, n) table.

A reweighted model lists its factors, then the one reference model of its
comparison factors under ``reference:`` (when it has any), then its base
under ``base:``.  The reader rebuilds the chain as ``run_boost`` grows it:
the base, then ``extended`` by each factor, decoded by
``distinguish.from_params``; a log-ratio factor compares the chain before it
with the reference, which must share the base's domain (``check_domain``).
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain, islice, repeat, takewhile
from pathlib import Path

import numpy as np

from .boost import ReweightedModel
from .corpus import Vocabulary, check_domain
from .distinguish import from_params
from .models import NGramModel, SequentialModel, UniformModel

FORMAT_HEADER = "seqboost-model v2"
READABLE_HEADERS = ("seqboost-model v1", FORMAT_HEADER)
BLOCK_ENTRIES = 1 << 15  # n-gram table entries per block of rows written or read at once


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _vocab_lines(vocab: Vocabulary) -> list[str]:
    return [f"token={t}" for t in vocab.tokens]


def _row_blocks(k: int, n: int) -> list[slice]:
    step = max(1, BLOCK_ENTRIES // n)
    return [slice(i, i + step) for i in range(0, k, step)]


def _sparse_rows(rows: np.ndarray, keys: list[str]) -> list[str]:
    """``<fill>|<id>:<p> ...`` for every row of a (k, n) block; ``keys[i]`` is ``f"{i}:"``.
    The fill counts 0.0 and -0.0 as one value, as ``np.unique`` does, written as the one
    sorted first; pairs compare bits, so both come back as written.

    The fill is read from the runs of equal values in each sorted row: where
    the runs start, their lengths, each row's longest length
    (``np.maximum.reduceat``), then each row's first run of that length."""
    k, n = rows.shape
    ordered = np.sort(rows, axis=1)
    starts = np.ones((k, n), dtype=bool)  # where a run of equal values starts
    starts[:, 1:] = (ordered[:, 1:] != ordered[:, :-1]) & ~np.isnan(ordered[:, :-1])  # NaNs sort last
    at = np.flatnonzero(starts)  # every row starts a run, so no run spans two rows
    length = np.diff(at, append=k * n)
    row_of, col = np.divmod(at, n)
    longest = np.maximum.reduceat(length, np.flatnonzero(col == 0))
    hit = np.flatnonzero(length == longest[row_of])
    first_hit = hit[np.diff(row_of[hit], prepend=-1) != 0]  # the first longest run of each row
    fill = ordered.reshape(-1)[at[first_hit]]
    differs = rows.view(np.int64) != fill.view(np.int64)[:, None]
    bits, which = np.unique(rows[differs].view(np.int64), return_inverse=True)
    text = [_fmt(p) for p in bits.view(np.float64).tolist()]
    pairs = map(str.__add__, map(keys.__getitem__, np.nonzero(differs)[1].tolist()),
                map(text.__getitem__, which.tolist()))
    fills, counts = fill.tolist(), differs.sum(axis=1).tolist()
    return [f"{_fmt(f)}|{' '.join(islice(pairs, c))}" for f, c in zip(fills, counts)]


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
        references = [g.models[1] for _, g in model.factors if g.rule]
        if any(ref is not references[0] for ref in references):
            raise ValueError("cannot serialize comparison factors with more than one reference")
        if references:
            lines.append("reference:")
            lines.append(model_to_text(references[0]))
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
        contexts, n = sorted(model.cond), model.vocab.n
        keys = [f"{i}:" for i in range(n)]
        for block in _row_blocks(len(contexts), n):
            rows = np.array([model.cond[ctx] for ctx in contexts[block]], dtype=np.float64)
            for ctx, row in zip(contexts[block], _sparse_rows(rows, keys)):
                lines.append(f"context={','.join(map(str, ctx))}|{row}")
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


def _parse_each(parse, texts: list[str]) -> list:
    """``list(map(parse, texts))``, calling ``parse`` once per distinct text."""
    parsed = {t: parse(t) for t in set(texts)}
    return list(map(parsed.__getitem__, texts))


def _parse_rows(
    lines: list[str], n: int, order: int, out: np.ndarray
) -> tuple[tuple[int, ...], ...]:
    """Parse a block of ``context=`` lines into the rows of ``out``; return their contexts.
    A malformed row raises ValueError.  A dense v1 row is read as a pair for every id."""
    parsed = []
    for line in lines:
        label, _, probs = line[len("context=") :].partition("|")
        ctx = tuple(map(int, label.split(","))) if label else ()
        if len(ctx) > order - 1 or not all(0 <= t < n for t in ctx):
            raise ValueError(f"bad context {label!r} for order {order} over {n} tokens")
        fill, sparse, pairs = probs.partition("|")
        if not sparse:
            dense = fill.split()
            if len(dense) != n:
                raise ValueError(f"context {label!r} has {len(dense)} entries, not {n}")
            fill, pairs = "0", " ".join(f"{i}:{p}" for i, p in enumerate(dense))
        parsed.append((ctx, label, fill, pairs))
    contexts, labels, fills, pair_text = zip(*parsed)
    split = list(map(str.split, pair_text))
    row_of = np.repeat(np.arange(len(lines)), list(map(len, split)))
    pairs = list(chain.from_iterable(split))
    colons = np.fromiter(map(str.count, pairs, repeat(":")), dtype=np.int64, count=len(pairs))
    if (colons != 1).any():
        label = labels[row_of[np.argmax(colons != 1)]]
        raise ValueError(f"context {label!r}: entries must be <id>:<p>")
    parts = ":".join(pairs).split(":") if pairs else []
    ids = _parse_each(int, parts[0::2])
    if ids and (min(ids) < 0 or max(ids) >= n):
        ids = [i if 0 <= i < n else -1 for i in ids]  # -1 fits in int64 where i may not
    ids = np.array(ids, dtype=np.int64)
    not_increasing = (ids[1:] <= ids[:-1]) & (row_of[1:] == row_of[:-1])
    bad = (ids < 0) | np.append(False, not_increasing)
    if bad.any():
        raise ValueError(f"context {labels[row_of[np.argmax(bad)]]!r}: "
                         f"token ids must increase within 0..{n - 1}")
    out[:] = np.array(_parse_each(float, fills)).reshape(-1, 1)
    out[row_of, ids] = _parse_each(float, parts[1::2])
    with np.errstate(invalid="ignore"):  # inf - inf, in a row with a negative entry
        proper = (out >= 0.0).all(axis=1) & (np.abs(out.sum(axis=1) - 1.0) <= 1e-9)
    if not proper.all():
        raise ValueError(f"context {labels[np.argmin(proper)]!r} is not a probability distribution")
    return contexts


def model_from_text(text: str) -> SequentialModel:
    """Parse a model file; a malformed one raises ValueError."""
    lines = text.splitlines()
    try:
        model, idx = _model_from_lines(lines, 0)
    except (KeyError, IndexError) as exc:
        raise ValueError(f"malformed model file: missing {exc}") from None
    junk = next((line for line in lines[idx:] if line.strip()), None)
    if junk is not None:
        raise ValueError(f"malformed model file: unexpected line {junk!r}")
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
            b_text, _, payload = lines[idx][len("factor=") :].partition("|")
            raw_factors.append((float(b_text), json.loads(payload)))
            idx += 1
        reference = None
        if idx < len(lines) and lines[idx] == "reference:":
            reference, idx = _model_from_lines(lines, idx + 1)
        if idx >= len(lines) or lines[idx] != "base:":
            raise ValueError("reweighted model file missing base section")
        base, idx = _model_from_lines(lines, idx + 1)
        n, length, count = (int(meta[key]) for key in ("n", "length", "factors"))
        if (n, length, count) != (base.vocab.n, base.length, len(raw_factors)):
            raise ValueError(f"reweighted header n={n}, length={length}, factors={count} "
                             f"does not match its base (n={base.vocab.n}, length={base.length}) "
                             f"and {len(raw_factors)} factor lines")
        if reference is not None:
            check_domain(reference, base, ("the reference", "its base"))
        model = ReweightedModel(base)
        for b, payload in raw_factors:
            if not isinstance(payload, dict):
                raise ValueError(f"factor payload {payload!r} is not an object")
            g = from_params(payload["kind"], payload["params"], base.vocab, model, reference)
            model = model.extended(b, g)
        return model, idx
    n = int(meta["n"])
    if n != len(tokens):
        raise ValueError(f"n={n} but the file lists {len(tokens)} tokens")
    vocab = Vocabulary(tuple(tokens), pad_token=tokens[0])
    length = int(meta["length"])
    if length < 1:
        raise ValueError(f"length={length} is below 1")
    if kind == "uniform":
        return UniformModel(vocab, length), idx
    if kind == "ngram":
        order = int(meta["order"])
        rows = list(takewhile(lambda line: line.startswith("context="), lines[idx:]))
        idx += len(rows)
        table = np.empty((len(rows), n))  # the model's rows are row views of it
        blocks = _row_blocks(len(rows), n)
        contexts = [c for b in blocks for c in _parse_rows(rows[b], n, order, table[b])]
        cond = dict(zip(contexts, table))
        if len(cond) < len(contexts):
            twice = next(c for c, k in Counter(contexts).items() if k > 1)
            raise ValueError(f"context {','.join(map(str, twice))!r} is listed twice")
        return NGramModel(vocab, length, order, cond, float(meta["lambda"])), idx
    raise ValueError(f"unknown model kind {kind!r}")


def load_model(path: str | Path) -> SequentialModel:
    return model_from_text(Path(path).read_text(encoding="utf-8"))
