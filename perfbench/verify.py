"""Checks on the program's outputs, from properties the method must have or from
computations made apart from the program.  Each returns a list of failure
messages, empty when the check passes."""

from __future__ import annotations

import math

import numpy as np

# The nine suites of seqboost.checks.default_suites and their stated instance counts.
SUITE_INSTANCES = {
    "whole-sequence-reweight-bound": 200,
    "stepwise-reweight-bound": 200,
    "log-ratio-advantage-bound": 200,
    "kl-gradient-finite-difference": 50,
    "pinsker": 500,
    "advantage-below-tvd": 500,
    "bayes-optimal-equals-tvd": 100,
    "exhaustive-indicators-equal-tvd": 20,
    "boost-termination": 20,
}


def stepwise_bound_failures(initial_loss: float, bs, losses, length: int) -> list[str]:
    """The paper's step-wise bound on every round: the loss drops by at least
    N b_t^2 / 2 (to 1e-9), and it never rises."""
    failures = []
    prev = initial_loss
    for t, (b, loss) in enumerate(zip(bs, losses)):
        drop, promised = prev - loss, length * b * b / 2.0
        if drop < promised - 1e-9:
            failures.append(f"round {t}: loss drop {drop!r} below N b^2/2 = {promised!r}")
        if loss > prev:
            failures.append(f"round {t}: loss rose from {prev!r} to {loss!r}")
        prev = loss
    return failures


def last_token_advantages(ids: np.ndarray, n: int, bs, g_rows) -> list[float]:
    """Each round's advantage for a uniform start reweighted by distinguishers
    that depend on the last token only, in closed form:
    (sum over corpus prefixes of E_q[g] - sum of g over corpus tokens) / (m N).

    ``ids`` is the (m, N) padded corpus, ``g_rows[t][w]`` the round-t
    distinguisher's value when the prefix ends in token w, ``bs`` the weights.
    Such a model has only three conditionals: at the empty prefix (no pad),
    after a content token, and after the pad (the pad again).
    """
    m, N = ids.shape
    data_counts = np.bincount(ids.ravel(), minlength=n)
    after = ids[:, :-1].ravel()
    after_pad = int((after == 0).sum())
    after_content = after.size - after_pad
    s = np.zeros(n)
    out = []
    for b, g in zip(bs, g_rows):
        g = np.asarray(g, dtype=float)
        w = np.exp(-(s - s.min()))
        first = w.copy()
        first[0] = 0.0
        model_side = m * (first @ g) / first.sum() + after_content * (w @ g) / w.sum() + after_pad * g[0]
        out.append(float((model_side - data_counts @ g) / (m * N)))
        s += b * g
    return out


def same_conditionals(a, b, prefixes, what: str, tol: float = 1e-12) -> list[str]:
    for prefix in prefixes:
        da, db = a.next_token_dist(prefix), b.next_token_dist(prefix)
        if da.shape != db.shape or float(np.max(np.abs(da - db))) > tol:
            return [f"{what}: conditionals differ at prefix {prefix}"]
    return []


def exact_identity_failures(p: np.ndarray, q: np.ndarray, kl, ce, tvd, bayes) -> list[str]:
    """Identities between two enumerated joints and the program's divergences."""
    failures = []
    for name, probs in (("reference", p), ("boosted", q)):
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            failures.append(f"{name} joint sums to {float(probs.sum())!r}")
    if not math.isfinite(kl):
        failures.append("KL(reference || boosted) is not finite")
    if abs(bayes - tvd) > 1e-12:
        failures.append(f"Bayes-optimal advantage {bayes!r} != TVD {tvd!r}")
    if tvd > math.sqrt(kl / 2.0) + 1e-12:
        failures.append(f"Pinsker violated: TVD {tvd!r} > sqrt(KL/2) = {math.sqrt(kl / 2.0)!r}")
    support = p > 0
    entropy = -float(np.sum(p[support] * np.log(p[support])))
    if abs(ce - (entropy + kl)) > 1e-9 * max(1.0, abs(ce)):
        failures.append(f"cross-entropy {ce!r} != H(p) + KL = {entropy + kl!r}")
    return failures


def table_log_loss(q: np.ndarray, ids: np.ndarray, n: int) -> float:
    """Mean -log q(x) over the corpus, looked up in a lexicographic joint table."""
    index = ids @ (n ** np.arange(ids.shape[1] - 1, -1, -1))
    return float(-np.log(q[index]).mean())


def suite_failures(results) -> list[str]:
    got = {r.name: r for r in results}
    if set(got) != set(SUITE_INSTANCES):
        return [f"suites {sorted(got)} differ from the nine expected"]
    return [
        f"suite {name}: passed={got[name].passed} over {got[name].instances} instances"
        for name, count in SUITE_INSTANCES.items()
        if not got[name].passed or got[name].instances != count
    ]


def bigram_heldout_loss(train, heldout, length: int, lam: float) -> float:
    """Held-out log-loss of a Laplace-smoothed bigram, counted in plain Python
    from token lists (no token ids), with seqboost's padding conventions:
    lines are padded to ``length``, the pad follows the pad with probability 1,
    smoothing covers the pad only when the training lines are padded, and an
    unseen context gets the uniform distribution over the vocabulary and pad."""
    pad, start = object(), object()
    counts: dict = {}
    for line in train:
        ctx = start
        for tok in line + [pad] * (length - len(line)):
            row = counts.setdefault(ctx, {})
            row[tok] = row.get(tok, 0) + 1
            if tok is pad:
                break
            ctx = tok
    vocab = {t for line in train for t in line}
    padded = any(len(line) < length for line in train)
    smoothed = len(vocab) + (1 if padded else 0)
    totals = {ctx: sum(row.values()) for ctx, row in counts.items()}
    total_loss = 0.0
    for line in heldout:
        ctx, seq_loss = start, 0.0
        for tok in line + [pad] * (length - len(line)):
            row = counts.get(ctx)
            if row is None:
                p = 1.0 / (len(vocab) + 1)
            else:
                extra = lam if (tok is not pad or padded) else 0.0
                p = (row.get(tok, 0) + extra) / (totals[ctx] + lam * smoothed)
            seq_loss -= math.log(p)
            if tok is pad:
                break
            ctx = tok
        total_loss += seq_loss
    return total_loss / len(heldout)
