"""The human-age modeling experiment: weak families make likelihood and
distinguishability disagree.

Ages 0..119 are treated as a 120-token vocabulary with single-token
sequences, so the whole pipeline (joint tables, total variation, log-linear
fitting) runs through the ordinary machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Vocabulary
from .exact import JointTable, total_variation, kl_divergence
from .models import LogLinearModel, kl_gradient

AGE_MAX = 119
NUM_AGES = AGE_MAX + 1


def age_vocabulary() -> Vocabulary:
    return Vocabulary.build((str(a) for a in range(NUM_AGES)))


def default_age_distribution() -> np.ndarray:
    """A synthetic population age distribution: bulk well below 100, support to 119."""
    ages = np.arange(NUM_AGES, dtype=float)
    bulk = np.exp(-0.5 * ((ages - 38.0) / 22.0) ** 2)
    tail = 1e-5  # a handful of supercentenarians keeps the support at 119
    p = bulk + tail
    return p / p.sum()


def _embed(age_probs: np.ndarray, vocab: Vocabulary) -> JointTable:
    # Slot 0 is the pad token; ages occupy ids 1..120.
    full = np.zeros(vocab.n)
    full[1:] = age_probs
    return JointTable(vocab, 1, full)


def uniform_family_probs(m: int) -> np.ndarray:
    if not 0 <= m <= AGE_MAX:
        raise ValueError(f"m must be in 0..{AGE_MAX}")
    p = np.zeros(NUM_AGES)
    p[: m + 1] = 1.0 / (m + 1)
    return p


def uniform_family_mle(age_probs: np.ndarray) -> int:
    """The likelihood-maximizing cap: the maximum observed age.

    Any smaller cap zeroes out the oldest observed age and sends the
    likelihood to zero.
    """
    support = np.nonzero(age_probs > 0)[0]
    return int(support.max())


def tail_mass_over_100(age_probs: np.ndarray, inclusive: bool = False) -> float:
    lo = 100 if inclusive else 101
    return float(age_probs[lo:].sum())


def tvd_minimizing_m(age_probs: np.ndarray, vocab: Vocabulary) -> tuple[int, float]:
    """The cap minimizing total variation to the given distribution."""
    p = _embed(age_probs, vocab)
    best_m, best_tvd = 0, math.inf
    for m in range(NUM_AGES):
        tvd = total_variation(p, _embed(uniform_family_probs(m), vocab))
        if tvd < best_tvd:
            best_m, best_tvd = m, tvd
    return best_m, best_tvd


def geometric_model(theta_age: float, vocab: Vocabulary) -> LogLinearModel:
    """The geometric family q(x) proportional to exp(-theta_age * age).

    Expressed log-linearly with the single feature age / AGE_MAX (so feature
    values stay in [0, 1]) and parameter -theta_age * AGE_MAX.
    """
    ids = np.arange(1, NUM_AGES + 1)[:, None]  # age a is token id a + 1
    features = np.arange(NUM_AGES)[:, None] / AGE_MAX
    return LogLinearModel(ids, features, np.array([-theta_age * AGE_MAX]), vocab=vocab)


def geometric_mean_age(theta_age: float) -> float:
    ages = np.arange(NUM_AGES, dtype=float)
    logits = -theta_age * ages
    logits -= logits.max()
    w = np.exp(logits)
    return float((ages * w).sum() / w.sum())


def geometric_mle_theta(target_mean: float, tol: float = 1e-9) -> float:
    """Bisection on theta so the model mean age matches the sample mean.

    The zero of the KL gradient for this one-feature family is exactly the
    moment-matching condition E_q[age] = mean.
    """
    lo, hi = -5.0, 50.0  # mean is decreasing in theta over this range
    if not geometric_mean_age(hi) <= target_mean <= geometric_mean_age(lo):
        raise ValueError(f"target mean {target_mean} out of reachable range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if geometric_mean_age(mid) > target_mean:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class AgeReport:
    uniform_mle_m: int
    tail_over_100_strict: float
    tail_over_100_inclusive: float
    tvd_min_m: int
    tvd_at_min: float
    tvd_at_mle: float
    kl_at_tvd_min: float
    geometric_theta: float
    geometric_mean_gap: float
    geometric_gradient: float


def run_age_experiment(age_probs: np.ndarray | None = None) -> AgeReport:
    if age_probs is None:
        age_probs = default_age_distribution()
    age_probs = np.asarray(age_probs, dtype=float)
    if age_probs.shape != (NUM_AGES,):
        raise ValueError(f"need {NUM_AGES} probabilities, got {age_probs.shape}")
    if np.any(age_probs < 0) or abs(age_probs.sum() - 1.0) > 1e-9:
        raise ValueError("age probabilities must be nonnegative and sum to 1")
    vocab = age_vocabulary()
    p = _embed(age_probs, vocab)

    m_star = uniform_family_mle(age_probs)
    q_mle = uniform_family_probs(m_star)
    tvd_m, tvd_min = tvd_minimizing_m(age_probs, vocab)
    # KL blows up whenever the cap drops below an observed age; that is the
    # whole point of the example, so the infinity is reported, not raised.
    kl_min_m = kl_divergence(p, _embed(uniform_family_probs(tvd_m), vocab))

    mean_age = float((np.arange(NUM_AGES) * age_probs).sum())
    theta = geometric_mle_theta(mean_age)
    model = geometric_model(theta, vocab)
    gradient = float(kl_gradient(model, p)[0])

    return AgeReport(
        uniform_mle_m=m_star,
        tail_over_100_strict=tail_mass_over_100(q_mle, inclusive=False),
        tail_over_100_inclusive=tail_mass_over_100(q_mle, inclusive=True),
        tvd_min_m=tvd_m,
        tvd_at_min=tvd_min,
        tvd_at_mle=total_variation(p, _embed(q_mle, vocab)),
        kl_at_tvd_min=kl_min_m,
        geometric_theta=theta,
        geometric_mean_gap=geometric_mean_age(theta) - mean_age,
        geometric_gradient=gradient,
    )
