"""Distinguisher boosting for discrete sequential generative models.

Exact, desk-scale machinery for the reduction between adversarial
distinguishability and maximum-likelihood boosting: sequential models,
distinguisher advantage estimators, multiplicative reweighting, and
brute-force verification oracles.
"""

from .corpus import Corpus, Sequence, Vocabulary, load_corpus
from .models import (
    LogLinearModel,
    LossReport,
    NGramModel,
    SequentialModel,
    UniformModel,
    kl_gradient,
    log_loss,
    ngram_mle_fit,
    sample_many,
    sequence_log_probs,
)
from .exact import (
    JointTable,
    enumerate_joint,
    cross_entropy,
    finite_diff_gradient,
    kl_divergence,
    total_variation,
)
from .distinguish import (
    AdvantageEstimate,
    Distinguisher,
    StepDistinguisher,
    accuracy_from_advantage,
    advantage_exact,
    bayes_optimal_distinguisher,
    generalized_advantage,
    log_ratio_distinguisher,
    minimal_ratio_bound,
    training_advantage,
)
from .boost import (
    BoostConfig,
    BoostTrace,
    ReweightedModel,
    iteration_bound,
    reweight_whole,
    run_boost,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
