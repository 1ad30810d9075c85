"""First-order linear-chain CRF over the six-label space.

Interior positions range over all six labels; the START and END bookends
are clamped, entering only through the transition matrix (START row, END
column). With all-zero weights the log-partition of a length-L word is
therefore L*ln(6). Scores decompose as

    score(y) = sum_i sum_{f in feats(i)} W_e[f, y_i]
             + T[START, y_1] + sum_i T[y_i, y_{i+1}] + T[y_L, END]

and training minimizes the mean negative log-likelihood plus an L2 term,
with gradients from forward-backward marginals.

Every pass runs over one batch of words sorted by descending grapheme
length (:class:`_Batch`), so the words still active at a position are a
prefix of the batch: no length groups, no padding. Emission scores are one
sparse product ``X @ W_e`` and the emission gradient ``X.T @ (marginals -
gold)``. Forward-backward runs in probability space, scaled (Rabiner 1989;
Sutton & McCallum 2012): each position is one (k, 6) @ (6, 6) product and
a row normalization, log Z is the sum of the log normalizers plus the
shifts taken out before exponentiating, and the transition gradient is one
(6, k) @ (k, 6) product per position. Transition scores spanning more than
``MAX_TRANSITION_SPREAD`` nats raise :class:`TrainingError`. Viterbi stays
max-plus in log space.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..corpus import (
    Corpus,
    Label,
    Segmentations,
    cut_slots,
    decode_starts,
    encode_starts,
    surface_list,
)
from ..errors import DomainError, TrainingError
# extract_features stays importable here: perfbench/tracing.py rebinds it
from .features import (  # noqa: F401
    FeatureTable,
    FeatureTemplate,
    LinearFeatureModel,
    concat_ranges,
    design_matrix,
    extract_features,
)
from .optim import OptimResult, TrainConfig, minimize

N_LABELS = 6
START_ID = int(Label.START)
END_ID = int(Label.END)
# The widest span of transition scores, in nats, that the scaled
# forward-backward accepts. exp underflows below about -745 nats, and a term
# lost there can weigh up to exp(2 * spread - 745) in a marginal or log Z:
# a three-grapheme word built to hit this is exact at a spread of 350 and
# off by 9e-15 at 360 and 7e-4 at 373. Trained models sit far below the
# bound (|w| about 7 even without the L2 penalty).
MAX_TRANSITION_SPREAD = 300.0


@dataclass
class CrfModel(LinearFeatureModel):
    """A trained CRF: emission weights of every feature and label, then the
    transition weights; ``history`` holds the training objective values."""

    KIND = "crf"
    GAPS = False

    history: tuple[float, ...] = field(default=(), repr=False, compare=False)

    @staticmethod
    def n_weights(n_features: int) -> int:
        return n_features * N_LABELS + N_LABELS * N_LABELS

    @property
    def emission(self) -> np.ndarray:
        """View of shape (|features|, 6)."""
        n_f = len(self.feature_index)
        return self.weights[: n_f * N_LABELS].reshape(n_f, N_LABELS)

    @property
    def transition(self) -> np.ndarray:
        """View of shape (6, 6), indexed [from, to]."""
        n_f = len(self.feature_index)
        return self.weights[n_f * N_LABELS:].reshape(N_LABELS, N_LABELS)

    def _batch(self, surfaces, gold: np.ndarray | None = None) -> _Batch:
        """The :class:`_Batch` of ``surfaces``, with their ``gold`` labels
        (word-major) when given; an empty surface is a :class:`DomainError`."""
        return _Batch(*self.feature_ids(surface_list(surfaces)), len(self.feature_index), gold)

    def emissions(self, surface: str) -> np.ndarray:
        """Per-position label scores, shape (L, 6)."""
        return self._batch([surface]).X @ self.emission

    def _segment(self, surfaces: list[str]) -> Segmentations:
        """Viterbi-decode every surface in one pass over a length-sorted
        batch, and cut by :func:`decode_labels`'s rule."""
        batch = self._batch(surfaces)
        labels, _ = _viterbi(batch.X @ self.emission, self.transition, batch)
        by_word = np.empty_like(labels)
        by_word[batch.rows] = labels
        starts = decode_starts(by_word, batch.lengths)
        return Segmentations.from_slots(surfaces, batch.lengths.tolist(), np.append(starts, True))


class _Batch:
    """Words sorted by descending grapheme length, their positions laid out
    position by position.

    Batch row r is the r-th longest input word, ties in input order. Layout
    rows ``offsets[i]:offsets[i + 1]`` hold position i of every word longer
    than i, in batch order; those words are a prefix of the batch,
    ``active[i]`` of them, so layout row ``offsets[i] + r`` follows
    ``offsets[i - 1] + r`` and no row is padding. ``rows`` maps each layout
    row to its word-major position (words in input order, each word's
    positions in order, words starting at ``starts`` and ``lengths`` long),
    and ``last`` each batch row to the layout row of its last position.
    ``X`` holds the 0/1 feature occurrences of the layout rows, ``gold``
    their gold labels and ``gold_T`` the gold transition counts, bookends
    included. A batch with gold labels also keeps ``XT``, the transpose
    every objective evaluation multiplies by, built once.
    """

    __slots__ = ("lengths", "starts", "active", "offsets", "rows", "last", "X",
                 "XT", "gold", "gold_T")

    def __init__(self, ids, ptr, lengths, n_features, gold=None):
        self.lengths = lengths
        self.starts = np.cumsum(lengths) - lengths
        order = np.argsort(-lengths, kind="stable")
        self.active = (len(lengths) - np.cumsum(np.bincount(lengths))[:-1]).tolist()
        self.offsets = [0, *np.cumsum(self.active).tolist()]
        self.rows = np.concatenate(
            [self.starts[order[:k]] + i for i, k in enumerate(self.active)]
            or [np.zeros(0, dtype=np.int64)]
        )
        offsets = np.asarray(self.offsets)
        self.last = offsets[lengths[order] - 1] + np.arange(len(lengths))
        counts = np.diff(ptr)[self.rows]
        self.X = design_matrix(
            ids[concat_ranges(ptr[self.rows], counts)],
            np.concatenate([[0], np.cumsum(counts)]),
            n_features,
        )
        self.XT = self.gold = self.gold_T = None
        if gold is not None:
            self.XT = self.X.T
            self.gold = gold[self.rows]
            # each position's transition in, then each word's transition out
            prev = np.roll(gold, 1)
            prev[self.starts] = START_ID
            src = np.concatenate([prev, gold[self.starts + lengths - 1]])
            dst = np.concatenate([gold, np.full(len(lengths), END_ID)])
            self.gold_T = np.bincount(
                src * N_LABELS + dst, minlength=N_LABELS * N_LABELS
            ).reshape(N_LABELS, N_LABELS)


def _check_range(T: np.ndarray) -> None:
    """Refuse transition scores the scaled recursion cannot carry accurately."""
    spread = float(T.max() - T.min())
    if not spread <= MAX_TRANSITION_SPREAD:
        raise TrainingError(
            f"CRF transition scores span {spread:.6g} nats, more than the "
            f"{MAX_TRANSITION_SPREAD:g} the scaled forward-backward is accurate for"
        )


# numpy reduces a six-wide last axis many times slower than it combines six
# columns. Chaining the columns gives the same bits: a maximum is exact,
# and a.sum(axis=1) adds six terms left to right, as these chains do
# (tests/test_crf.py pins both).
def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=1)`` of an (n, 6) array."""
    out = np.maximum(a[:, 0], a[:, 1])
    for j in range(2, N_LABELS):
        np.maximum(out, a[:, j], out=out)
    return out


def _row_sum(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` of an (n, 6) array, into ``out``."""
    np.add(a[:, 0], a[:, 1], out=out)
    for j in range(2, N_LABELS):
        out += a[:, j]
    return out


def _best_source(v: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scores.max(axis=1)`` and ``np.argmax(scores, axis=1)`` of the
    (n, 6, 6) ``scores = v[:, :, None] + T``, one source label at a time.

    A later source replaces the best only when strictly greater, so ties go
    to the first maximum, as ``np.argmax`` breaks them.
    """
    best = v[:, 0, None] + T[0]
    arg = np.zeros(best.shape, dtype=np.int64)
    for j in range(1, N_LABELS):
        s = v[:, j, None] + T[j]
        np.copyto(arg, j, where=s > best)
        np.maximum(best, s, out=best)
    return best, arg


def _forward(E: np.ndarray, T: np.ndarray, batch: _Batch):
    """Scaled forward pass over the layout rows of ``batch``.

    Returns (A, P, alpha, c, c_end, m): the transition potentials
    ``exp(T - max T)``, the emission potentials ``exp(E - m)`` with ``m``
    each row's largest score, each row's forward vector normalized to sum 1,
    its normalizer, and each batch row's exit normalizer. A word's log Z is
    the sum of its rows' log normalizers and ``m``, its log exit normalizer,
    and ``max T`` once per transition.
    """
    _check_range(T)
    A = np.exp(T - T.max())
    m = _row_max(E)
    P = np.exp(E - m[:, None])
    alpha = np.empty_like(P)
    c = np.empty(len(P))
    off = batch.offsets
    for i, k in enumerate(batch.active):
        s, e = off[i], off[i + 1]
        a = alpha[s:e]
        if i == 0:
            np.multiply(P[s:e], A[START_ID], out=a)
        else:
            np.matmul(alpha[off[i - 1]:off[i - 1] + k], A, out=a)
            a *= P[s:e]
        _row_sum(a, out=c[s:e])
        a /= c[s:e, None]
    c_end = alpha[batch.last] @ A[:, END_ID]
    return A, P, alpha, c, c_end, m


def _objective_and_grad(weights, batch: _Batch, n_features, l2):
    n_e = n_features * N_LABELS
    W_e = weights[:n_e].reshape(n_features, N_LABELS)
    T = weights[n_e:].reshape(N_LABELS, N_LABELS)
    E = batch.X @ W_e
    A, P, alpha, c, c_end, m = _forward(E, T, batch)

    # backward vectors scaled by the forward normalizers, so that
    # alpha * beta is each row's label marginal
    off = batch.offsets
    beta = np.empty_like(alpha)
    beta[batch.last] = A[:, END_ID] / c_end[:, None]
    P /= c[:, None]
    xi = np.zeros((N_LABELS, N_LABELS))
    for i in range(len(batch.active) - 1, 0, -1):
        u = P[off[i]:off[i + 1]] * beta[off[i]:off[i + 1]]
        prev = slice(off[i - 1], off[i - 1] + batch.active[i])
        np.matmul(u, A.T, out=beta[prev])
        xi += alpha[prev].T @ u
    marg = alpha * beta

    rows = np.arange(len(E))
    # sum(gold_T) is the number of transitions, each shifted by max T
    nll = (
        np.log(c).sum() + np.log(c_end).sum()
        + (m - E[rows, batch.gold]).sum()
        + (batch.gold_T * (T.max() - T)).sum()
    )

    raw_grad = np.empty_like(weights)
    gT = raw_grad[n_e:].reshape(N_LABELS, N_LABELS)
    np.multiply(A, xi, out=gT)
    gT[START_ID] += marg[:off[1]].sum(axis=0)
    gT[:, END_ID] += marg[batch.last].sum(axis=0)
    gT -= batch.gold_T
    # expected minus observed emissions, summed onto feature rows
    marg[rows, batch.gold] -= 1.0
    raw_grad[:n_e] = (batch.XT @ marg).ravel()

    n_words = len(batch.lengths)
    objective = float(nll) / n_words + 0.5 * l2 * float(weights @ weights)
    grad = raw_grad / n_words + l2 * weights
    return objective, grad


def crf_log_partition(model: CrfModel, surface: str) -> float:
    """Log of the sum over all 6^L interior label sequences of exp(score).

    Raises :class:`TrainingError` when the transition scores span more than
    ``MAX_TRANSITION_SPREAD`` nats.
    """
    batch = model._batch([surface])
    E = batch.X @ model.emission
    T = model.transition
    _, _, _, c, c_end, m = _forward(E, T, batch)
    return float(np.log(c).sum() + np.log(c_end[0]) + m.sum() + (len(E) + 1) * T.max())


def crf_gradient(model: CrfModel, batch) -> tuple[float, np.ndarray]:
    """Mean NLL + (l2/2)*||w||^2 over ``batch`` and its full gradient.

    Expectations come from forward-backward marginals; duplicating the batch
    changes neither value (mean formulation). Features of batch words that
    are missing from the model's index contribute nothing. Raises
    :class:`TrainingError` when the transition scores span more than
    ``MAX_TRANSITION_SPREAD`` nats.
    """
    words = list(batch)
    if not words:
        raise DomainError("crf_gradient needs a non-empty batch")
    prepared = model._batch((w.surface for w in words), encode_starts(cut_slots(words)[:-1]))
    return _objective_and_grad(model.weights, prepared, len(model.feature_index), model.l2_lambda)


def _viterbi(E: np.ndarray, T: np.ndarray, batch: _Batch) -> tuple[np.ndarray, np.ndarray]:
    """Best interior labels of every layout row of ``batch`` and each batch
    row's best path score, max-plus in log space.

    Every argmax takes the first maximum, so ties go to the lower label index.
    """
    off, active = batch.offsets, batch.active
    n = len(batch.lengths)
    # the words still active after each position; rows ends[i]: of v end at i
    ends = [*active[1:], 0]
    best = np.empty(n, dtype=np.int64)
    score = np.empty(n)
    back = np.empty(E.shape, dtype=np.int64)
    v = T[START_ID] + E[:off[1]]
    for i, k in enumerate(ends):
        done = v[k:] + T[:, END_ID]
        best[k:len(v)] = np.argmax(done, axis=1)
        score[k:len(v)] = done[np.arange(len(done)), best[k:len(v)]]
        if k:
            v, back[off[i + 1]:off[i + 2]] = _best_source(v[:k], T)
            v += E[off[i + 1]:off[i + 2]]
    labels = np.empty(len(E), dtype=np.int64)
    path = best.copy()
    for i in range(len(active) - 1, -1, -1):
        k = ends[i]
        path[:k] = back[off[i + 1] + np.arange(k), path[:k]]
        labels[off[i]:off[i + 1]] = path[:active[i]]
    return labels, score


def viterbi_raw(model: CrfModel, surface: str) -> tuple[tuple[Label, ...], float]:
    """Argmax interior label sequence and its score, before repair.

    Ties break toward the lower label index at every argmax, so the
    all-zero-weight model returns the lexicographically first sequence.
    """
    batch = model._batch([surface])
    labels, scores = _viterbi(batch.X @ model.emission, model.transition, batch)
    return tuple(Label(p) for p in labels.tolist()), float(scores[0])


def train_crf(
    corpus: Corpus,
    template: FeatureTemplate | None = None,
    config: TrainConfig | None = None,
    table: FeatureTable | None = None,
) -> CrfModel:
    """Fit CRF weights on ``corpus`` by penalized maximum likelihood.

    Deterministic for fixed inputs: the feature index follows corpus order
    (first occurrence over positions, each position's features by name),
    optimization starts at zero, and both optimizers are deterministic. The
    accepted objective values are kept on the model's ``history``. Words
    are featurized through ``table`` when it holds them all.
    """
    config = config if config is not None else TrainConfig()
    model, starts, features = CrfModel.untrained(corpus, template, config.l2_lambda, table)
    n_features = len(model.feature_index)
    batch = _Batch(*features, n_features, encode_starts(starts))

    def fun(w):
        return _objective_and_grad(w, batch, n_features, config.l2_lambda)

    result: OptimResult = minimize(fun, model.weights, config, context="crf training")
    return replace(model, weights=result.x, history=result.history)
