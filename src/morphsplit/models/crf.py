"""First-order linear-chain CRF over the six-label space.

Interior positions range over all six labels; the START and END bookends
are clamped, entering only through the transition matrix (START row, END
column). With all-zero weights the log-partition of a length-L word is
therefore L*ln(6). Scores decompose as

    score(y) = sum_i sum_{f in feats(i)} W_e[f, y_i]
             + T[START, y_1] + sum_i T[y_i, y_{i+1}] + T[y_L, END]

and training minimizes the mean negative log-likelihood plus an L2 term,
with gradients from forward-backward marginals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..corpus import (
    Corpus,
    Label,
    SegmentedWord,
    decode_labels,
    encode_labels,
)
from ..errors import DomainError, ValidationError
# extract_features stays importable here: perfbench/tracing.py rebinds it
from .features import (  # noqa: F401
    FeatureTable,
    FeatureTemplate,
    concat_ranges,
    extract_features,
    index_ranks,
    localize,
    rank_ids,
    table_rows,
    train_template,
)
from .optim import OptimResult, TrainConfig, minimize

N_LABELS = 6
START_ID = int(Label.START)
END_ID = int(Label.END)


@dataclass
class CrfModel:
    """A trained CRF: feature index, emission and transition weights.

    ``table`` is the feature table the model was trained through and
    ``table_ids`` the model's feature id of each of its ranks (-1 where it
    has none); neither is serialized. Words outside the table are
    featurized anew.
    """

    label_set: tuple[Label, ...]
    feature_index: dict[str, int]
    weights: np.ndarray
    template: FeatureTemplate
    l2_lambda: float
    history: tuple[float, ...] = field(default=(), repr=False, compare=False)
    table: FeatureTable | None = field(default=None, repr=False, compare=False)
    table_ids: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        n_f = len(self.feature_index)
        want = n_f * N_LABELS + N_LABELS * N_LABELS
        if self.weights.shape != (want,):
            raise ValidationError(
                f"weight vector must have length {want} "
                f"({n_f} features), got {self.weights.shape}"
            )
        if not np.all(np.isfinite(self.weights)):
            raise ValidationError("weights must be finite")
        if tuple(self.label_set) != tuple(Label):
            raise ValidationError("label_set must be the six standard labels")

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

    def _feature_ids(self, surfaces) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ids, ptr, lengths): the known feature ids of every position of
        ``surfaces``, CSR by position, and each surface's grapheme count."""
        table, rows = table_rows(self.table, surfaces, self.template)
        local = self.table_ids if table is self.table else rank_ids(self.feature_index, table.names)
        ids, ptr = localize(*table.position_ranks(rows), local)
        return ids, ptr, table.lengths[rows]

    def emissions(self, surface: str) -> np.ndarray:
        """Per-position label scores, shape (L, 6)."""
        (group,) = _build_groups(*self._feature_ids([surface]))
        return _group_emissions(group, self.emission)[0]

    def segment(self, surface: str) -> SegmentedWord:
        return self.segment_batch([surface])[0]

    def segment_batch(self, surfaces) -> list[SegmentedWord]:
        """Viterbi-decode every surface, one vectorized pass per word length."""
        surfaces = list(surfaces)
        if not all(surfaces):
            raise DomainError("surface must be non-empty")
        out: list[SegmentedWord | None] = [None] * len(surfaces)
        W, T = self.emission, self.transition
        for grp in _build_groups(*self._feature_ids(surfaces)):
            paths, _ = _viterbi(_group_emissions(grp, W), T)
            for k, path in zip(grp.members, paths.tolist()):
                out[k] = decode_labels(
                    surfaces[k], (Label.START, *map(Label, path), Label.END)
                )
        return out

    def to_dict(self) -> dict:
        order = sorted(self.feature_index, key=self.feature_index.__getitem__)
        return {
            "kind": "crf",
            "template": self.template.to_dict(),
            "l2_lambda": float(self.l2_lambda),
            "features": order,
            "weights": [float(w) for w in self.weights],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CrfModel":
        features = list(data["features"])
        return cls(
            label_set=tuple(Label),
            feature_index={f: i for i, f in enumerate(features)},
            weights=np.asarray(data["weights"], dtype=float),
            template=FeatureTemplate.from_dict(data["template"]),
            l2_lambda=float(data["l2_lambda"]),
        )


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, shifted by the maximum.

    The same arithmetic as ``scipy.special.logsumexp`` on finite input
    (maxima left out of the sum, log1p of the rest over their count), so
    results match it bit for bit, without its per-call overhead.
    """
    a_max = a.max(axis=axis, keepdims=True)
    is_max = a == a_max
    m = is_max.sum(axis=axis, keepdims=True, dtype=a.dtype)
    s = np.where(is_max, 0.0, np.exp(a - a_max)).sum(axis=axis, keepdims=True)
    return (np.log1p(s / m) + np.log(m) + a_max).squeeze(axis)


class _Group:
    """Words of one length, feature occurrences flattened for scatter ops.

    ``members`` are the words' positions in the input; occurrence i is
    feature ``f_flat[i]`` at flat position ``row_flat[i]`` (word * length +
    position). ``gold_T`` counts the gold transitions, bookends included.
    """

    __slots__ = ("length", "n", "members", "f_flat", "row_flat", "gold", "gold_T")

    def __init__(self, length, members, f_flat, row_flat, gold):
        self.length = length
        self.n = len(members)
        self.members = members
        self.f_flat = f_flat
        self.row_flat = row_flat
        self.gold = gold
        self.gold_T = None
        if gold is not None:
            src = np.hstack([np.full((self.n, 1), START_ID), gold])
            dst = np.hstack([gold, np.full((self.n, 1), END_ID)])
            self.gold_T = np.bincount(
                (src * N_LABELS + dst).ravel(), minlength=N_LABELS * N_LABELS
            ).reshape(N_LABELS, N_LABELS)


def _build_groups(ids, ptr, lengths, gold=None) -> list[_Group]:
    """Group words by grapheme length, in increasing length.

    ``ids``/``ptr`` hold each position's feature ids, CSR over the words'
    positions in order, and ``lengths`` each word's grapheme count; ``gold``
    gives each word's interior gold labels.
    """
    counts = np.diff(ptr)
    word_start = np.cumsum(lengths) - lengths
    groups = []
    for length in np.unique(lengths).tolist():
        members = np.flatnonzero(lengths == length)
        pos = (word_start[members][:, None] + np.arange(length)).ravel()
        c = counts[pos]
        groups.append(
            _Group(
                length=length,
                members=members.tolist(),
                f_flat=ids[concat_ranges(ptr[pos], c)],
                row_flat=np.repeat(np.arange(len(pos), dtype=np.int64), c),
                gold=None if gold is None else np.asarray(
                    [gold[k] for k in members.tolist()], dtype=np.int64
                ).reshape(len(members), length),
            )
        )
    return groups


def _group_emissions(group: _Group, W_e: np.ndarray) -> np.ndarray:
    """Summed emission weights, shape (n, length, 6)."""
    rows = group.n * group.length
    occurrences = W_e.T[:, group.f_flat]
    E = np.empty((rows, N_LABELS))
    for lab in range(N_LABELS):
        E[:, lab] = np.bincount(group.row_flat, weights=occurrences[lab], minlength=rows)
    return E.reshape(group.n, group.length, N_LABELS)


def _objective_and_grad(weights, groups, n_words, n_features, l2):
    W_e = weights[: n_features * N_LABELS].reshape(n_features, N_LABELS)
    T = weights[n_features * N_LABELS:].reshape(N_LABELS, N_LABELS)
    raw_grad = np.zeros_like(weights)
    gW = raw_grad[: n_features * N_LABELS].reshape(n_features, N_LABELS)
    gT = raw_grad[n_features * N_LABELS:].reshape(N_LABELS, N_LABELS)
    total_nll = 0.0

    for grp in groups:
        L, n = grp.length, grp.n
        E = _group_emissions(grp, W_e)
        alphas = np.empty((L, n, N_LABELS))
        a = T[START_ID][None, :] + E[:, 0]
        alphas[0] = a
        for i in range(1, L):
            a = _logsumexp(a[:, :, None] + T[None, :, :], axis=1) + E[:, i]
            alphas[i] = a
        log_z = _logsumexp(a + T[:, END_ID][None, :], axis=1)

        betas = np.empty((L, n, N_LABELS))
        b = np.broadcast_to(T[:, END_ID], (n, N_LABELS)).copy()
        betas[L - 1] = b
        for i in range(L - 2, -1, -1):
            b = _logsumexp(T[None, :, :] + (E[:, i + 1] + b)[:, None, :], axis=2)
            betas[i] = b

        marg = np.exp(alphas + betas - log_z[None, :, None])

        rows = np.arange(n)
        gold_em = E[rows[:, None], np.arange(L)[None, :], grp.gold].sum(axis=1)
        gold_tr = T[START_ID, grp.gold[:, 0]] + T[grp.gold[:, -1], END_ID]
        if L > 1:
            gold_tr = gold_tr + T[grp.gold[:, :-1], grp.gold[:, 1:]].sum(axis=1)
        total_nll += float(log_z.sum() - gold_em.sum() - gold_tr.sum())

        # expected minus observed emissions, scattered onto feature rows
        diff = marg.transpose(1, 0, 2).reshape(n * L, N_LABELS).copy()
        diff[np.arange(n * L), grp.gold.ravel()] -= 1.0
        occurrences = diff.T[:, grp.row_flat]
        for lab in range(N_LABELS):
            gW[:, lab] += np.bincount(grp.f_flat, weights=occurrences[lab], minlength=n_features)

        gT[START_ID] += marg[0].sum(axis=0)
        gT[:, END_ID] += marg[L - 1].sum(axis=0)
        for i in range(L - 1):
            xi = np.exp(
                alphas[i][:, :, None]
                + T[None, :, :]
                + (E[:, i + 1] + betas[i + 1])[:, None, :]
                - log_z[:, None, None]
            )
            gT += xi.sum(axis=0)
        gT -= grp.gold_T

    objective = total_nll / n_words + 0.5 * l2 * float(weights @ weights)
    grad = raw_grad / n_words + l2 * weights
    return objective, grad


def crf_log_partition(model: CrfModel, surface: str) -> float:
    """Log of the sum over all 6^L interior label sequences of exp(score)."""
    E = model.emissions(surface)
    if len(E) == 0:
        raise DomainError("surface must be non-empty")
    T = model.transition
    a = T[START_ID] + E[0]
    for i in range(1, len(E)):
        a = _logsumexp(a[:, None] + T, axis=0) + E[i]
    return float(_logsumexp(a + T[:, END_ID], axis=0))


def crf_gradient(model: CrfModel, batch) -> tuple[float, np.ndarray]:
    """Mean NLL + (l2/2)*||w||^2 over ``batch`` and its full gradient.

    Expectations come from forward-backward marginals; duplicating the batch
    changes neither value (mean formulation). Features of batch words that
    are missing from the model's index contribute nothing.
    """
    words = list(batch)
    if not words:
        raise DomainError("crf_gradient needs a non-empty batch")
    groups = _build_groups(*model._feature_ids(w.surface for w in words), _gold(words))
    return _objective_and_grad(
        model.weights, groups, len(words), len(model.feature_index), model.l2_lambda
    )


def _viterbi(E: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best interior label paths (n, L) and their scores (n,) for emissions (n, L, 6).

    Every argmax takes the first maximum, so ties go to the lower label index.
    """
    n, length, _ = E.shape
    v = T[START_ID][None, :] + E[:, 0]
    back = np.empty((length, n, N_LABELS), dtype=np.int64)
    for i in range(1, length):
        scores = v[:, :, None] + T[None, :, :]
        back[i] = np.argmax(scores, axis=1)
        v = scores.max(axis=1) + E[:, i]
    v = v + T[:, END_ID][None, :]
    rows = np.arange(n)
    paths = np.empty((n, length), dtype=np.int64)
    paths[:, -1] = np.argmax(v, axis=1)
    for i in range(length - 1, 0, -1):
        paths[:, i - 1] = back[i][rows, paths[:, i]]
    return paths, v[rows, paths[:, -1]]


def viterbi_raw(model: CrfModel, surface: str) -> tuple[tuple[Label, ...], float]:
    """Argmax interior label sequence and its score, before repair.

    Ties break toward the lower label index at every argmax, so the
    all-zero-weight model returns the lexicographically first sequence.
    """
    E = model.emissions(surface)
    if len(E) == 0:
        raise DomainError("surface must be non-empty")
    paths, scores = _viterbi(E[None], model.transition)
    return tuple(Label(p) for p in paths[0].tolist()), float(scores[0])


def _gold(words) -> list[list[int]]:
    """Each word's interior gold labels, as ints."""
    return [[int(lab) for lab in encode_labels(w).interior()] for w in words]


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
    template = train_template(template, table)
    config = config if config is not None else TrainConfig()
    words = list(corpus)
    if not words:
        raise DomainError("train_crf needs a non-empty corpus")
    table, rows = table_rows(table, (w.surface for w in words), template)
    ranks, ptr = table.position_ranks(rows)
    feature_index, local = index_ranks(ranks, table.names)
    groups = _build_groups(*localize(ranks, ptr, local), table.lengths[rows], _gold(words))
    n_features = len(feature_index)
    x0 = np.zeros(n_features * N_LABELS + N_LABELS * N_LABELS)

    def fun(w):
        return _objective_and_grad(w, groups, len(words), n_features, config.l2_lambda)

    result: OptimResult = minimize(fun, x0, config, context="crf training")
    return CrfModel(
        label_set=tuple(Label),
        feature_index=feature_index,
        weights=result.x,
        template=template,
        l2_lambda=config.l2_lambda,
        history=result.history,
        table=table,
        table_ids=local,
    )
