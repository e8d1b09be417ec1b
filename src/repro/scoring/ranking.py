"""Query instances, the F0.5/score ranking, and bounded K-best tables.

A query instance ⟨p, t+, f+, f−⟩ bundles an expression with its
accuracy counts against the samples (Sec. 4).  Instances are ordered by
(1) higher F_β — the paper uses β = 0.5, biasing precision so that
noisy extra annotations cost little recall pressure — and (2) lower
robustness score.  Remaining ties break deterministically by query
length and text so runs are reproducible.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.xpath.ast import Query


def precision(tp: int, fp: int) -> float:
    return tp / (tp + fp) if tp + fp else 0.0


def recall(tp: int, fn: int) -> float:
    return tp / (tp + fn) if tp + fn else 0.0


def fbeta(tp: int, fp: int, fn: int, beta: float = 0.5) -> float:
    """F_β of approximation counts (Sec. 2); 0 when undefined."""
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    if prec == 0.0 and rec == 0.0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * prec * rec / (b2 * prec + rec)


class QueryInstance:
    """⟨p, t+, f+, f−⟩ plus the precomputed robustness score.

    A plain ``__slots__`` class rather than a (frozen) dataclass: the
    induction creates tens of thousands of instances per task, and the
    ``object.__setattr__`` calls of a frozen dataclass ``__init__``
    dominated candidate generation.  Treat instances as immutable.
    """

    __slots__ = ("query", "tp", "fp", "fn", "score")

    def __init__(self, query: Query, tp: int, fp: int, fn: int, score: float) -> None:
        self.query = query
        self.tp = tp
        self.fp = fp
        self.fn = fn
        self.score = score

    @property
    def precision(self) -> float:
        return precision(self.tp, self.fp)

    @property
    def recall(self) -> float:
        return recall(self.tp, self.fn)

    def f_beta(self, beta: float = 0.5) -> float:
        return fbeta(self.tp, self.fp, self.fn, beta)

    @property
    def is_accurate(self) -> bool:
        """Exactly the targets: no false positives or negatives."""
        return self.fp == 0 and self.fn == 0 and self.tp > 0

    def _key(self) -> tuple:
        return (self.query, self.tp, self.fp, self.fn, self.score)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QueryInstance):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryInstance(query={self.query!r}, tp={self.tp}, fp={self.fp}, "
            f"fn={self.fn}, score={self.score!r})"
        )

    def __str__(self) -> str:
        return (
            f"{self.query}  [F0.5={self.f_beta():.3f} "
            f"t+={self.tp} f+={self.fp} f-={self.fn} score={self.score:g}]"
        )


class QueryText:
    """Lazy final tiebreaker: compares like ``str(query)`` but only
    renders the text when a comparison actually reaches it.

    Rank keys compare on (F_β, score, length) first; the text tiebreak
    is needed only for exact ties, yet eagerly building it dominated
    ``rank_key``.  Comparisons against plain strings keep working (the
    pruning code uses ``""`` as the optimistic smallest text).
    """

    __slots__ = ("query",)

    def __init__(self, query: Query) -> None:
        self.query = query

    def _text(self, other) -> str:
        return str(other.query) if isinstance(other, QueryText) else other

    def __lt__(self, other) -> bool:
        return str(self.query) < self._text(other)

    def __le__(self, other) -> bool:
        return str(self.query) <= self._text(other)

    def __gt__(self, other) -> bool:
        return str(self.query) > self._text(other)

    def __ge__(self, other) -> bool:
        return str(self.query) >= self._text(other)

    def __eq__(self, other) -> bool:
        return str(self.query) == self._text(other)

    def __hash__(self) -> int:
        return hash(str(self.query))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryText({str(self.query)!r})"


def rank_key(instance: QueryInstance, beta: float = 0.5) -> tuple:
    """Sort key: better instances sort first (q < q' iff key(q) < key(q'))."""
    return (
        -instance.f_beta(beta),
        instance.score,
        len(instance.query),
        QueryText(instance.query),
    )


class KBestTable:
    """A bounded table of the K best query instances, deduplicated by query.

    Implements the ``best(n)`` tables of Algorithm 2: insertion keeps the
    table sorted by :func:`rank_key` and capped at K entries; a candidate
    enters only if the table is not full or it beats the K-th entry
    (``q < best(n)[K]``, Line 8).
    """

    def __init__(self, k: int, beta: float = 0.5) -> None:
        if k < 1:
            raise ValueError("K must be >= 1")
        self.k = k
        self.beta = beta
        # Parallel lists of rank keys and instances, sorted by key; keys
        # are computed exactly once per inserted instance (they are the
        # hot path of the whole induction).
        self._item_keys: list[tuple] = []
        self._items: list[QueryInstance] = []
        self._keys: dict[Query, tuple] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[QueryInstance]:
        return iter(self._items)

    @property
    def items(self) -> list[QueryInstance]:
        return list(self._items)

    def best(self) -> Optional[QueryInstance]:
        return self._items[0] if self._items else None

    def worst_key(self) -> Optional[tuple]:
        """Rank key of the K-th entry when full, else None (anything enters)."""
        if len(self._items) < self.k:
            return None
        return self._item_keys[-1]

    def would_accept(self, key: tuple) -> bool:
        worst = self.worst_key()
        return worst is None or key < worst

    def would_accept_partial(self, partial: tuple) -> bool:
        """Pruning check on a text-free key prefix ``(-F_β, score, len)``.

        Equivalent to :meth:`would_accept` with the optimistic ``""``
        text tiebreak: on a full prefix tie the empty text sorts first,
        so ties are accepted.
        """
        if len(self._items) < self.k:
            return True
        return partial <= self._item_keys[-1][:3]

    def insert(self, instance: QueryInstance, key: tuple | None = None) -> bool:
        """Insert if it beats the K-th entry; returns True when kept.

        ``key`` may carry the precomputed :func:`rank_key` of
        ``instance`` (bulk callers compute it once and reuse it across
        tables); when omitted it is derived here.
        """
        if key is None:
            neg_f = -fbeta(instance.tp, instance.fp, instance.fn, self.beta)
            if len(self._items) >= self.k:
                # Cheap pre-check: if the text-free key prefix already
                # loses to the K-th entry, the full key loses too.  (A
                # replaceable duplicate always beats the K-th entry, so
                # the dedup path below is unreachable when pre-rejected.)
                partial = (neg_f, instance.score, len(instance.query))
                if partial > self._item_keys[-1][:3]:
                    return False
            key = (neg_f, instance.score, len(instance.query), QueryText(instance.query))
        elif len(self._items) >= self.k and key[:3] > self._item_keys[-1][:3]:
            return False
        existing = self._keys.get(instance.query)
        if existing is not None:
            if key >= existing:
                return False
            index = next(
                i for i, item in enumerate(self._items) if item.query == instance.query
            )
            del self._items[index]
            del self._item_keys[index]
            del self._keys[instance.query]
        if not self.would_accept(key):
            return False
        # Insertion sort: tables are tiny (K ~ 10).
        index = 0
        while index < len(self._item_keys) and self._item_keys[index] < key:
            index += 1
        self._items.insert(index, instance)
        self._item_keys.insert(index, key)
        self._keys[instance.query] = key
        if len(self._items) > self.k:
            dropped = self._items.pop()
            self._item_keys.pop()
            del self._keys[dropped.query]
        return instance.query in self._keys

    def extend(self, instances: Iterable[QueryInstance]) -> None:
        for instance in instances:
            self.insert(instance)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KBestTable(k={self.k}, items={len(self._items)})"
