"""One cache for every factorisation a thermal run needs.

Steady solves factorise ``A(f)``; transient steps factorise
``C/dt + A(f)``.  Both live in a :class:`FactorBank` under the key
``(model key, kind, flow signature, dt)``: the model key names the
stack (scenario runs use :meth:`Scenario.model_hash`), ``kind`` is
``"steady"`` or ``"transient"`` and steady entries carry ``dt=None``.
The AMG hierarchy of the same matrix is a separate entry whose flow
slot reads ``("amg", flow signature)`` (see
:func:`repro.thermal.exact.amg_key`); it counts towards the bound and
the statistics of its kind like an LU factor.  Keys fully describe the
matrix an entry was built from, so two stacks never share an entry and
a flow change can never be served a stale factor.

Whoever creates a bank owns its lifetime, and a bank runs in one of
two modes:

* **Count-bounded** (``max_entries=n``): a plain LRU of ``n``
  entries.  A model's private steady bank and a stepper's private
  transient bank use it, which keeps the per-model / per-run lifetime
  every ordinary run has always had.
* **Byte-capped** (``max_entries=None``): the bank of a long-lived
  service worker, kept across jobs.  The caller brackets each job with
  :meth:`FactorBank.job`.  Entries a job touches are *pinned* until it
  ends and are never evicted under it, so a job never refactorises
  its own working set.  Retained bytes never exceed the largest
  working set one job has pinned so far (:attr:`cap_bytes`), and
  before each factorisation the bank evicts unpinned entries to make
  room for it: other stacks' entries first, then the factorising
  stack's, least recently used first within each.  The rule needs no
  tuning: a
  fixed cap smaller than one job's working set would thrash inside
  that job.

A byte-capped bank also remembers, for the current job, the matrix
each new entry was factorised from.  A service worker runs every job
in a forked copy of itself; the copy hands :meth:`FactorBank.record`
back, and the worker replays it with :meth:`FactorBank.adopt`, so its
own bank learns the job's factors bit for bit.  AMG entries are stored
without a source, so they are never rebuilt that way.

LU entries are sized from ``SuperLU.nnz``, never from ``.L`` / ``.U``:
those properties build full CSC copies of the factors.  AMG entries
are sized from their hierarchy's matrices.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

BankKey = Tuple[object, str, object, Optional[float]]
"""``(model key, kind, flow signature, dt)`` of one bank entry."""

JobRecord = Tuple[List[BankKey], Dict[BankKey, object], List[BankKey]]
"""What one job did to a byte-capped bank: the keys it touched, the
source of each entry it factorised, and the keys it dropped."""

_INDEX_BYTES = 4
_VALUE_BYTES = 8


def factor_bytes(factor: object) -> int:
    """Resident size estimate of one SuperLU factor (values + row indices)."""
    return int(getattr(factor, "nnz", 0)) * (_VALUE_BYTES + _INDEX_BYTES)


def entry_bytes(entry: object) -> int:
    """Resident size estimate of a bank entry.

    An entry is a factor, or a tuple of a factor (or an AMG solver with
    an ``nbytes`` estimate) and the arrays / sparse matrices cached
    beside it (boundary rhs, system matrix).
    """
    parts = entry if isinstance(entry, tuple) else (entry,)
    total = 0
    for part in parts:
        if hasattr(part, "nnz") and hasattr(part, "solve"):
            total += factor_bytes(part)
        elif hasattr(part, "indptr"):  # scipy CSR / CSC matrix
            total += part.data.nbytes + part.indices.nbytes + part.indptr.nbytes
        else:
            total += int(getattr(part, "nbytes", 0))
    return total


class FactorBank:
    """LU factors and AMG hierarchies keyed by
    ``(model key, kind, flow signature, dt)``.

    Parameters
    ----------
    max_entries:
        ``n`` for a count-bounded LRU of ``n`` entries; ``None`` (the
        default) for the byte-capped, job-pinned mode described in the
        module docstring.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("cache must hold at least one factorisation")
        self.max_entries = max_entries
        self._entries: "OrderedDict[BankKey, Tuple[object, int]]" = OrderedDict()
        self._pinned: Set[BankKey] = set()
        self._pinned_bytes = 0
        # This job's fresh entries (their sources) and dropped keys.
        self._fresh: Dict[BankKey, object] = {}
        self._dropped: Set[BankKey] = set()
        # Last measured entry size per (model key, kind): the room a
        # factorisation of that stack is about to need.
        self._sizes: Dict[Tuple[object, str], int] = {}
        self.resident_bytes = 0
        self.cap_bytes = 0
        """Largest working set one job has pinned so far [bytes]."""

    @property
    def byte_capped(self) -> bool:
        return self.max_entries is None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: BankKey) -> bool:
        return key in self._entries

    def get(self, key: BankKey) -> Optional[object]:
        """The entry under ``key`` (marked most recently used), or ``None``."""
        item = self._entries.get(key)
        if item is None:
            return None
        self._entries.move_to_end(key)
        self._pin(key, item[1])
        return item[0]

    def reserve(self, key: BankKey) -> None:
        """Make room before factorising ``key`` (byte-capped mode only).

        Evicts unpinned entries until the entry about to be built fits
        under the cap, so the old factors are freed before the new one
        is allocated.
        """
        if self.byte_capped:
            self._trim(self._sizes.get(key[:2], 0), key[0])

    def put(
        self, key: BankKey, entry: object, nbytes: int, source: object = None
    ) -> None:
        """Store ``entry`` of ``nbytes`` under ``key``, then enforce the bound.

        ``source`` is what the entry was built from (see
        :meth:`record`); only a byte-capped bank keeps it, until the
        job ends.
        """
        if key in self._entries:
            self._evict(key)
        nbytes = int(nbytes)
        self._entries[key] = (entry, nbytes)
        self.resident_bytes += nbytes
        self._sizes[key[:2]] = nbytes
        if not self.byte_capped:
            while len(self._entries) > self.max_entries:
                self._evict(next(iter(self._entries)))
            return
        if source is not None:
            self._fresh[key] = source
        self._pin(key, nbytes)
        self._trim(0, key[0])

    def pop(self, key: BankKey) -> bool:
        """Drop one entry (e.g. a poisoned factor); returns whether it existed."""
        if key not in self._entries:
            return False
        self._evict(key)
        if self.byte_capped:
            self._fresh.pop(key, None)
            self._dropped.add(key)
        return True

    def drop(self, owner: object, kind: str) -> int:
        """Drop every ``kind`` entry of one model key; returns the count."""
        keys = [k for k in self._entries if k[0] == owner and k[1] == kind]
        for key in keys:
            self._evict(key)
        return len(keys)

    def count(self, owner: object, kind: str) -> int:
        """Entries of one model key and kind."""
        return sum(1 for k in self._entries if k[0] == owner and k[1] == kind)

    def stack_bytes(self) -> Dict[object, int]:
        """Resident bytes per model key (keys with no entry are absent)."""
        totals: Dict[object, int] = {}
        for key, (_, nbytes) in self._entries.items():
            totals[key[0]] = totals.get(key[0], 0) + nbytes
        return totals

    @contextmanager
    def job(self) -> Iterator["FactorBank"]:
        """Bracket one job: what it touches stays pinned until it ends."""
        self._unpin_all()
        try:
            yield self
        finally:
            self._unpin_all()

    def record(self) -> JobRecord:
        """The running job's effect on this bank, for :meth:`adopt`.

        Call it inside :meth:`job`.  Touched keys come in least- to
        most-recently-used order, and only entries still resident
        carry a source.
        """
        touched = [key for key in self._entries if key in self._pinned]
        fresh = {
            key: source
            for key, source in self._fresh.items()
            if key in self._entries
        }
        return touched, fresh, sorted(self._dropped - set(fresh), key=repr)

    def adopt(
        self,
        record: JobRecord,
        build: Callable[[BankKey, object], Tuple[object, int]],
    ) -> int:
        """Replay another copy's :meth:`record` as one job of this bank.

        Dropped keys are dropped, fresh entries are rebuilt from their
        source with ``build(key, source) -> (entry, nbytes)`` (which
        must recompute exactly what the copy computed), and every
        other touched key is pinned, so the cap rule sees the job's
        whole working set.  Returns the number of entries rebuilt.
        """
        touched, fresh, dropped = record
        built = 0
        with self.job():
            for key in dropped:
                self.pop(key)
            for key in touched:
                if key in fresh:
                    self.reserve(key)
                    entry, nbytes = build(key, fresh[key])
                    self.put(key, entry, nbytes)
                    built += 1
                else:
                    self.get(key)
        return built

    # -- internals ---------------------------------------------------------

    def _pin(self, key: BankKey, nbytes: int) -> None:
        if not self.byte_capped or key in self._pinned:
            return
        self._pinned.add(key)
        self._pinned_bytes += nbytes
        self.cap_bytes = max(self.cap_bytes, self._pinned_bytes)

    def _unpin_all(self) -> None:
        self._pinned.clear()
        self._pinned_bytes = 0
        self._fresh.clear()
        self._dropped.clear()

    def _evict(self, key: BankKey) -> None:
        _, nbytes = self._entries.pop(key)
        self.resident_bytes -= nbytes
        if key in self._pinned:
            self._pinned.discard(key)
            self._pinned_bytes -= nbytes

    def _trim(self, incoming: int, owner: object) -> None:
        """Evict unpinned entries until ``incoming`` more bytes fit.

        Entries of stacks other than ``owner`` go first (a job keeps
        touching its own stack's factors as its flow moves), least
        recently used first within each group.
        """
        cap = max(self.cap_bytes, self._pinned_bytes + incoming)
        order = sorted(self._entries, key=lambda key: key[0] == owner)
        for key in order:
            if self.resident_bytes + incoming <= cap:
                return
            if key not in self._pinned:
                self._evict(key)
