"""Persistent cross-session experience store for settled strategy outcomes.

The store is the knowledge layer the ROADMAP calls "a database that
becomes smarter every time": at session close each form's learner
contributes one :class:`ExperienceRecord` — *which* strategy it
settled on, under *which* drift regime (epoch), with *how much*
evidence — keyed by the form's structural fingerprint.  A later
session facing a structurally similar form ranks these records by
blended similarity and warm-starts its learner from the best match.

Records are priors only.  Nothing in here feeds the Theorem 1
schedule: the store hands a fresh learner its *initial* strategy and
nothing else, so every per-run guarantee (and the byte-determinism
contract when the store is disabled) is untouched.

Persistence mirrors the PIB checkpoint discipline in
:mod:`repro.persistence`: a versioned JSON payload with a SHA-256
checksum, written via temp-file + fsync + ``os.replace`` with a
``.bak`` rotation, loaded with backup fallback, and *never* raising on
open — a corrupt store degrades to an empty one (flagged via
``recovered``) rather than taking the session down.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import CheckpointError
from ..persistence import backup_path, read_json_checked, write_json_atomically
from .fingerprint import (
    DEFAULT_PATTERN_WEIGHT,
    DEFAULT_SIMILARITY_WEIGHT,
    FormProfile,
    similarity,
)

__all__ = [
    "EXPERIENCE_FORMAT",
    "EXPERIENCE_VERSION",
    "ExperienceRecord",
    "ExperienceStore",
    "Neighbour",
    "migrate_experience_payload",
]

EXPERIENCE_FORMAT = "repro-experience"
EXPERIENCE_VERSION = 1


@dataclass(frozen=True)
class ExperienceRecord:
    """One settled ``(form, regime, strategy, Δ̃, samples)`` outcome.

    ``retrieval_ranks`` stores the winning strategy *positionally*:
    the i-th entry is the declaration-order index of the retrieval arc
    visited i-th.  Positions — unlike generated arc names — survive a
    graph rebuild and transfer to structural neighbours whose arcs
    have different names but the same skeleton.  ``retrieval_names``
    keeps the concrete names for exact-fingerprint matches and for
    human inspection.
    """

    fingerprint: str
    form: str
    #: Drift epoch of the contributing learner; a regime reset (epoch
    #: bump) versions the experience, and higher regimes supersede
    #: lower ones for the same fingerprint.
    regime: int
    retrieval_names: Tuple[str, ...]
    retrieval_ranks: Tuple[int, ...]
    #: Accumulated estimated gain over the contributing run's climbs.
    delta_tilde: float
    #: Contexts the contributing learner processed (evidence weight).
    sample_count: int
    profile: FormProfile

    def __post_init__(self) -> None:
        if self.regime < 0:
            raise ValueError("regime must be >= 0")
        if self.sample_count < 0:
            raise ValueError("sample_count must be >= 0")
        if sorted(self.retrieval_ranks) != list(
            range(len(self.retrieval_ranks))
        ):
            raise ValueError(
                "retrieval_ranks must be a permutation of 0..n-1"
            )
        if len(self.retrieval_names) != len(self.retrieval_ranks):
            raise ValueError(
                "retrieval_names and retrieval_ranks must align"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "form": self.form,
            "regime": self.regime,
            "retrieval_names": list(self.retrieval_names),
            "retrieval_ranks": list(self.retrieval_ranks),
            "delta_tilde": self.delta_tilde,
            "sample_count": self.sample_count,
            "profile": self.profile.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ExperienceRecord":
        return cls(
            fingerprint=str(payload["fingerprint"]),
            form=str(payload["form"]),
            regime=int(payload["regime"]),
            retrieval_names=tuple(
                str(n) for n in payload["retrieval_names"]
            ),
            retrieval_ranks=tuple(
                int(r) for r in payload["retrieval_ranks"]
            ),
            delta_tilde=float(payload["delta_tilde"]),
            sample_count=int(payload["sample_count"]),
            profile=FormProfile.from_dict(payload["profile"]),
        )


@dataclass(frozen=True)
class Neighbour:
    """A ranked store hit: the record plus its blended similarity."""

    record: ExperienceRecord
    score: float

    @property
    def exact(self) -> bool:
        return self.score >= 1.0

    @property
    def distance(self) -> float:
        return max(0.0, 1.0 - self.score)


def migrate_experience_payload(
    payload: Dict[str, object],
) -> Dict[str, object]:
    """Upgrade an older on-disk experience payload to the current
    version.  v1 is current, so this is the migration *stub* the
    format contract requires: known versions pass through, anything
    else raises :class:`~repro.errors.CheckpointError` rather than
    being misread."""
    if payload.get("format") != EXPERIENCE_FORMAT:
        raise CheckpointError(
            f"not an experience store (format={payload.get('format')!r})"
        )
    version = payload.get("version")
    if version == EXPERIENCE_VERSION:
        return payload
    raise CheckpointError(
        f"unsupported experience store version {version!r} "
        f"(this build reads <= {EXPERIENCE_VERSION})"
    )


def _supersedes(new: ExperienceRecord, old: ExperienceRecord) -> bool:
    """Whether ``new`` replaces ``old`` for the same fingerprint.

    Later drift regimes always win — a regime reset obsoletes what was
    learned under the old cost distribution — and within a regime more
    evidence wins.
    """
    if new.regime != old.regime:
        return new.regime > old.regime
    return new.sample_count >= old.sample_count


class ExperienceStore:
    """In-memory record set with crash-safe JSON persistence.

    ``path=None`` gives a memory-only store (useful for tests and the
    verify profile).  :meth:`open` never raises: a missing file is an
    empty store, a torn/corrupt file falls back to its ``.bak``, and
    if both are unusable the store starts empty with ``recovered``
    set so callers can surface the incident.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        records: Optional[Dict[str, ExperienceRecord]] = None,
        recovered: bool = False,
    ) -> None:
        self.path = path
        self._records: Dict[str, ExperienceRecord] = dict(records or {})
        #: True when :meth:`open` had to discard a corrupt store.
        self.recovered = recovered
        #: Records contributed since the last :meth:`save`.
        self.pending_writes = 0

    # ------------------------------------------------------------------
    # Record set
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> List[ExperienceRecord]:
        """All records, ordered by fingerprint (hash-seed stable)."""
        return [
            self._records[key] for key in sorted(self._records)
        ]

    def get(self, fingerprint: str) -> Optional[ExperienceRecord]:
        return self._records.get(fingerprint)

    def add(self, record: ExperienceRecord) -> bool:
        """Insert ``record``; returns True if it (re)placed the entry.

        For an existing fingerprint the supersession rule applies:
        higher regime wins, then greater-or-equal evidence.
        """
        current = self._records.get(record.fingerprint)
        if current == record:
            return False
        if current is not None and not _supersedes(record, current):
            return False
        self._records[record.fingerprint] = record
        self.pending_writes += 1
        return True

    def nearest(
        self,
        profile: FormProfile,
        k: int = 3,
        floor: float = 0.0,
        pattern_weight: float = DEFAULT_PATTERN_WEIGHT,
        similarity_weight: float = DEFAULT_SIMILARITY_WEIGHT,
    ) -> List[Neighbour]:
        """The ``k`` best records for ``profile`` above ``floor``.

        Ordering is ``(-score, fingerprint)`` — fully determined by
        the record set, never by dict iteration order — so rankings
        are identical across processes and ``PYTHONHASHSEED`` values.
        """
        scored = [
            Neighbour(
                record=record,
                score=similarity(
                    profile,
                    record.profile,
                    pattern_weight=pattern_weight,
                    similarity_weight=similarity_weight,
                ),
            )
            for record in self._records.values()
        ]
        eligible = [n for n in scored if n.score >= floor]
        eligible.sort(key=lambda n: (-n.score, n.record.fingerprint))
        return eligible[: max(0, k)]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        return {
            "format": EXPERIENCE_FORMAT,
            "version": EXPERIENCE_VERSION,
            "records": [record.to_dict() for record in self.records()],
        }

    @classmethod
    def from_payload(
        cls,
        payload: Dict[str, object],
        path: Optional[str] = None,
    ) -> "ExperienceStore":
        payload = migrate_experience_payload(payload)
        records: Dict[str, ExperienceRecord] = {}
        for raw in payload.get("records", []):
            record = ExperienceRecord.from_dict(raw)
            records[record.fingerprint] = record
        return cls(path=path, records=records)

    def save(self, path: Optional[str] = None) -> Optional[str]:
        """Atomically persist the store (same contract as PIB saves).

        Returns the path written, or ``None`` for a memory-only store.
        """
        target = path or self.path
        if target is not None:
            os.makedirs(os.path.dirname(os.path.abspath(target)),
                        exist_ok=True)
            write_json_atomically(target, self.to_payload())
        self.pending_writes = 0
        return target

    @staticmethod
    def _load_payload(path: str) -> Dict[str, object]:
        return read_json_checked(path, "experience store")

    @classmethod
    def open(cls, path: Optional[str]) -> "ExperienceStore":
        """Open ``path``, falling back to ``.bak``, then to empty.

        Warm-starting is an optimisation, so an unreadable store must
        never abort a session: both-files-corrupt degrades to an empty
        store with ``recovered=True`` (the next :meth:`save` rewrites
        a clean file).
        """
        if path is None:
            return cls(path=None)
        if not os.path.exists(path) and not os.path.exists(
            backup_path(path)
        ):
            return cls(path=path)
        try:
            return cls.from_payload(cls._load_payload(path), path=path)
        except CheckpointError:
            pass
        try:
            return cls.from_payload(
                cls._load_payload(backup_path(path)), path=path
            )
        except CheckpointError:
            return cls(path=path, recovered=True)
