"""Competing-risks observations (t_i, delta_i) and file ingestion.

A bivariate pair (x, y) is observed only through the first failure:
t = min(x, y) together with the failure mode

* delta = 0: simultaneous failure (x = y), a genuine event here;
* delta = 1: risk 1 first (x < y);
* delta = 2: risk 2 first (y < x);
* delta = 3: neither seen by the fixed censoring time C (Type-I).

The per-mode counts m0..m3 are always recomputed from the records, never
trusted from input. Data objects are immutable after construction (arrays are
frozen), so they are freely shareable and safely cacheable.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, ValidationError

__all__ = [
    "FailureMode",
    "CompetingRisksRecord",
    "CompetingRisksData",
    "from_bivariate",
    "load_csv",
    "save_csv",
]


class FailureMode(enum.IntEnum):
    TIE = 0
    RISK1_FIRST = 1
    RISK2_FIRST = 2
    CENSORED = 3


_DELTA_CODES = tuple(FailureMode)


@dataclass(frozen=True)
class CompetingRisksRecord:
    """A single observation: time t > 0 and failure mode delta."""

    t: float
    delta: FailureMode

    def __post_init__(self):
        t = float(self.t)
        if not (t > 0.0) or not np.isfinite(t):
            raise ValidationError(f"record time must be positive finite, got {t!r}")
        object.__setattr__(self, "t", t)
        try:
            delta = FailureMode(self.delta)
        except (TypeError, ValueError):
            raise ValidationError(
                f"record delta must be one of 0, 1, 2, 3, got {self.delta!r}"
            ) from None
        object.__setattr__(self, "delta", delta)


class CompetingRisksData:
    """An immutable collection of competing-risks records.

    Parameters
    ----------
    t : array-like of float
        Observation times, all > 0 and finite.
    delta : array-like of int
        Failure modes, values in {0, 1, 2, 3}.
    censoring_time : float, optional
        The Type-I censoring time C. Required to be consistent with the
        records: every delta=3 record must have t = C, and no failure may be
        recorded after C (a failure at exactly C counts). When omitted and
        censored records exist, C is inferred from their (necessarily equal)
        times.
    """

    __slots__ = ("t", "delta", "censoring_time", "m0", "m1", "m2", "m3", "_cache")

    def __init__(self, t, delta, censoring_time=None):
        t = np.ascontiguousarray(t, dtype=np.float64)
        delta = np.asarray(delta)
        if t.ndim != 1 or delta.ndim != 1 or t.shape != delta.shape:
            raise ValidationError("t and delta must be 1-D arrays of equal length")
        if t.size == 0:
            raise ValidationError("no records")
        if not np.all(np.isfinite(t)) or not np.all(t > 0.0):
            raise ValidationError("all observation times must be positive finite")
        # checked before the int8 cast, which would wrap 256 to 0 and
        # truncate 1.5 to 1
        if delta.dtype.kind not in "iuf" or not np.all(np.isin(delta, _DELTA_CODES)):
            raise ValidationError("delta values must be integers in {0, 1, 2, 3}")
        delta = np.ascontiguousarray(delta, dtype=np.int8)

        counts = np.bincount(delta, minlength=4)
        censored_times = t[delta == FailureMode.CENSORED]
        if censored_times.size:
            first = float(censored_times[0])
            if np.any(censored_times != first):
                raise ValidationError("censored times differ")
            if censoring_time is None:
                censoring_time = first
            elif float(censoring_time) != first:
                raise ValidationError(
                    f"censored times differ from the declared censoring time "
                    f"({first!r} vs {float(censoring_time)!r})"
                )
        if censoring_time is not None:
            censoring_time = float(censoring_time)
            if not (censoring_time > 0.0) or not np.isfinite(censoring_time):
                raise DomainError("censoring time must be positive finite")
            late = t[delta != FailureMode.CENSORED] > censoring_time
            if np.any(late):
                raise ValidationError(
                    f"{int(np.count_nonzero(late))} failure(s) recorded after the "
                    f"censoring time {censoring_time!r}"
                )

        t.flags.writeable = False
        delta.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "censoring_time", censoring_time)
        object.__setattr__(self, "m0", int(counts[0]))
        object.__setattr__(self, "m1", int(counts[1]))
        object.__setattr__(self, "m2", int(counts[2]))
        object.__setattr__(self, "m3", int(counts[3]))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("CompetingRisksData is immutable")

    @property
    def n(self) -> int:
        return self.t.size

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (self.m0, self.m1, self.m2, self.m3)

    @property
    def n_failures(self) -> int:
        """Number of uncensored records, m0 + m1 + m2."""
        return self.m0 + self.m1 + self.m2

    @property
    def records(self) -> tuple[CompetingRisksRecord, ...]:
        """The observations as record objects (materialized on demand; the
        vectorized ``t``/``delta`` arrays are the primary representation)."""
        cached = self._cache.get("records")
        if cached is None:
            cached = tuple(
                CompetingRisksRecord(float(ti), FailureMode(int(di)))
                for ti, di in zip(self.t, self.delta)
            )
            self._cache["records"] = cached
        return cached

    @classmethod
    def from_records(cls, records, censoring_time=None) -> "CompetingRisksData":
        pairs = [
            (r.t, int(r.delta)) if isinstance(r, CompetingRisksRecord) else (r[0], int(r[1]))
            for r in records
        ]
        if not pairs:
            raise ValidationError("no records")
        t, delta = zip(*pairs)
        return cls(t, delta, censoring_time=censoring_time)

    def __repr__(self):
        c = f", censoring_time={self.censoring_time!r}" if self.censoring_time else ""
        return (
            f"CompetingRisksData(n={self.n}, m0={self.m0}, m1={self.m1}, "
            f"m2={self.m2}, m3={self.m3}{c})"
        )


def from_bivariate(pairs, censoring_time=None) -> CompetingRisksData:
    """Convert bivariate pairs (x, y) to competing-risks records.

    t = min(x, y) and delta classifies the ordering; with a censoring time C,
    pairs whose minimum exceeds C become (C, delta=3). A failure landing
    exactly at C counts as a failure, not censored.

    Parameters
    ----------
    pairs : array-like of shape (n, 2)
        Strictly positive coordinates, e.g. the output of
        :func:`bvf.bvf_model.sample`.
    censoring_time : float, optional
        Type-I censoring threshold C > 0; omit for complete data.
    """
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError("pairs must be an (n, 2) array of coordinates")
    if arr.shape[0] == 0:
        raise ValidationError("no records")
    if not np.all(arr > 0.0):
        raise DomainError("all coordinates must be strictly positive")
    c = None
    if censoring_time is not None:
        c = float(censoring_time)
        if not (c > 0.0) or not np.isfinite(c):
            raise DomainError("censoring time must be positive finite")
    t, delta = _first_failure(arr[:, 0], arr[:, 1], c)
    return CompetingRisksData(t, delta, censoring_time=censoring_time)


def _first_failure(x, y, censoring_time):
    """The rule of :func:`from_bivariate` on coordinate arrays of any equal
    shape: t = min(x, y), delta from the ordering (exact equality is a tie),
    and with a censoring time C every minimum beyond C becomes (C, 3)."""
    t = np.minimum(x, y)
    delta = np.where(x < y, 1, np.where(y < x, 2, 0)).astype(np.int8)
    if censoring_time is not None:
        censored = t > censoring_time
        t = np.where(censored, censoring_time, t)
        delta[censored] = FailureMode.CENSORED
    return t, delta


_HEADER = "t,delta"


def load_csv(path) -> CompetingRisksData:
    """Read competing-risks data from CSV.

    Format: UTF-8, header ``t,delta``, one record per line, ``#`` starts a
    comment line, blank lines ignored. Times must parse as positive decimals
    and delta as an integer in {0, 1, 2, 3}. All delta=3 rows must share one
    time value (the censoring time).

    Raises
    ------
    ParseError
        On malformed content, with the offending line number.
    ValidationError
        On structurally valid but inconsistent content (no records, censored
        times differing, a failure recorded after the censoring time).
    """
    times: list[float] = []
    deltas: list[int] = []
    header_seen = False
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line.replace(" ", "") != _HEADER:
                    raise ParseError(
                        f"expected header {_HEADER!r}, got {line!r}", lineno
                    )
                header_seen = True
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise ParseError(
                    f"expected 2 comma-separated fields, got {len(fields)}", lineno
                )
            try:
                t = float(fields[0])
            except ValueError:
                raise ParseError(f"invalid time {fields[0]!r}", lineno) from None
            if not (t > 0.0) or not np.isfinite(t):
                raise ParseError(f"time must be positive finite, got {fields[0]!r}", lineno)
            try:
                d = int(fields[1])
            except ValueError:
                raise ParseError(f"invalid delta {fields[1]!r}", lineno) from None
            if d not in (0, 1, 2, 3):
                raise ParseError(f"delta must be in 0..3, got {d}", lineno)
            times.append(t)
            deltas.append(d)
    if not header_seen:
        raise ParseError(f"missing header {_HEADER!r}")
    if not times:
        raise ValidationError("no records")
    return CompetingRisksData(times, deltas)


def save_csv(data: CompetingRisksData, path) -> None:
    """Write data in the :func:`load_csv` format. Times are written with
    ``repr`` so the save/load round trip is bit-exact."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_HEADER + "\n")
        for t, d in zip(data.t, data.delta):
            fh.write(f"{float(t)!r},{int(d)}\n")
