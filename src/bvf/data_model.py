"""Competing-risks observations (t_i, delta_i) and file ingestion.

A bivariate pair (x, y) is observed only through the first failure:
t = min(x, y) together with the failure mode

* delta = 0: simultaneous failure (x = y), a genuine event here;
* delta = 1: risk 1 first (x < y);
* delta = 2: risk 2 first (y < x);
* delta = 3: neither seen by the fixed censoring time C (Type-I).

A dataset is held as two frozen arrays, ``t`` and ``delta``, one entry per
record. The per-mode counts m0..m3 are always recomputed from them, never
trusted from input. Data objects are immutable after construction, so they are
freely shareable and safely cacheable.
"""

import enum

import numpy as np

from .errors import DomainError, ParseError, ValidationError

__all__ = [
    "FailureMode",
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

# the censored code as int8, the dtype of delta: comparing an int8 array with
# the IntEnum member itself would cast every record to int64 first
_CENSORED = np.int8(FailureMode.CENSORED)


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
        censored_times = t[delta == _CENSORED]
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
            late = t[delta != _CENSORED] > censoring_time
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
    # 1 where x < y, 2 where y < x, 0 on a tie
    delta = (x < y).view(np.int8) + 2 * (y < x).view(np.int8)
    if censoring_time is not None:
        censored = t > censoring_time
        np.minimum(t, censoring_time, out=t)
        # every code is at most 3, so or-ing in 3 makes it CENSORED; a plain
        # 3 keeps the product int8, where the IntEnum member would make it int64
        delta |= 3 * censored.view(np.int8)
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


def _csv_text(data: CompetingRisksData) -> str:
    """The :func:`load_csv` format of ``data``. Times are written with
    ``repr`` so the save/load round trip is bit-exact."""
    lines = [f"{float(t)!r},{int(d)}\n" for t, d in zip(data.t, data.delta)]
    return _HEADER + "\n" + "".join(lines)


def save_csv(data: CompetingRisksData, path) -> None:
    """Write data in the :func:`load_csv` format (bit-exact on reload)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_csv_text(data))
