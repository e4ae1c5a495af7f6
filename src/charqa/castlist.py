"""Principal character list built from subtitle speaker counts.

Speakers are counted across the corpus; a name enters the cast when its
count strictly exceeds min_count and reaches max_ratio of the most frequent
speaker's count.  Everything else maps to a trailing UNKNAME class, so the
naming label space has k+1 entries.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import ConfigError, EmptyCastError

UNKNAME = "UNKNAME"

# Thresholds tuned for full-season subtitle volumes (~152500 lines); desk
# corpora scale min_count down proportionally, floor 2.
DEFAULT_MIN_COUNT = 500
DEFAULT_MAX_RATIO = 1.0 / 10.0
REFERENCE_TOTAL_LINES = 152500


@dataclass(frozen=True)
class CastList:
    names: tuple[str, ...]
    counts: tuple[int, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.names) != len(set(self.names)):
            raise ValueError("cast names must be unique")
        if len(self.names) != len(self.counts):
            raise ValueError("names and counts must align")
        if any(self.counts[i] < self.counts[i + 1] for i in range(len(self.counts) - 1)):
            raise ValueError("counts must be descending")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.names)})

    @property
    def k(self) -> int:
        return len(self.names)

    @property
    def unk_index(self) -> int:
        return len(self.names)

    @property
    def size(self) -> int:
        """Label space size, k principals plus UNKNAME."""
        return len(self.names) + 1

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def label_names(self) -> tuple[str, ...]:
        return self.names + (UNKNAME,)

    def to_dict(self) -> dict:
        return {"names": list(self.names), "counts": list(self.counts), "k": self.k}

    @classmethod
    def from_dict(cls, d: dict) -> "CastList":
        return cls(tuple(d["names"]), tuple(int(c) for c in d["counts"]))


def count_speakers(clips) -> dict[str, int]:
    """Exact multiset count of speaker fields across all subtitle lines."""
    counts: Counter[str] = Counter()
    for clip in clips:
        for line in clip.subtitles:
            counts[line.speaker] += 1
    return dict(counts)


def build_cast_list(counts: dict[str, int],
                    min_count: int | None = DEFAULT_MIN_COUNT,
                    max_ratio: float = DEFAULT_MAX_RATIO) -> CastList:
    """Select principals: count > min_count and count >= max_ratio * max count.

    min_count None scales the full-season rule to the counted lines (see
    scaled_min_count). The ratio uses the maximum over all speakers, not just
    survivors of the first filter.  Principals are ordered by count
    descending, ties broken lexicographically by name.
    """
    check_thresholds(min_count, max_ratio)
    if min_count is None:
        min_count = scaled_min_count(sum(counts.values()))
    if not counts:
        raise EmptyCastError("no speakers counted")
    max_count = max(counts.values())
    principals = [
        (name, c) for name, c in counts.items()
        if c > min_count and c >= max_ratio * max_count
    ]
    if not principals:
        raise EmptyCastError(
            f"no speaker passed the filters (min_count={min_count}, "
            f"max_ratio={max_ratio}, max count seen={max_count})"
        )
    principals.sort(key=lambda nc: (-nc[1], nc[0]))
    names = tuple(n for n, _ in principals)
    kept = tuple(c for _, c in principals)
    return CastList(names, kept)


def check_thresholds(min_count: int | None, max_ratio: float) -> None:
    """ConfigError unless min_count is None or >= 1 and max_ratio lies in (0, 1]."""
    if min_count is not None and min_count < 1:
        raise ConfigError("min_count must be >= 1")
    if not 0.0 < max_ratio <= 1.0:
        raise ConfigError("max_ratio must lie in (0, 1]")


def map_speaker(name: str, cast: CastList) -> int:
    """Exact-string match to a principal's index; anything else is UNKNAME."""
    return cast._index.get(name, cast.unk_index)


def scaled_min_count(total_lines: int) -> int:
    """min_count shrunk proportionally for corpora smaller than a full season."""
    if total_lines < 0:
        raise ValueError("total_lines must be >= 0")
    return max(2, math.ceil(DEFAULT_MIN_COUNT * total_lines / REFERENCE_TOTAL_LINES))


__all__ = [
    "UNKNAME", "DEFAULT_MIN_COUNT", "DEFAULT_MAX_RATIO", "REFERENCE_TOTAL_LINES",
    "CastList", "count_speakers", "build_cast_list", "check_thresholds", "map_speaker",
    "scaled_min_count",
]
