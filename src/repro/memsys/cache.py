"""Set-associative cache model with LRU replacement.

Used for both L1 slices (software-managed, write-through) and L2
partitions.  The cache stores, per line, the functional *version* of the
data it holds (see DESIGN.md Section 6) plus flags the protocols need:
dirty (for writeback configurations) and whether the line's home is a
remote node (so bulk software invalidations can target exactly the
remotely-homed lines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional


class CacheLine:
    """Metadata for one resident cache line."""

    __slots__ = ("line", "version", "dirty", "remote")

    def __init__(self, line: int, version: int = 0, dirty: bool = False,
                 remote: bool = False):
        self.line = line
        self.version = version
        self.dirty = dirty
        self.remote = remote

    def __repr__(self) -> str:
        flags = ("D" if self.dirty else "") + ("R" if self.remote else "")
        return f"CacheLine({self.line}, v{self.version}{',' + flags if flags else ''})"


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/invalidation counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidated_lines: int = 0
    bulk_invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another cache's counters into this one."""
        self.hits += other.hits
        self.misses += other.misses
        self.fills += other.fills
        self.evictions += other.evictions
        self.dirty_evictions += other.dirty_evictions
        self.invalidated_lines += other.invalidated_lines
        self.bulk_invalidations += other.bulk_invalidations


class SetAssociativeCache:
    """A set-associative cache of line indices with true-LRU replacement.

    Keys are *line indices* (byte address >> line bits), not byte
    addresses; set index uses the low bits of the line index.  Python
    dict insertion order implements the LRU stack: most-recently-used
    lines sit at the end of their set's dict.
    """

    __slots__ = ("name", "ways", "num_sets", "line_size", "_sets",
                 "_set_mask", "stats")

    def __init__(self, capacity_bytes: int, line_size: int, ways: int,
                 name: str = "cache"):
        if capacity_bytes < line_size * ways:
            raise ValueError(
                f"{name}: capacity {capacity_bytes}B cannot hold one set "
                f"of {ways} x {line_size}B lines"
            )
        total_lines = capacity_bytes // line_size
        if total_lines % ways:
            raise ValueError(f"{name}: capacity must be a whole number of sets")
        self.name = name
        self.ways = ways
        self.num_sets = total_lines // ways
        self.line_size = line_size
        self._sets: list[dict[int, CacheLine]] = [
            {} for _ in range(self.num_sets)
        ]
        # Power-of-two set counts (the common case) index with a mask
        # instead of a modulo on the hot lookup/fill path.
        self._set_mask = (
            self.num_sets - 1
            if self.num_sets & (self.num_sets - 1) == 0
            else None
        )
        self.stats = CacheStats()

    # ------------------------------------------------------------------

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.ways

    def _set_for(self, line: int) -> dict:
        # Fibonacci multiplicative hashing of the line index: strided
        # access patterns (ubiquitous in GPU workloads) would otherwise
        # pile onto a handful of sets.  Real GPU L2s hash set indices
        # for the same reason.  The hot accessors (lookup/fill/peek/
        # invalidate) inline this computation; keep the two in sync.
        mixed = (line * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        if self._set_mask is not None:
            return self._sets[(mixed >> 33) & self._set_mask]
        return self._sets[(mixed >> 33) % self.num_sets]

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def __contains__(self, line: int) -> bool:
        return line in self._set_for(line)

    def lines(self) -> Iterator[CacheLine]:
        """Iterate over all resident lines (no particular order)."""
        for s in self._sets:
            yield from s.values()

    # ------------------------------------------------------------------

    def lookup(self, line: int, touch: bool = True) -> Optional[CacheLine]:
        """Probe for a line; counts a hit or miss.  ``touch`` updates LRU."""
        mixed = (line * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        mask = self._set_mask
        if mask is not None:
            cset = self._sets[(mixed >> 33) & mask]
        else:
            cset = self._sets[(mixed >> 33) % self.num_sets]
        entry = cset.get(line)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if touch:
            del cset[line]
            cset[line] = entry
        return entry

    def peek(self, line: int) -> Optional[CacheLine]:
        """Probe without counting statistics or updating LRU."""
        mixed = (line * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        mask = self._set_mask
        if mask is not None:
            return self._sets[(mixed >> 33) & mask].get(line)
        return self._sets[(mixed >> 33) % self.num_sets].get(line)

    def fill(self, line: int, version: int, dirty: bool = False,
             remote: bool = False) -> Optional[CacheLine]:
        """Insert a line, returning the evicted victim (if any).

        If the line is already resident its metadata is refreshed in
        place and ``None`` is returned.
        """
        mixed = (line * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        mask = self._set_mask
        if mask is not None:
            cset = self._sets[(mixed >> 33) & mask]
        else:
            cset = self._sets[(mixed >> 33) % self.num_sets]
        existing = cset.pop(line, None)
        if existing is not None:
            if version > existing.version:
                existing.version = version
            existing.dirty = existing.dirty or dirty
            existing.remote = remote
            cset[line] = existing
            return None
        stats = self.stats
        victim = None
        if len(cset) >= self.ways:
            victim = cset.pop(next(iter(cset)))
            stats.evictions += 1
            if victim.dirty:
                stats.dirty_evictions += 1
        cset[line] = CacheLine(line, version, dirty, remote)
        stats.fills += 1
        return victim

    #: Store into the cache (allocate-on-write): a fill, under the name
    #: the write paths read better with.
    write = fill

    def invalidate(self, line: int) -> Optional[CacheLine]:
        """Drop a single line if present, returning it."""
        mixed = (line * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        mask = self._set_mask
        if mask is not None:
            cset = self._sets[(mixed >> 33) & mask]
        else:
            cset = self._sets[(mixed >> 33) % self.num_sets]
        entry = cset.pop(line, None)
        if entry is not None:
            self.stats.invalidated_lines += 1
        return entry

    def invalidate_where(
        self, predicate: Callable[[CacheLine], bool]
    ) -> list[CacheLine]:
        """Bulk-invalidate all lines matching ``predicate``.

        Used by the software protocols' acquire-time flash invalidations
        (e.g. "drop every remotely-homed line").  Returns dropped lines
        so callers can account dirty writebacks.
        """
        dropped: list[CacheLine] = []
        for cset in self._sets:
            if not cset:
                continue
            doomed = [ln for ln, entry in cset.items() if predicate(entry)]
            for ln in doomed:
                dropped.append(cset.pop(ln))
        self.stats.invalidated_lines += len(dropped)
        self.stats.bulk_invalidations += 1
        return dropped

    def invalidate_remote(self) -> list[CacheLine]:
        """Bulk-invalidate every remotely-homed line.

        ``invalidate_where(lambda e: e.remote)`` without a Python call
        per resident line: the software protocols' acquire-time flash
        invalidation of remote data.
        """
        dropped: list[CacheLine] = []
        for cset in self._sets:
            if not cset:
                continue
            doomed = [ln for ln, entry in cset.items() if entry.remote]
            for ln in doomed:
                dropped.append(cset.pop(ln))
        self.stats.invalidated_lines += len(dropped)
        self.stats.bulk_invalidations += 1
        return dropped

    def invalidate_all(self) -> list[CacheLine]:
        """Flash-clear the whole cache (L1 on acquire).

        Equivalent to ``invalidate_where(lambda e: True)`` but skips the
        per-entry predicate calls; acquire-heavy workloads flash L1
        slices constantly.
        """
        dropped: list[CacheLine] = []
        for cset in self._sets:
            if cset:
                dropped.extend(cset.values())
                cset.clear()
        self.stats.invalidated_lines += len(dropped)
        self.stats.bulk_invalidations += 1
        return dropped

    def clear_stats(self) -> None:
        """Reset the hit/miss/invalidation counters."""
        self.stats = CacheStats()


class NullCache(SetAssociativeCache):
    """A cache that never holds anything — every lookup misses.

    Stands in for the L2's remote-data capacity under the
    no-remote-caching baseline without special-casing call sites.
    """

    __slots__ = ()

    def __init__(self, line_size: int = 128, name: str = "null"):
        super().__init__(line_size, line_size, 1, name=name)

    def lookup(self, line: int, touch: bool = True) -> Optional[CacheLine]:
        self.stats.misses += 1
        return None

    def peek(self, line: int) -> Optional[CacheLine]:
        return None

    def fill(self, line: int, version: int, dirty: bool = False,
             remote: bool = False) -> Optional[CacheLine]:
        return None

    write = fill
