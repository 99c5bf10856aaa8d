"""A small thread-safe bounded LRU with hit/miss instrumentation.

One implementation behind the four compile-side caches (fusion templates,
bound trajectory programs, stabilizer programs, transpile routing templates),
so lock discipline, eviction order and counter semantics cannot drift between
them.  Values must be immutable (they are returned to concurrent callers
unchanged).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

__all__ = ["BoundedLRU", "DEFAULT_CACHE_SIZE"]

#: Default entry bound shared by every compile-side cache; reconfigure with
#: :func:`~repro.simulators.gate.fusion.set_compile_cache_size`.
DEFAULT_CACHE_SIZE = 256

#: Absence sentinel: distinguishes "key not stored" from a stored value that
#: happens to be falsy (``None``, ``0``, ``""``) so such values still hit.
_MISSING = object()


class BoundedLRU:
    """Ordered key -> value cache, evicting oldest-first beyond ``maxsize``."""

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE):
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._maxsize = int(maxsize)
        self._hits = 0
        self._misses = 0

    def lookup(self, key: Any) -> Optional[Any]:
        """Return the cached value (counted as a hit) or ``None`` (a miss)."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return None
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def __contains__(self, key: Any) -> bool:
        """Membership probe that does not touch the hit/miss counters."""
        with self._lock:
            return key in self._data

    def store(self, key: Any, value: Any) -> None:
        """Insert *value* as the newest entry, evicting beyond the bound."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)

    def set_maxsize(self, maxsize: int) -> None:
        """Rebound the cache, evicting oldest-first immediately if shrunk."""
        with self._lock:
            self._maxsize = int(maxsize)
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0

    def info(self) -> Dict[str, int]:
        """Snapshot of ``hits`` / ``misses`` / ``entries`` / ``maxsize``."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "entries": len(self._data),
                "maxsize": self._maxsize,
            }
