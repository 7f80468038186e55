"""Token-bucket rate limiting for the scheduling gateway.

Admission control is the difference between "one tenant scripted a loop"
and "the gateway is down for everyone": every tenant gets an independent
:class:`TokenBucket` (capacity ``burst``, refilled at ``rate`` tokens per
second), each request costs one token, and an empty bucket turns into an
HTTP **429** with a ``Retry-After`` header computed from the refill rate —
clients can back off precisely instead of hammering.

The clock is injectable, so tests drive the buckets deterministically
without sleeping.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable


class TokenBucket:
    """One token bucket: ``burst`` capacity, ``rate`` tokens/second refill."""

    def __init__(self, rate: float, burst: float, clock: Callable[[], float] = time.monotonic):
        if rate <= 0:
            raise ValueError(f"rate must be > 0 tokens/second, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1 token, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()
        self._lock = threading.Lock()

    def try_acquire(self) -> float:
        """Take one token if available.

        Returns ``0.0`` when admitted, otherwise the number of seconds until
        the bucket will have refilled enough — the ``Retry-After`` value.
        """
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst, self._tokens + (now - self._updated) * self.rate)
            self._updated = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return 0.0
            return (1.0 - self._tokens) / self.rate


class RateLimiter:
    """Per-key (per-tenant) token buckets sharing one rate/burst policy."""

    def __init__(
        self,
        rate: float = 20.0,
        burst: float = 40.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        # Validate eagerly so a bad CLI flag fails at startup, not on the
        # first request.
        TokenBucket(rate, burst, clock)
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self._lock = threading.Lock()

    def check(self, key: str) -> float:
        """Charge one request to ``key``'s bucket.

        Returns ``0.0`` when admitted, else the retry-after in seconds.
        """
        with self._lock:
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, self._clock)
                self._buckets[key] = bucket
        return bucket.try_acquire()

    @staticmethod
    def retry_after_header(delay: float) -> str:
        """``Retry-After`` is specified in whole seconds; round up, min 1."""
        return str(max(1, math.ceil(delay)))
