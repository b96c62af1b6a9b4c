"""Concurrent ``QueryServer.query`` calls for serving tests.

The server answers each request on the calling thread, so tests that
need requests side by side run each call on its own thread, the way
concurrent HTTP handler threads do.
"""

import threading
import time


class Calls(object):
    """One thread per request, each calling ``server.query``."""

    def __init__(self, server, requests):
        self.responses = [None] * len(requests)
        self._started = 0
        self._lock = threading.Lock()
        self._threads = [
            threading.Thread(
                target=self._call,
                args=(server, index, request),
                name="call-%d" % index,
                daemon=True,
            )
            for index, request in enumerate(requests)
        ]
        for thread in self._threads:
            thread.start()

    def _call(self, server, index, request):
        with self._lock:
            self._started += 1
        self.responses[index] = server.query(request)

    def started(self) -> int:
        """Threads that have reached their ``query`` call."""
        with self._lock:
            return self._started

    def answered(self) -> list:
        """The responses returned so far."""
        return [r for r in self.responses if r is not None]

    def join(self, timeout: float = 30.0) -> list:
        """Every response, once every call has returned."""
        for thread in self._threads:
            thread.join(timeout)
        hung = [thread.name for thread in self._threads if thread.is_alive()]
        assert not hung, "QueryServer.query never returned on %s" % hung
        return list(self.responses)


def wait_until(predicate, timeout: float = 30.0) -> None:
    """Poll ``predicate`` until it holds; fail (not hang) if it never
    does.  The timeout only guards against a hang."""
    give_up = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < give_up, "condition never held"
        time.sleep(0.001)
