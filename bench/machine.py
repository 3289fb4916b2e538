"""Machine-speed reference for the timed loop.

The machine this benchmark was written on switches between a fast and a
slow state that each last tens of seconds: the same order takes about 205 ms
in one and 290 ms in the other, and a 20 s run may fall wholly in either.
Raw medians of a run therefore spread by 10-15% from run to run, whatever
the run length.

To take that out, the loop times a fixed piece of reference work between
orders and scales each order's wall time by the reference's nominal time
over the reference time measured around it. The reference calls nothing in
agentmesh: Ed25519 verifies through `cryptography` directly, a plain Python
loop and, for `services`, HTTP round trips through the standard library,
the kinds of work an order spends its time on. No change under src/ can alter
it, so a faster program still reads faster. The unadjusted wall-clock
figures are printed and stored next to the adjusted ones.
"""

from __future__ import annotations

import hashlib
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# The reference's times, in ms, on the machine the benchmark was written on
# in its slow state, so adjusted figures read close to that state's wall
# clock there: the compute part, and one HTTP round trip.
COMPUTE_MS = 4.2
ROUND_TRIP_MS = 1.08


class _Echo(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt: str, *args) -> None:
        pass

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class Reference:
    """Ten Ed25519 verifies and a pure-Python integer loop, plus, for a
    workload that spends most of an order in HTTP RPCs, that many JSON POSTs
    over `urllib` to a `ThreadingHTTPServer` echo on localhost: the same
    standard-library path `agentmesh.services` uses. Of the candidates tried
    (each part alone and together, and a dict, f-string and sha256 mix),
    these tracked the order times best across the machine's states."""

    def __init__(self, round_trips: int = 0) -> None:
        key = Ed25519PrivateKey.from_private_bytes(hashlib.sha256(b"reference").digest())
        self._public = key.public_key()
        self._digest = hashlib.sha256(b"reference digest").digest()
        self._signature = key.sign(self._digest)
        self.round_trips = round_trips
        self.nominal_ms = COMPUTE_MS + round_trips * ROUND_TRIP_MS
        self._server = self._thread = None
        if round_trips:
            self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Echo)
            self._server.daemon_threads = True
            self._thread = threading.Thread(
                target=self._server.serve_forever, kwargs={"poll_interval": 0.05}
            )
            self._thread.start()
            self._url = "http://127.0.0.1:%d/echo" % self._server.server_address[1]

    def measure_ms(self) -> float:
        t0 = time.perf_counter()
        for _ in range(10):
            self._public.verify(self._signature, self._digest)
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        for _ in range(self.round_trips):
            request = urllib.request.Request(
                self._url, data=b'{"ping": 1}', headers={"Content-Type": "application/json"}
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                response.read()
        return (time.perf_counter() - t0) * 1000

    def speed_factors(self, reference_ms: list[float]) -> list[float]:
        """Scale for each order, given the reference times measured before
        the first order and after every order: the nominal time over the
        mean of the measurements on either side of it. (A median over a
        wider window of orders tracked worse where the machine changed
        state.)"""
        return [
            self.nominal_ms * 2 / (before + after)
            for before, after in zip(reference_ms, reference_ms[1:])
        ]

    def close(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._thread.join()
            self._server = None
