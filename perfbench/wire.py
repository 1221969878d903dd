"""The load generator's side of the daemon: spawn it, speak v2 to it.

:class:`Daemon` runs ``python -m repro serve`` in its own process, as a
user would, and times set-up from spawn until the welcome arrives.
:class:`Wire` is one blocking v2 connection built from the public codec
in :mod:`repro.service.framing`.  The benchmark does not drive the
daemon through ``CheckerClient`` because it needs what that client keeps
inside: the send and ack time of every frame, and one reader thread
collecting pushes while another thread sends on the same socket.
"""

from __future__ import annotations

import re
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import ROOT, at_reference_speed, calibration_seconds, child_env, vm_hwm_mb

from repro.service.framing import (
    CLIENT_KIND_OF_TYPE,
    FRAME_MAGIC0,
    HEADER_SIZE,
    decode_frame_header,
    decode_frame_payload,
    encode_hello_frame,
    encode_json_frame,
)
from repro.service.protocol import decode_line

_LISTEN = re.compile(rb"listening on ([\d.]+):(\d+)")
_METRICS = re.compile(rb"metrics on http://([\d.]+):(\d+)/metrics")


class Wire:
    """One v2 connection: hello handshake, frames out, messages in."""

    def __init__(self, host: str, port: int, *, timeout: float = 120.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()
        self._seq = 0
        first = self.read()
        if first.get("type") != "welcome" or 2 not in first.get("protocols", ()):
            raise RuntimeError(f"daemon did not offer protocol v2: {first!r}")
        self.sock.sendall(encode_hello_frame("perfbench"))
        confirm = self.read()
        if confirm.get("type") != "welcome" or confirm.get("protocol") != 2:
            raise RuntimeError(f"v2 upgrade refused: {confirm!r}")

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def request(self, message: Dict[str, Any], seq: Optional[int] = None) -> int:
        """Send one control message under ``seq`` (fresh when None)."""
        seq = self.next_seq() if seq is None else seq
        self.send(
            encode_json_frame(CLIENT_KIND_OF_TYPE[message["type"]], dict(message, seq=seq))
        )
        return seq

    def call(self, message: Dict[str, Any], expect: str) -> Dict[str, Any]:
        """A request and its reply; anything else read meanwhile is dropped."""
        seq = self.request(message)
        while True:
            reply = self.read()
            if reply.get("type") == "error":
                raise RuntimeError(f"daemon error: {reply.get('message')}")
            if reply.get("type") == expect and reply.get("seq") == seq:
                return reply

    def read(self) -> Dict[str, Any]:
        """The next message, framed or (only the first welcome) ndjson."""
        self._fill(1)
        if self._buffer[0] != FRAME_MAGIC0:
            while b"\n" not in self._buffer:
                self._recv()
            end = self._buffer.index(b"\n") + 1
            line = bytes(self._buffer[:end])
            del self._buffer[:end]
            return decode_line(line)
        self._fill(HEADER_SIZE)
        kind, length = decode_frame_header(bytes(self._buffer[:HEADER_SIZE]))
        self._fill(HEADER_SIZE + length)
        payload = bytes(self._buffer[HEADER_SIZE : HEADER_SIZE + length])
        del self._buffer[: HEADER_SIZE + length]
        return decode_frame_payload(kind, payload)

    def _fill(self, n: int) -> None:
        while len(self._buffer) < n:
            self._recv()

    def _recv(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self._buffer += chunk

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class Daemon:
    """``python -m repro serve`` in a child process, on ephemeral ports."""

    def __init__(self, flags: List[str], log_path: Path) -> None:
        self.flags = flags
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.address: Tuple[str, int] = ("127.0.0.1", 0)
        self.http: Tuple[str, int] = ("127.0.0.1", 0)
        self.setup_s = 0.0
        self.setup_calib_s: List[float] = []

    def start(self) -> Wire:
        """Spawn, connect, and return the upgraded connection.

        ``setup_s`` runs from the spawn until the welcome is read: the
        time before the first transaction could be checked.  The
        calibration loops run just before the spawn and just after the
        welcome are kept in ``setup_calib_s``.
        """
        calib_before = calibration_seconds()
        t0 = time.perf_counter()
        with self.log_path.open("ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
                 "--port", "0", "--http-port", "0", *self.flags],
                cwd=ROOT,
                env=child_env(),
                stdout=subprocess.PIPE,
                stderr=log,
            )
        assert self.proc.stdout is not None
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"daemon exited before listening; see {self.log_path}")
            if (m := _LISTEN.search(line)) is not None:
                self.address = (m.group(1).decode(), int(m.group(2)))
            elif (m := _METRICS.search(line)) is not None:
                self.http = (m.group(1).decode(), int(m.group(2)))
                break
        wire = Wire(*self.address)
        self.setup_s = time.perf_counter() - t0
        self.setup_calib_s = [calib_before, calibration_seconds()]
        return wire

    def setup_at_reference_speed(self) -> float:
        """``setup_s`` scaled by the calibration loops around it.

        A spawn lasts a fraction of a second, so like an offline check it
        falls in one of the host's speed phases; see
        :func:`common.at_reference_speed`.
        """
        return at_reference_speed(self.setup_s, self.setup_calib_s)

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        return vm_hwm_mb(self.proc.pid)

    def stop(self, wire: Optional[Wire], timeout: float = 60.0) -> Optional[Dict[str, Any]]:
        """Shut down over the wire (graceful), else kill; always reap.

        Returns the final ``result`` message when the graceful path got one.
        """
        result = None
        if wire is not None:
            try:
                wire.send(encode_json_frame(CLIENT_KIND_OF_TYPE["shutdown"], {"type": "shutdown"}))
                wire.sock.settimeout(timeout)
                while True:
                    message = wire.read()
                    if message.get("type") == "result":
                        result = message
                    if message.get("type") == "bye":
                        break
            except (OSError, ValueError):  # a dead socket, or a torn frame
                pass
            wire.close()
        if self.proc is not None:
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            if self.proc.stdout is not None:
                self.proc.stdout.close()
        return result


def setup_only(flags: List[str], log_path: Path) -> float:
    """Spawn a daemon, time its set-up, shut it down; returns the set-up
    time at the reference host speed."""
    daemon = Daemon(flags, log_path)
    wire = None
    try:
        wire = daemon.start()
    finally:
        daemon.stop(wire)
    return daemon.setup_at_reference_speed()
