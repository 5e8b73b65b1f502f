"""One-shot framed TCP transfer for encrypted payloads.

Wire format: 4-byte big-endian length prefix followed by the payload
bytes.  Frames longer than the largest legal payload (FRAME_CAP, which is
pipeline.PAYLOAD_CAP: a header plus 65535 four-byte latents plus the ECIES
overhead, 262 201 bytes) are refused; send_file refuses a larger file
before reading it, and the receiver checks the payload magic before
writing anything to disk.
"""

import socket
import struct
import time

from .errors import BadHeaderError, FrameTooLargeError, IoError, atomic_write, read_file
from .pipeline import PAYLOAD_CAP, PAYLOAD_MAGIC

FRAME_CAP = PAYLOAD_CAP
CHUNK = 4096


def send_bytes(data: bytes, host: str, port: int, throttle: float | None = None) -> None:
    """Connect and send one frame; throttle is bytes per second."""
    if len(data) > FRAME_CAP:
        raise FrameTooLargeError(f"{len(data)} bytes exceeds {FRAME_CAP}")
    with socket.create_connection((host, port)) as sock:
        sock.sendall(struct.pack(">I", len(data)))
        if throttle is None:
            sock.sendall(data)
            return
        start = time.monotonic()
        sent = 0
        for off in range(0, len(data), CHUNK):
            sock.sendall(data[off : off + CHUNK])
            sent += min(CHUNK, len(data) - off)
            # sleep until the pacing schedule catches up
            due = sent / throttle
            elapsed = time.monotonic() - start
            if due > elapsed:
                time.sleep(due - elapsed)


def _recv_exact(sock: socket.socket, n: int, deadline: float | None) -> bytes:
    """Read exactly n bytes, all before the time.monotonic() deadline (None: no limit)."""
    buf = bytearray()
    while len(buf) < n:
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise IoError(f"timed out after {len(buf)}/{n} bytes")
            sock.settimeout(left)
        try:
            chunk = sock.recv(min(CHUNK, n - len(buf)))
        except TimeoutError as e:
            raise IoError(f"timed out after {len(buf)}/{n} bytes") from e
        if not chunk:
            raise IoError(f"connection closed after {len(buf)}/{n} bytes")
        buf.extend(chunk)
    return bytes(buf)


def recv_bytes(port: int, host: str = "", timeout: float | None = 30.0) -> bytes:
    """Accept one connection, read one frame, validate the payload magic.

    timeout bounds the wait for a connection, and then the whole frame:
    a sender that trickles bytes cannot hold the receiver longer.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as srv:
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind((host, port))
        srv.listen(1)
        srv.settimeout(timeout)
        try:
            conn, _ = srv.accept()
        except TimeoutError as e:
            raise IoError(f"no sender within {timeout} s") from e
        with conn:
            deadline = None if timeout is None else time.monotonic() + timeout
            (length,) = struct.unpack(">I", _recv_exact(conn, 4, deadline))
            if length > FRAME_CAP:
                raise FrameTooLargeError(f"announced frame of {length} bytes")
            data = _recv_exact(conn, length, deadline)
    if data[:4] != PAYLOAD_MAGIC:
        raise BadHeaderError("received frame lacks payload magic")
    return data


def send_file(path, host: str, port: int, throttle: float | None = None) -> None:
    send_bytes(read_file(path, PAYLOAD_CAP), host, port, throttle)


def recv_file(port: int, out_path, host: str = "", timeout: float | None = 30.0) -> int:
    data = recv_bytes(port, host, timeout)
    atomic_write(out_path, data)
    return len(data)
