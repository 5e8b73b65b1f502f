"""One-shot framed TCP transfer for encrypted payloads.

Wire format: 4-byte big-endian length prefix followed by the payload
bytes.  A frame must be a payload that decrypt accepts: at most
wire.PAYLOAD_CAP (262 201) bytes, and passing wire.header_fields' rules
(magic, version, header fields, a body of 4m + 49 bytes).
send_file checks the cap before reading its file and the header rules
before connecting; the receiver checks both on the length prefix and the
12 header bytes, before it waits for the body.
"""

import socket
import struct
import time

from .errors import BadHeaderError, FrameTooLargeError, IoError, atomic_write, read_file
from .wire import HEADER_LEN, PAYLOAD_CAP, header_fields

CHUNK = 4096
TIMEOUT = 30.0  # seconds: send's bound on the connect and on each chunk, recv's default


def send_bytes(data: bytes, host: str, port: int, throttle: float | None = None) -> None:
    """Connect and send one frame in CHUNK-byte pieces; throttle is bytes per second.
    data is not checked: send_file passes only a payload recv would accept.

    TIMEOUT bounds the connect and each chunk, so a receiver that stops reading
    raises IoError instead of holding the sender forever, as a refused, unreachable
    or unresolved destination does; each names it as host:port, or [host]:port for IPv6.
    """
    dest = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
    sent = 0
    try:
        with socket.create_connection((host, port), timeout=TIMEOUT) as sock:
            sock.sendall(struct.pack(">I", len(data)))
            start = time.monotonic()
            for sent in range(0, len(data), CHUNK):
                sock.sendall(data[sent : sent + CHUNK])
                if throttle is not None:  # sleep until the pacing schedule catches up
                    time.sleep(max(0.0, min(sent + CHUNK, len(data)) / throttle - (time.monotonic() - start)))
    except TimeoutError as e:
        raise IoError(f"send to {dest} timed out after {sent} of {len(data)} bytes") from e
    except OSError as e:
        raise IoError(f"cannot send to {dest}: {e}") from e


def _recv_exact(sock: socket.socket, n: int, deadline: float) -> bytes:
    """Read exactly n bytes, all before the time.monotonic() deadline."""
    buf = bytearray()
    while len(buf) < n:
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


def listen(port: int) -> socket.socket:
    """A socket listening on port, or for port 0 on one the kernel picks, for IPv6 and IPv4 where it can."""
    family = socket.AF_INET6 if socket.has_dualstack_ipv6() else socket.AF_INET
    try:
        return socket.create_server(("", port), family=family, backlog=1, dualstack_ipv6=family == socket.AF_INET6)
    except OSError as e:
        raise IoError(f"cannot listen on port {port}: {e}") from e


def recv_bytes(srv: socket.socket, timeout: float = TIMEOUT) -> bytes:
    """Accept one connection on srv, a listen() socket, close srv, and return the connection's one frame, a legal payload.

    timeout (seconds, > 0) bounds the wait for a connection, and then the
    whole frame: a sender that trickles bytes cannot hold the receiver
    longer (IoError).  A frame over PAYLOAD_CAP raises FrameTooLargeError, and
    one that EncryptedPayload.parse refuses raises its BadHeaderError, as
    soon as the length prefix and the header show it.  A failed accept raises IoError.
    """
    with srv:
        srv.settimeout(timeout)
        try:
            conn, _ = srv.accept()
        except TimeoutError as e:
            raise IoError(f"no sender within {timeout} s") from e
        except OSError as e:
            raise IoError(f"cannot accept on port {srv.getsockname()[1]}: {e}") from e
    with conn:
        deadline = time.monotonic() + timeout
        (length,) = struct.unpack(">I", _recv_exact(conn, 4, deadline))
        if length > PAYLOAD_CAP:
            raise FrameTooLargeError(f"announced frame of {length} bytes")
        if length < HEADER_LEN:
            raise BadHeaderError(f"announced frame of {length} bytes is shorter than a payload header")
        header = _recv_exact(conn, HEADER_LEN, deadline)
        header_fields(header, length)
        return header + _recv_exact(conn, length - HEADER_LEN, deadline)


def send_file(path, host: str, port: int, throttle: float | None = None) -> None:
    data = read_file(path, PAYLOAD_CAP)
    header_fields(data, len(data))
    send_bytes(data, host, port, throttle)


def recv_file(srv: socket.socket, out_path, timeout: float = TIMEOUT) -> int:
    data = recv_bytes(srv, timeout)
    atomic_write(out_path, data)
    return len(data)
