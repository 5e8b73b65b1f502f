import re
import socket
import struct
import threading
import time
from types import SimpleNamespace

import pytest

from latentseal import transfer
from latentseal.errors import BadHeaderError, FrameTooLargeError, IoError
from latentseal.wire import HEADER_LEN, OVERHEAD, PAYLOAD_CAP, PAYLOAD_MAGIC, PAYLOAD_VERSION


def payload_frame(m, fill=b"\x01", version=PAYLOAD_VERSION, extra=0, codec_id=0, width=256, height=256):
    """A payload header for m latents, of a 256x256 DCT image unless told otherwise, and a body of
    4m + 49 (+ extra) bytes of fill repeated; packed by hand, since _pack_header refuses the fields
    that parse must be shown to refuse."""
    n = 4 * m + OVERHEAD + extra
    header = PAYLOAD_MAGIC + struct.pack("<BBHHH", version, codec_id, m, width, height)
    return header + (fill * (n // len(fill) + 1))[:n]


def receiving(timeout=10, out=None):
    """A started thread that receives one frame on a port already listening, into the file out
    if given; that port; and a dict the thread fills with the frame ("data") or its error ("error"),
    and the seconds the receive took ("elapsed")."""
    srv = transfer.listen(0)
    result = {}

    def receive():
        start = time.monotonic()
        try:
            result["data"] = transfer.recv_bytes(srv, timeout) if out is None else transfer.recv_file(srv, out, timeout)
        except Exception as e:  # surfaced by the caller
            result["error"] = e
        result["elapsed"] = time.monotonic() - start

    port = srv.getsockname()[1]
    t = threading.Thread(target=receive)
    t.start()
    return t, port, result


def run_transfer(data, throttle=None):
    t, port, result = receiving()
    transfer.send_bytes(data, "127.0.0.1", port, throttle=throttle)
    t.join(timeout=15)
    if "error" in result:
        raise result["error"]
    return result["data"]


def test_loopback_round_trip():
    payload = payload_frame(242, bytes(range(256)))  # 1029 bytes
    assert run_transfer(payload) == payload


def test_loopback_file_round_trip(tmp_path):
    src = tmp_path / "payload.bin"
    src.write_bytes(payload_frame(100))  # 461 bytes
    out = tmp_path / "out.bin"
    t, port, _ = receiving(out=out)
    transfer.send_file(src, "127.0.0.1", port)
    t.join(timeout=10)
    assert out.read_bytes() == src.read_bytes()


def test_throttle_pacing():
    # 4589 bytes at 1000 B/s take 3.37-5.81 s in test_acceptance::test_transfer_acceptance
    small = payload_frame(100, bytes(1))  # 461 bytes at 1000 B/s -> < 1 s
    start = time.monotonic()
    run_transfer(small, throttle=1000)
    assert time.monotonic() - start < 1.0


def test_send_file_refuses_oversized_file_unread(tmp_path, monkeypatch):
    path = tmp_path / "big.lsp"
    with open(path, "wb") as f:
        f.truncate(PAYLOAD_CAP + 1)  # sparse
    monkeypatch.setattr(transfer.socket, "create_connection", lambda *a, **k: pytest.fail("connected"))
    with pytest.raises(IoError, match="big.lsp"):
        transfer.send_file(path, "127.0.0.1", 1)


@pytest.mark.parametrize(
    "data,host,refused",
    [(data, "127.0.0.1", None) for data in (b"", bytes(100), payload_frame(100)[:-1], payload_frame(100, version=PAYLOAD_VERSION + 1))]
    + [(payload_frame(100), "127.0.0.1", "cannot send to 127.0.0.1:1: [Errno 111] Connection refused")]
    + [(payload_frame(100), "::1", "cannot send to [::1]:1: [Errno 111] Connection refused")],
    ids=["empty", "no-magic", "short-body", "version", "refused", "refused-ipv6"],
)
def test_send_file_refuses_a_payload_decrypt_refuses_before_connecting(tmp_path, monkeypatch, data, host, refused):
    # a payload decrypt accepts gets as far as the connect, and a refused connect names the destination,
    # an IPv6 host in brackets so that its port stands apart
    path = tmp_path / "bad.lsp"
    path.write_bytes(data)
    connects = []

    def refuse(address, timeout):
        connects.append(address)
        raise ConnectionRefusedError(111, "Connection refused")

    monkeypatch.setattr(transfer.socket, "create_connection", refuse)
    with pytest.raises(IoError if refused else BadHeaderError) as exc:
        transfer.send_file(path, host, 1)
    assert connects == ([(host, 1)] if refused else [])
    assert refused in (None, str(exc.value))


@pytest.mark.parametrize("family", ["any", "ipv4"])
def test_recv_on_a_port_in_use_is_an_io_error_naming_the_port(family, monkeypatch):
    if family == "ipv4":  # the branch of a host without dual-stack sockets
        monkeypatch.setattr(transfer.socket, "has_dualstack_ipv6", lambda: False)
    with socket.create_server(("127.0.0.1", 0)) as taken:
        port = taken.getsockname()[1]
        with pytest.raises(IoError, match=f"^cannot listen on port {port}: .*Address already in use"):
            transfer.listen(port)


def test_frame_cap_on_recv():
    t, port, result = receiving(timeout=5)
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.sendall((PAYLOAD_CAP + 1).to_bytes(4, "big"))
    t.join(timeout=10)
    assert isinstance(result["error"], FrameTooLargeError)


def test_bad_magic_rejected():
    with pytest.raises(BadHeaderError):
        run_transfer(b"XXXX" + bytes(100))


def test_disconnect_mid_frame_writes_nothing(tmp_path):
    out = tmp_path / "never.bin"
    t, port, result = receiving(timeout=5, out=out)
    frame = payload_frame(100)
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.sendall(len(frame).to_bytes(4, "big") + frame[:14])
        # close early: a legal header, then only 2 of the 449 body bytes
    t.join(timeout=10)
    assert isinstance(result["error"], IoError)
    assert not out.exists()


def test_no_sender_times_out_as_io_error():
    start = time.monotonic()
    with pytest.raises(IoError, match="no sender within 0.2 s"):
        transfer.recv_bytes(transfer.listen(0), timeout=0.2)
    assert time.monotonic() - start < 1.0


def test_trickling_sender_hits_one_frame_deadline():
    # one byte every 0.1 s never trips a 0.5 s per-recv timeout, but the
    # frame as a whole must arrive within it
    t, port, result = receiving(timeout=0.5)
    with socket.create_connection(("127.0.0.1", port)) as sock:
        try:
            sock.sendall((100).to_bytes(4, "big"))
            for byte in PAYLOAD_MAGIC + bytes(26):  # 3 s of trickle at most
                if not t.is_alive():
                    break
                sock.sendall(bytes([byte]))
                time.sleep(0.1)
        except OSError:
            pass  # the receiver gave up and closed
    t.join(timeout=5)
    assert not t.is_alive()
    assert isinstance(result["error"], IoError)
    assert result["elapsed"] < 1.0


def test_frame_cap_is_the_largest_legal_payload():
    assert PAYLOAD_CAP == HEADER_LEN + 4 * 0xFFFF + OVERHEAD == 262_201
    payload = payload_frame(0xFFFF, bytes(range(256)))
    assert len(payload) == PAYLOAD_CAP
    assert run_transfer(payload) == payload


@pytest.mark.parametrize(
    "frame",
    [payload_frame(100, version=PAYLOAD_VERSION + 1), payload_frame(100, extra=1), payload_frame(100, extra=-1)],
    ids=["wrong-version", "body-one-long", "body-one-short"],
)
def test_frame_that_decrypt_refuses_is_not_written(tmp_path, frame):
    t, port, result = receiving(out=tmp_path / "never.lsp")
    transfer.send_bytes(frame, "127.0.0.1", port)
    t.join(timeout=15)
    assert not t.is_alive()
    assert isinstance(result["error"], BadHeaderError)
    assert list(tmp_path.iterdir()) == []


def test_send_paces_only_when_throttled(monkeypatch):
    sleeps = []
    monkeypatch.setattr(transfer, "time", SimpleNamespace(monotonic=time.monotonic, sleep=sleeps.append))
    frame = payload_frame(3000)  # 12 061 bytes: two full chunks and a partial one
    assert run_transfer(frame) == frame
    assert sleeps == []
    assert run_transfer(frame, throttle=1e9) == frame
    assert len(sleeps) == 3 and all(s >= 0 for s in sleeps)


@pytest.mark.parametrize(
    "announced, header",
    [(PAYLOAD_CAP, payload_frame(100)[:12]), (11, b"")],
    ids=["header-for-a-shorter-body", "shorter-than-a-header"],
)
def test_frame_length_the_header_refuses_is_refused_before_the_body(tmp_path, announced, header):
    # the sender announces a frame it never sends: the receiver must refuse
    # on the length and the header, not wait out its timeout for the body
    t, port, result = receiving(timeout=3, out=tmp_path / "never.lsp")
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.sendall(announced.to_bytes(4, "big") + header)
        t.join(timeout=10)
    assert not t.is_alive()
    assert isinstance(result["error"], BadHeaderError)
    assert result["elapsed"] < 1.0
    assert list(tmp_path.iterdir()) == []


def test_send_to_a_receiver_that_stops_reading_times_out(monkeypatch):
    # 4 KiB buffers on both ends stand in for a slow link: with loopback's
    # default buffers the kernel takes the whole frame and send returns at once
    monkeypatch.setattr(transfer, "TIMEOUT", 0.5)
    connect = socket.create_connection

    def small_send_buffer(*args, **kwargs):
        sock = connect(*args, **kwargs)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        return sock

    monkeypatch.setattr(transfer.socket, "create_connection", small_send_buffer)
    frame = payload_frame(0xFFFF)  # 262 201 bytes
    result = {}

    def sender(port):
        try:
            transfer.send_bytes(frame, "127.0.0.1", port)
        except Exception as e:  # surfaced below
            result["error"] = e

    with socket.socket() as srv:
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)  # inherited by the accepted socket
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        t = threading.Thread(target=sender, args=(srv.getsockname()[1],), daemon=True)
        start = time.monotonic()
        t.start()
        conn, _ = srv.accept()
        with conn:  # accepted, never read
            t.join(timeout=5)
            elapsed = time.monotonic() - start
    assert not t.is_alive(), "send still blocked"
    assert isinstance(result.get("error"), IoError)
    assert re.fullmatch(rf"send to 127\.0\.0\.1:\d+ timed out after \d+ of {len(frame)} bytes", str(result["error"]))
    assert elapsed < transfer.TIMEOUT + 1
