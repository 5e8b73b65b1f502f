import os
import stat
import subprocess

import numpy as np
import pytest

from latentseal import codec, henon, images, transfer
from latentseal.errors import IoError, atomic_write, read_file

from conftest import python


def _recv_file(path, monkeypatch):
    monkeypatch.setattr(transfer, "recv_bytes", lambda *args, **kwargs: b"LSP1" + bytes(60))
    transfer.recv_file(None, path)


WRITERS = {
    "recv_file": _recv_file,
    "write_image": lambda path, mp: images.write_image(np.zeros((4, 4), dtype=np.uint8), path),
    "save_model": lambda path, mp: codec.save_model(codec.dct_model(10), path),
    "save_sym_key": lambda path, mp: henon.save_sym_key(henon.SymKey(0.1, 0.1), path),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_leaves_no_file(writer, tmp_path, monkeypatch):
    target = tmp_path / "out"
    target.mkdir()
    before = sorted(tmp_path.iterdir())
    with pytest.raises(IoError):
        WRITERS[writer](target, monkeypatch)
    assert sorted(tmp_path.iterdir()) == before


def _interrupted():
    yield b"first block"
    raise KeyboardInterrupt


@pytest.mark.parametrize(
    "data, error", [(object(), TypeError), (_interrupted, KeyboardInterrupt)], ids=["not-bytes", "interrupt"]
)
def test_a_write_that_fails_without_an_oserror_leaves_the_directory_as_it_was(data, error, tmp_path):
    # raised unchanged, not as IoError, and the temp file is gone as after an OSError
    (tmp_path / "out").write_bytes(b"old")
    with pytest.raises(error):
        atomic_write(tmp_path / "out", data() if callable(data) else data)
    assert [(p.name, p.read_bytes()) for p in tmp_path.iterdir()] == [("out", b"old")]


def test_byte_blocks_are_written_in_order(tmp_path):
    atomic_write(tmp_path / "out", iter([b"x,y\n", b"", b"1,2\n", bytearray(b"3,4\n")]))
    atomic_write(tmp_path / "one", b"x,y\n")
    atomic_write(tmp_path / ("n" * 250), b"x,y\n")  # legal, and within 255 bytes only if the temp name does not grow with it
    assert (tmp_path / "out").read_bytes() == b"x,y\n1,2\n3,4\n"
    assert (tmp_path / "one").read_bytes() == b"x,y\n"
    assert (tmp_path / ("n" * 250)).read_bytes() == b"x,y\n"


@pytest.mark.parametrize("kind", ["fifo", "directory"])
def test_read_file_refuses_special_files_without_blocking(kind, tmp_path):
    # a FIFO with no writer would block an ordinary open() forever
    path = tmp_path / "special.lsp"
    if kind == "fifo":
        if not hasattr(os, "mkfifo"):
            pytest.skip("no FIFOs on this platform")
        os.mkfifo(path)
    else:
        path.mkdir()
    with pytest.raises(IoError, match="special.lsp"):
        read_file(path, 4096)


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes and umask")
def test_outputs_get_the_umask_mode_and_secret_keys_0600(tmp_path):
    # run in a child under umask 022, so this process's own umask is neither read nor changed
    for suffix in (".priv", ".sym"):  # an existing 0644 file must not keep its mode
        (tmp_path / f"k{suffix}").write_text("old\n")
        (tmp_path / f"k{suffix}").chmod(0o644)
    code = (
        "import sys; from latentseal import cli\n"
        f"sys.exit(cli.main(['keygen', {str(tmp_path / 'k')!r}]) or cli.main(['make-model', {str(tmp_path / 'm.lscm')!r}]))"
    )
    proc = subprocess.run(**python("-c", code), umask=0o022, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    assert modes == {"k.priv": 0o600, "k.sym": 0o600, "k.pub": 0o644, "m.lscm": 0o644}
