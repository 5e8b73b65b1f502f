import os

import numpy as np
import pytest

from latentseal import codec, henon, images, transfer
from latentseal.errors import IoError, read_file


def _recv_file(path, monkeypatch):
    monkeypatch.setattr(transfer, "recv_bytes", lambda *args, **kwargs: b"LSP1" + bytes(60))
    transfer.recv_file(0, path)


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
