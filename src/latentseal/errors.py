"""Exception hierarchy shared by all latentseal modules, the one file writer,
and the one opener of files from outside: keys, images, models and payloads.
Each error class owns the exit code the CLI returns for it, 3 unless it says otherwise."""

import contextlib
import functools
import os
import stat

EXIT_IO = 3
EXIT_AUTH = 4
EXIT_FORMAT = 5
EXIT_DIVERGENCE = 6


class LatentSealError(Exception):
    """Base class for every error raised by this package."""
    exit_code = EXIT_IO


class DivergenceError(LatentSealError):
    """A Henon orbit left the guarded region |x|,|y| <= 100."""
    exit_code = EXIT_DIVERGENCE


class WeakKeyError(LatentSealError):
    """A symmetric key is weak: its first 100 orbit values repeat or sort into the identity
    permutation, or its map is not chaotic at the start or end of the span a permutation emits."""


class InvalidPointError(LatentSealError):
    """An encoded ephemeral public key is not a valid curve point."""
    exit_code = EXIT_AUTH


class AuthFailureError(LatentSealError):
    """AEAD tag verification failed: tampering or wrong private key."""
    exit_code = EXIT_AUTH


class MTooLargeError(LatentSealError):
    """Requested latent size exceeds the number of image pixels."""
    exit_code = EXIT_FORMAT


class ShapeMismatchError(LatentSealError):
    """Image or vector dimensions do not match the model."""
    exit_code = EXIT_FORMAT


class NonFiniteLossError(LatentSealError):
    """Training loss became NaN or infinite."""


class DimMismatchError(LatentSealError):
    """Two images being compared have different dimensions."""


class WindowTooLargeError(LatentSealError):
    """SSIM window side exceeds an image dimension."""


class BadHeaderError(LatentSealError):
    """Payload header is malformed, truncated, or inconsistent."""
    exit_code = EXIT_FORMAT


class FrameTooLargeError(LatentSealError):
    """Transfer frame is longer than the largest legal payload."""
    exit_code = EXIT_FORMAT


class NonFiniteLatentError(LatentSealError):
    """A latent to seal, one opened from a payload, or a neural decoder's output
    from one, holds NaN or infinity."""
    exit_code = EXIT_FORMAT


class IoError(LatentSealError):
    """File could not be read, parsed, or written."""


def atomic_write(path, data, mode: int = 0o666) -> None:
    """Write data, bytes or an iterable of byte blocks written in order, to path
    through a temp file and a rename.  The temp file has a fixed-length name in
    path's directory, so any file name the file system allows can be written.

    The file gets mode, less the umask, as a new file would: 0o666 by default,
    0o600 for secret keys, also when it replaces a file of another mode.
    On any failure, an interrupt included, neither a partial file nor the temp
    file is left behind; an OSError is raised as IoError, anything else unchanged.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.urandom(8).hex()}.tmp")
    created = False
    try:
        # "x" creates tmp or fails, and the kernel gives the new file mode less the umask
        with open(tmp, "xb", opener=functools.partial(os.open, mode=mode)) as f:
            created = True
            f.writelines((data,) if isinstance(data, bytes) else data)
        os.replace(tmp, path)
    except BaseException as e:
        if created:
            os.unlink(tmp)
        if not isinstance(e, OSError):
            raise
        raise IoError(f"cannot write {path}: {e.strerror or e}") from e


KEY_FILE_CAP = 4096  # bytes; a .pub is 67, a .priv 65 and a .sym about 70


@contextlib.contextmanager
def open_file(path, cap: int):
    """(f, size): the regular file at path, open for reading, and its size, checked against cap
    before anything is read; the one opener of outside files. A file over cap or not regular (its
    size is unknown before reading), or any failure to open or read it, raises IoError naming path."""
    try:
        # non-blocking, so that a FIFO is refused below instead of waiting for a writer
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
        try:
            st = os.fstat(fd)
            if not stat.S_ISREG(st.st_mode):
                raise IoError(f"not a regular file: {path}")
            if st.st_size > cap:
                raise IoError(f"{path} is {st.st_size} bytes, over the {cap}-byte limit")
            with open(fd, "rb", closefd=False) as f:
                yield f, st.st_size
        finally:
            os.close(fd)
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e


def read_file(path, cap: int) -> bytes:
    """Bytes of the regular file at path, of at most cap bytes, opened by open_file."""
    with open_file(path, cap) as (f, size):
        return f.read(size)
