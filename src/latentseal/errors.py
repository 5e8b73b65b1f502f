"""Exception hierarchy shared by all latentseal modules, the one file writer,
and the one reader of files from outside: keys, images, models and payloads."""

import os
import stat
import tempfile


class LatentSealError(Exception):
    """Base class for every error raised by this package."""


class DivergenceError(LatentSealError):
    """A Henon orbit left the guarded region |x|,|y| <= 100."""


class LengthMismatchError(LatentSealError):
    """Vector and permutation lengths disagree."""


class InvalidPointError(LatentSealError):
    """An encoded ephemeral public key is not a valid curve point."""


class AuthFailureError(LatentSealError):
    """AEAD tag verification failed: tampering or wrong private key."""


class MTooLargeError(LatentSealError):
    """Requested latent size exceeds the number of image pixels."""


class ShapeMismatchError(LatentSealError):
    """Image or vector dimensions do not match the model."""


class NonFiniteLossError(LatentSealError):
    """Training loss became NaN or infinite."""


class EmptyBatchError(LatentSealError):
    """A batch-statistic operation received an empty batch."""


class DimMismatchError(LatentSealError):
    """Two images being compared have different dimensions."""


class WindowTooLargeError(LatentSealError):
    """SSIM window side exceeds an image dimension."""


class BadHeaderError(LatentSealError):
    """Payload header is malformed, truncated, or inconsistent."""


class FrameTooLargeError(LatentSealError):
    """Transfer frame is longer than the largest legal payload."""


class IoError(LatentSealError):
    """File could not be read, parsed, or written."""


def atomic_write(path, data: bytes) -> None:
    """Write data to path through a temp file in the same directory and a rename.

    On any failure neither a partial file nor the temp file is left
    behind, and the OSError is raised as IoError.
    """
    path = os.fspath(path)
    tmp = None
    try:
        directory, name = os.path.split(path)
        fd, tmp = tempfile.mkstemp(dir=directory or ".", prefix=name + ".")
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except OSError as e:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        raise IoError(str(e)) from e


KEY_FILE_CAP = 4096  # bytes; a .pub is 67, a .priv 65 and a .sym about 70


def read_file(path, cap: int) -> bytes:
    """Bytes of a regular file of at most cap bytes: the one reader of outside files.

    The size is checked before anything is read, and no more than the file
    holds is read. A file over cap, one that is not a regular file (its size
    is unknown before reading) or one that cannot be read raises IoError
    naming path.
    """
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
                return f.read(st.st_size)
        finally:
            os.close(fd)
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e
