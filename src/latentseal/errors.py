"""Exception hierarchy shared by all latentseal modules, the one file writer,
and the one key-file reader."""

import os
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


def read_key_file(path) -> str:
    """Text of a key file, of which at most KEY_FILE_CAP + 1 bytes are read.

    A larger file, one that cannot be read, or one that is not UTF-8 raises IoError.
    """
    try:
        with open(path, "rb") as f:
            data = f.read(KEY_FILE_CAP + 1)
    except OSError as e:
        raise IoError(str(e)) from e
    if len(data) > KEY_FILE_CAP:
        raise IoError(f"key file over {KEY_FILE_CAP} bytes: {path}")
    try:
        return data.decode()
    except UnicodeDecodeError as e:
        raise IoError(f"key file is not text: {path}") from e
