"""Exception hierarchy shared by all latentseal modules, and the one file writer."""

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
    """Transfer frame announces more than the 16 MiB cap."""


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
