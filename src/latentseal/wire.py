"""The payload's wire format: a 12-byte header, its field rules, and the
sizes they rest on, which pipeline, codec, images, ecies and transfer take
from here.  It imports only struct and errors, so send and recv, which
only move sealed bytes, load neither numpy nor cryptography."""

import struct

from .errors import BadHeaderError, MTooLargeError, ShapeMismatchError

MAX_PIXELS = 1 << 24  # largest width * height read from a PGM or declared by a payload; bounds every image allocation
KIND_DCT = 0
KIND_NEURAL = 1
KEY_LEN = 33  # compressed point
TAG_LEN = 16
OVERHEAD = KEY_LEN + TAG_LEN
PAYLOAD_MAGIC = b"LSP1"
PAYLOAD_VERSION = 1
HEADER_LEN = 12  # magic(4) version(1) codec_id(1) m(2) width(2) height(2)
PAYLOAD_CAP = HEADER_LEN + 4 * 0xFFFF + OVERHEAD  # largest legal payload, 262 201 bytes
_HEADER_FIELDS = "<BBHHH"


def _check_header_fields(codec_id: int, m: int, width: int, height: int, m_error, field_error) -> None:
    """The header's field rules, shared by the sender and the receiver: codec
    id 0 (DCT) or 1 (neural), m and each side in 1..65535, width * height at
    most MAX_PIXELS, which bounds the decoder's allocation, and for DCT m at
    most width * height, the image's coefficient count."""
    if codec_id not in (KIND_DCT, KIND_NEURAL):
        raise field_error(f"codec id {codec_id} is neither {KIND_DCT} (DCT) nor {KIND_NEURAL} (neural)")
    if not 1 <= m <= 0xFFFF:
        raise m_error(f"m={m} outside the header's 1..65535")
    if not (1 <= width <= 0xFFFF and 1 <= height <= 0xFFFF and width * height <= MAX_PIXELS):
        raise field_error(f"image {width}x{height} outside the header's 1..65535 per side and {MAX_PIXELS} pixels")
    if codec_id == KIND_DCT and m > width * height:
        raise m_error(f"DCT m={m} exceeds the {width}x{height} image's {width * height} coefficients")


def _pack_header(codec_id: int, m: int, width: int, height: int) -> bytes:
    _check_header_fields(codec_id, m, width, height, MTooLargeError, ShapeMismatchError)
    return PAYLOAD_MAGIC + struct.pack(_HEADER_FIELDS, PAYLOAD_VERSION, codec_id, m, width, height)


def header_fields(header: bytes, length: int) -> tuple[int, int, int, int]:
    """(codec_id, m, width, height) of a payload of length bytes that starts
    with header, by decrypt's rules: the magic, the version, the field rules
    and a body of 4m + OVERHEAD bytes.  Anything else raises BadHeaderError.
    Only the first HEADER_LEN bytes of header are read."""
    if len(header) < HEADER_LEN or header[:4] != PAYLOAD_MAGIC:
        raise BadHeaderError("missing payload magic")
    version, codec_id, m, width, height = struct.unpack(_HEADER_FIELDS, header[4:HEADER_LEN])
    if version != PAYLOAD_VERSION:
        raise BadHeaderError(f"unsupported payload version {version}")
    _check_header_fields(codec_id, m, width, height, BadHeaderError, BadHeaderError)
    if length - HEADER_LEN != 4 * m + OVERHEAD:
        raise BadHeaderError(f"body length {length - HEADER_LEN} inconsistent with m={m}")
    return codec_id, m, width, height
