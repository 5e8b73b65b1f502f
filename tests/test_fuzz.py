"""Fuzz gate for every parser of outside bytes.

Each target gets valid files mutated (a bit flipped, cut short, extended,
or a header or layer field set at or near its bounds) and random bytes.
Only a LatentSealError may escape, and every case must finish within
CASE_SECONDS.  What a payload's tag authenticates is outside input too:
anyone holding the public key can seal any latent, so one target opens
hostile latents sealed under legal headers, with RuntimeWarning an error.
"""

import io
import socket
import struct
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latentseal import codec, ecies, henon, images, pipeline, wire
from latentseal.codec import Layer
from latentseal.errors import LatentSealError

from test_transfer import receiving

CASE_SECONDS = 2.0
FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])

PRIVATE_KEY = ecies.keygen(bytes(range(32)))
PUBLIC_KEY = PRIVATE_KEY.public_key()
SYM = henon.SymKey(0.123, 0.05)
IMG = images.smooth_gradient(8)


def _flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << bit % 8
    return bytes(out)


def _put(data: bytes, off: int, fmt: str, value: int) -> bytes:
    return data[:off] + struct.pack(fmt, value) + data[off + struct.calcsize(fmt) :]


def mutated(valid: bytes, fields=()) -> st.SearchStrategy[bytes]:
    """valid with one bit flipped, cut short, or extended; with one of fields,
    (offset, unsigned struct format) pairs, set to a bound or any value; or random bytes."""
    options = [
        st.integers(0, 8 * len(valid) - 1).map(lambda bit: _flip(valid, bit)),
        st.integers(0, len(valid) - 1).map(lambda k: valid[:k]),
        st.binary(min_size=1, max_size=64).map(lambda tail: valid + tail),
        st.binary(max_size=2 * len(valid)),
    ]
    for off, fmt in fields:
        top = 256 ** struct.calcsize(fmt) - 1
        values = st.sampled_from([0, 1, 2, 64, 65, top - 1, top]) | st.integers(0, top)
        options.append(values.map(lambda v, off=off, fmt=fmt: _put(valid, off, fmt, v)))
    return st.one_of(options)


def tokens(*valid: bytes) -> st.SearchStrategy[bytes]:
    """A text field: one of valid, a value at a numeric edge, any integer, or junk."""
    edges = [b"0", b"-0", b"1", b"-1", b"100", b"100.0000001", b"1e308", b"-1e308", b"1e-320", b"nan", b"inf",
             b"-inf", b"65535", b"100000", b"100001", b"16777216", b"16777217", b"9" * 5000, b"0x10", b"1_0", b""]
    return st.one_of(
        st.sampled_from(valid + tuple(edges)),
        st.integers(-(2**70), 2**70).map(lambda n: str(n).encode()),
        st.binary(max_size=8),
    )


def only_latentseal_errors(parse, *args):
    """parse(*args), or the LatentSealError it raises, within CASE_SECONDS."""
    start = time.perf_counter()
    try:
        result = parse(*args)
    except LatentSealError:
        result = None
    assert time.perf_counter() - start < CASE_SECONDS
    return result


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


# --- payloads --------------------------------------------------------------

PAYLOAD = pipeline.compress_encrypt(IMG, codec.dct_model(10), SYM, PUBLIC_KEY)[0].serialize()
PAYLOAD_FIELDS = [(4, "<B"), (5, "<B"), (6, "<H"), (8, "<H"), (10, "<H")]


def _open_payload(data: bytes):
    payload = pipeline.EncryptedPayload.parse(data)
    assert payload.serialize() == data  # parsing is exact
    return pipeline.decrypt_reconstruct(payload, codec.dct_model(payload.m), SYM, PRIVATE_KEY)


@FUZZ
@given(mutated(PAYLOAD, PAYLOAD_FIELDS))
def test_payload_parse_and_open(data):
    only_latentseal_errors(_open_payload, data)


# --- images ----------------------------------------------------------------


@st.composite
def pnm_files(draw):
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    width, height, maxval = draw(tokens(b"8")), draw(tokens(b"8")), draw(tokens(b"255"))
    # runs of about PNM_HEADER_CAP bytes and past it: a header grammar that can split them more than one way
    # takes time exponential in their length to refuse
    lengths = st.sampled_from([4090, images.PNM_HEADER_CAP, 5000]) | st.integers(1, 5000)
    run = st.tuples(st.sampled_from([b"#", b"# c\n", b" ", b"\n", b"\t\r\x0b\x0c"]), lengths)
    comment = draw(st.sampled_from([b"", b"# c\n", b"#"]) | run.map(lambda r: (r[0] * r[1])[: r[1]]))
    raster = draw(st.binary(max_size=256))
    return magic + b"\n" + comment + width + b" " + height + b"\n" + maxval + b"\n" + raster


PGM = b"P5\n8 8\n255\n" + IMG.tobytes()


@FUZZ
@given(pnm_files() | mutated(PGM))
def test_read_image(scratch, data):
    scratch.write_bytes(data)
    img = only_latentseal_errors(images.read_image, scratch)
    if img is not None:
        assert img.dtype == np.uint8 and img.ndim == 2 and img.size >= 1


# --- models ----------------------------------------------------------------


def _neural_bytes() -> bytes:
    rng = np.random.default_rng(1)
    layers = [Layer(rng.standard_normal((n_out, n_in)), rng.standard_normal(n_out)) for n_out, n_in in
              [(3, 4), (2, 3), (3, 2), (4, 3)]]
    data = codec.MODEL_MAGIC + struct.pack("<BBI", codec.MODEL_VERSION, wire.KIND_NEURAL, 2)
    return data + codec._layers_bytes(layers[:2]) + codec._layers_bytes(layers[2:])


NEURAL = _neural_bytes()
DCT = codec.MODEL_MAGIC + struct.pack("<BBI", codec.MODEL_VERSION, wire.KIND_DCT, 10)
# header, the encoder count and its first layer's shape, the decoder count and its first layer's shape
DECODER = 10 + 4 + (8 + 8 * 3 * 5) + (8 + 8 * 2 * 4)
MODEL_FIELDS = [(4, "<B"), (5, "<B"), (6, "<I"), (10, "<I"), (14, "<I"), (18, "<I"),
                (DECODER, "<I"), (DECODER + 4, "<I"), (DECODER + 8, "<I")]


def _load_and_use(path):
    model = codec.load_model(path)
    if model.kind == "neural":
        side = int(np.sqrt(model.input_size))
        img = np.full((side, side), 77, dtype=np.uint8)
        model.decode(model.encode(img), side, side)
    return model


@FUZZ
@given(mutated(NEURAL, MODEL_FIELDS) | mutated(DCT, MODEL_FIELDS[:3]))
def test_load_model(scratch, data):
    scratch.write_bytes(data)
    only_latentseal_errors(_load_and_use, scratch)


# --- latents past the tag --------------------------------------------------

F32_MAX = float(np.finfo(np.float32).max)
F32_EDGES = [np.nan, np.inf, -np.inf, 1e-45, -1e-45, 1.1754942e-38, F32_MAX, -F32_MAX, 0.0, 1.0]
CODECS = {
    "dct": (codec.dct_model(10), 8, 8),
    "neural": (codec._parse_model(io.BytesIO(NEURAL), len(NEURAL), "neural.lscm"), 2, 2),
}


def latents(m: int) -> st.SearchStrategy[bytes]:
    """4m bytes of plaintext: random, or m float32 values that are non-finite, subnormal or extreme."""
    edges = st.lists(st.sampled_from(F32_EDGES), min_size=m, max_size=m)
    return st.binary(min_size=4 * m, max_size=4 * m) | edges.map(lambda v: np.array(v, dtype="<f4").tobytes())


def _seal_and_open(model, width: int, height: int, plain: bytes):
    header = wire._pack_header(model.codec_id, model.m, width, height)
    sealed = ecies.ecies_encrypt(plain, PUBLIC_KEY, aad=header)
    payload = pipeline.EncryptedPayload(model.codec_id, model.m, width, height, sealed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return pipeline.decrypt_reconstruct(payload, model, SYM, PRIVATE_KEY)[0]


@pytest.mark.parametrize("name", sorted(CODECS))
@FUZZ
@given(data=st.data())
def test_latent_past_the_tag(name, data):
    model, width, height = CODECS[name]
    plain = data.draw(latents(model.m))
    img = only_latentseal_errors(_seal_and_open, model, width, height, plain)
    assert (img is not None) == bool(np.isfinite(np.frombuffer(plain, dtype="<f4")).all())
    if img is not None:
        assert img.shape == (height, width) and img.dtype == np.uint8


# --- keys ------------------------------------------------------------------


@st.composite
def sym_files(draw):
    lines = [draw(tokens(b"0.123")) + b" " + draw(tokens(b"0.05"))]
    lines += [draw(tokens(b"1.4")) + b" " + draw(tokens(b"0.3")), draw(tokens(b"1000"))][: draw(st.integers(0, 2))]
    return b"\n".join(lines) + b"\n"


SYM_FILE = b"0.123 0.05\n1.4 0.3\n1000\n"


@FUZZ
@given(sym_files() | mutated(SYM_FILE))
def test_load_sym_key(scratch, data):
    scratch.write_bytes(data)
    only_latentseal_errors(henon.load_sym_key, scratch)


PUB = ecies._compress(PUBLIC_KEY).hex().encode() + b"\n"
PRIV = PRIVATE_KEY.private_numbers().private_value.to_bytes(32, "big").hex().encode() + b"\n"
ORDER = ecies.CURVE_ORDER.to_bytes(32, "big").hex().encode()


@FUZZ
@given(mutated(PUB) | mutated(PRIV) | st.sampled_from([ORDER, b"0" * 64, b"04" + PUB[2:], b"02" + b"ff" * 32]))
def test_load_public_and_private_key(scratch, data):
    scratch.write_bytes(data)
    only_latentseal_errors(ecies.load_public_key, scratch)
    only_latentseal_errors(ecies.load_private_key, scratch)


# --- TCP frames ------------------------------------------------------------


def _receive(wire: bytes):
    """recv_bytes of what a sender writes as wire (length prefix included) and then closes on."""
    t, port, result = receiving(timeout=1.0)
    try:
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.sendall(wire)
    except OSError:  # the receiver refused the frame and closed
        pass
    t.join(timeout=5)
    assert not t.is_alive()
    if "error" in result:
        raise result["error"]
    return result["data"]


@settings(FUZZ, max_examples=20)
@given(mutated(struct.pack(">I", len(PAYLOAD)) + PAYLOAD, [(0, ">I")] + [(4 + off, fmt) for off, fmt in PAYLOAD_FIELDS]))
def test_recv_bytes(wire):
    data = only_latentseal_errors(_receive, wire)
    if data is not None:
        assert pipeline.EncryptedPayload.parse(data).serialize() == data
