import argparse
import math
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from latentseal import cli, codec, ecies, errors, henon, images, pipeline, transfer, wire
from latentseal.cli import EXIT_OK
from latentseal.errors import EXIT_AUTH, EXIT_DIVERGENCE, EXIT_FORMAT, EXIT_IO

from conftest import chain, listening_port, python


def run(args):
    return cli.main(args)


@pytest.fixture()
def test_image(tmp_path):
    path = tmp_path / "input.pgm"
    images.write_image(images.smooth_gradient(64), path)
    return path


def test_keygen_writes_three_files(tmp_path):
    prefix = tmp_path / "k"
    assert run(["keygen", str(prefix)]) == EXIT_OK
    priv = ecies.load_private_key(prefix.with_suffix(".priv"))
    pub = ecies.load_public_key(prefix.with_suffix(".pub"))
    assert ecies.keygen(None) is not None  # entropy path sanity
    assert priv.public_key() == pub  # loadable pair
    henon.permutation_for_key(henon.load_sym_key(prefix.with_suffix(".sym")), henon.WEAK_KEY_SPAN)


def test_keygen_appends_suffixes_to_a_dotted_prefix(tmp_path, capsys):
    for version in ("v2", "v3"):
        assert run(["keygen", str(tmp_path / f"alice.{version}"), "--seed", "1"]) == EXIT_OK
        printed = capsys.readouterr().out.split()[1:]
        assert printed == [str(tmp_path / f"alice.{version}{suffix}") for suffix in (".priv", ".pub", ".sym")]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"alice.{v}{suffix}" for v in ("v2", "v3") for suffix in (".priv", ".pub", ".sym")
    ]


def test_keygen_distinct_without_seed(tmp_path):
    run(["keygen", str(tmp_path / "a")])
    run(["keygen", str(tmp_path / "b")])
    assert (tmp_path / "a.priv").read_text() != (tmp_path / "b.priv").read_text()


def test_keygen_seeded_reproducible(tmp_path):
    run(["keygen", str(tmp_path / "a"), "--seed", "42"])
    run(["keygen", str(tmp_path / "b"), "--seed", "42"])
    for suffix in (".priv", ".pub", ".sym"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def test_encrypt_decrypt_round_trip(tmp_path, keys, dct_model_path, test_image, capsys):
    payload = tmp_path / "out.lsp"
    rc = run(chain("encrypt", test_image, dct_model_path, keys, payload))
    assert rc == EXIT_OK
    assert "encrypt_s=" in capsys.readouterr().out
    recon = tmp_path / "recon.pgm"
    rc = run(chain("decrypt", payload, dct_model_path, keys, recon))
    assert rc == EXIT_OK
    # on-disk result equals the pure codec round trip
    from latentseal import codec

    model = codec.load_model(dct_model_path)
    img = images.read_image(test_image)
    expected = model.decode(model.encode(img), img.shape[1], img.shape[0])
    assert np.array_equal(images.read_image(recon), expected)


def test_decrypt_wrong_key_exit_code(tmp_path, keys, dct_model_path, test_image):
    payload = tmp_path / "out.lsp"
    run(chain("encrypt", test_image, dct_model_path, keys, payload))
    other = tmp_path / "other"
    run(["keygen", str(other), "--seed", "7"])
    out = tmp_path / "never.pgm"
    rc = run([
        "decrypt", str(payload),
        "--model", str(dct_model_path),
        "--sym", str(keys) + ".sym",
        "--priv", str(other) + ".priv",
        "--out", str(out),
    ])
    assert rc == EXIT_AUTH
    assert not out.exists()  # no partial output


def test_decrypt_truncated_payload(tmp_path, keys, dct_model_path):
    bad = tmp_path / "trunc.lsp"
    bad.write_bytes(b"LSP1\x01\x00")
    out = tmp_path / "never.pgm"
    rc = run(chain("decrypt", bad, dct_model_path, keys, out))
    assert rc == EXIT_FORMAT
    assert not out.exists()


@pytest.mark.parametrize("extra,code", [(0, EXIT_FORMAT), (1, EXIT_IO)], ids=["at-cap", "over-cap"])
def test_decrypt_payload_file_cap(tmp_path, keys, dct_model_path, extra, code, capsys):
    # a file of the cap is read and refused by parse; one byte more is refused
    # unread, as an I/O error naming the file (sparse: no disk or memory used)
    path = tmp_path / "big.lsp"
    with open(path, "wb") as f:
        f.write(wire.PAYLOAD_MAGIC)
        f.truncate(wire.PAYLOAD_CAP + extra)
    out = tmp_path / "never.pgm"
    rc = run(chain("decrypt", path, dct_model_path, keys, out))
    assert rc == code
    assert not out.exists()
    if code == EXIT_IO:
        assert "big.lsp" in capsys.readouterr().err


def test_encrypt_missing_image(tmp_path, keys, dct_model_path):
    rc = run(chain("encrypt", tmp_path / "nope.pgm", dct_model_path, keys, tmp_path / "o.lsp"))
    assert rc == EXIT_IO


@pytest.mark.parametrize(
    "height,width,m", [(256, 257, 65536), (4, 70000, 100), (70000, 4, 100)], ids=["m", "width", "height"]
)
def test_encrypt_header_field_overflow_exit_code(tmp_path, keys, height, width, m):
    image = tmp_path / "big.pgm"
    images.write_image(np.zeros((height, width), dtype=np.uint8), image)
    model = tmp_path / "model.lscm"
    codec.save_model(codec.dct_model(m), model)  # make-model refuses m over 65535
    out = tmp_path / "o.lsp"
    rc = run(chain("encrypt", image, model, keys, out))
    assert rc == EXIT_FORMAT
    assert not out.exists()


def test_decrypt_of_a_basis_over_the_cap_exit_code(tmp_path, keys):
    # an authentic payload whose 1 x 65535 header at m = 65535 asks the DCT decoder for a 32 GiB basis
    header = wire._pack_header(wire.KIND_DCT, 65535, 65535, 1)
    pub = ecies.load_public_key(str(keys) + ".pub")
    ct = ecies.ecies_encrypt(np.zeros(65535, dtype="<f4").tobytes(), pub, aad=header)
    payload = tmp_path / "forged.lsp"
    forged = pipeline.EncryptedPayload(wire.KIND_DCT, 65535, 65535, 1, ct)
    payload.write_bytes(forged.serialize())
    model = tmp_path / "m65535.lscm"
    assert run(["make-model", str(model), "--m", "65535"]) == EXIT_OK
    out = tmp_path / "r.pgm"
    start = time.perf_counter()
    rc = run(chain("decrypt", payload, model, keys, out))
    assert rc == EXIT_FORMAT
    assert time.perf_counter() - start < 5.0
    assert not out.exists()


F32_MAX = float(np.finfo(np.float32).max)


@pytest.mark.parametrize(
    "value,code", [(np.nan, EXIT_FORMAT), (np.inf, EXIT_FORMAT), (-np.inf, EXIT_FORMAT), (F32_MAX, EXIT_OK), (-F32_MAX, EXIT_OK)]
)
def test_decrypt_of_a_non_finite_latent_exit_code(tmp_path, keys, dct_model_path, value, code):
    # anyone holding the .pub can seal any latent under a legal header; past the tag it is outside input
    header = wire._pack_header(wire.KIND_DCT, 100, 64, 64)
    pub = ecies.load_public_key(str(keys) + ".pub")
    payload = tmp_path / "forged.lsp"
    payload.write_bytes(header + ecies.ecies_encrypt(np.full(100, value, dtype="<f4").tobytes(), pub, aad=header))
    out = tmp_path / "r.pgm"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run(chain("decrypt", payload, dct_model_path, keys, out))
    assert rc == code
    assert out.exists() == (code == EXIT_OK)


def test_decrypt_with_a_neural_decoder_whose_output_overflows_exit_code(tmp_path, keys, capsys):
    # finite weights load, but the decoder's products overflow to +inf and -inf, whose sum is NaN
    enc = [codec.Layer(np.full((4, 4), 10.0), np.zeros(4))]
    dec = [codec.Layer(np.tile([1e308, 1e308, -1e308, -1e308], (4, 1)), np.zeros(4))]
    model = tmp_path / "huge.lscm"
    codec.save_model(codec.CodecModel(kind="neural", m=4, encoder=enc, decoder=dec), model)
    img = tmp_path / "in.pgm"
    images.write_image(np.full((2, 2), 200, dtype=np.uint8), img)
    payload = tmp_path / "p.lsp"
    assert run(chain("encrypt", img, model, keys, payload)) == EXIT_OK
    out = tmp_path / "r.pgm"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run(chain("decrypt", payload, model, keys, out))
    assert rc == EXIT_FORMAT
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


# the uncompressed encoding of P-256's generator, from FIPS 186-4 D.1.2.3: a point, but not 33 bytes
P256_G_UNCOMPRESSED = (
    "04"
    "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"
    "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"
)


@pytest.mark.parametrize("text", ["02" + "ff" * 32, "0011", P256_G_UNCOMPRESSED], ids=["off-curve", "short", "uncompressed"])
def test_encrypt_with_a_public_key_that_is_no_point_exit_code(tmp_path, keys, dct_model_path, test_image, text, capsys):
    pub = tmp_path / "bad.pub"
    pub.write_text(text + "\n")
    out = tmp_path / "o.lsp"
    rc = run([
        "encrypt", str(test_image),
        "--model", str(dct_model_path),
        "--sym", str(keys) + ".sym",
        "--pub", str(pub),
        "--out", str(out),
    ])
    assert rc == EXIT_IO
    assert "bad.pub" in capsys.readouterr().err
    assert not out.exists()


def test_a_key_that_settles_on_a_cycle_is_refused_by_encrypt_and_decrypt(tmp_path, keys, test_image, monkeypatch, capsys):
    weak = tmp_path / "weak.sym"
    weak.write_text("0.1 0.1\n1.23 0.3\n0\n")  # loads: its orbit turns periodic only past 100 values
    model = tmp_path / "dct400.lscm"
    assert run(["make-model", str(model), "--m", "400"]) == EXIT_OK
    sealed = tmp_path / "o.lsp"
    seal = ["encrypt", str(test_image), "--model", str(model), "--pub", str(keys) + ".pub", "--out", str(sealed)]
    assert run([*seal, "--sym", str(weak)]) == EXIT_IO
    assert "not chaotic" in capsys.readouterr().err
    assert not sealed.exists()
    # sealed under a good key, the payload is refused under the weak one before any deshuffle
    assert run([*seal, "--sym", str(keys) + ".sym"]) == EXIT_OK
    monkeypatch.setattr(pipeline, "deshuffle", lambda *args: pytest.fail("deshuffled under a weak key"))
    out = tmp_path / "r.pgm"
    rc = run(["decrypt", str(sealed), "--model", str(model), "--sym", str(weak), "--priv", str(keys) + ".priv", "--out", str(out)])
    assert rc == EXIT_IO
    assert "not chaotic" in capsys.readouterr().err
    assert not out.exists()


def test_encrypt_runs_the_orbit_for_the_key_and_one_twin_only(tmp_path, keys, dct_model_path, test_image, monkeypatch):
    # loading the key builds its m = 100 permutation, weak-key checks included, and the seal reuses it
    calls = []
    orbit = henon._orbit
    monkeypatch.setattr(henon, "_orbit", lambda key, n: calls.append(n) or orbit(key, n))
    henon.permutation_for_key.cache_clear()
    assert run(chain("encrypt", test_image, dct_model_path, keys, tmp_path / "o.lsp")) == EXIT_OK
    assert calls == [henon.WEAK_KEY_SPAN + 1, henon.WEAK_KEY_SPAN]


def test_make_dataset_and_evaluate(tmp_path, keys, capsys):
    data_dir = tmp_path / "data"
    assert run(["make-dataset", str(data_dir), "--count", "4", "--size", "16", "--seed", "1"]) == EXIT_OK
    model = tmp_path / "full.lscm"
    run(["make-model", str(model), "--m", "256"])  # full rank at 16x16: lossless
    report = tmp_path / "report.csv"
    rc = run(chain("evaluate", data_dir, model, keys, report))
    assert rc == EXIT_OK
    lines = report.read_text().strip().split("\n")
    assert lines[0] == "ssim,psnr_db,mse,encrypt_s,decrypt_s"
    assert len(lines) == 5
    for row in lines[1:]:
        ssim_val, psnr_val, mse_val = row.split(",")[:3]
        assert float(ssim_val) == 1.0
        assert psnr_val == "inf"
        assert float(mse_val) == 0.0


def test_evaluate_empty_dir(tmp_path, keys, dct_model_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    report = tmp_path / "r.csv"
    rc = run(chain("evaluate", empty, dct_model_path, keys, report))
    assert rc == EXIT_OK
    assert report.read_text() == "ssim,psnr_db,mse,encrypt_s,decrypt_s\n"


# the last case: an existing directory with no .pgm in it, which train refuses (evaluate writes an empty report)
@pytest.mark.parametrize("command,made", [("evaluate", False), ("train", False), ("train", True)], ids=["evaluate", "train", "train-empty"])
def test_a_missing_image_directory_exit_code(tmp_path, keys, dct_model_path, command, made, capsys):
    image_dir = tmp_path / "images"
    if made:
        image_dir.mkdir()
        (image_dir / "notes.txt").write_text("not an image")
    out = tmp_path / "out"
    args = {
        "evaluate": chain("evaluate", image_dir, dct_model_path, keys, out),
        "train": ["train", str(image_dir), str(out), "--epochs", "1"],
    }[command]
    assert run(args) == EXIT_IO
    err = capsys.readouterr().err
    assert err == f"error: {'no .pgm images in' if made else 'not a directory:'} {image_dir}\n"
    assert not out.exists()


def test_henon_plot(tmp_path, keys):
    out = tmp_path / "traj.csv"
    assert run(["henon-plot", "--sym", str(keys) + ".sym", "--n", "10000", "--out", str(out)]) == EXIT_OK
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "x,y"
    pts = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert pts.shape == (10000, 2)
    assert np.abs(pts[:, 0]).max() <= 1.5
    assert np.abs(pts[:, 1]).max() <= 0.45
    out2 = tmp_path / "traj2.csv"
    run(["henon-plot", "--sym", str(keys) + ".sym", "--n", "10000", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_henon_plot_zero_points(tmp_path, keys):
    out = tmp_path / "empty.csv"
    assert run(["henon-plot", "--sym", str(keys) + ".sym", "--n", "0", "--out", str(out)]) == EXIT_OK
    assert out.read_text() == "x,y\n"


@pytest.mark.parametrize("block", [7, images.BAND_BYTES // 16])
def test_henon_plot_blocks_give_the_bytes_of_one_joined_csv(tmp_path, keys, block, monkeypatch):
    # the CSV is formatted in blocks of images.BAND_BYTES // 16 rows; a block of 7 splits 1000 rows unevenly,
    # and the default budget takes them in one block
    monkeypatch.setattr(images, "BAND_BYTES", 16 * block)
    out = tmp_path / "traj.csv"
    assert run(["henon-plot", "--sym", str(keys) + ".sym", "--n", "1000", "--out", str(out)]) == EXIT_OK
    points = henon.henon_trajectory(henon.load_sym_key(str(keys) + ".sym"), 1000)
    lines = ["x,y"] + [f"{float(x)!r},{float(y)!r}" for x, y in points]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "text,code",
    [("nan 0.1\n", EXIT_IO), ("0.1 0.1\n1.4 0.3\n-1\n", EXIT_IO), ("0.1 0.1\n1.4 0.3\n3000000\n", EXIT_IO),
     ("0.1 0.1\n0.0 0.0\n1000\n", EXIT_IO), ("0.1 0.1\n1.4 0.3\n1000\n\n7\n", EXIT_IO), ("3.0 3.0\n1.4 0.3\n0\n", EXIT_DIVERGENCE),
     ("0.1_2 0.05\n", EXIT_IO), ("0.1 0.1\n1.4 0.3\n1_000\n", EXIT_IO)],  # float and int would take 0.1_2 and 1_000
    ids=["nan-point", "negative-burn-in", "burn-in-over-cap", "weak-key", "fourth-line", "diverging", "underscore-point", "underscore-burn-in"],
)
def test_henon_plot_bad_sym_key_exit_code(tmp_path, text, code, capsys):
    sym = tmp_path / "bad.sym"
    sym.write_text(text)
    out = tmp_path / "traj.csv"
    assert run(["henon-plot", "--sym", str(sym), "--n", "10", "--out", str(out)]) == code
    assert "bad.sym" in capsys.readouterr().err
    assert not out.exists()


def _train_and_round_trip(tmp_path, keys, *train_args):
    """Train a model on a small dataset, then encrypt and decrypt one of its images with it."""
    data_dir = tmp_path / "data"
    run(["make-dataset", str(data_dir), "--count", "6", "--size", "8", "--seed", "3"])
    model = tmp_path / "nn.lscm"
    rc = run([
        "train", str(data_dir), str(model),
        "--m", "6", "--hidden", "16", "--seed", "1", "--batch-size", "2", *train_args,
    ])
    assert rc == EXIT_OK
    img = tmp_path / "data" / "img_0000.pgm"
    payload = tmp_path / "p.lsp"
    assert run(chain("encrypt", img, model, keys, payload)) == EXIT_OK
    recon = tmp_path / "r.pgm"
    assert run(chain("decrypt", payload, model, keys, recon)) == EXIT_OK
    assert images.read_image(recon).shape == (8, 8)


def test_train_and_use_neural_model(tmp_path, keys):
    _train_and_round_trip(tmp_path, keys, "--epochs", "20")


def test_adversarial_train_and_use_neural_model(tmp_path, keys):
    _train_and_round_trip(tmp_path, keys, "--lam", "0.1", "--epochs", "2")


def test_train_on_images_of_different_sizes_exit_code(tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    images.write_image(images.smooth_gradient(8), data_dir / "a.pgm")
    images.write_image(images.smooth_gradient(16), data_dir / "b.pgm")
    model = tmp_path / "nn.lscm"
    rc = run(["train", str(data_dir), str(model), "--m", "4", "--hidden", "8", "--epochs", "1"])
    assert rc == EXIT_FORMAT
    err = capsys.readouterr().err
    assert "differ in shape" in err and "Traceback" not in err
    assert not model.exists()


def test_train_of_a_model_over_the_cap_exit_code(tmp_path, capsys):
    # a billion hidden units would take 477 GiB of weights: refused before any is drawn
    data_dir = tmp_path / "data"
    images.make_dataset(data_dir, 2, 8, 0)
    model = tmp_path / "nn.lscm"
    start = time.perf_counter()
    rc = run(["train", str(data_dir), str(model), "--hidden", "1000000000", "--epochs", "1"])
    assert time.perf_counter() - start < 1.0
    assert rc == EXIT_IO
    err = capsys.readouterr().err
    assert "model cap" in err and "Traceback" not in err
    assert not model.exists()


def test_send_recv_cli(tmp_path, keys, dct_model_path, test_image):
    # recv on port 0 listens on a port the kernel picks, and names it on its first line before it waits
    payload = tmp_path / "p.lsp"
    run(chain("encrypt", test_image, dct_model_path, keys, payload))
    out = tmp_path / "received.lsp"
    recv = python("-m", "latentseal.cli", "recv", "0", "--out", str(out), "--timeout", "10")
    with subprocess.Popen(**recv, stdout=subprocess.PIPE) as proc:
        try:
            assert run(["send", str(payload), f"127.0.0.1:{listening_port(proc)}"]) == EXIT_OK
            rest, _ = proc.communicate(timeout=30)
        finally:
            proc.kill()
    assert (proc.returncode, rest) == (EXIT_OK, f"received {payload.stat().st_size} bytes to {out}\n")
    assert out.read_bytes() == payload.read_bytes()


@pytest.fixture()
def recv_in_thread(monkeypatch):
    """start(*args): a started thread that runs `recv 0 *args` through cli.main, the port that recv
    listens on, from the socket transfer.listen returns, and a dict that holds recv's exit code once
    the thread ends."""
    ports = queue.Queue()
    listen = transfer.listen

    def listen_and_report(port):
        srv = listen(port)
        ports.put(srv.getsockname()[1])
        return srv

    monkeypatch.setattr(transfer, "listen", listen_and_report)

    def start(*args):
        codes = {}
        t = threading.Thread(target=lambda: codes.update(recv=run(["recv", "0", *args])))
        t.start()
        return t, ports.get(timeout=10), codes

    return start


@pytest.mark.skipif(not socket.has_dualstack_ipv6(), reason="no dual-stack sockets")
def test_recv_takes_ipv6_and_ipv4_senders(tmp_path, recv_in_thread):
    payload = tmp_path / "p.lsp"
    payload.write_bytes(wire._pack_header(0, 1, 1, 1) + bytes(4 + wire.OVERHEAD))
    for host in ("[::1]", "127.0.0.1"):
        out = tmp_path / "received.lsp"
        t, port, codes = recv_in_thread("--out", str(out), "--timeout", "10")
        assert run(["send", str(payload), f"{host}:{port}"]) == EXIT_OK
        t.join(timeout=10)
        assert codes.get("recv") == EXIT_OK, host
        assert out.read_bytes() == payload.read_bytes()
        out.unlink()


@pytest.mark.parametrize("fault", ["version", "codec", "length"])
def test_recv_of_a_frame_decrypt_refuses_exit_code(tmp_path, keys, dct_model_path, test_image, fault, recv_in_thread, capsys):
    payload = tmp_path / "p.lsp"
    run(chain("encrypt", test_image, dct_model_path, keys, payload))
    data = bytearray(payload.read_bytes())
    if fault == "version":
        data[4] += 1
    elif fault == "codec":
        data[5] = 2  # neither DCT (0) nor neural (1)
    else:
        data += b"\0"
    out = tmp_path / "received.lsp"
    t, port, codes = recv_in_thread("--out", str(out), "--timeout", "10")
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.sendall(len(data).to_bytes(4, "big") + data)
    t.join(timeout=10)
    assert not t.is_alive()
    assert codes["recv"] == EXIT_FORMAT
    assert not out.exists()
    assert "Traceback" not in capsys.readouterr().err


def test_send_of_a_payload_decrypt_refuses_connects_to_nobody_exit_code(tmp_path, capsys):
    junk = tmp_path / "junk.lsp"
    junk.write_bytes(np.random.default_rng(0).bytes(100))
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        assert run(["send", str(junk), "127.0.0.1:%d" % listener.getsockname()[1]]) == EXIT_FORMAT
        listener.setblocking(False)
        with pytest.raises(BlockingIOError):  # no connection is waiting
            listener.accept()
    err = capsys.readouterr().err
    assert "missing payload magic" in err and "Traceback" not in err


def test_encrypt_with_a_million_empty_layers_exit_code(tmp_path, keys, test_image, capsys):
    model = tmp_path / "empty_layers.lscm"
    stack = (1_000_000).to_bytes(4, "little") + bytes(8 * 1_000_000)
    model.write_bytes(codec.MODEL_MAGIC + bytes([codec.MODEL_VERSION, wire.KIND_NEURAL]) + bytes(4) + stack + stack)
    out = tmp_path / "p.lsp"
    rc = run(chain("encrypt", test_image, model, keys, out))
    assert rc == EXIT_IO
    assert not out.exists()
    assert "1000000 layers" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["encrypt"])  # missing required flags
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command,option",
    [
        ("recv 99999 --out out", "port"),
        ("recv 9 --out out --timeout -1", "--timeout"),
        ("recv 9 --out out --timeout inf", "--timeout"),
        ("send p.lsp 127.0.0.1:9 --throttle 0", "--throttle"),
        ("send p.lsp 127.0.0.1:9 --throttle 1e-300", "--throttle"),  # would overflow time.sleep
        ("recv 0 --out out --timeout 1e10", "--timeout"),  # would overflow settimeout
        ("send p.lsp 127.0.0.1:74536", "dest"),  # getaddrinfo would wrap it to port 9000
        ("send p.lsp 127.0.0.1:²", "dest"),  # a digit that int() refuses
        ("send p.lsp 127.0.0.1:-1", "dest"),
        ("send p.lsp :9", "dest"),
        ("send p.lsp 127.0.0.1", "dest"),
        ("henon-plot --sym k.sym --n -5 --out out", "--n"),
        ("henon-plot --sym k.sym --n 1000001 --out out", "--n"),
        ("train data out --batch-size 0", "--batch-size"),
        ("train data out --m 0", "--m"),
        ("train data out --hidden 16 0", "--hidden"),
        ("train data out --seed -1", "--seed"),
        ("train data out --epochs -1", "--epochs"),
        ("evaluate data --model m --sym s --pub p --priv q --out out --window 0", "--window"),
        ("make-model out --m 0", "--m"),
        ("make-model out --m 65536", "--m"),
        ("train data out --m 70000", "--m"),
        ("train data out --lr 0", "--lr"),
        ("train data out --lr nan", "--lr"),
        ("train data out --lr inf", "--lr"),
        ("train data out --lam -1", "--lam"),
        ("train data out --lam nan", "--lam"),
        ("make-dataset out --count -3", "--count"),
        ("make-dataset out --size 0", "--size"),
        ("make-dataset out --size 4097", "--size"),  # 4097 x 4097 is over MAX_PIXELS
        ("make-dataset out --seed -1", "--seed"),
        ("keygen out --seed -1", "--seed"),
        ("keygen kg/", "out_prefix"),  # would write kg.priv beside the directory
    ],
)
def test_out_of_range_number_is_usage_error(tmp_path, monkeypatch, command, option, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(command.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {option}: want " in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


_LARGEST = repr(sys.float_info.max)
_SMALLEST = repr(math.ulp(0.0))  # 5e-324, the least float above 0

# (range type, lowest legal, highest legal, just below, just above), as typed; None where the range has no end
ARGUMENT_EDGES = [
    (cli._POSITIVE, "1", None, "0", None),
    (cli._NON_NEGATIVE, "0", None, "-1", None),
    (cli._PORT, "0", "65535", "-1", "65536"),
    (cli._POSITIVE_FINITE, _SMALLEST, _LARGEST, "0", "inf"),
    (cli._NON_NEGATIVE_FINITE, "0", _LARGEST, "-" + _SMALLEST, "inf"),
    (cli._SECONDS, _SMALLEST, "86400", "0", repr(math.nextafter(86400, math.inf))),
    (cli._RATE, "1", _LARGEST, repr(math.nextafter(1, 0)), "inf"),
    (cli._SIDE, "1", "4096", "0", "4097"),  # 4096 x 4096 is MAX_PIXELS
    (cli._M, "1", "65535", "0", "65536"),
    (cli._POINTS, "0", "1000000", "-1", "1000001"),
    (cli._DEST, "h:0", "::1:65535", "h:-1", "::1:65536"),
]


def test_argument_bounds_at_their_limits():
    # every range type has a row; _PREFIX checks a path, not a range
    ranges = {value for value in vars(cli).values() if getattr(value, "__qualname__", "") == "_checked.<locals>.parse"}
    assert ranges - {cli._PREFIX} == {row[0] for row in ARGUMENT_EDGES}
    for parse, lowest, highest, below, above in ARGUMENT_EDGES:
        for text in filter(None, (lowest, highest)):
            parse(text)
        for text in filter(None, (below, above)):
            with pytest.raises(argparse.ArgumentTypeError):
                parse(text)
    assert cli._DEST("::1:65535") == cli._DEST("[::1]:65535") == ("::1", 65535)  # RFC 3986's bracketed IPv6 host
    with pytest.raises(argparse.ArgumentTypeError):
        cli._DEST("[]:9")


def test_parser_built_once_and_calls_repeat(tmp_path, keys, capsys):
    assert cli.build_parser() is cli.build_parser()
    sym = str(keys) + ".sym"
    seen = []
    for _ in range(2):
        out = tmp_path / "traj.csv"
        ok = run(["henon-plot", "--sym", sym, "--n", "50", "--out", str(out)])
        failed = run(["henon-plot", "--sym", str(tmp_path / "missing.sym"), "--out", str(out)])
        captured = capsys.readouterr()
        seen.append((ok, failed, captured.out, captured.err, out.read_bytes()))
        for argv in (["encrypt"], ["no-such-command"], []):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
        capsys.readouterr()
    assert seen[0] == seen[1]
    assert seen[0][:2] == (EXIT_OK, EXIT_IO)


@pytest.mark.parametrize("suffix", ["sym", "pub", "priv"])
def test_oversized_key_file_exit_code(tmp_path, keys, dct_model_path, suffix, capsys):
    path = tmp_path / f"key.{suffix}"
    path.write_bytes(path.read_bytes() + b"\n" * (3 << 20))
    rc = run(chain("evaluate", tmp_path, dct_model_path, keys, tmp_path / "report.csv"))
    assert rc == EXIT_IO
    assert f"key.{suffix}" in capsys.readouterr().err


def run_program(args):
    """`python -m latentseal.cli args` run to its end in a new process, as a user runs it."""
    return subprocess.run(**python("-m", "latentseal.cli", *args), capture_output=True, timeout=60)


def test_program_writes_what_main_writes(tmp_path, dct_model_path, test_image, capsys):
    written = {}
    for side in ("program", "main"):
        d = tmp_path / side
        d.mkdir()
        k = str(d / "key")
        steps = [
            (["keygen", k, "--seed", "42"], "wrote "),
            (chain("encrypt", test_image, dct_model_path, k, d / "img.lsp"), "encrypt_s="),
            (chain("decrypt", d / "img.lsp", dct_model_path, k, d / "recon.pgm"), "decrypt_s="),
        ]
        for argv, printed in steps:
            if side == "program":
                proc = run_program(argv)
                code, out = proc.returncode, proc.stdout
            else:
                code, out = cli.main(argv), capsys.readouterr().out
            assert (code, out.startswith(printed)) == (EXIT_OK, True), (side, argv, out)
        written[side] = {path.name: path.read_bytes() for path in d.iterdir()}
    # each encrypt draws a fresh ephemeral key, so the payloads agree in header and length only
    sealed = written["program"].pop("img.lsp"), written["main"].pop("img.lsp")
    assert sealed[0][: wire.HEADER_LEN] == sealed[1][: wire.HEADER_LEN]
    assert len(sealed[0]) == len(sealed[1])
    assert sorted(written["program"]) == ["key.priv", "key.pub", "key.sym", "recon.pgm"]
    assert written["program"] == written["main"]


def test_program_exit_codes(tmp_path, keys, dct_model_path, test_image):
    missing = run_program(["encrypt", str(test_image), "--model", str(dct_model_path), "--sym", str(tmp_path / "none.sym"),
                           "--pub", str(keys) + ".pub", "--out", str(tmp_path / "out.lsp")])
    out_of_range = run_program(["make-model", str(tmp_path / "m.lscm"), "--m", "0"])
    assert (missing.returncode, out_of_range.returncode) == (EXIT_IO, 2)
    assert "error: cannot read" in missing.stderr and "none.sym" in missing.stderr
    assert "error: argument --m: want " in out_of_range.stderr
    assert "Traceback" not in missing.stderr + out_of_range.stderr
    assert not (tmp_path / "out.lsp").exists() and not (tmp_path / "m.lscm").exists()


def test_an_interrupted_program_exits_130_with_one_line_and_no_output_file(tmp_path):
    # Ctrl-C while recv waits on a connected sender that sends nothing
    recv = python("-m", "latentseal.cli", "recv", "0", "--out", str(tmp_path / "in.lsp"))
    with subprocess.Popen(**recv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            with socket.create_connection(("127.0.0.1", listening_port(proc))):
                proc.send_signal(signal.SIGINT)
                _, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
    assert (proc.returncode, err) == (130, "error: interrupted\n")
    assert list(tmp_path.iterdir()) == []


# every LatentSealError class and the exit code the CLI returns for it; a new class must be added here
EXIT_CODES = {
    errors.LatentSealError: EXIT_IO,
    errors.AuthFailureError: EXIT_AUTH,
    errors.InvalidPointError: EXIT_AUTH,
    errors.BadHeaderError: EXIT_FORMAT,
    errors.FrameTooLargeError: EXIT_FORMAT,
    errors.MTooLargeError: EXIT_FORMAT,
    errors.NonFiniteLatentError: EXIT_FORMAT,
    errors.ShapeMismatchError: EXIT_FORMAT,
    errors.DivergenceError: EXIT_DIVERGENCE,
    errors.DimMismatchError: EXIT_IO,
    errors.IoError: EXIT_IO,
    errors.NonFiniteLossError: EXIT_IO,
    errors.WeakKeyError: EXIT_IO,
    errors.WindowTooLargeError: EXIT_IO,
}


def _with_subclasses(cls) -> set:
    return {cls}.union(*map(_with_subclasses, cls.__subclasses__()))


def test_every_error_class_owns_its_documented_exit_code():
    assert _with_subclasses(errors.LatentSealError) == set(EXIT_CODES)
    assert {cls: cls.exit_code for cls in EXIT_CODES} == EXIT_CODES


@pytest.mark.parametrize("error,code", [*EXIT_CODES.items(), (OSError, EXIT_IO)], ids=lambda v: getattr(v, "__name__", str(v)))
def test_main_returns_the_exit_code_of_the_error_a_command_raises(tmp_path, monkeypatch, error, code, capsys):
    def fail(m):
        raise error("injected")

    monkeypatch.setattr(codec, "dct_model", fail)
    assert run(["make-model", str(tmp_path / "m.lscm")]) == code
    assert capsys.readouterr().err == "error: injected\n"
