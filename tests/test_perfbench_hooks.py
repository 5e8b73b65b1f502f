"""The benchmark's tracer wraps library functions by name; a rename must fail here, not drop a span."""

from conftest import perfbench_module
from latentseal import codec, images, pipeline

spans = perfbench_module("spans")


def test_every_span_target_resolves(capsys):
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert "not found" not in capsys.readouterr().err
        assert len(tracer._undo) == sum(len(sites) for sites in spans.TARGETS.values())
    finally:
        tracer.uninstall()


def test_a_round_trip_and_an_evaluate_record_every_span(tmp_path, public_key, private_key, sym_key):
    # a call site that stops looking a target up by its name would leave its span empty
    tracer = spans.Tracer()
    path = tmp_path / "in.pgm"
    images.write_image(images.smooth_gradient(32), path)
    model = codec.dct_model(16)
    try:
        tracer.install()
        tracer.active = True
        img = images.read_image(path)
        payload, _ = pipeline.compress_encrypt(img, model, sym_key, public_key)
        opened = pipeline.EncryptedPayload.parse(payload.serialize())
        recon, _ = pipeline.decrypt_reconstruct(opened, model, sym_key, private_key)
        images.write_image(recon, tmp_path / "out.pgm")
        pipeline.evaluate(img, model, sym_key, public_key, private_key, window=7)
    finally:
        tracer.active = False
        tracer.uninstall()
    recorded = {span[1] for span in tracer.spans}
    assert set(spans.TARGETS) - recorded == set()
