"""Spans around calls into latentseal's modules, recorded from outside.

`install` replaces each covered function at the name its caller looks up
with a wrapper that records a span: function name, operation id, start,
end, parent span and self time (duration minus the time its child spans
cover).  Spans stay in memory until `dump`.
"""

import functools
import importlib
import json
import sys
from time import perf_counter

# span name -> (module, attribute path) at which callers look the function up
TARGETS = {
    "images.read_image": [("latentseal.images", "read_image")],
    "images.write_image": [("latentseal.images", "write_image")],
    "codec.encode": [("latentseal.codec", "CodecModel.encode")],
    "codec.decode": [("latentseal.codec", "CodecModel.decode")],
    "codec.zigzag_indices": [("latentseal.codec", "zigzag_indices")],
    "henon.permutation_for_key": [("latentseal.pipeline", "permutation_for_key")],
    "henon.shuffle": [("latentseal.pipeline", "shuffle")],
    "henon.deshuffle": [("latentseal.pipeline", "deshuffle")],
    "ecies.ecies_encrypt": [("latentseal.pipeline", "ecies_encrypt")],
    "ecies.ecies_decrypt": [("latentseal.pipeline", "ecies_decrypt")],
    "pipeline.serialize": [("latentseal.pipeline", "EncryptedPayload.serialize")],
    "pipeline.parse": [("latentseal.pipeline", "EncryptedPayload.parse")],
    "pipeline.compress_encrypt": [("latentseal.pipeline", "compress_encrypt")],
    "pipeline.decrypt_reconstruct": [("latentseal.pipeline", "decrypt_reconstruct")],
    "metrics.ssim": [("latentseal.pipeline", "ssim")],
    "metrics.mse": [("latentseal.pipeline", "mse"), ("latentseal.metrics", "mse")],
    "metrics.psnr": [("latentseal.pipeline", "psnr")],
}


class Tracer:
    def __init__(self):
        self.spans = []  # (op, name, span_id, parent_id, start, end, self_s, failed)
        self.active = False
        self.op = None
        self._stack = []  # [span_id, seconds covered by children]
        self._next_id = 0
        self._undo = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((self.op, name, span_id, parent, start, end, end - start - frame[1], failed))

        return traced

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is reported and skipped."""
        for name, sites in TARGETS.items():
            for module_name, path in sites:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner).get(attr)
                if raw is None:
                    print(f"perfbench: {module_name}.{path} not found, {name} untraced", file=sys.stderr)
                    continue
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(name, raw.__func__))
                else:
                    patched = self.wrap(name, raw)
                setattr(owner, attr, patched)
                self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def dump(self, path) -> None:
        keys = ("op", "name", "id", "parent", "start", "end", "self_s", "failed")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def load(path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f]
