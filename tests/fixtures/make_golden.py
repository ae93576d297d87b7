"""Regenerate the golden pre-refactor prediction fixtures.

These fixtures pin the *exact* float behaviour of the NSHD / BaselineHD /
VanillaHD inference paths (and their exported serve bundles) at the
commit immediately **before** the stage-graph refactor.  The refactor is
required to be bit-exact, so the committed ``.npz`` files in this
directory must keep reproducing verbatim on every later revision:

* ``golden_inputs.npz`` — the frozen test images plus, per pipeline, the
  expected predicted labels (float path) and — where the packed
  XOR-popcount path applies — the packed-path labels of the binarized
  bundle.
* ``golden_<name>_ckpt.npz`` — a pipeline training checkpoint (legacy
  format: no graph-topology manifest section).
* ``golden_<name>_bundle.npz`` / ``golden_<name>_bundle_packed.npz`` —
  pre-refactor serve bundles (no ``info["graph"]`` key), float and
  binarized exports.
* ``golden_model.npz`` — the tiny trained CNN's weights, so tests can
  reconstruct the NSHD / BaselineHD pipelines deterministically without
  re-training the CNN.

Run from the repo root (only needed when *intentionally* re-pinning,
e.g. after a deliberate numerics change)::

    PYTHONPATH=src python tests/fixtures/make_golden.py
"""

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.data import make_dataset, normalize_images  # noqa: E402
from repro.learn import NSHD, BaselineHD, VanillaHD  # noqa: E402
from repro.models import create_model, train_cnn  # noqa: E402
from repro.nn.serialize import save_state  # noqa: E402
from repro.serve import InferenceEngine, ModelBundle  # noqa: E402

#: Shared fixture geometry — keep in sync with tests/test_pipeline_golden.py.
SPEC = {
    "num_classes": 4,
    "num_train": 120,
    "num_test": 48,
    "data_seed": 23,
    "image_size": 32,
    "model": "vgg16",
    "width_mult": 0.125,
    "model_seed": 3,
    "cnn_epochs": 2,
    "layer_index": 21,
    "dim": 256,
    "reduced_features": 16,
    "seed": 0,
    "epochs": 2,
}


def build_dataset():
    x_tr, y_tr, x_te, y_te = make_dataset(
        num_classes=SPEC["num_classes"], num_train=SPEC["num_train"],
        num_test=SPEC["num_test"], seed=SPEC["data_seed"])
    x_tr, mean, std = normalize_images(x_tr)
    x_te, _, _ = normalize_images(x_te, mean, std)
    return x_tr, y_tr, x_te, y_te


def build_model(x_tr, y_tr):
    model = create_model(SPEC["model"], num_classes=SPEC["num_classes"],
                         width_mult=SPEC["width_mult"],
                         seed=SPEC["model_seed"])
    train_cnn(model, x_tr, y_tr, epochs=SPEC["cnn_epochs"], batch_size=32,
              lr=2e-3, seed=SPEC["model_seed"], augment=False)
    return model


def main() -> None:
    x_tr, y_tr, x_te, y_te = build_dataset()
    model = build_model(x_tr, y_tr)
    save_state({name: np.asarray(value)
                for name, value in model.state_dict().items()},
               os.path.join(HERE, "golden_model.npz"),
               meta={"spec": SPEC})

    golden = {
        "x_te": np.asarray(x_te),
        "y_te": np.asarray(y_te),
    }

    pipelines = {
        "nshd": NSHD(model, layer_index=SPEC["layer_index"],
                     dim=SPEC["dim"],
                     reduced_features=SPEC["reduced_features"],
                     seed=SPEC["seed"]),
        "baselinehd": BaselineHD(model, layer_index=SPEC["layer_index"],
                                 dim=SPEC["dim"], seed=SPEC["seed"]),
        "vanillahd": VanillaHD(num_classes=SPEC["num_classes"],
                               image_size=SPEC["image_size"],
                               dim=SPEC["dim"], seed=SPEC["seed"]),
    }

    for name, pipeline in pipelines.items():
        pipeline.fit(x_tr, y_tr, epochs=SPEC["epochs"])
        pipeline.save_checkpoint(
            os.path.join(HERE, f"golden_{name}_ckpt.npz"),
            epoch=SPEC["epochs"])
        golden[f"{name}.labels"] = np.asarray(pipeline.predict(x_te))
        if hasattr(pipeline, "extractor"):
            raw = pipeline.extractor.extract(x_te)
        else:
            raw = np.asarray(x_te).reshape(len(x_te), -1)
        golden[f"{name}.raw_features"] = raw
        golden[f"{name}.encoded"] = np.asarray(pipeline.encode(x_te))

        bundle = ModelBundle.from_pipeline(pipeline,
                                           config={"golden": name, **SPEC})
        bundle.save(os.path.join(HERE, f"golden_{name}_bundle.npz"))
        engine = InferenceEngine(bundle, cache_size=0)
        golden[f"{name}.engine_labels"] = np.asarray(
            engine.predict_features(raw))

        # Packed path: only meaningful for quantizing random-projection
        # encoders (NSHD / BaselineHD).
        if getattr(pipeline.encoder, "quantize", False):
            packed_bundle = ModelBundle.from_pipeline(
                pipeline, config={"golden": name, **SPEC}, binarize=True)
            packed_bundle.save(
                os.path.join(HERE, f"golden_{name}_bundle_packed.npz"))
            packed_engine = InferenceEngine(packed_bundle, cache_size=0)
            assert packed_engine.packed_path
            golden[f"{name}.packed_labels"] = np.asarray(
                packed_engine.predict_features(raw))

    np.savez_compressed(os.path.join(HERE, "golden_inputs.npz"), **golden)
    with open(os.path.join(HERE, "golden_spec.json"), "w") as handle:
        json.dump(SPEC, handle, indent=2, sort_keys=True)
    for key in sorted(golden):
        print(f"{key}: shape={np.asarray(golden[key]).shape}")
    print("golden fixtures written to", HERE)


if __name__ == "__main__":
    main()
