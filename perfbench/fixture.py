"""The ber_* workloads' fixed model: the paper point (17 taps, hidden 72, T 5).

The model is stored as plain float64 arrays (`paper_point.npz`) plus a JSON
file of topology, LIF, encoder and QAT constants (`paper_point.json`), not in
snndfe's versioned model container, so a container format change cannot break
the benchmark and a training-code change cannot move the ber_* figures. The
JSON carries a SHA-256 over the arrays and constants, checked on every load.

Regenerate (deterministic; about 15 s on a 2-core x86 box):

    python3 perfbench/fixture.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ARRAYS_PATH = HERE / "paper_point.npz"
CONSTANTS_PATH = HERE / "paper_point.json"
PARAM_NAMES = ("w_fc0", "b_fc0", "w_fc1", "b_fc1", "w_fc2", "w_fc3", "b_fc3")

# Desk-scale QAT training: the TrialScale batch size, shift-friendly LIF.
TRAIN_BATCHES = 400
TRAIN_BATCH_SIZE = 500
TRAIN_SEED = 0


class FixtureError(RuntimeError):
    """The stored fixture is missing, incomplete or fails its checksum."""


def checksum(constants: dict, arrays: dict) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(constants, sort_keys=True).encode())
    for name in PARAM_NAMES:
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        digest.update(f"{name}:{arr.shape}".encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def load_fixture() -> tuple:
    """(constants, arrays) of the stored model, after the checksum check."""
    try:
        record = json.loads(CONSTANTS_PATH.read_text())
        with np.load(ARRAYS_PATH, allow_pickle=False) as data:
            arrays = {name: data[name] for name in PARAM_NAMES}
    except (OSError, KeyError, ValueError) as exc:
        raise FixtureError(f"cannot read the fixture: {exc}") from exc
    constants = record["constants"]
    if checksum(constants, arrays) != record["sha256"]:
        raise FixtureError("fixture checksum mismatch")
    return constants, arrays


def build_model(constants: dict, arrays: dict, qat: bool):
    """EqualizerModel from the fixture; QAT-float when `qat`, else float."""
    from snndfe.equalizer import EncoderConfig, EqualizerModel, TopologyConfig
    from snndfe.lif import LifParams
    from snndfe.quant import QatConfig

    return EqualizerModel(
        config=TopologyConfig(**constants["topology"]),
        lif=LifParams(**constants["lif"]),
        encoder=EncoderConfig(**constants["encoder"]),
        qat=QatConfig(**constants["qat"]) if qat else None,
        **{name: arrays[name].copy() for name in PARAM_NAMES},
    )


def regenerate() -> None:
    from snndfe.channel import ChannelConfig
    from snndfe.equalizer import TopologyConfig
    from snndfe.lif import LifParams
    from snndfe.quant import QatConfig
    from snndfe.train import TrainConfig, train

    topology = TopologyConfig(n_tap=17, hidden=72, steps=5)
    qat = QatConfig(weight_bits=8, state_bits=8)
    lif = LifParams.shift_friendly()
    cfg = TrainConfig(epochs=1, batches_per_epoch=TRAIN_BATCHES,
                      batch_size=TRAIN_BATCH_SIZE, qat=qat, seed=TRAIN_SEED)
    model, log = train(ChannelConfig(), topology, cfg, lif=lif)
    constants = {
        "topology": {"n_tap": topology.n_tap, "bits_per_symbol": topology.bits_per_symbol,
                     "hidden": topology.hidden, "steps": topology.steps},
        "lif": {"alpha_v": lif.alpha_v, "alpha_i": lif.alpha_i, "v_th": lif.v_th,
                "v_r": lif.v_r, "v_leak": lif.v_leak, "r": lif.r},
        "encoder": {"rx_min": model.encoder.rx_min, "rx_max": model.encoder.rx_max},
        "qat": {"weight_bits": qat.weight_bits, "state_bits": qat.state_bits},
    }
    arrays = model.parameters()
    np.savez(ARRAYS_PATH, **arrays)
    record = {
        "constants": constants,
        "sha256": checksum(constants, arrays),
        "training": {"batches": TRAIN_BATCHES, "batch_size": TRAIN_BATCH_SIZE,
                     "seed": TRAIN_SEED, "first_loss": log[0][1], "last_loss": log[-1][1]},
    }
    CONSTANTS_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {ARRAYS_PATH.name} and {CONSTANTS_PATH.name}; "
          f"loss {log[0][1]:.4f} -> {log[-1][1]:.4f}")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    regenerate()
