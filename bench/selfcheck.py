"""Shows that every benchmark check passes on good outputs and fails on perturbed ones.

    python3 bench/selfcheck.py

Each case builds a real program output at a tiny scale, runs the check
on it (it must pass), then perturbs one value (it must fail). Exits 1 if
any check misses its perturbation or flags a good output.
"""

import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from scenekit.backbone import BackboneConfig, ConvStage  # noqa: E402
from scenekit.checkpoint import Checkpoint, checkpoint_bytes, load_checkpoint, save_checkpoint  # noqa: E402
from scenekit.data import decode_ppm, encode_ppm, one_hot  # noqa: E402
from scenekit.fusion import FusionInput, prod_fuse  # noqa: E402
from scenekit.model import desk_model_config, init_params  # noqa: E402
from scenekit.tensor import no_grad  # noqa: E402
from scenekit.trainer import OptimizerState, TrainConfig, evaluate  # noqa: E402


def _arrays(params) -> dict:
    return {n: t.data.copy() for n, t in params.items()}


def main() -> int:
    rng = np.random.default_rng(0)
    cfg = desk_model_config(num_classes=3, hidden_width=16, num_heads=2, key_dim=4,
                            backbone=BackboneConfig(stages=(ConvStage(6, 2, 2),
                                                            ConvStage(8, 2, 2))))
    params = init_params(cfg, "direct", rng=rng)
    images = rng.random((6, 8, 8, 3))
    labels = rng.integers(0, 3, size=6)
    targets = one_hot(labels, 3)
    cases = []  # (name, problems on good input, problems on perturbed input)

    with no_grad():
        probs, loss = workloads.loss_of(params, cfg, images, targets)
    p, d = _arrays(params), cfg.to_dict()
    cases.append(("reference loss, off by 1e-6 relative",
                  checks.check_forward(d, p, images, targets, probs.data, loss.item()),
                  checks.check_forward(d, p, images, targets, probs.data,
                                       loss.item() * (1 + 1e-6))))
    bumped = probs.data.copy()
    bumped[2, 1] *= 1 + 1e-6
    cases.append(("reference forward, one probability off by 1e-6 relative",
                  [], checks.check_forward(d, p, images, targets, bumped, loss.item())))

    train_cfg = TrainConfig()
    state = OptimizerState()
    adam = [workloads.adam_record(params, state, step, cfg, train_cfg, images[step:],
                                  targets[step:]) for step in (1, 2)]
    good = checks.check_adam(*adam[0]) + checks.check_adam(*adam[1])
    swapped = list(adam[1])
    m1, v1 = dict(swapped[10]), dict(swapped[11])
    m1["head.fc2.w"], v1["head.fc2.w"] = v1["head.fc2.w"], m1["head.fc2.w"]
    swapped[10], swapped[11] = m1, v1
    cases.append(("Adam, one swapped moment", good, checks.check_adam(*swapped)))

    probes = workloads.central_differences(params, cfg, images[:2], targets[:2], rng, probes=8)
    off = list(probes)
    k = max(range(len(off)), key=lambda j: abs(off[j][2]))
    n, i, a, num = off[k]
    off[k] = (n, i, a * (1 + 1e-3), num)
    cases.append(("backward vs central differences, one gradient off by 1e-3",
                  checks.check_gradients(probes), checks.check_gradients(off)))

    cases.append(("final-epoch loss above the first",
                  checks.check_loss_falls([5.0, 4.0, 3.0]),
                  checks.check_loss_falls([5.0, 4.0, 5.0])))
    cases.append(("validation accuracy at chance",
                  checks.check_above_chance([60.0, 45.0], 4, 10.0),
                  checks.check_above_chance([30.0, 34.0], 4, 10.0)))

    source = Checkpoint(cfg, init_params(cfg, "direct", rng=rng))
    init = _arrays(init_params(cfg, "transfer", source=source, rng=rng))
    src = _arrays(source.params)
    flipped = dict(init)
    flipped["attn.w.wq"] = init["attn.w.wq"].copy()
    flipped["attn.w.wq"].view(np.uint64)[0, 0] ^= 1
    copied = dict(init, **{"head.fc1.b": src["head.fc1.b"]})
    cases.append(("transfer init, one trunk bit flipped",
                  checks.check_transfer_init(src, init),
                  checks.check_transfer_init(src, flipped)))
    cases.append(("transfer init, a head tensor copied",
                  [], checks.check_transfer_init(src, copied)))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        save_checkpoint(source, path)
        loaded = load_checkpoint(path)
    saved_arrays, loaded_arrays = _arrays(source.params), _arrays(loaded.params)
    nudged = dict(loaded_arrays)
    nudged["head.fc2.b"] = np.nextafter(loaded_arrays["head.fc2.b"], np.inf)
    cases.append(("checkpoint round trip, one value 1 ulp off",
                  checks.check_roundtrip(saved_arrays, loaded_arrays, checkpoint_bytes(source),
                                         checkpoint_bytes(loaded)),
                  checks.check_roundtrip(saved_arrays, nudged, checkpoint_bytes(source),
                                         checkpoint_bytes(loaded))))
    cases.append(("checkpoint round trip, bytes differ", [], checks.check_roundtrip(
        saved_arrays, loaded_arrays, checkpoint_bytes(source), checkpoint_bytes(loaded) + b"\0")))

    eval_probs, acc = evaluate(params, cfg, images, labels)
    scaled = eval_probs.copy()
    scaled[3] *= 1.01
    cases.append(("probability row scaled by 1.01",
                  checks.check_eval(eval_probs, labels, labels, acc),
                  checks.check_eval(scaled, labels, labels, acc)))
    cases.append(("eval accuracy misreported", [],
                  checks.check_eval(eval_probs, labels, labels, acc + 100.0 / 6)))
    cases.append(("eval labels out of order", [],
                  checks.check_eval(eval_probs, labels[::-1], labels, acc)))

    other, _ = evaluate(params, cfg, images, labels, batch_size=4)
    moved = other.copy()
    moved[0, 0] *= 1 + 1e-9
    cases.append(("batch-size invariance, one entry off by 1e-9 relative",
                  checks.check_batch_invariance(eval_probs, other),
                  checks.check_batch_invariance(eval_probs, moved)))

    decoded = np.stack([decode_ppm(encode_ppm(img)) for img in images])
    changed = decoded.copy()
    changed[1, 4, 5, 2] += 1.0 / 255.0
    cases.append(("one-pixel PPM change", checks.check_ppm(decoded, images),
                  checks.check_ppm(changed, images)))

    mats = [rng.dirichlet(np.ones(3), size=40) for _ in range(3)]
    flabels = rng.integers(0, 3, size=40)
    fused = prod_fuse(FusionInput(mats))
    facc = 100.0 * float((fused.argmax(axis=1) == flabels).mean())
    wrong = fused.copy()
    row = wrong[7]
    top, second = np.argsort(row)[-1], np.argsort(row)[-2]
    row[top], row[second] = row[second], row[top]
    cases.append(("fused scores, a row's two best classes swapped",
                  checks.check_fuse(mats, flabels, fused, facc),
                  checks.check_fuse(mats, flabels, wrong, facc)))
    cases.append(("fused accuracy misreported", [],
                  checks.check_fuse(mats, flabels, fused, facc + 2.5)))

    missed = 0
    for name, on_good, on_bad in cases:
        ok = not on_good and bool(on_bad)
        missed += not ok
        detail = on_good[0] if on_good else (on_bad[0] if on_bad else "not detected")
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"{len(cases) - missed}/{len(cases)} checks pass on good outputs and "
          f"fail on perturbed ones")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
