"""The benchmark in perfbench/ must keep working against snndfe.

A traced benchmark run (`perfbench/run.py --trace 1`) wraps snndfe functions
where their callers look them up; renaming one of them in `src/` would break
only that run. These tests install and restore the patches of every workload
in BENCHMARK.json without running any workload, and run the output checks of
the three closed-loop engines, whose pinned bit errors change with any change
of channel or engine output, and count those engines' passes on the check
frames.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from snndfe import train
from snndfe.channel import ChannelConfig
from snndfe.equalizer import TopologyConfig, equalize_stream
from snndfe.fxp import load_fxp_model, save_fxp_model
from snndfe.harness import _eval_frame
from snndfe.quant import QatConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import run
        import tracing
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return run, tracing, workloads


@pytest.mark.parametrize("name", WORKLOADS)
def test_patches_install_and_restore(bench, name, tmp_path):
    run, tracing, workloads = bench
    workload = workloads.make(name, 0, str(tmp_path))
    tracer = tracing.Tracer()
    try:
        run.install_patches(tracer, workload)
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) != original, f"{attr} was not replaced"
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) == original, f"{attr} was not restored"


def test_traced_training_counts_its_patch_points(bench, tmp_path):
    # train.train looks up teacher_forced_windows, loss_and_grads, adam_step
    # and fake_quantize_with_mask in train's namespace, where train_desk_qat's
    # patches count them: one window build, gradient and update per batch.
    # Its frames come from harness.link_frame, where the simulate_link patch
    # counts the calibration frame and one frame per batch.
    run, tracing, workloads = bench
    tracer = tracing.Tracer()
    cfg = train.TrainConfig(batches_per_epoch=2, batch_size=16, qat=QatConfig())
    topology = TopologyConfig(n_tap=3, hidden=4, steps=2)
    try:
        run.install_patches(tracer, workloads.make("train_desk_qat", 0, str(tmp_path)))
        train.train(ChannelConfig(), topology, cfg)
    finally:
        tracer.restore()
    spans = tracer.summary()
    for name in ("teacher_forced_windows", "loss_and_grads", "adam_step"):
        assert spans[f"train.{name}"]["calls"] == 2, name
    assert spans["quant.fake_quantize_with_mask"]["calls"] > 0
    assert spans["channel.simulate_link"]["calls"] == 2 + 1
    assert tracer.counts["channel.symbols"] == 20_000 + 2 * (16 + topology.history)


@pytest.mark.one_blas_thread
def test_ber_int_output_checks_pass(bench, tmp_path):
    _, _, workloads = bench
    workload = workloads.make("ber_int", 0, str(tmp_path))
    checks = workload.checks(workload.setup())
    assert checks
    assert [(c.name, c.detail) for c in checks if not c.ok] == []
    assert workload.report["baseline_bit_errors"] == workloads.PINNED_BIT_ERRORS["baseline"]


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("engine", ["float", "qat"])
def test_ber_float_and_qat_output_checks_pass(bench, engine, tmp_path):
    # perfbench only reports a float or QAT-float count that differs from its
    # pin; here a difference fails
    _, _, workloads = bench
    workload = workloads.make(f"ber_{engine}", 0, str(tmp_path))
    checks = workload.checks(workload.setup())
    assert [(c.name, c.detail) for c in checks if not c.ok] == []
    assert workload.report["bit_errors"] == workloads.PINNED_BIT_ERRORS[engine]


def test_ber_int_model_survives_its_file(bench, tmp_path):
    # the loader's checks must never refuse the benchmark's converted model
    _, _, workloads = bench
    model = workloads.make("ber_int", 0, str(tmp_path)).setup()
    path = tmp_path / "fixture_fxp.npz"
    save_fxp_model(path, model)
    loaded = load_fxp_model(path)
    _, y = _eval_frame(ChannelConfig(), workloads.SNRS_DB[1], workloads.CHECK_SYMBOLS,
                       workloads.CHECK_SEED)
    np.testing.assert_array_equal(equalize_stream(y, loaded), equalize_stream(y, model))


# Decider calls (closed-loop passes) over the three check frames, recorded when
# the first guesses became the received bins; with every first guess the fill
# class they were 280, 282 and 310. Deterministic, so a change that needs more
# passes to reach the same decisions shows here.
PASSES = {"float": 235, "qat": 234, "int": 255}


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("engine", sorted(PASSES))
def test_check_frame_passes_do_not_grow(bench, engine, tmp_path, monkeypatch):
    _, _, workloads = bench
    workload = workloads.make(f"ber_{engine}", 0, str(tmp_path))
    model = workload.setup()
    calls = 0
    make_decider = type(model).make_decider

    def counting_decider(self):
        decide = make_decider(self)

        def counted(windows, stats=None):
            nonlocal calls
            calls += 1
            return decide(windows, stats)

        return counted

    monkeypatch.setattr(type(model), "make_decider", counting_decider)
    workload._decisions(model, workloads.CHECK_SYMBOLS, workloads.CHECK_SEED)
    assert calls <= PASSES[engine]


@pytest.mark.parametrize("name, counter", [("ber_int", "fxp.fxp_forward.calls"),
                                           ("ber_qat", "quant.fake_quantize.calls")])
def test_traced_run_sees_the_engine(bench, name, counter, tmp_path, monkeypatch, capsys):
    # the traced per-layer metrics come from patched module attributes; an
    # engine that stopped looking them up would read 0 (or only the 7 weight
    # quantizations per stream) here
    run, _, workloads = bench
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() prepends src/ and perfbench/
    assert run.main(["--workload", name, "--seed", "0", "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"]
    calls = result["metrics"][counter]["value"]
    decisions = result["metrics"]["equalizer.decide.calls"]["value"]
    steps = workloads.fixture.load_fixture()[0]["topology"]["steps"]
    assert calls > 0 and decisions > 0
    # one integer forward per decider call; QAT-float quantizes every step
    assert calls == decisions if name == "ber_int" else calls >= steps * decisions


def test_traced_dse_sweep_runs(bench, tmp_path, monkeypatch, capsys):
    # dse_sweep builds TrialResults by keyword and resumes dse.search from its file
    run, _, _ = bench
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() prepends src/ and perfbench/
    args = ["--workload", "dse_sweep", "--seed", "0", "--seconds", "0", "--trace", "1"]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"]
    assert result["metrics"]["dse.trials"]["value"] == 3200
    for span in ("dse.search.s", "dse.load_results.s", "dse.pareto_front.s"):
        assert span in result["metrics"]
