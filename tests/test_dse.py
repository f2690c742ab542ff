import dataclasses
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snndfe.channel import ChannelConfig
from snndfe.dse import (
    DseSpace,
    TrialResult,
    TrialScale,
    load_results,
    pareto_front,
    run_trial,
    search,
    trial_seed,
)
from snndfe.equalizer import EncoderConfig, EqualizerModel, TopologyConfig
from snndfe.fxp import FxpLifSpec
from snndfe.lif import LifParams
from snndfe.quant import QatConfig
from snndfe.train import TrainConfig, TrainingDiverged, train

CHANNEL = ChannelConfig()


def synthetic_trial(n_tap=3, hidden=4, steps=2, bits=None, mac=None, ber=None, seed=0):
    return TrialResult(
        n_tap=n_tap, hidden=hidden, steps=steps, bits=bits,
        mac=mac if mac is not None else hidden * 100,
        ber={17.0: 0.1} if ber is None else ber,
        seed=seed, wall_time_s=0.0,
    )


def stub_runner(config, channel_cfg, scale, seed):
    """Deterministic fake trial: BER is a decreasing function of cost."""
    mac = TopologyConfig(n_tap=config["n_tap"], hidden=config["hidden"],
                         steps=config["steps"]).macs_per_symbol()
    rng = np.random.default_rng(seed)
    ber = {float(s): float(1.0 / (mac ** 0.5) * (1 + 0.1 * rng.random()) / (1 + s))
           for s in scale.snrs_db}
    return TrialResult(
        n_tap=config["n_tap"], hidden=config["hidden"], steps=config["steps"],
        bits=config["bits"], mac=mac, ber=ber, seed=seed, wall_time_s=0.01,
    )


class TestPareto:
    def test_single_trial_is_its_own_front(self):
        t = synthetic_trial()
        assert pareto_front([t], 17.0) == [t]

    def test_strict_domination(self):
        a = synthetic_trial(mac=10, ber={17.0: 0.1})
        b = synthetic_trial(mac=20, ber={17.0: 0.2})
        assert pareto_front([a, b], 17.0) == [a]

    def test_ties_on_both_axes_kept(self):
        a = synthetic_trial(hidden=1, mac=10, ber={17.0: 0.1})
        b = synthetic_trial(hidden=2, mac=10, ber={17.0: 0.1})
        c = synthetic_trial(hidden=3, mac=10, ber={17.0: 0.2})
        front = pareto_front([a, b, c], 17.0)
        assert set(id(t) for t in front) == {id(a), id(b)}

    def test_missing_snr_named(self):
        t = synthetic_trial(ber={17.0: 0.1})
        with pytest.raises(ValueError, match="no BER at SNR 12"):
            pareto_front([t], 12.0)

    @staticmethod
    def failed_trial(**kw):
        return dataclasses.replace(synthetic_trial(**kw), ber=None, status="failed",
                                   error="refused")

    def test_failed_trials_left_out(self):
        # a failed trial has no BER: the front is over the ok trials, even
        # where the failed one would have been cheaper
        ok = synthetic_trial(hidden=5, mac=50, ber={17.0: 0.1})
        failed = self.failed_trial(hidden=1, mac=10)
        assert pareto_front([failed, ok, self.failed_trial(hidden=9, mac=90)], 17.0) == [ok]

    def test_ok_trial_missing_the_snr_still_raises_beside_failed(self):
        t = synthetic_trial(ber={17.0: 0.1})
        with pytest.raises(ValueError, match="no BER at SNR 12"):
            pareto_front([self.failed_trial(), t], 12.0)

    @pytest.mark.parametrize("n_failed", [0, 2])
    def test_no_successful_trial_rejected(self, n_failed):
        trials = [self.failed_trial(hidden=k + 1) for k in range(n_failed)]
        with pytest.raises(ValueError, match="at least one successful trial"):
            pareto_front(trials, 17.0)

    def test_search_results_with_a_failed_trial(self, tmp_path):
        # the list search returns, resumed from its file, holds the failed trial
        def runner(config, channel_cfg, scale, seed):
            trial = stub_runner(config, channel_cfg, scale, seed)
            if config["hidden"] == 8 and config["steps"] == 2:
                return dataclasses.replace(trial, ber=None, status="failed", error="diverged")
            return trial

        path = tmp_path / "results.jsonl"
        search(TestSearch.SPACE, CHANNEL, "grid", 4, seed=1, results_path=path,
               trial_runner=runner)
        resumed = search(TestSearch.SPACE, CHANNEL, "grid", 4, seed=1, results_path=path,
                         trial_runner=runner)
        ok = [t for t in resumed if t.status == "ok"]
        assert len(ok) == 3
        assert pareto_front(resumed, 17.0) == pareto_front(ok, 17.0)

    def test_agrees_with_brute_force_oracle(self):
        # O(n^2) domination check on 200 random trials
        rng = np.random.default_rng(42)
        trials = [
            synthetic_trial(hidden=k, mac=int(rng.integers(1, 50)) * 10,
                            ber={17.0: float(rng.choice([0.5, 0.2, 0.1, 0.05, 0.02]))})
            for k in range(200)
        ]

        def dominates(a, b):
            return (a.mac <= b.mac and a.ber[17.0] <= b.ber[17.0]
                    and (a.mac < b.mac or a.ber[17.0] < b.ber[17.0]))

        brute = [t for t in trials
                 if not any(dominates(o, t) for o in trials if o is not t)]
        fast = pareto_front(trials, 17.0)
        assert {id(t) for t in fast} == {id(t) for t in brute}
        macs = [t.mac for t in fast]
        assert macs == sorted(macs)

    def test_invariant_under_reordering(self):
        rng = np.random.default_rng(7)
        trials = [synthetic_trial(hidden=k, mac=int(rng.integers(1, 30)) * 5,
                                  ber={17.0: float(rng.random())})
                  for k in range(50)]
        front_a = {t.config_key() for t in pareto_front(trials, 17.0)}
        shuffled = list(trials)
        rng.shuffle(shuffled)
        front_b = {t.config_key() for t in pareto_front(shuffled, 17.0)}
        assert front_a == front_b


class TestSearch:
    SPACE = DseSpace(n_taps=(17,), hidden=(8, 16), steps=(2, 4),
                     scale=TrialScale(train_symbols=1000, eval_symbols=500,
                                      snrs_db=(17,), batch_size=250))

    def test_grid_enumeration_order(self, tmp_path):
        res = search(self.SPACE, CHANNEL, "grid", 4, seed=1, results_path=tmp_path / "r.jsonl",
                     trial_runner=stub_runner)
        keys = [(t.hidden, t.steps) for t in res]
        assert keys == [(8, 2), (8, 4), (16, 2), (16, 4)]

    def test_grid_budget_bounded(self, tmp_path):
        with pytest.raises(ValueError, match=r"budget must be in \[1, 4\], got 5"):
            search(self.SPACE, CHANNEL, "grid", 5, seed=1, results_path=tmp_path / "r.jsonl",
                   trial_runner=stub_runner)

    def test_random_same_seed_same_sequence(self, tmp_path):
        a, b = (search(self.SPACE, CHANNEL, "random", 3, seed=5,
                       results_path=tmp_path / f"{k}.jsonl", trial_runner=stub_runner)
                for k in range(2))
        assert [t.config_key() for t in a] == [t.config_key() for t in b]

    def test_random_without_replacement(self, tmp_path):
        res = search(self.SPACE, CHANNEL, "random", 4, seed=6, results_path=tmp_path / "r.jsonl",
                     trial_runner=stub_runner)
        keys = [t.config_key() for t in res]
        assert len(set(keys)) == 4

    def test_budget_one_front_is_that_trial(self, tmp_path):
        res = search(self.SPACE, CHANNEL, "grid", 1, seed=2, results_path=tmp_path / "r.jsonl",
                     trial_runner=stub_runner)
        assert len(res) == 1
        assert pareto_front(res, 17.0) == res

    def test_resume_skips_completed(self, tmp_path):
        path = tmp_path / "results.jsonl"
        calls = []

        def counting_runner(config, channel_cfg, scale, seed):
            calls.append(config["hidden"])
            return stub_runner(config, channel_cfg, scale, seed)

        first = search(self.SPACE, CHANNEL, "grid", 2, seed=3,
                       results_path=path, trial_runner=counting_runner)
        assert len(first) == 2 and len(calls) == 2
        resumed = search(self.SPACE, CHANNEL, "grid", 4, seed=3,
                         results_path=path, trial_runner=counting_runner)
        assert len(resumed) == 4
        assert len(calls) == 4  # only the 2 new configs ran
        stored = load_results(path)
        assert {t.config_key() for t in stored} == {t.config_key() for t in resumed}

    @pytest.mark.parametrize("finished", [0, 1, 3])
    def test_interrupted_search_keeps_every_finished_trial(self, tmp_path, finished):
        # each record is on disk before the next trial starts: a runner that
        # reads the file sees every earlier one, a crash loses only the trial
        # that was running, and a resume completes the uninterrupted search
        whole = tmp_path / "whole.jsonl"
        expected = search(self.SPACE, CHANNEL, "grid", 4, seed=3, results_path=whole,
                          trial_runner=stub_runner)
        path = tmp_path / "results.jsonl"
        seen = []

        def crashing_runner(config, channel_cfg, scale, seed):
            seen.append(load_results(path))
            if len(seen) > finished:
                raise RuntimeError("trial crashed")
            return stub_runner(config, channel_cfg, scale, seed)

        with pytest.raises(RuntimeError, match="trial crashed"):
            search(self.SPACE, CHANNEL, "grid", 4, seed=3, results_path=path,
                   trial_runner=crashing_runner)
        assert seen == [expected[:k] for k in range(finished + 1)]
        assert path.read_text().splitlines() == whole.read_text().splitlines()[:finished]

        ran = []

        def counting_runner(config, channel_cfg, scale, seed):
            ran.append(config)
            return stub_runner(config, channel_cfg, scale, seed)

        resumed = search(self.SPACE, CHANNEL, "grid", 4, seed=3, results_path=path,
                         trial_runner=counting_runner)
        assert ran == self.SPACE.enumerate()[finished:]
        assert resumed == expected
        assert path.read_bytes() == whole.read_bytes()

    def test_trial_seeds_schedule_independent(self):
        cfg = {"n_tap": 17, "hidden": 8, "steps": 2, "bits": None}
        assert trial_seed(9, cfg) == trial_seed(9, dict(reversed(list(cfg.items()))))
        assert trial_seed(9, cfg) != trial_seed(10, cfg)

    def test_failed_trial_recorded_and_continues(self, tmp_path, monkeypatch):
        # a diverging training run, and an 8-bit model that convert refuses
        import snndfe.dse as dse_mod

        def exploding_train(channel_cfg, topo, train_cfg, lif=None, progress=None):
            raise TrainingDiverged("loss became non-finite at batch 0")

        def unconvertible_train(channel_cfg, topo, train_cfg, lif=None, progress=None):
            model = EqualizerModel.initialize(topo, LifParams.shift_friendly(),
                                              EncoderConfig(0.0, 1.0),
                                              np.random.default_rng(0), qat=train_cfg.qat)
            model.b_fc0[:] = 2.0 ** -24  # pins the fc0 grid past a 32-bit accumulator
            return model, []

        cases = [(exploding_train, self.SPACE, "non-finite"),
                 (unconvertible_train, dataclasses.replace(self.SPACE, bits=(8,)),
                  "accumulators exceed 32 bits")]
        for k, (train_stub, space, error) in enumerate(cases):
            monkeypatch.setattr(dse_mod, "train", train_stub)
            path = tmp_path / f"results{k}.jsonl"
            res = search(space, CHANNEL, "grid", 2, seed=4, results_path=path)
            assert all(t.status == "failed" and t.ber is None for t in res)
            assert all(error in t.error for t in res)
            assert [(t.n_tap, t.hidden, t.steps, t.bits, t.mac, t.seed, t.wall_time_s > 0)
                    for t in res] == [
                (c["n_tap"], c["hidden"], c["steps"], c["bits"],
                 TopologyConfig(n_tap=c["n_tap"], hidden=c["hidden"],
                                steps=c["steps"]).macs_per_symbol(),
                 trial_seed(4, c), True)
                for c in space.enumerate()[:2]]
            stored = load_results(path)
            assert len(stored) == 2

    def test_real_trial_smoke(self):
        # one genuinely trained micro trial end to end
        scale = TrialScale(train_symbols=2000, eval_symbols=600, snrs_db=(17,),
                           batch_size=500)
        cfg = {"n_tap": 5, "hidden": 6, "steps": 2, "bits": None}
        trial = run_trial(cfg, CHANNEL, scale, seed=11)
        assert trial.status == "ok"
        assert trial.mac == 6 * (32 + 12 + 4) * 2  # 5 taps: 8*3 + 4*2 inputs
        assert 0.0 <= trial.ber[17.0] <= 0.75
        again = run_trial(cfg, CHANNEL, scale, seed=11)
        assert again.ber == trial.ber


class TestResultsFile:
    # the line format a results file has always had; a sweep resumes from it
    OK = TrialResult(n_tap=17, hidden=72, steps=5, bits=None, mac=123,
                     ber={12.0: 0.25, 17.0: 1.5e-3}, seed=42, wall_time_s=1.23456)
    FAILED = TrialResult(n_tap=5, hidden=6, steps=3, bits=8, mac=99, ber=None, seed=7,
                         wall_time_s=0.0004, status="failed",
                         error="accumulators exceed 32 bits")
    OK_LINE = ('{"n_tap": 17, "hidden": 72, "steps": 5, "bits": null, "mac": 123, '
               '"ber": {"12.0": 0.25, "17.0": 0.0015}, "seed": 42, "wall_time_s": 1.235, '
               '"status": "ok", "error": null}')
    FAILED_LINE = ('{"n_tap": 5, "hidden": 6, "steps": 3, "bits": 8, "mac": 99, '
                   '"ber": null, "seed": 7, "wall_time_s": 0.0, "status": "failed", '
                   '"error": "accumulators exceed 32 bits"}')

    def test_lines_pinned(self):
        assert self.OK.to_json() == self.OK_LINE
        assert self.FAILED.to_json() == self.FAILED_LINE

    @pytest.mark.parametrize("trial", [OK, FAILED])
    def test_round_trip(self, trial):
        # wall time is kept to the millisecond
        trial = dataclasses.replace(trial, wall_time_s=round(trial.wall_time_s, 3))
        assert TrialResult.from_json(trial.to_json()) == trial

    def test_line_without_error_loads(self):
        # files written before failed trials kept their error
        old = TrialResult.from_json(self.OK_LINE.replace(', "error": null', ""))
        assert old.error is None and old == TrialResult.from_json(self.OK_LINE)

    def test_line_without_status_takes_the_default(self):
        bare = TrialResult.from_json(self.OK_LINE.replace(', "status": "ok", "error": null', ""))
        assert bare == TrialResult.from_json(self.OK_LINE)

    @pytest.mark.parametrize("bad", [
        '{"n_tap": 17,',  # not JSON
        '[17, 72, 5]',  # not an object
        '{"n_tap": 17, "hidden": 72, "steps": 5, "bits": null, "ber": null, '
        '"seed": 1, "wall_time_s": 0.0}',  # no mac
        OK_LINE.replace('"error": null', '"error": null, "loss": 0.3'),  # unknown field
    ])
    def test_unreadable_line_named(self, tmp_path, bad):
        path = tmp_path / "results.jsonl"
        path.write_text(self.OK_LINE + "\n\n" + bad + "\n")
        with pytest.raises(ValueError, match="results.jsonl:3: not a trial record"):
            load_results(path)


SMALL_SPACE = DseSpace(n_taps=(3, 5), hidden=(1, 2, 3), steps=(1, 2))


@settings(max_examples=40, deadline=None)
@given(strategy=st.sampled_from(["grid", "random"]),
       budget=st.integers(1, len(SMALL_SPACE.enumerate())), seed=st.integers(0, 2 ** 32 - 1))
def test_resume_is_idempotent(strategy, budget, seed):
    # a second search over the same results file runs nothing and returns the same trials
    calls = []

    def counting_runner(config, channel_cfg, scale, trial_seed_):
        calls.append(config)
        return stub_runner(config, channel_cfg, scale, trial_seed_)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "results.jsonl")
        first = search(SMALL_SPACE, CHANNEL, strategy, budget, seed, results_path=path,
                       trial_runner=stub_runner)
        written = pathlib.Path(path).read_bytes()
        second = search(SMALL_SPACE, CHANNEL, strategy, budget, seed, results_path=path,
                        trial_runner=counting_runner)
        assert pathlib.Path(path).read_bytes() == written  # a full resume writes nothing
    assert calls == []
    assert len(first) == budget
    assert {t.config_key() for t in second} == {t.config_key() for t in first}


def test_train_config_defaults_are_the_trial_budget():
    cfg, scale = TrainConfig(), TrialScale()
    assert (cfg.epochs, cfg.batch_size) == (1, scale.batch_size)
    assert cfg.batches_per_epoch == scale.train_symbols // scale.batch_size
    assert cfg.learning_rate == scale.learning_rate


class TestSpaceParsing:
    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            DseSpace(n_taps=())

    @pytest.mark.parametrize("settings, match", [
        ({"n_taps": (3, 4)}, "n_tap must be odd"),
        ({"hidden": (8, 0)}, "hidden"),
        ({"steps": (0,)}, "steps"),
        ({"bits": (None, 3)}, "state_bits"),
        ({"bits": (8, 33)}, "weight_bits"),
        ({"bits": (16, 17)}, "weight_bits must be in \\[2, 16\\], got 17"),
        ({"bits": (8, 4)}, "v_th=1.0 is 2 on the state grid, above the voltage's reach 0"),
        ({"n_taps": (3, 41), "scale": TrialScale(eval_symbols=21)},
         "symbols_per_snr must be >= 22, got 21"),
    ], ids=["even_n_tap", "hidden_0", "steps_0", "bits_3", "bits_33", "bits_17",
            "bits_4_never_fires", "eval_shorter_than_history"])
    def test_axis_values_checked_at_construction(self, settings, match):
        # a value a trial's configurations refuse fails before any trial runs,
        # where it used to raise mid-sweep (at the first n_tap 4, say, or at
        # the first n_tap 41 evaluated on 21 symbols); at 4 bits the QAT-trained
        # shift-friendly LIF never fires, so every 4-bit trial would be degenerate
        with pytest.raises(ValueError, match=match):
            DseSpace(**settings)

    @pytest.mark.parametrize("settings, match", [
        ({"batch_size": 0}, "batch_size"),
        ({"snrs_db": ()}, "snrs_db"),
        ({"learning_rate": -1e-3}, "learning_rate"),
    ], ids=["batch_size_0", "no_snrs", "negative_learning_rate"])
    def test_trial_scale_checked_at_construction(self, settings, match):
        # batch_size 0 divided by zero in run_trial; no SNR point trained the
        # model, recorded ber == {} and failed only in pareto_front
        with pytest.raises(ValueError, match=match):
            TrialScale(**settings)

    def test_bit_width_checked_with_the_lif_train_gives_a_qat_model(self, monkeypatch):
        # a trial trains with no lif, so DseSpace must check the LIF train picks
        checked, derive = [], FxpLifSpec.derive
        monkeypatch.setattr(FxpLifSpec, "derive",
                            lambda lif, fmt: checked.append(lif) or derive(lif, fmt))
        DseSpace(bits=(6,))
        model, _ = train(CHANNEL, TopologyConfig(n_tap=3, hidden=2, steps=1),
                         TrainConfig(batches_per_epoch=1, batch_size=8, qat=QatConfig(6, 6)))
        assert checked == [model.lif]

    def test_defaults_and_fxp_widths_accepted(self):
        assert len(DseSpace().enumerate()) == 20 * 80 * 10
        assert DseSpace(bits=(None, 5, 8, 16)).scale == TrialScale()
        # evaluate_ber counts two symbols past n_tap 41's history of 20
        assert DseSpace(n_taps=(3, 41), scale=TrialScale(eval_symbols=22)).n_taps == (3, 41)
