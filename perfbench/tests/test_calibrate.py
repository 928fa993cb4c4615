"""Host-speed calibration: kernel determinism and the meter's arithmetic."""

import itertools

import pytest

import calibrate
from calibrate import Meter, instrument


def test_kernel_is_deterministic():
    assert calibrate.kernel() == calibrate.EXPECTED_CHECKSUM
    assert calibrate.sample() > 0


def test_steps_are_charged_the_mean_of_their_samples(tmp_path, monkeypatch):
    samples = itertools.chain([0.02, 0.04], itertools.repeat(0.08))
    monkeypatch.setattr(calibrate, "sample", lambda: next(samples))
    monkeypatch.setattr(calibrate, "BATCH_S", 0.0)
    meter = Meter(tmp_path / "spool")
    assert meter.step(lambda: "done") == "done"
    reading = meter.take()
    assert reading.steps == 1
    # One step between a 0.02 s and a 0.04 s sample: the kernel ran at
    # REFERENCE_S / 0.03 of its reference speed.
    assert reading.factor == pytest.approx(
        (calibrate.REFERENCE_S / 0.03) ** calibrate.SENSITIVITY
    )
    assert reading.worker_sampling_s == 0.0
    assert meter.take().steps == 0


def test_short_steps_share_a_sample(tmp_path, monkeypatch):
    calls = []

    def fake_sample():
        calls.append(1)
        return 0.05

    monkeypatch.setattr(calibrate, "sample", fake_sample)
    meter = Meter(tmp_path / "spool")
    for _ in range(5):
        meter.step(lambda: None)
    reading = meter.take()
    assert reading.steps == 5
    assert len(calls) == 1
    assert reading.factor == pytest.approx(
        (calibrate.REFERENCE_S / 0.05) ** calibrate.SENSITIVITY
    )


def test_nested_steps_count_once(tmp_path, monkeypatch):
    monkeypatch.setattr(calibrate, "sample", lambda: 0.05)
    meter = Meter(tmp_path / "spool")
    meter.step(lambda: meter.step(lambda: None))
    assert meter.take().steps == 1


def test_pool_worker_steps_are_merged(tmp_path):
    from repro.experiments.environments import simulation_config
    from repro.experiments.scale import QUICK
    from repro.sim.runner import ExperimentRunner

    scale = QUICK.with_updates(accesses=1_000, benchmarks=("bzip2", "milc"))
    configs = [simulation_config(name, scale) for name in scale.benchmarks]
    meter = Meter(tmp_path / "spool")
    with instrument(meter):
        ExperimentRunner(jobs=2, engine="vector").run_batch(configs)
    reading = meter.take()
    assert not list((tmp_path / "spool").glob("*"))
    # Two captures and two replays, all in workers.
    assert reading.steps == 4
    assert reading.worker_sampling_s > 0
    assert reading.own_sampling_s == 0
    assert reading.factor > 0


def test_instrument_restores_the_originals(tmp_path):
    import repro.sim.engine.vector as vector
    import repro.sim.scenario as scenario

    before = (scenario.capture_scenario, vector.vector_replay_scenario)
    with instrument(Meter(tmp_path)):
        assert scenario.capture_scenario is not before[0]
    assert (scenario.capture_scenario, vector.vector_replay_scenario) == before
