"""Self-time arithmetic, and the merge of pool-worker spans."""

from tracing import (
    Span,
    Tracer,
    covered,
    instrument,
    layer_shares,
    link_parents,
    self_times,
    summarize,
)

OWNER = 100


def make(name, start, end, sid, parent=None, pid=OWNER):
    return Span(name, start, end, pid, sid, parent)


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6)], 0, 10) == 5
    assert covered([(1, 2), (5, 7)], 0, 10) == 3
    assert covered([(-5, 2), (8, 20)], 0, 10) == 4
    assert covered([(11, 12)], 0, 10) == 0
    assert covered([], 0, 10) == 0


def test_nested_spans_subtract_only_direct_children():
    spans = [
        make("outer", 0.0, 10.0, 0),
        make("middle", 2.0, 6.0, 1, parent=0),
        make("inner", 3.0, 4.0, 2, parent=1),
        make("sibling", 7.0, 8.0, 3, parent=0),
    ]
    selfs = self_times(spans, OWNER)
    assert selfs[(OWNER, 0)] == 10.0 - 4.0 - 1.0
    assert selfs[(OWNER, 1)] == 4.0 - 1.0
    assert selfs[(OWNER, 2)] == 1.0
    assert selfs[(OWNER, 3)] == 1.0
    # Self times of one process tile its root span exactly.
    assert sum(selfs.values()) == 10.0


def test_overlapping_worker_children_count_once():
    spans = [
        make("batch", 0.0, 10.0, 0),
        make("task", 1.0, 4.0, 0, pid=201),
        make("task", 3.0, 6.0, 0, pid=202),
        make("phase", 1.5, 2.0, 1, parent=0, pid=201),
    ]
    parents = link_parents(spans, OWNER)
    assert parents[(201, 0)] == (OWNER, 0)
    assert parents[(202, 0)] == (OWNER, 0)
    assert parents[(201, 1)] == (201, 0)
    selfs = self_times(spans, OWNER)
    assert selfs[(OWNER, 0)] == 10.0 - 5.0  # union of [1,4] and [3,6]
    assert selfs[(201, 0)] == 3.0 - 0.5
    table = summarize(spans, OWNER)
    assert table["task"]["calls"] == 2
    assert table["task"]["total_s"] == 6.0
    assert table["task"]["self_s"] == 5.5


def test_worker_root_adopts_innermost_containing_span():
    spans = [
        make("experiments.run", 0.0, 20.0, 0),
        make("runner.run_batch", 1.0, 19.0, 1, parent=0),
        make("store.save", 2.0, 2.5, 2, parent=1),
        make("capture", 3.0, 9.0, 0, pid=201),
    ]
    assert link_parents(spans, OWNER)[(201, 0)] == (OWNER, 1)


def test_layer_shares_sum_to_one():
    spans = [
        make("pass", 0.0, 10.0, 0),
        make("capture", 0.0, 6.0, 1, parent=0),
        make("osmem.aging", 0.0, 2.0, 2, parent=1),
        make("replay.vector", 6.0, 9.0, 3, parent=0),
    ]
    shares = layer_shares(summarize(spans, OWNER))
    assert abs(sum(shares.values()) - 1.0) < 1e-12
    assert shares["capture"] == 0.4
    assert shares["osmem"] == 0.2
    assert shares["replay"] == 0.3
    assert shares["bench"] == 0.1


def test_pool_worker_spans_are_merged(tmp_path):
    from repro.experiments.environments import simulation_config
    from repro.experiments.scale import QUICK
    from repro.sim.runner import ExperimentRunner

    scale = QUICK.with_updates(accesses=1_000, benchmarks=("bzip2", "milc"))
    configs = [simulation_config(name, scale) for name in scale.benchmarks]
    tracer = Tracer(spool=tmp_path / "spool")
    with instrument(tracer):
        with tracer.span("pass"):
            ExperimentRunner(jobs=2, engine="vector").run_batch(configs)
    spans = tracer.take()
    assert not list((tmp_path / "spool").glob("*"))
    workers = {span.pid for span in spans} - {tracer.owner_pid}
    assert workers, "no span came back from a pool worker"
    captures = [span for span in spans if span.name == "capture"]
    assert len(captures) == 2
    assert all(span.pid in workers for span in captures)
    batch = next(span for span in spans if span.name == "runner.run_batch")
    parents = link_parents(spans, tracer.owner_pid)
    for span in spans:
        if span.pid in workers and span.parent is None:
            assert parents[span.key] == batch.key
    names = {span.name for span in spans}
    assert {"osmem.boot", "osmem.aging", "capture.loop", "replay.vector"} <= names


def test_instrument_restores_the_originals():
    import repro.sim.replay as replay
    from repro.osmem.kernel import Kernel

    before = (replay.replay_scenario, Kernel.touch)
    with instrument(Tracer()):
        assert replay.replay_scenario is not before[0]
    assert (replay.replay_scenario, Kernel.touch) == before
