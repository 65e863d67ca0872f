"""Self-time arithmetic on synthetic spans, worker-thread attribution and
the instrumentation of the qubitkick layers."""

from concurrent.futures import ThreadPoolExecutor

import pytest

import tracing
from tracing import Span, covered, layer_metrics, self_time


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1, 2), (3, 5)], 0, 10) == 3
    assert covered([(1, 4), (2, 6), (5, 5.5)], 0, 10) == 5        # overlapping
    assert covered([(1, 8), (2, 3)], 0, 10) == 7                  # nested
    assert covered([(-5, 1), (9, 20), (30, 40)], 0, 10) == 2      # clipped, outside


def test_self_time_with_overlapping_worker_spans():
    parent = Span(1, "dynamics.run_ensemble", 0.0, 10.0, None, 0)
    kids = [Span(2, "noise.sample_zetas", 1.0, 4.0, 1, 11),
            Span(3, "noise.sample_zetas", 2.0, 6.0, 1, 12),        # other worker, overlaps
            Span(4, "dynamics.closed_form", 7.0, 8.0, 1, 11),
            Span(5, "dynamics.closed_form", 9.0, 12.0, 1, 12)]     # runs past the parent
    # covered: [1, 6] + [7, 8] + [9, 10] = 7
    assert self_time(parent, kids) == pytest.approx(3.0)
    assert self_time(parent, []) == 10.0


def test_layer_metrics_reduction_self_time_and_parallel_ratio():
    spans = [
        Span(1, "cli.main/reconstruct", 0.0, 12.0, None, 0),
        Span(2, "dynamics.run_ensemble", 0.0, 10.0, 1, 0),
        Span(3, "noise.sample_zetas", 0.0, 2.0, 2, 11, {"draws": 1024}),
        Span(4, "noise.sample_zetas", 0.5, 2.5, 2, 12, {"draws": 1024}),
        Span(5, "dynamics.closed_form", 2.0, 6.0, 2, 11, {"points": 10, "out_bytes": 160}),
        Span(6, "dynamics.closed_form", 2.5, 7.0, 2, 12, {"points": 10, "out_bytes": 160}),
        Span(7, "dynamics.welch", 7.0, 9.0, 2, 11, {"rows": 4}),
        Span(8, "reconstruct.fit_mean", 10.0, 11.0, 1, 0),
    ]
    m = layer_metrics(spans)
    assert m["dynamics.run_ensemble.busy_s"] == 10.0
    assert m["dynamics.run_ensemble.self_s"] == pytest.approx(1.0)           # 10 - [0, 9]
    assert m["dynamics.run_ensemble.parallel_ratio"] == pytest.approx(14.5 / 10.0)
    assert m["noise.sample_zetas.calls"] == 2
    assert m["noise.sample_zetas.draws"] == 2048
    assert m["noise.draws_per_s"] == pytest.approx(2048 / 4.0)
    assert m["dynamics.closed_form.points"] == 20
    assert m["dynamics.closed_form.out_bytes"] == 320
    assert m["dynamics.welch.rows"] == 4
    assert m["reconstruct.fit_mean.calls"] == 1
    assert m["quantum.evolve_expectations.calls"] == 0
    assert set(m) | {"dynamics.import_s", "trace.overhead_s"} == set(tracing.LAYER_METRICS)


def test_worker_thread_spans_attach_to_enclosing_span():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda x: x * 2)
    with tracer.span("outer"):
        with tracer.span("ensemble"):
            with ThreadPoolExecutor(max_workers=2) as pool:
                assert list(pool.map(leaf, range(6))) == [0, 2, 4, 6, 8, 10]
        leaf(1)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    outer, ensemble = by_name["outer"][0], by_name["ensemble"][0]
    assert outer.parent is None and ensemble.parent == outer.sid
    parents = [s.parent for s in by_name["leaf"]]
    assert parents.count(ensemble.sid) == 6 and parents.count(outer.sid) == 1


def test_wrapper_records_failed_call_and_reraises():
    tracer = tracing.Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap("boom", boom, lambda a, k, r, e: {"failed": int(e is not None)})
    with pytest.raises(KeyError):
        wrapped()
    assert tracer.spans[0].counts == {"failed": 1}


def test_instrument_traces_threaded_ensemble_and_restores_names():
    from qubitkick import core, dynamics

    original = dynamics._closed_form_batch
    dp = core.DimensionlessParams(g=0.05, r=0.5, T=10.0)
    cfg = core.SimConfig(dt=0.05, n_traj=3000, seed=3)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        dynamics.run_ensemble(dp, core.QubitState(0.3, 1.0), cfg, n_threads=2)
    assert dynamics._closed_form_batch is original
    assert not hasattr(dynamics._signal, "_module")

    (ens,) = [s for s in tracer.spans if s.name == "dynamics.run_ensemble"]
    kids = [s for s in tracer.spans if s.parent == ens.sid]
    assert {s.name for s in kids} == {"noise.sample_zetas", "dynamics.closed_form", "dynamics.welch"}
    assert all(s.parent == ens.sid for s in tracer.spans if s is not ens)
    m = layer_metrics(tracer.spans)
    assert m["noise.sample_zetas.draws"] == 3000
    assert m["dynamics.closed_form.points"] == 3000 * 201
    assert m["dynamics.welch.rows"] == 3000 + 1   # chunk rows plus the frequency-grid call
    assert 0.0 <= m["dynamics.run_ensemble.self_s"] <= m["dynamics.run_ensemble.busy_s"]
