"""Degradations noted in the flight ring, then dumped: the one hook the
partitioned replay and the tool-replay runner call after their
supervisor fell back (``repro.obs.distributed.flight_dump_degradations``)."""

from repro.core.events import Call, Read, Return, encode_events
from repro.core.tracefile import plan_partitions
from repro.obs import NULL_TRACER, FlightRecorder, SpanTracer
from repro.obs.distributed import flight_dump_degradations
from repro.tools.partition import _KILL_ENV, replay_partitioned
from repro.tools.pool import Degradation
from tests.strategies import concat_runs

DEGRADATIONS = [
    Degradation("partition-replay", "job:p1", 1, "worker died", "retried"),
    Degradation("partition-replay", "job:p1", 2, "worker died", "serial-fallback"),
]


def _flight_tracer():
    tracer = SpanTracer(process_name="test")
    FlightRecorder().attach(tracer)
    return tracer


def _dumps(tracer):
    return [e for e in tracer.events if e["name"] == "flight-recorder"]


def test_notes_every_degradation_then_dumps_with_the_callers_fields():
    tracer = _flight_tracer()
    # ``degradations`` is also a field a caller passes through
    event = flight_dump_degradations(
        tracer, DEGRADATIONS, "partition-degradation: job", degradations=2, job="j"
    )
    assert _dumps(tracer) == [event]
    args = event["args"]
    assert args["reason"] == "partition-degradation: job"
    assert args["degradations"] == 2 and args["job"] == "j"
    notes = [r for r in args["records"] if r["name"] == "degradation"]
    assert [(n["unit"], n["action"]) for n in notes] == [
        ("job:p1", "retried"),
        ("job:p1", "serial-fallback"),
    ]


def test_no_dump_without_degradations_or_an_enabled_tracer():
    tracer = _flight_tracer()
    assert flight_dump_degradations(tracer, [], "nothing degraded") is None
    assert not _dumps(tracer)
    assert flight_dump_degradations(NULL_TRACER, DEGRADATIONS, "off") is None
    # enabled but no recorder attached: nothing to dump, nothing raised
    assert flight_dump_degradations(SpanTracer(), DEGRADATIONS, "bare") is None


def _payload():
    runs = [
        [Call(1, f"run{k}")] + [Read(1, 0x100 * k + i) for i in range(12)] + [Return(1)]
        for k in range(3)
    ]
    events, bounds = concat_runs(runs)
    return encode_events(events).to_bytes(section_events=4, boundaries=bounds)


def test_partitioned_replay_dumps_its_degradations_once(monkeypatch):
    payload = _payload()
    plan = plan_partitions(payload, 2)
    assert len(plan.partitions) == 2

    clean = _flight_tracer()
    rep = replay_partitioned(
        payload, plan=plan, kinds=("drms",), workers=1, tracer=clean
    )
    assert not rep.degradations and not _dumps(clean)

    monkeypatch.setenv(_KILL_ENV, "1")
    tracer = _flight_tracer()
    rep = replay_partitioned(
        payload,
        plan=plan,
        kinds=("drms",),
        workers=2,
        timeout=60.0,
        max_retries=0,
        backoff_base=0.01,
        tracer=tracer,
    )
    assert rep.degradations
    (dump,) = _dumps(tracer)
    assert dump["args"]["reason"].startswith("partition-degradation: ")
    assert dump["args"]["degradations"] == len(rep.degradations)
    notes = [r for r in dump["args"]["records"] if r["name"] == "degradation"]
    assert notes == [
        {"name": "degradation", "ph": "note", **d.as_dict()} for d in rep.degradations
    ]
