//! End-to-end checks of the observability recorder against reported
//! metrics: the trace must *explain* the numbers in the report, and
//! attaching telemetry must not change any simulation result.

use ringsim::core::{
    BusSystem, BusSystemConfig, RingSystem, RunOptions, SimReport, Simulator, SystemConfig,
};
use ringsim::obs::{parse_json, JsonValue, ObsConfig, Recorder};
use ringsim::proto::ProtocolKind;
use ringsim::trace::{Workload, WorkloadSpec};

fn workload(procs: usize, refs: u64) -> Workload {
    Workload::new(WorkloadSpec::demo(procs).with_refs(refs)).unwrap()
}

fn big_trace() -> ObsConfig {
    ObsConfig { trace_capacity: 1 << 22, ..Default::default() }
}

/// Runs `sim` with telemetry `cfg`, returning the report and the recorder.
fn traced(sim: &mut dyn Simulator, cfg: ObsConfig) -> (SimReport, Recorder) {
    let outcome = sim.run(&RunOptions::new().with_obs(cfg));
    (outcome.report, outcome.obs.expect("recorder requested"))
}

/// Acceptance check: every measured miss appears as one top-level `"miss"`
/// span, and the spans' durations sum (within floating-point rounding) to
/// the run's reported total miss latency.
fn assert_spans_explain_report(rec: &Recorder, report: &SimReport) {
    assert_eq!(rec.trace.dropped(), 0, "trace buffer overflowed");
    let miss_spans: Vec<_> =
        rec.trace.events().filter(|e| e.cat == "txn" && e.name == "miss").collect();
    assert_eq!(miss_spans.len() as u64, report.miss_latency.count());
    let span_sum_ns: f64 = miss_spans.iter().map(|e| e.dur_ps as f64 / 1000.0).sum();
    let reported_ns = report.miss_latency.mean() * report.miss_latency.count() as f64;
    let rel = (span_sum_ns - reported_ns).abs() / reported_ns.max(1.0);
    assert!(rel < 1e-6, "miss spans sum to {span_sum_ns} ns, report says {reported_ns} ns");
    let upgrades = rec.trace.events().filter(|e| e.cat == "txn" && e.name == "upgrade").count();
    assert_eq!(upgrades as u64, report.upgrade_latency.count());
    // Phase spans tile each transaction exactly, so they carry the same
    // total time as the top-level spans.
    let phase_sum_ps: u64 = rec.trace.events().filter(|e| e.cat == "phase").map(|e| e.dur_ps).sum();
    let txn_sum_ps: u64 = rec.trace.events().filter(|e| e.cat == "txn").map(|e| e.dur_ps).sum();
    assert_eq!(phase_sum_ps, txn_sum_ps);
}

#[test]
fn ring_trace_spans_sum_to_reported_miss_latency() {
    let cfg = SystemConfig::ring_500mhz(ProtocolKind::Snooping, 4);
    let mut sys = RingSystem::new(cfg, workload(4, 3_000)).unwrap();
    let (report, rec) = traced(&mut sys, big_trace());
    assert_spans_explain_report(&rec, &report);
}

#[test]
fn directory_trace_spans_sum_to_reported_miss_latency() {
    let cfg = SystemConfig::ring_500mhz(ProtocolKind::Directory, 4);
    let mut sys = RingSystem::new(cfg, workload(4, 3_000)).unwrap();
    let (report, rec) = traced(&mut sys, big_trace());
    assert_spans_explain_report(&rec, &report);
}

#[test]
fn bus_trace_spans_sum_to_reported_miss_latency() {
    let cfg = BusSystemConfig::bus_100mhz(4);
    let mut sys = BusSystem::new(cfg, workload(4, 3_000)).unwrap();
    let (report, rec) = traced(&mut sys, big_trace());
    assert_spans_explain_report(&rec, &report);
}

#[test]
fn chrome_trace_has_required_fields() {
    let cfg = SystemConfig::ring_500mhz(ProtocolKind::Snooping, 4);
    let mut sys = RingSystem::new(cfg, workload(4, 1_000)).unwrap();
    let (_, rec) = traced(&mut sys, big_trace());
    let doc = parse_json(&rec.trace.to_chrome_json()).unwrap();
    let events = doc.get("traceEvents").and_then(JsonValue::as_array).unwrap();
    assert!(!events.is_empty());
    for ev in events {
        let ph = ev.get("ph").and_then(JsonValue::as_str).expect("ph field");
        assert!(matches!(ph, "X" | "i" | "M"), "unexpected phase {ph}");
        assert!(ev.get("ts").and_then(JsonValue::as_f64).is_some(), "ts field");
        assert!(ev.get("pid").and_then(JsonValue::as_u64).is_some(), "pid field");
        if ph == "X" {
            assert!(ev.get("dur").and_then(JsonValue::as_f64).is_some(), "dur field");
        }
    }
}

#[test]
fn gauge_timelines_are_sampled() {
    let cfg = SystemConfig::ring_500mhz(ProtocolKind::Snooping, 4);
    let mut sys = RingSystem::new(cfg, workload(4, 2_000)).unwrap();
    let (_, rec) = traced(&mut sys, ObsConfig::default());
    let ring_tl = rec.timelines.iter().find(|t| t.name == "ring").expect("ring timeline");
    assert!(!ring_tl.rows.is_empty());
    // Occupancy gauges are fractions.
    for row in &ring_tl.rows {
        assert!(row.values[0] >= 0.0 && row.values[0] <= 1.0);
    }
}

#[test]
fn telemetry_does_not_change_results() {
    // The overhead contract's strong form: attaching the recorder must not
    // perturb a single reported number, for every interconnect.
    let plain =
        RingSystem::new(SystemConfig::ring_500mhz(ProtocolKind::Directory, 4), workload(4, 2_000))
            .unwrap()
            .run();
    let mut traced_sys =
        RingSystem::new(SystemConfig::ring_500mhz(ProtocolKind::Directory, 4), workload(4, 2_000))
            .unwrap();
    assert_eq!(plain, traced(&mut traced_sys, ObsConfig::default()).0);

    let plain = BusSystem::new(BusSystemConfig::bus_100mhz(4), workload(4, 2_000)).unwrap().run();
    let mut traced_sys =
        BusSystem::new(BusSystemConfig::bus_100mhz(4), workload(4, 2_000)).unwrap();
    assert_eq!(plain, traced(&mut traced_sys, ObsConfig::default()).0);
}
