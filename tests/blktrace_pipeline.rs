//! The binary blktrace path end to end: a synthesized trace written as
//! a blktrace-style stream, read back without blkparse (§III-C), and
//! analyzed — must agree with analyzing the trace directly.

use std::collections::HashSet;
use std::time::Duration;

use rtdac::monitor::{
    blktrace, BlktraceEventSource, Monitor, MonitorConfig, WindowPolicy, DEFAULT_MAX_INFLIGHT,
};
use rtdac::synopsis::{AnalyzerConfig, OnlineAnalyzer};
use rtdac::types::{EventSource, Extent, ExtentPair, IoEvent, IoOp, IoRequest, Timestamp, Trace};
use rtdac::workloads::MsrServer;

fn direct_events(trace: &Trace) -> Vec<IoEvent> {
    trace
        .iter()
        .map(|r| {
            IoEvent::new(
                r.time,
                r.pid,
                r.op,
                r.extent,
                r.latency.expect("synthesized traces record latencies"),
            )
        })
        .collect()
}

fn frequent_pairs_of(events: Vec<IoEvent>, config: MonitorConfig) -> HashSet<ExtentPair> {
    let txns = Monitor::new(config).into_transactions(events);
    let mut analyzer = OnlineAnalyzer::new(AnalyzerConfig::with_capacity(16 * 1024));
    for txn in &txns {
        analyzer.process(txn);
    }
    analyzer
        .frequent_pairs(5)
        .into_iter()
        .map(|(p, _)| p)
        .collect()
}

fn binary_round_trip(trace: &Trace) -> Vec<IoEvent> {
    let mut buf = Vec::new();
    blktrace::write_trace(trace, &mut buf).expect("in-memory write");
    blktrace::read_events(buf.as_slice(), Duration::from_micros(100)).expect("well-formed stream")
}

#[test]
fn binary_round_trip_preserves_analysis_exactly_under_static_window() {
    // With a static window the analysis depends only on timestamps and
    // geometry, both preserved exactly by the binary format.
    let trace = MsrServer::Rsrch.synthesize(10_000, 13);
    let config = || MonitorConfig::new(WindowPolicy::Static(Duration::from_micros(300)));
    let direct = frequent_pairs_of(direct_events(&trace), config());
    let events = binary_round_trip(&trace);
    assert_eq!(events.len(), trace.len());
    let via_binary = frequent_pairs_of(events, config());
    assert_eq!(direct, via_binary);
}

#[test]
fn binary_round_trip_agrees_under_dynamic_window() {
    // The dynamic window consumes recovered latencies, whose FIFO D/C
    // pairing can permute latencies of identical overlapping requests —
    // so exact equality is not guaranteed, but the analyses must agree
    // almost everywhere.
    let trace = MsrServer::Rsrch.synthesize(10_000, 13);
    let direct = frequent_pairs_of(direct_events(&trace), MonitorConfig::default());
    let via_binary = frequent_pairs_of(binary_round_trip(&trace), MonitorConfig::default());
    let common = direct.intersection(&via_binary).count();
    let union = direct.union(&via_binary).count().max(1);
    let jaccard = common as f64 / union as f64;
    assert!(jaccard > 0.9, "jaccard {jaccard:.3} between paths");
}

#[test]
fn binary_stream_latencies_drive_the_dynamic_window() {
    let trace = MsrServer::Wdev.synthesize(5_000, 14);
    let mut buf = Vec::new();
    blktrace::write_trace(&trace, &mut buf).expect("in-memory write");
    let events = blktrace::read_events(buf.as_slice(), Duration::ZERO).expect("well-formed stream");

    let mut monitor = Monitor::new(MonitorConfig::default());
    for event in events {
        monitor.push(event);
    }
    // The recovered latencies average to the trace's recorded mean
    // (HDD-era ms), so the dynamic window must saturate at its clamp.
    let avg = monitor.average_latency().expect("latencies recovered");
    let recorded = trace.stats().mean_recorded_latency.expect("recorded");
    let ratio = avg.as_secs_f64() / recorded.as_secs_f64();
    assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
}

#[test]
fn streaming_reader_is_event_exact_across_chunk_boundaries() {
    // 10k requests = 20k records = ~800 KB of stream, a dozen refills at
    // the default 64 KiB chunk. The streaming reader must produce the
    // oracle's events exactly at *any* chunk size — the odd sizes
    // guarantee that no refill ever lands on the 40-byte record grid, so
    // nearly every chunk boundary splits a record in two.
    let trace = MsrServer::Src2.synthesize(10_000, 16);
    let mut buf = Vec::new();
    blktrace::write_trace(&trace, &mut buf).expect("in-memory write");
    let oracle =
        blktrace::read_events(buf.as_slice(), Duration::from_micros(100)).expect("oracle decode");
    assert_eq!(oracle.len(), trace.len());

    for chunk_bytes in [64 * 1024, 4_099, 97, 41] {
        let mut source = BlktraceEventSource::with_limits(
            buf.as_slice(),
            Duration::from_micros(100),
            chunk_bytes,
            64 * 1024,
        );
        let mut streamed = Vec::with_capacity(oracle.len());
        while let Some(event) = source.next_event().expect("well-formed stream") {
            streamed.push(event);
        }
        assert_eq!(
            streamed, oracle,
            "streaming decode diverged from the oracle at chunk size {chunk_bytes}"
        );
    }
}

#[test]
fn never_repeating_extents_stay_event_exact_under_a_small_window() {
    // 120k requests, every extent distinct, so each issue's pairing key
    // is new and leaves the pairing map once the issue is resolved or
    // emitted. Completions trail their issues by at most three later
    // issues; every tenth request never completes, so it holds the front
    // of an 8-deep window until the window overflows and forces it out
    // with the default latency, exactly the oracle's unmatched rule.
    let mut trace = Trace::new("unique");
    for i in 0..120_000u64 {
        let request = IoRequest::new(
            Timestamp::from_micros(1_000 + i * 10),
            (i % 4) as u32,
            if i % 3 == 0 { IoOp::Write } else { IoOp::Read },
            Extent::new(i * 16, 8).expect("valid extent"),
        );
        trace.push(if i % 10 == 0 {
            request
        } else {
            request.with_latency(Duration::from_micros(1 + (i * 7) % 29))
        });
    }
    let mut buf = Vec::new();
    blktrace::write_trace(&trace, &mut buf).expect("in-memory write");
    let oracle =
        blktrace::read_events(buf.as_slice(), Duration::from_micros(100)).expect("oracle decode");
    assert_eq!(oracle.len(), trace.len());

    for max_inflight in [DEFAULT_MAX_INFLIGHT, 8] {
        for chunk_bytes in [4_099, 97, 41] {
            let mut source = BlktraceEventSource::with_limits(
                buf.as_slice(),
                Duration::from_micros(100),
                chunk_bytes,
                max_inflight,
            );
            let mut streamed = Vec::with_capacity(oracle.len());
            while let Some(event) = source.next_event().expect("well-formed stream") {
                streamed.push(event);
            }
            assert!(
                streamed == oracle,
                "streaming decode diverged from the oracle at chunk size {chunk_bytes}, \
                 window {max_inflight}"
            );
        }
    }
}

#[test]
fn events_to_trace_preserves_stats() {
    let trace = MsrServer::Hm.synthesize(4_000, 15);
    let mut buf = Vec::new();
    blktrace::write_trace(&trace, &mut buf).expect("in-memory write");
    let events = blktrace::read_events(buf.as_slice(), Duration::ZERO).expect("well-formed stream");
    let rebuilt = blktrace::events_to_trace("hm", &events);
    let a = trace.stats();
    let b = rebuilt.stats();
    assert_eq!(a.requests, b.requests);
    assert_eq!(a.total_bytes, b.total_bytes);
    assert_eq!(a.unique_bytes, b.unique_bytes);
    assert_eq!(a.max_block, b.max_block);
}
