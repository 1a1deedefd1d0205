//! The traced in-process replay behind the per-layer metrics. The sat
//! phase's bytes go through each layer's public functions in turn, with
//! a span (layer, batch, start, end) around every call; the threaded
//! pipeline and the park/resume cycle are timed as whole calls. Nothing
//! is traced inside the program itself.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rtdac_monitor::blktrace::RECORD_BYTES;
use rtdac_monitor::{
    BlktraceEventSource, IngestPipeline, Monitor, MonitorConfig, Router, RouterConfig,
    TenantRuntime, WorkList,
};
use rtdac_synopsis::{AnalyzerConfig, LiveView, OnlineAnalyzer, ShardDelta, ShardedAnalyzer};
use rtdac_types::wire::{read_frame, write_frame, FrameKind};
use rtdac_types::{Epoch, EventSource, ExtentPair, IoEvent, Transaction};

use crate::drive::client_frame_bytes;
use crate::oracle::{self, Pairs};
use crate::report::Report;
use crate::workload::{default_latency, Shape, Trace, Workload};

/// Events per decode and monitor span.
const EVENT_SPAN: usize = 4096;
/// Live-view queries are timed at every this many publishes.
const QUERY_EVERY: u64 = 2;
/// Pair point queries per timed query round.
const POINT_QUERIES: usize = 16;
/// Park/resume cycles timed for the tenant layer.
const PARK_CYCLES: usize = 25;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    /// The batch (or chunk) the call worked on: its parent.
    pub batch: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn span<T>(&mut self, layer: &'static str, batch: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            batch,
            start_ns: start,
            end_ns,
        });
        out
    }

    fn total_ns(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    }

    fn durations(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }
}

/// The ingest sessions the sat phase sent, per tenant.
fn sat_sessions<'a>(workload: &Workload, traces: &'a [Trace]) -> Vec<Vec<&'a [u8]>> {
    traces
        .iter()
        .map(|trace| match workload.shape {
            Shape::Stream { .. } => vec![&trace.bytes[..]],
            Shape::Tenants { sat_chunk, .. } => trace.bytes.chunks(sat_chunk).collect(),
        })
        .collect()
}

/// Counts the sequential replay accumulates besides its spans.
#[derive(Default)]
struct Counts {
    events: u64,
    records: u64,
    transactions: u64,
    extents: u64,
    router_ops: u64,
    skew: Vec<f64>,
    deltas: u64,
    delta_ops: u64,
    item: [u64; 2],
    pair: [u64; 2],
    item_evictions: u64,
    pair_evictions: u64,
    promotions: u64,
    pair_rejections: u64,
    table_bytes: u64,
    /// Wall time of the replay, oracle checks excluded.
    elapsed: Duration,
}

/// Runs every layer of the ingest path over `sessions`, one tenant at a
/// time; with a report, checks the final tables and live view against
/// the oracle.
fn replay(
    workload: &Workload,
    config: &AnalyzerConfig,
    sessions: &[Vec<&[u8]>],
    tracer: &mut Tracer,
    mut report: Option<&mut Report>,
) -> Counts {
    // The daemon's batch size and publish interval.
    let pipeline = workload.runtime_config().pipeline;
    let latency = default_latency();
    let frame_bytes = client_frame_bytes();
    let started = Instant::now();
    let mut checking = Duration::ZERO;
    let mut counts = Counts::default();
    let mut frame_buf = Vec::with_capacity(frame_bytes + 16);
    let mut batch_id = 0u64;
    for tenant in sessions {
        // wire: the ingest frames and their acks through the codec.
        for bytes in tenant {
            for frame in bytes.chunks(frame_bytes) {
                tracer.span("wire", batch_id, || {
                    frame_buf.clear();
                    write_frame(&mut frame_buf, FrameKind::Ingest, frame).expect("Vec write");
                    black_box(read_frame(&mut &frame_buf[..]).expect("own frame"));
                    frame_buf.clear();
                    write_frame(&mut frame_buf, FrameKind::Ack, &[0; 8]).expect("Vec write");
                    black_box(read_frame(&mut &frame_buf[..]).expect("own frame"));
                });
            }
            counts.records += (bytes.len() / RECORD_BYTES) as u64;
        }

        // decode: one event source per session.
        let mut decoded: Vec<Vec<IoEvent>> = Vec::new();
        for bytes in tenant {
            let mut source = BlktraceEventSource::new(*bytes, latency);
            let mut events = Vec::new();
            let mut done = false;
            while !done {
                tracer.span("decode", events.len() as u64, || {
                    for _ in 0..EVENT_SPAN {
                        match source.next_event().expect("generated traces decode") {
                            Some(event) => events.push(event),
                            None => {
                                done = true;
                                break;
                            }
                        }
                    }
                });
            }
            counts.events += events.len() as u64;
            decoded.push(events);
        }

        // monitor: one window state per tenant, flushed per session.
        let mut monitor = Monitor::default();
        let mut batches: Vec<Vec<Transaction>> = Vec::new();
        for events in &decoded {
            let mut txns = Vec::new();
            for (i, chunk) in events.chunks(EVENT_SPAN).enumerate() {
                tracer.span("monitor", i as u64, || {
                    for &event in chunk {
                        if let Some(txn) = monitor.push(event) {
                            txns.push(txn);
                        }
                    }
                });
            }
            if let Some(txn) = tracer.span("monitor", u64::MAX, || monitor.flush()) {
                txns.push(txn);
            }
            counts.transactions += txns.len() as u64;
            counts.extents += txns.iter().map(|t| t.len() as u64).sum::<u64>();
            // A session end dispatches its partial batch.
            batches.extend(
                txns.chunks(pipeline.batch_size)
                    .map(<[Transaction]>::to_vec),
            );
        }

        // router: one call per batch.
        let mut router = Router::new(RouterConfig::new(workload.shards));
        let mut lists = vec![WorkList::default(); workload.shards];
        let mut routed: Vec<Vec<WorkList>> = Vec::with_capacity(batches.len());
        for (b, batch) in batches.iter().enumerate() {
            tracer.span("router", batch_id + b as u64, || {
                router.route_into(batch, &mut lists)
            });
            let ops: Vec<f64> = lists.iter().map(|l| l.ops() as f64).collect();
            let total: f64 = ops.iter().sum();
            if total > 0.0 {
                let max = ops.iter().copied().fold(0.0, f64::max);
                counts.skew.push(max / (total / ops.len() as f64));
            }
            counts.router_ops += total as u64;
            routed.push(lists.clone());
        }

        // shard, publish, live: apply each batch, publish every interval.
        let mut shards = ShardedAnalyzer::new(config.clone(), workload.shards).into_shards();
        for shard in &mut shards {
            shard.enable_delta_tracking();
        }
        let mut view = LiveView::new(config, workload.shards, false);
        let mut delta = ShardDelta::default();
        let mut scratch: Pairs = Vec::new();
        let mut publishes = 0u64;
        let total_batches = routed.len();
        for (b, work) in routed.iter().enumerate() {
            let id = batch_id + b as u64;
            tracer.span("shard", id, || {
                for (list, shard) in work.iter().zip(shards.iter_mut()) {
                    list.apply(shard);
                }
            });
            let applied = b + 1;
            if applied % pipeline.publish_interval_batches != 0 && applied != total_batches {
                continue;
            }
            for (s, shard) in shards.iter_mut().enumerate() {
                tracer.span("publish", id, || {
                    delta.clear();
                    shard.extract_delta(&mut delta);
                });
                delta.epoch = Epoch::new(applied as u64);
                counts.deltas += 1;
                counts.delta_ops += (delta.items.ops.len()
                    + delta.items.touched_t1.len()
                    + delta.items.touched_t2.len()
                    + delta.pairs.ops.len()
                    + delta.pairs.touched_t1.len()
                    + delta.pairs.touched_t2.len()) as u64;
                tracer.span("live", id, || view.apply_delta(s, &delta));
            }
            publishes += 1;
            if publishes.is_multiple_of(QUERY_EVERY) {
                tracer.span("query.topk", id, || view.top_pairs_into(64, &mut scratch));
                let probes: Vec<ExtentPair> =
                    scratch.iter().take(POINT_QUERIES).map(|p| p.0).collect();
                for pair in &probes {
                    tracer.span("query.pair", id, || black_box(view.pair_tally(pair)));
                }
            }
        }
        batch_id += total_batches as u64;
        table_counts(&shards, &mut counts);

        if let Some(report) = report.as_deref_mut() {
            let check_started = Instant::now();
            let expected = oracle::expect(workload, tenant);
            report.oracle(
                "traced live view",
                oracle::compare(view.frequent_pairs(1), &expected.pairs),
            );
            let merged = ShardedAnalyzer::from_routed_shards(
                config.clone(),
                shards,
                batches.iter().map(|b| b.len() as u64).sum(),
                false,
            );
            report.oracle(
                "traced shards",
                oracle::compare(merged.frequent_pairs(1), &expected.pairs),
            );
            checking += check_started.elapsed();
        }
    }
    counts.elapsed = started.elapsed() - checking;
    counts
}

fn table_counts(shards: &[OnlineAnalyzer], counts: &mut Counts) {
    for shard in shards {
        let items = shard.item_table().stats();
        let pairs = shard.correlation_table().stats();
        counts.item[0] += items.hits;
        counts.item[1] += items.misses;
        counts.pair[0] += pairs.hits;
        counts.pair[1] += pairs.misses;
        counts.item_evictions += items.evictions;
        counts.pair_evictions += pairs.evictions;
        counts.promotions += items.promotions + pairs.promotions;
        counts.pair_rejections += shard.stats().pair_rejections;
        counts.table_bytes += shard.table_memory_bytes() as u64;
    }
}

/// Runs the traced replay (after an untraced one, for the overhead) and
/// the threaded pipeline, and records every T-side metric plus the
/// ledger. Returns the spans for writing out.
pub fn run(workload: &Workload, traces: &[Trace], report: &mut Report) -> Vec<Span> {
    let runtime = workload.runtime_config();
    let config = TenantRuntime::new(runtime.clone())
        .analyzer_config()
        .clone();
    let sessions = sat_sessions(workload, traces);

    // A warm-up pass first, so neither side of the overhead pays for
    // first-touch page faults.
    let mut untraced = Tracer {
        enabled: false,
        origin: Instant::now(),
        spans: Vec::new(),
    };
    replay(workload, &config, &sessions, &mut untraced, None);
    let mut tracer = Tracer {
        enabled: true,
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let c = replay(workload, &config, &sessions, &mut tracer, Some(report));
    let untraced_s = replay(workload, &config, &sessions, &mut untraced, None)
        .elapsed
        .as_secs_f64();
    let traced_s = c.elapsed.as_secs_f64();

    let events = c.events.max(1) as f64;
    let n = c.events as usize;
    let per_event = |layer: &str| tracer.total_ns(layer) / events;
    let ratio = |part: u64, rest: u64| part as f64 / (part + rest).max(1) as f64;
    let deltas = c.deltas.max(1) as f64;
    let folds = tracer.durations("live");
    let skew = c.skew.iter().sum::<f64>() / c.skew.len().max(1) as f64;
    let rows = [
        ("wire.codec_ns_per_event", per_event("wire"), "ns", n),
        ("decode.ns_per_event", per_event("decode"), "ns", n),
        (
            "decode.records_per_event",
            c.records as f64 / events,
            "ratio",
            1,
        ),
        ("monitor.ns_per_event", per_event("monitor"), "ns", n),
        ("monitor.transactions", c.transactions as f64, "count", 1),
        (
            "monitor.extents_per_txn",
            c.extents as f64 / c.transactions.max(1) as f64,
            "ratio",
            1,
        ),
        ("router.ns_per_event", per_event("router"), "ns", n),
        ("router.ops", c.router_ops as f64, "count", 1),
        ("router.skew_max_over_mean", skew, "ratio", c.skew.len()),
        ("shard.ns_per_event", per_event("shard"), "ns", n),
        (
            "shard.item_hit_ratio",
            ratio(c.item[0], c.item[1]),
            "ratio",
            1,
        ),
        (
            "shard.pair_hit_ratio",
            ratio(c.pair[0], c.pair[1]),
            "ratio",
            1,
        ),
        ("shard.item_evictions", c.item_evictions as f64, "count", 1),
        ("shard.pair_evictions", c.pair_evictions as f64, "count", 1),
        ("shard.promotions", c.promotions as f64, "count", 1),
        (
            "shard.pair_rejections",
            c.pair_rejections as f64,
            "count",
            1,
        ),
        (
            "shard.admit_ratio",
            ratio(c.pair[1], c.pair_rejections),
            "ratio",
            1,
        ),
        ("shard.table_bytes", c.table_bytes as f64, "B", 1),
        ("publish.ns_per_event", per_event("publish"), "ns", n),
        ("publish.deltas", c.deltas as f64, "count", 1),
        (
            "publish.ops_per_delta",
            c.delta_ops as f64 / deltas,
            "ratio",
            1,
        ),
        (
            "live.fold_us_per_delta",
            folds.iter().sum::<f64>() / 1e3 / deltas,
            "us",
            folds.len(),
        ),
    ];
    for (name, value, unit, n) in rows {
        report.metric(name, value, unit, n);
    }
    let topk: Vec<f64> = tracer
        .durations("query.topk")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    report.percentile("live.topk_us", &topk, 0.5, "us");
    report.percentile(
        "live.pair_query_ns",
        &tracer.durations("query.pair"),
        0.5,
        "ns",
    );

    let layer_cpu = [
        "wire", "decode", "monitor", "router", "shard", "publish", "live",
    ]
    .iter()
    .map(|layer| per_event(layer))
    .sum::<f64>();
    report.metric("ledger.layer_cpu_ns_per_event", layer_cpu, "ns", 1);
    let daemon = report
        .get("ledger.daemon_cpu_ns_per_event")
        .unwrap_or(f64::NAN);
    report.metric("ledger.explained_cpu_share", layer_cpu / daemon, "ratio", 1);
    report.metric(
        "ledger.trace_overhead_frac",
        traced_s / untraced_s - 1.0,
        "ratio",
        1,
    );

    pipeline_metrics(workload, &config, &sessions, c.events, report);
    tracer.spans
}

/// The threaded pipeline with the daemon's configuration, fed the same
/// sessions, and the tenant layer's park/resume cycle.
fn pipeline_metrics(
    workload: &Workload,
    config: &AnalyzerConfig,
    sessions: &[Vec<&[u8]>],
    events: u64,
    report: &mut Report,
) {
    let pipeline_config = workload.runtime_config().pipeline;
    let latency = default_latency();
    let decode = |bytes: &[u8]| -> Vec<IoEvent> {
        let mut source = BlktraceEventSource::new(bytes, latency);
        std::iter::from_fn(|| source.next_event().expect("generated traces decode")).collect()
    };
    let (mut wall, mut shard_ns, mut router_ns, mut stall_ns) = (Duration::ZERO, 0u64, 0u64, 0u64);
    let (mut highwater, mut publishes, mut skips) = (0.0f64, 0u64, 0u64);
    let mut park_us = Vec::new();
    let mut resume_us = Vec::new();
    for (tenant, tenant_sessions) in sessions.iter().enumerate() {
        let decoded: Vec<Vec<IoEvent>> = tenant_sessions.iter().map(|b| decode(b)).collect();
        let mut pipeline = IngestPipeline::new(
            MonitorConfig::default(),
            config.clone(),
            pipeline_config.clone(),
        );
        let started = Instant::now();
        for events in &decoded {
            for &event in events {
                pipeline.push(event);
            }
            pipeline.flush_window();
        }
        drain(&mut pipeline);
        wall += started.elapsed();
        let stats = pipeline.stats();
        shard_ns += stats.shard_busy_nanos.iter().sum::<u64>();
        router_ns += stats.router_busy_nanos.iter().sum::<u64>();
        stall_ns += stats.stall_nanos + stats.routing_stall_nanos;
        let high = stats
            .shard_ring_highwater
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        highwater = highwater.max(high as f64 / stats.ring_slots.max(1) as f64);
        publishes += stats.epoch_publishes;
        skips += stats.epoch_publish_skips;
        let expected = oracle::expect(workload, tenant_sessions);
        let view = pipeline.live_view_mut().expect("publishing is on");
        report.oracle(
            "threaded pipeline",
            oracle::compare(view.frequent_pairs(1), &expected.pairs),
        );
        if tenant == 0 {
            park_cycles(&mut pipeline, &decoded, &mut park_us, &mut resume_us);
        }
        pipeline.finish();
    }
    let n = events as usize;
    report.metric(
        "pipeline.ns_per_event",
        wall.as_nanos() as f64 / events.max(1) as f64,
        "ns",
        n,
    );
    report.metric("pipeline.shard_busy_ms", shard_ns as f64 / 1e6, "ms", 1);
    report.metric("pipeline.router_busy_ms", router_ns as f64 / 1e6, "ms", 1);
    report.metric("pipeline.stall_ms", stall_ns as f64 / 1e6, "ms", 1);
    report.metric("pipeline.ring_highwater_frac", highwater, "ratio", 1);
    report.metric("pipeline.epoch_publishes", publishes as f64, "count", 1);
    report.metric("pipeline.publish_skips", skips as f64, "count", 1);
    report.guard(publishes > 0, || {
        "traced pipeline published no epoch deltas".to_string()
    });
    report.percentile("tenant.park_us", &park_us, 0.5, "us");
    report.percentile("tenant.resume_us", &resume_us, 0.5, "us");
}

/// Waits until the live view has folded up to the frontier, driving the
/// publish cadence with heartbeats as the daemon's `IngestEnd` does.
fn drain(pipeline: &mut IngestPipeline) {
    let target = pipeline.frontier_epoch();
    while pipeline.poll_live().is_some_and(|epoch| epoch < target) {
        pipeline.heartbeat();
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Times `park` and the pushes until the pipeline is running again.
fn park_cycles(
    pipeline: &mut IngestPipeline,
    decoded: &[Vec<IoEvent>],
    park_us: &mut Vec<f64>,
    resume_us: &mut Vec<f64>,
) {
    let mut replay = decoded.iter().flatten().copied().cycle();
    for _ in 0..PARK_CYCLES {
        let started = Instant::now();
        pipeline.park();
        park_us.push(started.elapsed().as_secs_f64() * 1e6);
        let started = Instant::now();
        while pipeline.is_parked() {
            pipeline.push(replay.next().expect("a non-empty cycle"));
        }
        resume_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
}
