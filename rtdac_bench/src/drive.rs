//! The end-to-end run: set-up, a closed-loop saturation phase, an
//! open-loop paced phase with concurrent queries, and teardown, all over
//! the public wire API. The generator is this process's two threads —
//! ingest and query — on two connections.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

use rtdac_types::wire::{
    read_frame, write_frame, FrameKind, WireClient, WireStats, HEADER_BYTES, MAX_FRAME_BYTES,
};

use crate::oracle::{self, Expected, Pairs};
use crate::report::{median, Failure, Report};
use crate::server::{connect, Server};
use crate::workload::{Shape, Trace, Workload, TOP_K};

/// A query answered later than this after its due time is a miss: it
/// sits below the mean MSR request latency (3-19 ms, Table II), so a
/// later answer is useless to a prefetcher.
const QUERY_DEADLINE: Duration = Duration::from_millis(5);

/// `Stats` probes per second on the query connection, issued ahead of
/// any queued `top_k` query; they sample round-trip time and view lag.
const PROBE_HZ: f64 = 5.0;

/// Paced ingest sends on this tick.
const TICK: Duration = Duration::from_millis(1);

/// Idle time before each timed start-up. The host's CPU speed changes
/// from one second to the next, so start-ups spaced out over several
/// seconds give a steadier `setup_s` median than a burst would.
const SETUP_GAP: Duration = Duration::from_millis(250);

/// Run settings fixed by the benchmark, the same on every commit.
pub struct Params {
    /// Paced window D.
    pub window: Duration,
    /// Daemon start-ups timed for `setup_s`.
    pub setups: usize,
}

pub type Spawn<'a> = dyn FnMut() -> Result<Box<dyn Server>, String> + 'a;

/// A transport that counts the request frames and bytes the client
/// writes on it. Each frame's payload length is read from its header
/// (magic u32, kind u8, length u32, all little-endian).
struct Counted<S> {
    inner: S,
    frames: u64,
    bytes: u64,
    header: [u8; HEADER_BYTES],
    /// Header bytes of the current frame written so far.
    filled: usize,
    /// Payload bytes of the current frame still to come.
    payload_left: usize,
}

impl<S> Counted<S> {
    fn new(inner: S) -> Self {
        Counted {
            inner,
            frames: 0,
            bytes: 0,
            header: [0; HEADER_BYTES],
            filled: 0,
            payload_left: 0,
        }
    }

    fn count(&mut self, mut written: &[u8]) {
        self.bytes += written.len() as u64;
        while !written.is_empty() {
            if self.payload_left > 0 {
                let take = self.payload_left.min(written.len());
                self.payload_left -= take;
                written = &written[take..];
                continue;
            }
            let take = (HEADER_BYTES - self.filled).min(written.len());
            self.header[self.filled..self.filled + take].copy_from_slice(&written[..take]);
            self.filled += take;
            written = &written[take..];
            if self.filled == HEADER_BYTES {
                self.frames += 1;
                self.filled = 0;
                let len = self.header[5..9].try_into().expect("4 bytes");
                self.payload_left = u32::from_le_bytes(len) as usize;
            }
        }
    }
}

impl<S: Read> Read for Counted<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl<S: Write> Write for Counted<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.count(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// An in-memory server that acks every request and keeps what the
/// client wrote.
struct AckAll {
    written: Vec<u8>,
    ack: Vec<u8>,
    at: usize,
}

impl Read for AckAll {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.ack.len() - self.at);
        buf[..n].copy_from_slice(&self.ack[self.at..self.at + n]);
        self.at = (self.at + n) % self.ack.len();
        Ok(n)
    }
}

impl Write for AckAll {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.written.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Payload bytes `WireClient::ingest` puts in one frame, read from the
/// first frame it writes for an input longer than any frame.
pub fn client_frame_bytes() -> usize {
    static BYTES: OnceLock<usize> = OnceLock::new();
    *BYTES.get_or_init(|| {
        let mut ack = Vec::new();
        write_frame(&mut ack, FrameKind::Ack, &0u64.to_le_bytes()).expect("Vec write");
        let mut client = WireClient::new(AckAll {
            written: Vec::new(),
            ack,
            at: 0,
        });
        client
            .ingest(&vec![0; 2 * MAX_FRAME_BYTES])
            .expect("in-memory ingest");
        let written = client.into_inner().written;
        read_frame(&mut &written[..])
            .expect("the client's own frame")
            .payload
            .len()
    })
}

/// A connection, counting what the generator writes on it.
struct Link {
    client: WireClient<Counted<TcpStream>>,
}

impl Link {
    fn connect(addr: SocketAddr, report: &mut Report) -> Option<Self> {
        report.op("connect", connect(addr)).map(|stream| Link {
            client: WireClient::new(Counted::new(stream)),
        })
    }

    /// Closes the connection; returns the request frames and bytes
    /// written on it.
    fn close(self) -> (u64, u64) {
        let counted = self.client.into_inner();
        (counted.frames, counted.bytes)
    }

    fn open(&mut self, report: &mut Report, tenant: &str) -> Option<()> {
        report.op("open", self.client.open(tenant))
    }

    /// Ingests with the client's own framing; returns the ack's event
    /// count.
    fn ingest(&mut self, report: &mut Report, bytes: &[u8]) -> Option<u64> {
        report.op("ingest", self.client.ingest(bytes))
    }

    /// `IngestEnd`; returns the session's event count and the time the
    /// flush and drain took.
    fn end_ingest(&mut self, report: &mut Report) -> Option<(u64, f64)> {
        let started = Instant::now();
        let events = report.op("end_ingest", self.client.end_ingest())?;
        Some((events, started.elapsed().as_secs_f64() * 1e3))
    }

    fn stats(&mut self, report: &mut Report) -> Option<WireStats> {
        report.op("stats", self.client.stats())
    }

    fn evict(&mut self, report: &mut Report, tenant: &str) -> Option<()> {
        report.op("evict", self.client.evict(tenant))
    }

    /// Queries the bound tenant's `frequent_pairs(1)` and compares it
    /// with the oracle's.
    fn check(&mut self, report: &mut Report, session: &str, expected: &Pairs) {
        if let Some(pairs) = report.op("frequent_pairs", self.client.frequent_pairs(1)) {
            report.oracle(session, oracle::compare(pairs, expected));
        }
    }
}

/// Samples the E-side metrics are drawn from, gathered across phases.
#[derive(Default)]
struct Samples {
    ingest_lag_ms: Vec<f64>,
    ingest_end_ms: Vec<f64>,
    gen_late_us: Vec<f64>,
}

/// Runs `workload` end to end against servers made by `spawn`.
pub fn run(
    workload: &Workload,
    traces: &[Trace],
    params: &Params,
    spawn: &mut Spawn,
    report: &mut Report,
) {
    let first = tenant_id("sat", workload, 0);
    // Half the timed start-ups run before the phases and half after
    // teardown, so that `setup_s` samples the host at both ends of the
    // run; the last one before the phases keeps its daemon.
    let before = params.setups.div_ceil(2);
    let mut setups = Vec::new();
    if time_start_ups(before - 1, spawn, &first, &mut setups, report).is_none() {
        return;
    }
    let Some((server, mut link, seconds)) = start_up(spawn, &first, report) else {
        return;
    };
    setups.push(seconds);

    let mut samples = Samples::default();
    let query_frames = match &workload.shape {
        Shape::Stream { .. } => stream_phases(
            workload,
            &traces[0],
            params,
            &*server,
            &mut link,
            &mut samples,
            report,
        ),
        Shape::Tenants { .. } => tenant_phases(
            workload,
            traces,
            params,
            &*server,
            &mut link,
            &mut samples,
            report,
        ),
    };

    report.percentile("ingest_lag_p50_ms", &samples.ingest_lag_ms, 0.5, "ms");
    report.percentile("ingest_lag_p99_ms", &samples.ingest_lag_ms, 0.99, "ms");
    let sat_events: usize = traces.iter().map(|t| t.issues.len()).sum();
    let ingested = (sat_events + samples.ingest_lag_ms.len()).max(1);
    let (frames, bytes) = link.close();
    report.metric("wire.frames", (frames + query_frames) as f64, "count", 1);
    report.metric(
        "wire.bytes_per_event",
        bytes as f64 / ingested as f64,
        "B",
        1,
    );
    let n_end = samples.ingest_end_ms.len();
    report.metric(
        "service.ingest_end_ms_mean",
        samples.ingest_end_ms.iter().sum::<f64>() / n_end as f64,
        "ms",
        n_end,
    );
    match samples.gen_late_us.iter().copied().reduce(f64::max) {
        Some(max) => report.metric("gen.send_late_us_max", max, "us", samples.gen_late_us.len()),
        None => report.percentile("gen.send_late_us_max", &[], 1.0, "us"),
    }

    match server.peak_rss_bytes() {
        Ok(bytes) => report.metric("peak_rss_mb", bytes as f64 / 1e6, "MB", 1),
        Err(e) => report
            .failures
            .push(Failure::Wire(format!("read VmHWM: {e}"))),
    }
    stop(server, report);
    let after = params.setups - before;
    if time_start_ups(after, spawn, &first, &mut setups, report).is_some() {
        report.metric("setup_s", median(&setups), "s", setups.len());
    }
    let errors = report
        .failures
        .iter()
        .filter(|f| matches!(f, Failure::Wire(_)))
        .count();
    report.metric("service.errors", errors as f64, "count", 1);
}

/// Spawns a server and opens `tenant` on it; returns the server, the
/// connection and the seconds from spawn to the `Open` ack.
fn start_up(
    spawn: &mut Spawn,
    tenant: &str,
    report: &mut Report,
) -> Option<(Box<dyn Server>, Link, f64)> {
    thread::sleep(SETUP_GAP);
    let started = Instant::now();
    let server = match spawn() {
        Ok(server) => server,
        Err(e) => {
            report.failures.push(Failure::Wire(e));
            return None;
        }
    };
    let mut link = Link::connect(server.addr(), report)?;
    link.open(report, tenant)?;
    Some((server, link, started.elapsed().as_secs_f64()))
}

fn stop(server: Box<dyn Server>, report: &mut Report) {
    if let Err(e) = server.stop() {
        report.failures.push(Failure::Wire(e));
    }
}

/// Times `count` start-ups, stopping each server straight away.
fn time_start_ups(
    count: usize,
    spawn: &mut Spawn,
    tenant: &str,
    setups: &mut Vec<f64>,
    report: &mut Report,
) -> Option<()> {
    for _ in 0..count {
        let (server, link, seconds) = start_up(spawn, tenant, report)?;
        setups.push(seconds);
        drop(link);
        stop(server, report);
    }
    Some(())
}

fn tenant_id(phase: &str, workload: &Workload, tenant: usize) -> String {
    match workload.shape {
        Shape::Stream { .. } => phase.to_string(),
        Shape::Tenants { .. } => format!("{phase}{tenant}"),
    }
}

/// Daemon CPU across the steps (frames or visits) of the sat phase.
struct CpuMeter<'a> {
    server: &'a dyn Server,
    last: Option<u64>,
    total_ns: u64,
    /// Per step: CPU used ÷ events the step sent.
    per_event_ns: Vec<f64>,
    failed: bool,
}

impl<'a> CpuMeter<'a> {
    fn start(server: &'a dyn Server) -> Self {
        let last = server.cpu_ns().ok();
        CpuMeter {
            server,
            last,
            total_ns: 0,
            per_event_ns: Vec::new(),
            failed: last.is_none(),
        }
    }

    /// Closes a step that sent `events` events.
    fn step(&mut self, events: usize) {
        let now = self.server.cpu_ns().ok();
        if let (Some(before), Some(after)) = (self.last, now) {
            self.total_ns += after - before;
            if events > 0 {
                self.per_event_ns
                    .push((after - before) as f64 / events as f64);
            }
        }
        self.failed |= now.is_none();
        self.last = now;
    }
}

/// Records the saturation phase's capacity and daemon-CPU figures. The
/// CPU figure is the median over steps, which a stray burst of
/// background work in one step does not move.
fn sat_metrics(report: &mut Report, events: usize, wall: Duration, cpu: CpuMeter) {
    let wall = wall.as_secs_f64();
    report.metric("ingest_events_per_s", events as f64 / wall, "ev/s", events);
    if cpu.failed {
        report
            .failures
            .push(Failure::Wire("read the daemon's CPU clock".to_string()));
    }
    report.percentile(
        "ledger.daemon_cpu_ns_per_event",
        &cpu.per_event_ns,
        0.5,
        "ns",
    );
    let share = cpu.total_ns as f64 / 1e9 / wall;
    report.metric("wire.wait_share", 1.0 - share, "ratio", 1);
    report.metric("ledger.cpu_share_of_wall", share, "ratio", 1);
}

/// Checks an `IngestEnd` ack against the events the session sent.
fn check_count(report: &mut Report, session: &str, acked: Option<(u64, f64)>, sent: usize) {
    if let Some((events, _)) = acked {
        report.oracle(
            session,
            if events == sent as u64 {
                Ok(())
            } else {
                Err(format!("daemon decoded {events} events, {sent} were sent"))
            },
        );
    }
}

fn stream_phases(
    workload: &Workload,
    trace: &Trace,
    params: &Params,
    server: &dyn Server,
    link: &mut Link,
    samples: &mut Samples,
    report: &mut Report,
) -> u64 {
    // sat: closed loop, the whole trace in the client's own framing, one
    // frame per call so that daemon CPU is read per frame.
    let events = trace.issues.len();
    let frame_bytes = client_frame_bytes();
    let mut cpu = CpuMeter::start(server);
    let started = Instant::now();
    for start in (0..trace.bytes.len()).step_by(frame_bytes) {
        let end = (start + frame_bytes).min(trace.bytes.len());
        if link.ingest(report, &trace.bytes[start..end]).is_none() {
            break;
        }
        cpu.step(trace.events_in(start, end));
    }
    let acked = link.end_ingest(report);
    cpu.step(0);
    sat_metrics(report, events, started.elapsed(), cpu);
    samples.ingest_end_ms.extend(acked.map(|a| a.1));
    check_count(report, "sat", acked, events);
    let sat = oracle::expect(workload, &[&trace.bytes]);
    link.check(report, "sat", &sat.pairs);
    admission_guards(workload, &sat, report);
    link.evict(report, "sat");

    // paced: open loop on a fresh tenant, queries on a second connection.
    let Some(mut query_link) = Link::connect(server.addr(), report) else {
        return 0;
    };
    if link.open(report, "paced").is_none() || query_link.open(report, "paced").is_none() {
        return query_link.close().0;
    }
    let t0 = Instant::now() + Duration::from_millis(10);
    let plan = QueryPlan {
        workload,
        t0,
        window: params.window,
        current: None,
    };
    let (paced, queries) = thread::scope(|scope| {
        let query_thread = scope.spawn(|| run_queries(&mut query_link, &plan));
        let paced = paced_stream(link, trace, workload.rate, t0, params.window);
        let queries = query_thread.join().expect("query thread panicked");
        (paced, queries)
    });
    report.merge(paced.report);
    samples.ingest_lag_ms.extend(paced.lags_ms);
    samples.gen_late_us.extend(paced.late_us);
    let acked = link.end_ingest(report);
    samples.ingest_end_ms.extend(acked.map(|a| a.1));
    check_count(report, "paced", acked, paced.events);
    let expected = oracle::expect(
        workload,
        &[&trace.bytes[..trace.prefix_bytes(paced.events)]],
    );
    link.check(report, "paced", &expected.pairs);
    query_metrics(report, queries);
    // Only tenant workloads revisit parked tenants.
    report.metric("tenant.resumes", 0.0, "count", 1);
    query_link.close().0
}

fn tenant_phases(
    workload: &Workload,
    traces: &[Trace],
    params: &Params,
    server: &dyn Server,
    link: &mut Link,
    samples: &mut Samples,
    report: &mut Report,
) -> u64 {
    let Shape::Tenants {
        sat_chunk,
        visit_frame,
        ..
    } = workload.shape
    else {
        unreachable!("tenant phases run tenant workloads");
    };

    // sat: back-to-back visits, round-robin over the tenants, one chunk
    // per visit.
    let events: usize = traces.iter().map(|t| t.issues.len()).sum();
    let longest = traces.iter().map(|t| t.bytes.len()).max().unwrap_or(0);
    let mut cpu = CpuMeter::start(server);
    let started = Instant::now();
    for start in (0..longest).step_by(sat_chunk) {
        for (i, trace) in traces.iter().enumerate() {
            let range = start.min(trace.bytes.len())..(start + sat_chunk).min(trace.bytes.len());
            if range.is_empty() {
                continue;
            }
            let sent = trace.events_in(range.start, range.end);
            link.open(report, &tenant_id("sat", workload, i));
            link.ingest(report, &trace.bytes[range]);
            let acked = link.end_ingest(report);
            samples.ingest_end_ms.extend(acked.map(|a| a.1));
            check_count(report, "sat visit", acked, sent);
            cpu.step(sent);
        }
    }
    sat_metrics(report, events, started.elapsed(), cpu);
    for (i, trace) in traces.iter().enumerate() {
        let sessions: Vec<&[u8]> = trace.bytes.chunks(sat_chunk).collect();
        let expected = oracle::expect(workload, &sessions);
        let id = tenant_id("sat", workload, i);
        link.open(report, &id);
        link.check(report, &id, &expected.pairs);
        link.evict(report, &id);
    }

    // paced: one visit per 1/rate seconds, queries on the last-visited
    // tenant.
    let current = AtomicUsize::new(0);
    let Some(mut query_link) = Link::connect(server.addr(), report) else {
        return 0;
    };
    if query_link
        .open(report, &tenant_id("paced", workload, 0))
        .is_none()
    {
        return query_link.close().0;
    }
    let t0 = Instant::now() + Duration::from_millis(10);
    let plan = QueryPlan {
        workload,
        t0,
        window: params.window,
        current: Some(&current),
    };
    let (visits, queries) = thread::scope(|scope| {
        let query_thread = scope.spawn(|| run_queries(&mut query_link, &plan));
        let visits = paced_visits(
            link,
            workload,
            traces,
            visit_frame,
            t0,
            params.window,
            &current,
            samples,
        );
        let queries = query_thread.join().expect("query thread panicked");
        (visits, queries)
    });
    report.merge(visits.report);
    let distinct = visits.sessions.iter().filter(|s| !s.is_empty()).count();
    report.metric(
        "tenant.resumes",
        visits.resumes as f64,
        "count",
        visits.count,
    );
    report.guard(visits.resumes + distinct == visits.count, || {
        format!(
            "{} of {} revisits found their tenant parked",
            visits.resumes,
            visits.count - distinct
        )
    });
    for (i, (trace, ranges)) in traces.iter().zip(&visits.sessions).enumerate() {
        if ranges.is_empty() {
            continue;
        }
        let sessions: Vec<&[u8]> = ranges.iter().map(|r| &trace.bytes[r.clone()]).collect();
        let expected = oracle::expect(workload, &sessions);
        let id = tenant_id("paced", workload, i);
        link.open(report, &id);
        link.check(report, &id, &expected.pairs);
    }
    query_metrics(report, queries);
    query_link.close().0
}

/// A workload with admission on must see the doorkeeper reject pairs and
/// the table evict: otherwise it measured no miss-path churn. (The
/// doorkeeper admits so few pairs that the churn shows in the item
/// table, not the pair table.)
pub fn admission_guards(workload: &Workload, sat: &Expected, report: &mut Report) {
    if workload.doorkeeper_bytes == 0 {
        return;
    }
    report.guard(sat.pair_rejections > 0, || {
        "sat: the doorkeeper rejected no pairs".to_string()
    });
    report.guard(sat.item_evictions > 0, || {
        "sat: the item table evicted nothing".to_string()
    });
}

fn sleep_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        thread::sleep(deadline - now);
    }
}

/// Sleeps until `due` and returns how late the wake-up ran, in µs.
fn sleep_late_us(due: Instant) -> f64 {
    sleep_until(due);
    due.elapsed().as_secs_f64() * 1e6
}

struct PacedStream {
    report: Report,
    lags_ms: Vec<f64>,
    late_us: Vec<f64>,
    /// Events sent (the prefix the paced oracle replays).
    events: usize,
}

/// Open-loop ingest: event `i` is due at `t0 + i/rate`; on every tick
/// the sender sends all due-but-unsent events, cut on record boundaries
/// into frames of at most the client's frame size.
fn paced_stream(
    link: &mut Link,
    trace: &Trace,
    rate: f64,
    t0: Instant,
    window: Duration,
) -> PacedStream {
    let mut out = PacedStream {
        report: Report::new(""),
        lags_ms: Vec::new(),
        late_us: Vec::new(),
        events: 0,
    };
    let total = trace.issues.len();
    let frame_bytes = client_frame_bytes();
    let end = t0 + window;
    let mut tick = t0;
    while tick < end && out.events < total {
        out.late_us.push(sleep_late_us(tick));
        let since = (tick - t0).as_secs_f64();
        let due = ((since * rate).floor() as usize + 1).min(total);
        while out.events < due {
            // The longest run of due events whose bytes fit one frame.
            let from = out.events;
            let start = trace.issues[from];
            let limit = start + frame_bytes;
            let fit = trace.issues[from + 1..due].partition_point(|&o| o <= limit);
            let to = if fit == due - from - 1 && trace.prefix_bytes(due) <= limit {
                due
            } else {
                from + fit.max(1)
            };
            if link
                .ingest(&mut out.report, &trace.bytes[start..trace.prefix_bytes(to)])
                .is_none()
            {
                return out;
            }
            let acked = Instant::now();
            out.lags_ms.extend(
                (from..to)
                    .map(|i| acked.duration_since(t0).as_secs_f64() * 1e3 - i as f64 * 1e3 / rate),
            );
            out.events = to;
        }
        // The next tick after the sends finished.
        let ticks = (Instant::now() - t0).as_nanos() / TICK.as_nanos() + 1;
        tick = t0 + TICK * ticks as u32;
    }
    out
}

struct Visits {
    report: Report,
    count: usize,
    resumes: usize,
    /// Per tenant, the byte range each of its visits sent.
    sessions: Vec<Vec<Range<usize>>>,
}

/// Open-loop tenant visits: visit `v` is due at `t0 + v/rate` and goes
/// to tenant `v mod T`: `Open`, `Stats`, two ingest frames, `IngestEnd`.
#[allow(clippy::too_many_arguments)]
fn paced_visits(
    link: &mut Link,
    workload: &Workload,
    traces: &[Trace],
    visit_frame: usize,
    t0: Instant,
    window: Duration,
    current: &AtomicUsize,
    samples: &mut Samples,
) -> Visits {
    let mut out = Visits {
        report: Report::new(""),
        count: 0,
        resumes: 0,
        sessions: vec![Vec::new(); traces.len()],
    };
    let report = &mut out.report;
    loop {
        let v = out.count;
        let due = t0 + Duration::from_secs_f64(v as f64 / workload.rate);
        if due >= t0 + window {
            break;
        }
        if Instant::now() < due {
            samples.gen_late_us.push(sleep_late_us(due));
        }
        let tenant = v % traces.len();
        let trace = &traces[tenant];
        let start = (v / traces.len()) * 2 * visit_frame;
        if start >= trace.bytes.len() {
            break;
        }
        if link
            .open(report, &tenant_id("paced", workload, tenant))
            .is_none()
        {
            break;
        }
        current.store(tenant, Ordering::Relaxed);
        let Some(stats) = link.stats(report) else {
            break;
        };
        out.resumes += usize::from(stats.parked);
        let mut sent = 0;
        for frame in 0..2 {
            let from = (start + frame * visit_frame).min(trace.bytes.len());
            let to = (from + visit_frame).min(trace.bytes.len());
            let events = trace.events_in(from, to);
            if link.ingest(report, &trace.bytes[from..to]).is_none() {
                return out;
            }
            let lag = due.elapsed().as_secs_f64() * 1e3;
            samples
                .ingest_lag_ms
                .extend(std::iter::repeat_n(lag, events));
            sent += events;
        }
        let acked = link.end_ingest(report);
        samples.ingest_end_ms.extend(acked.map(|a| a.1));
        check_count(report, "paced visit", acked, sent);
        let end = (start + 2 * visit_frame).min(trace.bytes.len());
        out.sessions[tenant].push(start..end);
        out.count += 1;
    }
    out
}

struct QueryPlan<'a> {
    workload: &'a Workload,
    t0: Instant,
    window: Duration,
    /// For tenant workloads, the last-visited tenant the queries follow.
    current: Option<&'a AtomicUsize>,
}

#[derive(Default)]
struct QueryLog {
    report: Report,
    /// `top_k` queries due within the window.
    due: usize,
    /// Answered `top_k` queries: reply time minus send time.
    latency_us: Vec<f64>,
    /// Answered within [`QUERY_DEADLINE`] of their due time.
    on_time: usize,
    window_s: f64,
    rtt_us: Vec<f64>,
    view_lag: Vec<f64>,
    folds: usize,
}

/// The query thread: `top_k` queries offered at the workload's fixed
/// rate, each timed from its send to its reply, plus `Stats` probes at
/// [`PROBE_HZ`] that go ahead of any backlog. A query due while an
/// earlier one is outstanding is sent late; the lateness counts toward
/// the miss fraction, not the latency.
fn run_queries(link: &mut Link, plan: &QueryPlan) -> QueryLog {
    let mut log = QueryLog::default();
    let end = plan.t0 + plan.window;
    let at = |seconds: f64| plan.t0 + Duration::from_secs_f64(seconds);
    let query_due = |j: usize| at(j as f64 / plan.workload.query_rate);
    let probe_due = |k: usize| at((k as f64 + 0.5) / PROBE_HZ);
    let mut bound = 0usize;
    let mut seen: HashMap<usize, u64> = HashMap::new();
    let (mut j, mut k) = (0usize, 0usize);
    loop {
        let now = Instant::now();
        let next_probe = Some(probe_due(k)).filter(|&d| d < end);
        let next_query = Some(query_due(j)).filter(|&d| d < end && now < end);
        let Some(next) = next_probe.into_iter().chain(next_query).min() else {
            break;
        };
        if next > now {
            sleep_until(next);
            continue;
        }
        if let Some(current) = plan.current {
            let tenant = current.load(Ordering::Relaxed);
            if tenant != bound {
                let id = tenant_id("paced", plan.workload, tenant);
                if link.open(&mut log.report, &id).is_none() {
                    break;
                }
                bound = tenant;
            }
        }
        if next_probe.is_some_and(|d| d <= now) {
            k += 1;
            let sent = Instant::now();
            let Some(stats) = link.stats(&mut log.report) else {
                break;
            };
            log.rtt_us.push(sent.elapsed().as_secs_f64() * 1e6);
            log.view_lag
                .push(stats.batches.saturating_sub(stats.view_epoch) as f64);
            let last = seen.entry(bound).or_insert(0);
            if stats.view_epoch > *last {
                log.folds += 1;
                *last = stats.view_epoch;
            }
            continue;
        }
        let due = query_due(j);
        j += 1;
        let sent = Instant::now();
        let Some(pairs) = log.report.op("top_k", link.client.top_k(TOP_K)) else {
            break;
        };
        log.latency_us.push(sent.elapsed().as_secs_f64() * 1e6);
        log.on_time += usize::from(due.elapsed() <= QUERY_DEADLINE);
        check_top_k(&pairs, &mut log.report);
    }
    log.window_s = plan.window.as_secs_f64();
    log.due = (log.window_s * plan.workload.query_rate).ceil() as usize;
    log
}

/// Checks the shape of a `top_k` answer.
fn check_top_k(pairs: &Pairs, report: &mut Report) {
    let ordered = pairs.len() <= TOP_K as usize && pairs.windows(2).all(|w| w[0].1 >= w[1].1);
    report.oracle(
        "top_k reply",
        if ordered {
            Ok(())
        } else {
            Err(format!("{} pairs, not in tally order", pairs.len()))
        },
    );
}

fn query_metrics(report: &mut Report, log: QueryLog) {
    report.merge(log.report);
    report.percentile("query_p50_us", &log.latency_us, 0.5, "us");
    report.percentile("query_p90_us", &log.latency_us, 0.9, "us");
    let answered = log.latency_us.len();
    report.metric(
        "service.queries_per_s",
        answered as f64 / log.window_s,
        "1/s",
        answered,
    );
    let due = log.due.max(1);
    report.metric(
        "service.query_miss_frac",
        (due - log.on_time.min(due)) as f64 / due as f64,
        "ratio",
        due,
    );
    report.percentile("wire.rtt_us_p50", &log.rtt_us, 0.5, "us");
    report.percentile("live.view_lag_batches_p50", &log.view_lag, 0.5, "batches");
    report.metric("live.folds", log.folds as f64, "count", log.rtt_us.len());
    report.guard(log.folds > 0, || {
        "paced: no probe saw the live view fold a delta".to_string()
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counted_finds_frames_across_split_writes() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, FrameKind::Ingest, &[7; 100]).expect("Vec write");
        write_frame(&mut bytes, FrameKind::IngestEnd, &[]).expect("Vec write");
        write_frame(&mut bytes, FrameKind::Open, b"t").expect("Vec write");
        let mut counted = Counted::new(Vec::new());
        for piece in bytes.chunks(4) {
            counted.write_all(piece).expect("Vec write");
        }
        assert_eq!(counted.frames, 3);
        assert_eq!(counted.bytes, bytes.len() as u64);
        assert_eq!(counted.inner, bytes);
    }

    #[test]
    fn client_frames_fit_the_frame_cap() {
        let bytes = client_frame_bytes();
        assert!(bytes > 0 && bytes <= MAX_FRAME_BYTES, "{bytes}");
    }
}
