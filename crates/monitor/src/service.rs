//! The `rtdacd` service loop: a std-only TCP daemon serving the
//! [`TenantRuntime`] over the framed wire protocol
//! (`rtdac_types::wire`).
//!
//! One connection binds to one tenant (`Open`) and then interleaves
//! ingest frames — raw blktrace-codec bytes, fed straight into a
//! [`BlktraceEventSource`] whose chunked decoder reassembles records
//! across frame boundaries — with query frames answered from the
//! tenant's `LiveView`. Ingest is zero-copy from the decode buffer
//! into the pipeline; queries never quiesce the shard workers.
//!
//! Error containment: a *protocol* error (bad magic, unknown kind,
//! oversized length, malformed blktrace bytes) drops only the
//! offending connection. The bound tenant's pipeline has absorbed a
//! valid prefix of the stream and stays consistent; other tenants
//! never notice. *Command* errors (no tenant bound, tenant cap,
//! eviction races) are reported in-band and leave the connection
//! usable.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::num::NonZeroU64;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rtdac_types::wire::{
    decode_pair_query, encode_pairs, encode_stats, encode_tenant_list, read_frame, write_frame,
    Frame, FrameKind, WireError, WireStats,
};
use rtdac_types::EventSource;

use crate::pipeline::IngestPipeline;
use crate::stream::BlktraceEventSource;
use crate::tenant::{Tenant, TenantRuntime, TenantRuntimeConfig};

/// Daemon configuration on top of the tenant runtime's.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Fleet sizing and lifecycle policy.
    pub runtime: TenantRuntimeConfig,
    /// Latency assigned to issue events whose completion never
    /// arrives, matching the offline readers' default.
    pub default_latency: Duration,
    /// How often the accept loop sweeps for idle tenants to park.
    pub idle_sweep: Duration,
    /// Events per second all connections together may ingest; `None`
    /// ingests as fast as the pipelines go. An ingest frame's ack is
    /// held until the frame fits the rate, less a 50 ms allowance.
    pub ingest_rate: Option<NonZeroU64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            runtime: TenantRuntimeConfig::default(),
            default_latency: Duration::from_micros(100),
            idle_sweep: Duration::from_secs(1),
            ingest_rate: None,
        }
    }
}

/// How far ingest may run ahead of its budget before acks wait. It
/// covers the work on a frame and the round trips between frames, so a
/// closed-loop client ingests at exactly the budget's rate.
const INGEST_BURST: Duration = Duration::from_millis(50);

/// The daemon-wide ingest rate limit, a virtual clock as in GCRA: each
/// ingest frame's events move the clock on by `events / rate` from the
/// later of itself and the frame's arrival, and the frame is acked once
/// the clock is no more than [`INGEST_BURST`] ahead of real time.
struct IngestBudget {
    rate: NonZeroU64,
    clock: Mutex<Option<Instant>>,
}

impl IngestBudget {
    fn new(rate: NonZeroU64) -> Self {
        IngestBudget {
            rate,
            clock: Mutex::new(None),
        }
    }

    /// Charges `events` from a frame that arrived at `arrived`; returns
    /// when its ack may go.
    fn charge(&self, events: u64, arrived: Instant) -> Instant {
        let mut clock = self.clock.lock().unwrap_or_else(PoisonError::into_inner);
        let start = clock.map_or(arrived, |at| at.max(arrived));
        let due = start + Duration::from_nanos(events.saturating_mul(1_000_000_000) / self.rate);
        *clock = Some(due);
        due.checked_sub(INGEST_BURST)
            .map_or(arrived, |release| release.max(arrived))
    }
}

/// How long a query waits for the live view to reach the ingest
/// frontier after `IngestEnd` before reporting an error.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Read timeout while a frame is in flight (half-open protection).
const MID_FRAME_TIMEOUT: Duration = Duration::from_secs(5);

/// Poll granularity of the accept loop and idle connections.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Bytes of framed ingest buffered ahead of the decoder.
struct FeedState {
    buf: VecDeque<u8>,
    eof: bool,
}

/// The `Read` the blktrace decoder pulls from: frame payloads go in
/// on one `Rc` handle, the decoder reads from the other. An empty
/// buffer is `WouldBlock` — *not* EOF — so the decoder parks with its
/// partial-record state intact until the next ingest frame arrives;
/// `IngestEnd` turns emptiness into a clean EOF.
#[derive(Clone)]
struct ChunkFeed(Rc<RefCell<FeedState>>);

impl ChunkFeed {
    fn new() -> Self {
        ChunkFeed(Rc::new(RefCell::new(FeedState {
            buf: VecDeque::new(),
            eof: false,
        })))
    }

    fn push(&self, bytes: &[u8]) {
        self.0.borrow_mut().buf.extend(bytes);
    }

    fn end(&self) {
        self.0.borrow_mut().eof = true;
    }
}

impl Read for ChunkFeed {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut state = self.0.borrow_mut();
        if state.buf.is_empty() {
            return if state.eof {
                Ok(0)
            } else {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "awaiting frames"))
            };
        }
        let (front, _) = state.buf.as_slices();
        let n = front.len().min(out.len());
        out[..n].copy_from_slice(&front[..n]);
        state.buf.drain(..n);
        Ok(n)
    }
}

/// Per-connection state: the bound tenant plus this connection's
/// ingest session (decoder + D/C pairing window).
struct Connection {
    runtime: Arc<TenantRuntime>,
    shutdown: Arc<AtomicBool>,
    default_latency: Duration,
    budget: Option<Arc<IngestBudget>>,
    tenant: Option<Arc<Mutex<Tenant>>>,
    feed: ChunkFeed,
    source: BlktraceEventSource<ChunkFeed>,
    /// Events this connection has pushed into its tenant.
    events: u64,
}

/// A response plus whether the connection must close afterwards.
struct Reply {
    frame: (FrameKind, Vec<u8>),
    hangup: bool,
}

impl Reply {
    fn ok(kind: FrameKind, payload: Vec<u8>) -> Self {
        Reply {
            frame: (kind, payload),
            hangup: false,
        }
    }

    fn ack() -> Self {
        Reply::ok(FrameKind::Ack, Vec::new())
    }

    /// Command-level error: reported in-band, connection stays up.
    fn error(message: String) -> Self {
        Reply::ok(FrameKind::Error, message.into_bytes())
    }

    /// Protocol-level error: reported, then the connection drops.
    fn fatal(message: String) -> Self {
        Reply {
            frame: (FrameKind::Error, message.into_bytes()),
            hangup: true,
        }
    }
}

impl Connection {
    fn new(
        runtime: Arc<TenantRuntime>,
        shutdown: Arc<AtomicBool>,
        default_latency: Duration,
        budget: Option<Arc<IngestBudget>>,
    ) -> Self {
        let feed = ChunkFeed::new();
        let source = BlktraceEventSource::new(feed.clone(), default_latency);
        Connection {
            runtime,
            shutdown,
            default_latency,
            budget,
            tenant: None,
            feed,
            source,
            events: 0,
        }
    }

    /// Drains every decodable event into the pipeline. `WouldBlock`
    /// means the decoder needs more frames — not an error.
    fn pump(&mut self, pipeline: &mut IngestPipeline) -> io::Result<()> {
        loop {
            match self.source.next_event() {
                Ok(Some(event)) => {
                    pipeline.push(event);
                    self.events += 1;
                }
                Ok(None) => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }

    /// Runs `f` on the bound tenant's pipeline, mapping the unbound /
    /// evicted cases to command errors.
    fn with_pipeline<T>(
        &mut self,
        touch: bool,
        f: impl FnOnce(&mut Self, &mut IngestPipeline) -> Result<T, Reply>,
    ) -> Result<T, Reply> {
        let Some(tenant) = self.tenant.clone() else {
            return Err(Reply::error("no tenant bound; send Open first".into()));
        };
        let mut tenant = tenant.lock().expect("tenant poisoned");
        let pipeline = if touch {
            tenant.pipeline()
        } else {
            tenant.peek_mut()
        };
        match pipeline {
            Ok(pipeline) => f(self, pipeline),
            Err(e) => Err(Reply::error(e.to_string())),
        }
    }

    /// Waits until the live view has folded deltas up to the
    /// pipeline's current frontier, driving the publish cadence with
    /// heartbeats while the stream is paused.
    fn drain_live(pipeline: &mut IngestPipeline) -> Result<(), Reply> {
        if pipeline.live_view().is_none() {
            return Ok(());
        }
        let target = pipeline.frontier_epoch();
        let deadline = Instant::now() + DRAIN_DEADLINE;
        loop {
            if pipeline.poll_live().is_some_and(|epoch| epoch >= target) {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(Reply::error("live view drain timed out".into()));
            }
            pipeline.heartbeat();
            thread::sleep(Duration::from_micros(200));
        }
    }

    /// Handles one frame; an ingest frame's ack waits for the budget.
    fn handle(&mut self, frame: Frame) -> Reply {
        let arrived = Instant::now();
        let events = self.events;
        let reply = self.dispatch(frame);
        if let Some(budget) = &self.budget {
            // `Open` resets the count; only growth is ingest.
            let ingested = self.events.saturating_sub(events);
            if ingested > 0 {
                let release = budget.charge(ingested, arrived);
                thread::sleep(release.saturating_duration_since(Instant::now()));
            }
        }
        reply
    }

    fn dispatch(&mut self, frame: Frame) -> Reply {
        match frame.kind {
            FrameKind::Open => {
                let Ok(id) = std::str::from_utf8(&frame.payload) else {
                    return Reply::fatal("tenant id is not utf-8".into());
                };
                match self.runtime.open(id) {
                    Ok(tenant) => {
                        self.tenant = Some(tenant);
                        // A fresh ingest session per binding: decoder
                        // and pairing window reset, the tenant's
                        // pipeline state persists.
                        self.feed = ChunkFeed::new();
                        self.source =
                            BlktraceEventSource::new(self.feed.clone(), self.default_latency);
                        self.events = 0;
                        Reply::ack()
                    }
                    Err(e) => Reply::error(e.to_string()),
                }
            }
            FrameKind::Ingest => {
                self.feed.push(&frame.payload);
                match self.with_pipeline(true, |conn, pipeline| {
                    conn.pump(pipeline)
                        .map_err(|e| Reply::fatal(format!("ingest decode failed: {e}")))
                }) {
                    Ok(()) => Reply::ok(FrameKind::Ack, self.events.to_le_bytes().to_vec()),
                    Err(reply) => reply,
                }
            }
            FrameKind::Flush => match self.with_pipeline(true, |_, pipeline| {
                pipeline.flush_batch();
                Ok(())
            }) {
                Ok(()) => Reply::ack(),
                Err(reply) => reply,
            },
            FrameKind::IngestEnd => {
                self.feed.end();
                match self.with_pipeline(true, |conn, pipeline| {
                    conn.pump(pipeline)
                        .map_err(|e| Reply::fatal(format!("ingest decode failed: {e}")))?;
                    pipeline.flush_window();
                    Self::drain_live(pipeline)
                }) {
                    Ok(()) => Reply::ok(FrameKind::Ack, self.events.to_le_bytes().to_vec()),
                    Err(reply) => reply,
                }
            }
            FrameKind::QueryTopK => {
                let Ok(bytes) = <[u8; 4]>::try_from(&frame.payload[..]) else {
                    return Reply::fatal("top-k payload must be a u32".into());
                };
                let k = u32::from_le_bytes(bytes) as usize;
                self.query(|view| {
                    let mut pairs = Vec::new();
                    view.top_pairs_into(k, &mut pairs);
                    pairs
                })
            }
            FrameKind::QueryFrequent => {
                let Ok(bytes) = <[u8; 4]>::try_from(&frame.payload[..]) else {
                    return Reply::fatal("frequent-pairs payload must be a u32".into());
                };
                let min_tally = u32::from_le_bytes(bytes);
                self.query(|view| view.frequent_pairs(min_tally))
            }
            FrameKind::QueryPair => {
                let pair = match decode_pair_query(&frame.payload) {
                    Ok(pair) => pair,
                    Err(e) => return Reply::fatal(e.to_string()),
                };
                match self.with_pipeline(false, |_, pipeline| {
                    pipeline.poll_live();
                    let Some(view) = pipeline.live_view() else {
                        return Err(Reply::error("live queries disabled for this tenant".into()));
                    };
                    let tally = view.pair_tally(&pair);
                    let mut payload = vec![u8::from(tally.is_some())];
                    payload.extend_from_slice(&tally.unwrap_or(0).to_le_bytes());
                    Ok(payload)
                }) {
                    Ok(payload) => Reply::ok(FrameKind::Tally, payload),
                    Err(reply) => reply,
                }
            }
            FrameKind::QueryStats => {
                let events = self.events;
                match self.with_pipeline(false, |_, pipeline| {
                    pipeline.poll_live();
                    let stats = pipeline.stats();
                    Ok(WireStats {
                        events: events.max(pipeline.monitor().stats().events),
                        transactions: stats.transactions,
                        batches: stats.batches,
                        view_epoch: pipeline
                            .live_view()
                            .map_or(0, |view| view.epoch().batches()),
                        parked: pipeline.is_parked(),
                    })
                }) {
                    Ok(stats) => Reply::ok(FrameKind::Stats, encode_stats(&stats)),
                    Err(reply) => reply,
                }
            }
            FrameKind::ListTenants => Reply::ok(
                FrameKind::TenantList,
                encode_tenant_list(&self.runtime.tenant_ids()),
            ),
            FrameKind::Evict => {
                let Ok(id) = std::str::from_utf8(&frame.payload) else {
                    return Reply::fatal("tenant id is not utf-8".into());
                };
                match self.runtime.evict(id) {
                    Some(_) => Reply::ack(),
                    None => Reply::error(format!("unknown tenant: {id}")),
                }
            }
            FrameKind::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Reply {
                    frame: (FrameKind::Ack, Vec::new()),
                    hangup: true,
                }
            }
            // Response kinds arriving at the server are protocol abuse.
            _ => Reply::fatal(format!("unexpected frame kind {:?}", frame.kind)),
        }
    }

    /// Shared shape of the pair-report queries: poll the view to its
    /// latest published epoch, then answer from it.
    fn query(
        &mut self,
        f: impl FnOnce(&mut rtdac_synopsis::LiveView) -> Vec<(rtdac_types::ExtentPair, u32)>,
    ) -> Reply {
        match self.with_pipeline(false, |_, pipeline| {
            pipeline.poll_live();
            let Some(view) = pipeline.live_view_mut() else {
                return Err(Reply::error("live queries disabled for this tenant".into()));
            };
            Ok(f(view))
        }) {
            Ok(pairs) => Reply::ok(FrameKind::Pairs, encode_pairs(&pairs)),
            Err(reply) => reply,
        }
    }
}

/// Serves connections on `listener` until a `Shutdown` frame arrives,
/// then drains every tenant and returns. Each connection gets its own
/// thread; the accept loop doubles as the idle-park sweeper.
pub fn serve(listener: TcpListener, config: ServiceConfig) -> io::Result<()> {
    let runtime = Arc::new(TenantRuntime::new(config.runtime.clone()));
    let shutdown = Arc::new(AtomicBool::new(false));
    let budget = config
        .ingest_rate
        .map(|rate| Arc::new(IngestBudget::new(rate)));
    listener.set_nonblocking(true)?;
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    let mut last_sweep = Instant::now();
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let runtime = Arc::clone(&runtime);
                let shutdown = Arc::clone(&shutdown);
                let default_latency = config.default_latency;
                let budget = budget.clone();
                workers.push(thread::spawn(move || {
                    let connection = Connection::new(runtime, shutdown, default_latency, budget);
                    // A broken connection already cleaned up after
                    // itself; nothing to report.
                    let _ = handle_connection(stream, connection);
                }));
            }
            Err(e) => match accept_failure(&e) {
                AcceptFailure::Retry => {}
                AcceptFailure::BackOff => thread::sleep(POLL_INTERVAL),
                AcceptFailure::Fatal => return Err(e),
            },
        }
        workers.retain(|w| !w.is_finished());
        if last_sweep.elapsed() >= config.idle_sweep {
            runtime.park_idle();
            last_sweep = Instant::now();
        }
    }
    for worker in workers {
        let _ = worker.join();
    }
    runtime.shutdown();
    Ok(())
}

/// What the accept loop does after a failed `accept`.
#[derive(Debug, PartialEq, Eq)]
enum AcceptFailure {
    /// The failure belonged to one pending connection; accept again.
    Retry,
    /// Nothing to accept yet, or the process is out of descriptors
    /// until some connection closes; wait a poll interval.
    BackOff,
    /// The listener itself is broken; stop serving.
    Fatal,
}

/// `errno` values for descriptor exhaustion, the same on Linux and the
/// BSDs; std maps neither to an `ErrorKind`.
const ENFILE: i32 = 23;
const EMFILE: i32 = 24;

fn accept_failure(e: &io::Error) -> AcceptFailure {
    match e.kind() {
        io::ErrorKind::WouldBlock => AcceptFailure::BackOff,
        io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted => AcceptFailure::Retry,
        _ if matches!(e.raw_os_error(), Some(EMFILE | ENFILE)) => AcceptFailure::BackOff,
        _ => AcceptFailure::Fatal,
    }
}

/// One connection's read-dispatch-write loop.
fn handle_connection(mut stream: TcpStream, mut connection: Connection) -> io::Result<()> {
    // Replies go out as they are written; with Nagle on, a reply could
    // wait for the client's delayed ACK of the previous one.
    stream.set_nodelay(true)?;
    loop {
        // Wait for the next frame at poll granularity so a daemon
        // shutdown (or this client going away) is noticed promptly,
        // then read the frame with the longer mid-frame timeout.
        stream.set_read_timeout(Some(POLL_INTERVAL))?;
        match stream.peek(&mut [0u8; 1]) {
            Ok(0) => return Ok(()), // client closed
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if connection.shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        stream.set_read_timeout(Some(MID_FRAME_TIMEOUT))?;
        let reply = match read_frame(&mut stream) {
            Ok(frame) => connection.handle(frame),
            Err(WireError::Io(e)) => return Err(e),
            // Protocol garbage: answer once, then hang up. The
            // stream position is undefined, so reading on would only
            // misparse.
            Err(e) => Reply::fatal(e.to_string()),
        };
        let (kind, payload) = reply.frame;
        write_frame(&mut stream, kind, &payload)?;
        stream.flush()?;
        if reply.hangup {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_listener_failures_stop_the_accept_loop() {
        let kind = |kind: io::ErrorKind| accept_failure(&io::Error::from(kind));
        let errno = |code: i32| accept_failure(&io::Error::from_raw_os_error(code));
        assert_eq!(kind(io::ErrorKind::WouldBlock), AcceptFailure::BackOff);
        assert_eq!(kind(io::ErrorKind::ConnectionAborted), AcceptFailure::Retry);
        assert_eq!(kind(io::ErrorKind::Interrupted), AcceptFailure::Retry);
        assert_eq!(errno(EMFILE), AcceptFailure::BackOff);
        assert_eq!(errno(ENFILE), AcceptFailure::BackOff);
        assert_eq!(kind(io::ErrorKind::InvalidInput), AcceptFailure::Fatal);
    }

    #[test]
    fn the_ingest_budget_paces_acks_to_its_rate() {
        let budget = IngestBudget::new(NonZeroU64::new(1_000).unwrap());
        let t0 = Instant::now();
        let ms = |n: u64| Duration::from_millis(n);
        // 500 events at 1,000/s take 500 ms of budget, of which the
        // burst allowance need not be waited out.
        assert_eq!(budget.charge(500, t0), t0 + ms(500) - INGEST_BURST);
        // A frame arriving while the clock runs ahead queues behind it.
        assert_eq!(budget.charge(250, t0 + ms(1)), t0 + ms(750) - INGEST_BURST);
        // After an idle spell the clock restarts at the arrival, and a
        // frame within the burst allowance is acked at once.
        let later = t0 + ms(5_000);
        assert_eq!(budget.charge(10, later), later);
        assert_eq!(
            budget.charge(100, later + ms(2)),
            later + ms(110) - INGEST_BURST
        );
    }
}
