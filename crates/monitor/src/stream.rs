//! Streaming blktrace ingestion and full-pipeline-speed replay.
//!
//! [`blktrace::read_events`](crate::blktrace::read_events) slurps the
//! whole file into memory, decodes record-at-a-time and patches
//! latencies retroactively — fine as an oracle, hopeless for multi-GB
//! captures. This module is the production path:
//!
//! * [`BlktraceReader`] pulls fixed-size chunks into one reusable
//!   buffer and decodes 40-byte records in place, handling records that
//!   straddle chunk boundaries (the tail of a partial record is slid to
//!   the buffer front before the next refill);
//! * [`BlktraceEventSource`] performs the D/C pairing *online* with a
//!   bounded in-flight window: issues are held until their completion
//!   arrives (resolving the measured latency) and then emitted in
//!   stream order. An issue whose completion has not arrived by the
//!   time `max_inflight` later issues are pending — or by end of
//!   stream — is emitted with the default latency, exactly like the
//!   oracle's unmatched-issue rule. For any capture whose outstanding
//!   queue depth fits the window (real block layers are bounded by the
//!   device queue), the emitted events are **identical** to the
//!   oracle's.
//! * [`replay`] drives an [`IngestPipeline`] straight from any
//!   [`EventSource`] at full speed or at recorded-timestamp pacing —
//!   the paper's accelerated-replay knob, but from disk.
//!
//! After warm-up (chunk buffer, pending ring and pairing map at their
//! high-water marks), pulling the next event allocates nothing; the
//! `zero_alloc` suite holds the whole decode hot path to that.

use std::collections::VecDeque;
use std::io::{self, Read};
use std::time::{Duration, Instant};

use rtdac_types::{EventSource, Extent, FxHashMap, IoEvent, Timestamp};

use crate::blktrace::{Action, BlktraceRecord, RECORD_BYTES};
use crate::pipeline::IngestPipeline;

/// Default chunk size for [`BlktraceReader`]: 64 KiB, a comfortable
/// read(2) granularity that still fits L2.
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

/// Default bound on issues held awaiting completion before they are
/// force-emitted with the default latency. Real device queues are a few
/// hundred deep; 64 Ki outstanding means pathological input, not a real
/// capture.
pub const DEFAULT_MAX_INFLIGHT: usize = 64 * 1024;

/// Chunked zero-copy reader for the blktrace-style binary stream: one
/// fixed buffer, records decoded in place, partial records carried
/// across refills.
pub struct BlktraceReader<R: Read> {
    reader: R,
    buf: Vec<u8>,
    /// Valid bytes in `buf`.
    filled: usize,
    /// Bytes already decoded.
    pos: usize,
    eof: bool,
    records: u64,
    bytes: u64,
}

impl<R: Read> BlktraceReader<R> {
    /// Wraps `reader` with the default chunk size.
    pub fn new(reader: R) -> Self {
        Self::with_chunk_bytes(reader, DEFAULT_CHUNK_BYTES)
    }

    /// Wraps `reader` with a custom chunk size (tests use tiny, odd
    /// sizes to force records to straddle every refill).
    pub fn with_chunk_bytes(reader: R, chunk_bytes: usize) -> Self {
        BlktraceReader {
            reader,
            buf: vec![0; chunk_bytes.max(RECORD_BYTES)],
            filled: 0,
            pos: 0,
            eof: false,
            records: 0,
            bytes: 0,
        }
    }

    /// Records decoded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Raw bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes
    }

    /// Decodes the next record, or returns `None` at a clean end of
    /// stream.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a bad magic/action or a stream that ends inside
    /// a record (truncation).
    pub fn next_record(&mut self) -> io::Result<Option<BlktraceRecord>> {
        while self.filled - self.pos < RECORD_BYTES {
            if self.eof {
                return if self.filled == self.pos {
                    Ok(None)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "truncated blktrace stream: {} trailing bytes \
                             (records are {RECORD_BYTES} bytes)",
                            self.filled - self.pos
                        ),
                    ))
                };
            }
            // Slide the partial record (if any) to the front — this is
            // the chunk-boundary straddle — then refill the rest.
            self.buf.copy_within(self.pos..self.filled, 0);
            self.filled -= self.pos;
            self.pos = 0;
            match self.reader.read(&mut self.buf[self.filled..]) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    self.filled += n;
                    self.bytes += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let record = BlktraceRecord::decode(
            self.buf[self.pos..self.pos + RECORD_BYTES]
                .try_into()
                .expect("exact record slice"),
        )?;
        self.pos += RECORD_BYTES;
        self.records += 1;
        Ok(Some(record))
    }
}

/// The D/C pairing key: `(sector, blocks, pid)`, the oracle's.
type PairingKey = (u64, u32, u32);

/// End-of-chain marker for [`Pending::next`].
const NO_NEXT: u64 = u64::MAX;

/// An issue waiting in the emission queue for its completion.
struct Pending {
    event: IoEvent,
    key: PairingKey,
    /// Sequence number of the next unresolved issue with the same key
    /// (the intrusive per-key FIFO), or [`NO_NEXT`].
    next: u64,
    resolved: bool,
}

/// Streaming D/C pairing over a [`BlktraceReader`]: yields issue events
/// in stream order with recovered latencies, holding at most
/// `max_inflight` unresolved issues.
pub struct BlktraceEventSource<R: Read> {
    records: BlktraceReader<R>,
    default_latency: Duration,
    max_inflight: usize,
    /// Issues not yet emitted, oldest first. Sequence number of the
    /// front element is `front_seq`.
    pending: VecDeque<Pending>,
    front_seq: u64,
    /// Key → `(head, tail)` sequence numbers of its chain of unresolved,
    /// not yet emitted issues, linked through [`Pending::next`] — FIFO
    /// per key, the oracle's pairing rule. A key leaves the map when its
    /// chain empties, so it never holds more keys than `pending` holds
    /// issues (at most `max_inflight + 1`), and once warm it allocates
    /// nothing however many distinct keys the stream carries.
    inflight: FxHashMap<PairingKey, (u64, u64)>,
    done: bool,
}

impl<R: Read> BlktraceEventSource<R> {
    /// Streams `reader` with the default chunk size and in-flight
    /// window. Unmatched issues get `default_latency`, like the oracle.
    pub fn new(reader: R, default_latency: Duration) -> Self {
        Self::with_limits(
            reader,
            default_latency,
            DEFAULT_CHUNK_BYTES,
            DEFAULT_MAX_INFLIGHT,
        )
    }

    /// Full-control constructor: chunk size and in-flight bound.
    pub fn with_limits(
        reader: R,
        default_latency: Duration,
        chunk_bytes: usize,
        max_inflight: usize,
    ) -> Self {
        BlktraceEventSource {
            records: BlktraceReader::with_chunk_bytes(reader, chunk_bytes),
            default_latency,
            max_inflight: max_inflight.max(1),
            pending: VecDeque::new(),
            front_seq: 0,
            inflight: FxHashMap::default(),
            done: false,
        }
    }

    /// Raw bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.records.bytes_read()
    }

    /// Keys with at least one issue awaiting its completion.
    #[cfg(test)]
    pub(crate) fn pairing_keys(&self) -> usize {
        self.inflight.len()
    }

    fn pending_mut(&mut self, seq: u64) -> &mut Pending {
        let index = (seq - self.front_seq) as usize;
        self.pending.get_mut(index).expect("seq in window")
    }

    /// Removes the head of `key`'s chain, whose successor is `next`.
    fn unlink_head(&mut self, key: PairingKey, next: u64) {
        if next == NO_NEXT {
            self.inflight.remove(&key);
        } else {
            self.inflight.get_mut(&key).expect("chain exists").0 = next;
        }
    }

    fn emit_front(&mut self) -> IoEvent {
        let front = self.pending.pop_front().expect("front exists");
        if !front.resolved {
            // Forced out past the window or at end of stream. As the
            // oldest pending issue it heads its key's chain.
            debug_assert_eq!(
                self.inflight.get(&front.key).map(|c| c.0),
                Some(self.front_seq)
            );
            self.unlink_head(front.key, front.next);
        }
        self.front_seq += 1;
        front.event
    }
}

impl<R: Read> EventSource for BlktraceEventSource<R> {
    fn next_event(&mut self) -> io::Result<Option<IoEvent>> {
        loop {
            // Emit whenever the front issue's latency is settled, or
            // the window overflows (its completion is too far away to
            // wait for — fall back to the default latency).
            if let Some(front) = self.pending.front() {
                if front.resolved || self.pending.len() > self.max_inflight || self.done {
                    return Ok(Some(self.emit_front()));
                }
            } else if self.done {
                return Ok(None);
            }
            match self.records.next_record()? {
                None => {
                    self.done = true;
                }
                Some(record) => {
                    let key = (record.sector, record.blocks, record.pid);
                    match record.action {
                        Action::Issue => {
                            let extent =
                                Extent::new(record.sector, record.blocks.max(1)).map_err(|e| {
                                    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
                                })?;
                            let seq = self.front_seq + self.pending.len() as u64;
                            self.pending.push_back(Pending {
                                event: IoEvent::new(
                                    Timestamp::from_nanos(record.time_ns),
                                    record.pid,
                                    record.op,
                                    extent,
                                    self.default_latency,
                                ),
                                key,
                                next: NO_NEXT,
                                resolved: false,
                            });
                            match self.inflight.get_mut(&key) {
                                Some((_, tail)) => {
                                    let prev = std::mem::replace(tail, seq);
                                    self.pending_mut(prev).next = seq;
                                }
                                None => {
                                    self.inflight.insert(key, (seq, seq));
                                }
                            }
                        }
                        Action::Complete => {
                            // Orphan completions (no unresolved issue of
                            // this key in the window) are dropped, as
                            // blkparse does.
                            if let Some(&(head, _)) = self.inflight.get(&key) {
                                let pending = self.pending_mut(head);
                                let issued = pending.event.timestamp.as_nanos();
                                pending.event.latency =
                                    Duration::from_nanos(record.time_ns.saturating_sub(issued));
                                pending.resolved = true;
                                let next = pending.next;
                                self.unlink_head(key, next);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// How [`replay`] paces events into the pipeline.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum ReplayPacing {
    /// Push events as fast as they decode — the throughput experiment.
    FullSpeed,
    /// Honor recorded timestamps compressed by `speedup` (the paper's
    /// accelerated replay): event at trace time *t* is pushed no
    /// earlier than wall time *t / speedup* after the first event.
    Recorded { speedup: f64 },
}

/// What [`replay`] measured.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ReplayStats {
    /// Events pushed into the pipeline.
    pub events: u64,
    /// Wall-clock seconds for the whole replay (decode + push + any
    /// pacing waits).
    pub elapsed_secs: f64,
}

impl ReplayStats {
    /// Sustained event rate of the replay.
    pub fn events_per_sec(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.events as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }
}

/// Drives `pipeline` from `source` until end of stream. The pipeline is
/// *not* finished — the caller keeps it and can replay further sources
/// into it before harvesting the analyzer.
///
/// # Errors
///
/// Propagates the first decode/read error; events already pushed stay
/// pushed.
pub fn replay<S: EventSource>(
    source: &mut S,
    pipeline: &mut IngestPipeline,
    pacing: ReplayPacing,
) -> io::Result<ReplayStats> {
    let start = Instant::now();
    let mut events = 0u64;
    let mut base: Option<Timestamp> = None;
    while let Some(event) = source.next_event()? {
        if let ReplayPacing::Recorded { speedup } = pacing {
            let base = *base.get_or_insert(event.timestamp);
            let due = event
                .timestamp
                .saturating_since(base)
                .div_f64(speedup.max(1e-9));
            let now = start.elapsed();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        pipeline.push(event);
        events += 1;
    }
    pipeline.flush_batch();
    Ok(ReplayStats {
        events,
        elapsed_secs: start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blktrace::{read_events, write_trace};
    use rtdac_types::{IoOp, IoRequest, Trace};

    fn sample_trace(n: u64) -> Trace {
        let mut trace = Trace::new("t");
        for i in 0..n {
            trace.push(
                IoRequest::new(
                    Timestamp::from_micros(i * 50),
                    7,
                    if i % 3 == 0 { IoOp::Write } else { IoOp::Read },
                    Extent::new((i % 17) * 64, 8).unwrap(),
                )
                .with_latency(Duration::from_micros(120 + (i % 9) * 10)),
            );
        }
        trace
    }

    fn drain<R: Read>(mut source: BlktraceEventSource<R>) -> Vec<IoEvent> {
        let mut events = Vec::new();
        while let Some(event) = source.next_event().unwrap() {
            events.push(event);
        }
        events
    }

    #[test]
    fn streaming_matches_oracle_exactly() {
        let trace = sample_trace(500);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let oracle = read_events(buf.as_slice(), Duration::from_micros(9)).unwrap();
        let streamed = drain(BlktraceEventSource::new(
            buf.as_slice(),
            Duration::from_micros(9),
        ));
        assert_eq!(streamed, oracle);
    }

    #[test]
    fn straddling_records_decode_exactly() {
        // A chunk size that is not a multiple of RECORD_BYTES forces a
        // partial record at (almost) every refill.
        let trace = sample_trace(300);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let oracle = read_events(buf.as_slice(), Duration::ZERO).unwrap();
        for chunk in [RECORD_BYTES + 1, 57, 97, 41] {
            let streamed = drain(BlktraceEventSource::with_limits(
                buf.as_slice(),
                Duration::ZERO,
                chunk,
                DEFAULT_MAX_INFLIGHT,
            ));
            assert_eq!(streamed, oracle, "chunk {chunk}");
        }
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let trace = sample_trace(20);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let mut source = BlktraceEventSource::new(buf.as_slice(), Duration::ZERO);
        let err = loop {
            match source.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("truncation went unnoticed"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn overflowing_window_falls_back_to_default_latency() {
        // Three identical issues, completions only after all of them:
        // with max_inflight=1 the first issues overflow and take the
        // default latency; the last pairs normally.
        let mut records = Vec::new();
        for i in 0..3u64 {
            records.extend_from_slice(
                &BlktraceRecord {
                    time_ns: i * 1_000,
                    sector: 64,
                    blocks: 8,
                    pid: 1,
                    action: Action::Issue,
                    op: IoOp::Read,
                }
                .encode(),
            );
        }
        for i in 0..3u64 {
            records.extend_from_slice(
                &BlktraceRecord {
                    time_ns: 10_000 + i * 1_000,
                    sector: 64,
                    blocks: 8,
                    pid: 1,
                    action: Action::Complete,
                    op: IoOp::Read,
                }
                .encode(),
            );
        }
        let events = drain(BlktraceEventSource::with_limits(
            records.as_slice(),
            Duration::from_micros(1),
            DEFAULT_CHUNK_BYTES,
            1,
        ));
        assert_eq!(events.len(), 3);
        // With a window of 1, the first two issues are forced out
        // before their completions arrive.
        assert_eq!(events[0].latency, Duration::from_micros(1));
        assert_eq!(events[1].latency, Duration::from_micros(1));
        // The last issue is still pending at EOF drain time, and its
        // completion arrived before the stream ended.
        assert_eq!(events[2].latency, Duration::from_micros(8));
    }

    #[test]
    fn pairing_map_never_exceeds_the_window() {
        // Keys repeat (17 extents), completions trail their issues by up
        // to 40 later issues, and every fifth issue never completes: the
        // window overflows constantly, force-emits unlink chain heads,
        // and late completions find their issue gone.
        let mut trace = Trace::new("t");
        for i in 0..5_000u64 {
            let request = IoRequest::new(
                Timestamp::from_micros(i * 50),
                7,
                IoOp::Read,
                Extent::new((i % 17) * 64, 8).unwrap(),
            );
            trace.push(if i % 5 == 0 {
                request
            } else {
                request.with_latency(Duration::from_micros((i * 37) % 2_000))
            });
        }
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        for max_inflight in [1, 8, 64] {
            let mut source = BlktraceEventSource::with_limits(
                buf.as_slice(),
                Duration::ZERO,
                DEFAULT_CHUNK_BYTES,
                max_inflight,
            );
            let mut events = 0;
            while source.next_event().unwrap().is_some() {
                events += 1;
                assert!(
                    source.pairing_keys() <= max_inflight + 1,
                    "{} keys with a window of {max_inflight}",
                    source.pairing_keys()
                );
            }
            assert_eq!(events, trace.len());
            assert_eq!(source.pairing_keys(), 0, "keys left after end of stream");
        }
    }

    #[test]
    fn reader_counts_records_and_bytes() {
        let trace = sample_trace(10);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let mut reader = BlktraceReader::with_chunk_bytes(buf.as_slice(), 64);
        while reader.next_record().unwrap().is_some() {}
        assert_eq!(reader.records(), 20); // 10 issues + 10 completes
        assert_eq!(reader.bytes_read(), buf.len() as u64);
    }
}
