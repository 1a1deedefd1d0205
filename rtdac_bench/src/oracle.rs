//! The in-process oracle every wire report is compared against: the
//! daemon's decode, windowing and sharded analysis, run here with no
//! daemon, threads or live view involved.

use rtdac_monitor::{BlktraceEventSource, Monitor, TenantRuntime};
use rtdac_synopsis::ShardedAnalyzer;
use rtdac_types::{EventSource, ExtentPair};

use crate::workload::{default_latency, Workload};

pub type Pairs = Vec<(ExtentPair, u32)>;

/// One tenant's expected state after a sequence of ingest sessions.
pub struct Expected {
    /// `frequent_pairs(1)` in canonical order.
    pub pairs: Pairs,
    pub pair_rejections: u64,
    pub item_evictions: u64,
}

/// Replays `sessions` — each the bytes one `Open` … `IngestEnd` session
/// sent — as the daemon does: a fresh decoder per session, one monitor
/// flushed at every session end, one sharded analyzer throughout.
pub fn expect(workload: &Workload, sessions: &[&[u8]]) -> Expected {
    let config = TenantRuntime::new(workload.runtime_config())
        .analyzer_config()
        .clone();
    let mut analyzer = ShardedAnalyzer::new(config, workload.shards);
    let mut monitor = Monitor::default();
    let latency = default_latency();
    for bytes in sessions {
        let mut source = BlktraceEventSource::new(*bytes, latency);
        while let Some(event) = source
            .next_event()
            .expect("generated traces decode cleanly")
        {
            if let Some(txn) = monitor.push(event) {
                analyzer.process(&txn);
            }
        }
        if let Some(txn) = monitor.flush() {
            analyzer.process(&txn);
        }
    }
    Expected {
        pairs: canonical(analyzer.frequent_pairs(1)),
        pair_rejections: analyzer.stats().pair_rejections,
        item_evictions: analyzer
            .shards()
            .iter()
            .map(|s| s.item_table().stats().evictions)
            .sum(),
    }
}

/// Tally descending, pair ascending: a total order, so reports that
/// differ only in tie order compare equal.
pub fn canonical(mut pairs: Pairs) -> Pairs {
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    pairs
}

/// Compares a wire report with the oracle's, naming the first
/// difference.
pub fn compare(wire: Pairs, expected: &Pairs) -> Result<(), String> {
    let wire = canonical(wire);
    if wire == *expected {
        return Ok(());
    }
    let at = wire
        .iter()
        .zip(expected)
        .position(|(a, b)| a != b)
        .unwrap_or(wire.len().min(expected.len()));
    Err(format!(
        "{} pairs on the wire, {} expected; first difference at {at}: wire {:?}, oracle {:?}",
        wire.len(),
        expected.len(),
        wire.get(at),
        expected.get(at)
    ))
}
