//! The three workloads, the daemon flags each runs under, and the inputs
//! each generates from the seed. The daemon receives only the generated
//! blktrace bytes.

use std::time::Duration;

use rtdac_monitor::blktrace::{write_trace, RECORD_BYTES};
use rtdac_monitor::{PipelineConfig, ServiceConfig, TenantRuntimeConfig};
use rtdac_workloads::MsrServer;

/// Latency `rtdacd` gives issues whose completion never arrives.
pub fn default_latency() -> Duration {
    ServiceConfig::default().default_latency
}

/// What a workload streams.
#[derive(Clone, Debug)]
pub enum Shape {
    /// One trace, one tenant per phase.
    Stream { server: MsrServer, events: usize },
    /// `tenants` traces of `requests` each, streamed in short visits.
    Tenants {
        server: MsrServer,
        tenants: usize,
        requests: usize,
        /// Bytes per sat visit (record-aligned).
        sat_chunk: usize,
        /// Bytes per paced ingest frame; a paced visit sends two.
        visit_frame: usize,
    },
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Position in [`all`], mixed into the seed.
    pub index: u64,
    pub shape: Shape,
    pub shards: usize,
    pub doorkeeper_bytes: usize,
    pub idle_park_ms: Option<u64>,
    pub max_tenants: Option<usize>,
    /// Paced ingest rate: events/s for a stream, visits/s for tenants.
    pub rate: f64,
    /// Offered rate (queries/s) of the paced `top_k(TOP_K)` queries.
    pub query_rate: f64,
}

/// `k` of every paced `top_k` query.
pub const TOP_K: u32 = 20;

/// The benchmark's workloads, in seed-index order.
pub fn all() -> Vec<Workload> {
    vec![
        // Hot working set, few one-offs: table hits dominate, so decode,
        // monitor and router set the per-event cost; eviction and
        // admission are bypassed.
        Workload {
            name: "wdev_ingest",
            index: 0,
            shape: Shape::Stream {
                server: MsrServer::Wdev,
                events: 400_000,
            },
            shards: 1,
            doorkeeper_bytes: 0,
            idle_park_ms: None,
            max_tenants: None,
            rate: 40_000.0,
            query_rate: 100.0,
        },
        // 72% one-off extents over a 30M-block space: miss, insert and
        // evict churn, doorkeeper rejects and two-shard routing.
        Workload {
            name: "stg_churn",
            index: 1,
            shape: Shape::Stream {
                server: MsrServer::Stg,
                events: 400_000,
            },
            shards: 2,
            doorkeeper_bytes: 65_536,
            idle_park_ms: None,
            max_tenants: None,
            rate: 40_000.0,
            query_rate: 100.0,
        },
        // Many short sessions: per-session round trips, drain to the live
        // view, and park/resume on every revisit.
        Workload {
            name: "tenant_churn",
            index: 2,
            shape: Shape::Tenants {
                server: MsrServer::Hm,
                tenants: 16,
                requests: 12_500,
                sat_chunk: 6_553 * RECORD_BYTES,
                visit_frame: 819 * RECORD_BYTES,
            },
            shards: 1,
            doorkeeper_bytes: 0,
            idle_park_ms: Some(300),
            max_tenants: Some(16),
            rate: 4.0,
            query_rate: 100.0,
        },
    ]
}

impl Workload {
    /// `rtdacd` command-line flags for this workload.
    pub fn daemon_flags(&self) -> Vec<String> {
        let mut flags = vec!["--shards".to_string(), self.shards.to_string()];
        if self.doorkeeper_bytes > 0 {
            flags.extend([
                "--doorkeeper".to_string(),
                self.doorkeeper_bytes.to_string(),
            ]);
        }
        if let Some(ms) = self.idle_park_ms {
            flags.extend(["--idle-park-ms".to_string(), ms.to_string()]);
        }
        if let Some(max) = self.max_tenants {
            flags.extend(["--max-tenants".to_string(), max.to_string()]);
        }
        flags
    }

    /// The tenant runtime configuration `rtdacd` builds from
    /// [`daemon_flags`](Self::daemon_flags); the oracle and the traced
    /// replay size their analyzers from it.
    pub fn runtime_config(&self) -> TenantRuntimeConfig {
        let defaults = TenantRuntimeConfig::default();
        let mut config = TenantRuntimeConfig {
            doorkeeper_bytes: self.doorkeeper_bytes,
            pipeline: PipelineConfig::with_shards(self.shards)
                .publish_interval(defaults.pipeline.publish_interval_batches),
            ..defaults
        };
        if let Some(ms) = self.idle_park_ms {
            config.idle_park_after = Duration::from_millis(ms);
        }
        if let Some(max) = self.max_tenants {
            config.max_tenants = max;
        }
        config
    }

    /// Generates the blktrace byte streams: one for a stream workload,
    /// one per tenant otherwise.
    pub fn inputs(&self, seed: u64) -> Vec<Trace> {
        match &self.shape {
            Shape::Stream { server, events } => {
                vec![Trace::new(server, *events, seed ^ self.index)]
            }
            Shape::Tenants {
                server,
                tenants,
                requests,
                ..
            } => (0..*tenants as u64)
                .map(|i| Trace::new(server, *requests, seed.wrapping_add(i)))
                .collect(),
        }
    }
}

/// One generated trace as the daemon receives it.
pub struct Trace {
    pub bytes: Vec<u8>,
    /// Byte offset of every issue record: event `i` is the `i`-th issue,
    /// so `issues[i]` is where a prefix of `i` events ends.
    pub issues: Vec<usize>,
}

impl Trace {
    fn new(server: &MsrServer, requests: usize, seed: u64) -> Self {
        let trace = server.synthesize(requests, seed);
        let mut bytes = Vec::with_capacity(trace.len() * 2 * RECORD_BYTES);
        write_trace(&trace, &mut bytes).expect("writing to a Vec cannot fail");
        let issues = bytes
            .chunks_exact(RECORD_BYTES)
            .enumerate()
            // Action bits 1 = issue (see `BlktraceRecord::encode`).
            .filter(|(_, record)| record[4..6] == [1, 0])
            .map(|(i, _)| i * RECORD_BYTES)
            .collect();
        Trace { bytes, issues }
    }

    /// Byte length of the prefix holding the first `events` events and
    /// every record before the next issue.
    pub fn prefix_bytes(&self, events: usize) -> usize {
        self.issues.get(events).copied().unwrap_or(self.bytes.len())
    }

    /// Events whose issue record lies in `bytes[start..end]`.
    pub fn events_in(&self, start: usize, end: usize) -> usize {
        self.issues.partition_point(|&o| o < end) - self.issues.partition_point(|&o| o < start)
    }
}
