//! `rtdacd` — the multi-tenant correlation-monitoring daemon.
//!
//! Binds a TCP listener and serves the framed wire protocol
//! (`rtdac::types::wire`): each connection binds to a tenant, streams
//! blktrace-codec bytes as ingest, and queries the tenant's live view
//! without quiescing its pipeline. One pipeline per tenant; admission
//! is capped and every tenant's analyzer is sized from the same byte
//! budget. Idle tenants are parked (worker threads joined, tables
//! snapshotted) and resume transparently on their next event.
//!
//! ```text
//! rtdacd [--addr HOST:PORT] [--port-file PATH] [--max-tenants N]
//!        [--budget BYTES] [--doorkeeper BYTES] [--shards N]
//!        [--idle-park-ms MS] [--ingest-rate EVENTS_PER_S]
//! ```
//!
//! `--addr 127.0.0.1:0` (the default) picks an ephemeral port; the
//! bound address is printed on stdout and, with `--port-file`, the
//! port alone is written there for scripts to pick up. Stop the
//! daemon with `rtdacctl shutdown` (every tenant is drained cleanly).
//!
//! The daemon runs beside the storage stack it watches, so by default
//! it ingests at most 250,000 events/s over all connections: a bulk
//! replay then holds a bounded share of the host's CPU, and the clients
//! see one steady rate. `--ingest-rate 0` lifts the limit.

use std::collections::HashMap;
use std::net::TcpListener;
use std::num::NonZeroU64;
use std::process::ExitCode;
use std::time::Duration;

use rtdac::monitor::{serve, ServiceConfig};

const USAGE: &str = "usage:
  rtdacd [--addr HOST:PORT] [--port-file PATH] [--max-tenants N]
         [--budget BYTES] [--doorkeeper BYTES] [--shards N]
         [--idle-park-ms MS] [--ingest-rate EVENTS_PER_S]

defaults: --addr 127.0.0.1:0 (ephemeral port, printed on stdout),
--max-tenants 64, --budget 524288 bytes per tenant, --doorkeeper 0,
--shards 1, --idle-park-ms 30000, --ingest-rate 250000 (0: no limit).";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn parse_flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value `{v}` for --{name}")),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    for name in flags.keys() {
        if ![
            "addr",
            "port-file",
            "max-tenants",
            "budget",
            "doorkeeper",
            "shards",
            "idle-park-ms",
            "ingest-rate",
        ]
        .contains(&name.as_str())
        {
            return Err(format!("unknown flag --{name}"));
        }
    }

    let addr = flags
        .get("addr")
        .map_or("127.0.0.1:0", String::as_str)
        .to_string();
    let mut config = ServiceConfig::default();
    config.runtime.max_tenants = parse_flag(&flags, "max-tenants", 64usize)?;
    config.runtime.tenant_budget_bytes = parse_flag(&flags, "budget", 512 * 1024usize)?;
    config.runtime.doorkeeper_bytes = parse_flag(&flags, "doorkeeper", 0usize)?;
    let shards: usize = parse_flag(&flags, "shards", 1)?;
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    config.runtime.pipeline.shard_count = shards;
    config.runtime.idle_park_after =
        Duration::from_millis(parse_flag(&flags, "idle-park-ms", 30_000u64)?);
    config.ingest_rate = NonZeroU64::new(parse_flag(&flags, "ingest-rate", 250_000u64)?);

    let listener = TcpListener::bind(&addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    println!(
        "rtdacd listening on {local} (max {} tenants, {} KiB/tenant)",
        config.runtime.max_tenants,
        config.runtime.tenant_budget_bytes / 1024
    );
    if let Some(path) = flags.get("port-file") {
        std::fs::write(path, format!("{}\n", local.port()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    serve(listener, config).map_err(|e| format!("serve failed: {e}"))
}
