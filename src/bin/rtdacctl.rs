//! `rtdacctl` — client CLI for the `rtdacd` daemon.
//!
//! ```text
//! rtdacctl --addr HOST:PORT stream <tenant> <trace.blk>
//! rtdacctl --addr HOST:PORT top <tenant> [--k N]
//! rtdacctl --addr HOST:PORT frequent <tenant> [--min N]
//! rtdacctl --addr HOST:PORT pair <tenant> <start1> <len1> <start2> <len2>
//! rtdacctl --addr HOST:PORT stats <tenant>
//! rtdacctl --addr HOST:PORT tenants
//! rtdacctl --addr HOST:PORT evict <tenant>
//! rtdacctl --addr HOST:PORT shutdown
//! rtdacctl oracle <trace.blk> [--k N] [--budget BYTES] [--doorkeeper BYTES]
//! ```
//!
//! `stream` sends a blktrace-binary trace as ingest frames (the trace
//! format is the wire format — no re-encoding) and ends the ingest
//! session, so subsequent queries see every event. `oracle` runs the
//! same trace through the offline reference analyzer with the daemon's
//! default tenant sizing and prints the same top-k report — `diff`
//! against `top` is the end-to-end bit-exactness check.

use std::collections::HashMap;
use std::io::BufReader;
use std::process::ExitCode;
use std::time::Duration;

use rtdac::monitor::{BlktraceEventSource, Monitor, TenantRuntime, TenantRuntimeConfig};
use rtdac::synopsis::ReferenceAnalyzer;
use rtdac::types::wire::{WireClient, WireStats};
use rtdac::types::{EventSource, Extent, ExtentPair};

/// Latency for unmatched blktrace issues, matching the daemon.
const DEFAULT_LATENCY: Duration = Duration::from_micros(100);

const USAGE: &str = "usage:
  rtdacctl --addr HOST:PORT stream <tenant> <trace.blk>
  rtdacctl --addr HOST:PORT top <tenant> [--k N]
  rtdacctl --addr HOST:PORT frequent <tenant> [--min N]
  rtdacctl --addr HOST:PORT pair <tenant> <start1> <len1> <start2> <len2>
  rtdacctl --addr HOST:PORT stats <tenant>
  rtdacctl --addr HOST:PORT tenants
  rtdacctl --addr HOST:PORT evict <tenant>
  rtdacctl --addr HOST:PORT shutdown
  rtdacctl oracle <trace.blk> [--k N] [--budget BYTES] [--doorkeeper BYTES]

`oracle` needs no daemon: it replays the trace through the offline
reference analyzer with the daemon's default tenant sizing and prints
the report `top` would give for the same trace.";

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
    let mut positional = Vec::new();
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        } else {
            positional.push(arg.clone());
        }
    }
    let command = positional.first().map(String::as_str);
    if command == Some("oracle") {
        return oracle(
            positional.get(1).ok_or("oracle needs a trace path")?,
            &flags,
        );
    }

    let addr = flags
        .get("addr")
        .ok_or("--addr HOST:PORT is required (see rtdacd's stdout)")?;
    let mut client =
        WireClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let tenant_arg = |index: usize| -> Result<&String, String> {
        positional
            .get(index)
            .ok_or_else(|| "command needs a tenant id".to_string())
    };
    match command {
        None => Err("no command given".to_string()),
        Some("stream") => {
            let tenant = tenant_arg(1)?;
            let path = positional.get(2).ok_or("stream needs a trace path")?;
            let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            client.open(tenant).map_err(|e| e.to_string())?;
            client.ingest(&bytes).map_err(|e| e.to_string())?;
            let events = client.end_ingest().map_err(|e| e.to_string())?;
            println!("streamed {events} events to tenant {tenant}");
            Ok(())
        }
        Some("top") => {
            let tenant = tenant_arg(1)?;
            let k: u32 = parse_flag(&flags, "k", 20)?;
            client.open(tenant).map_err(|e| e.to_string())?;
            print_pairs(&client.top_k(k).map_err(|e| e.to_string())?);
            Ok(())
        }
        Some("frequent") => {
            let tenant = tenant_arg(1)?;
            let min: u32 = parse_flag(&flags, "min", 5)?;
            client.open(tenant).map_err(|e| e.to_string())?;
            print_pairs(&client.frequent_pairs(min).map_err(|e| e.to_string())?);
            Ok(())
        }
        Some("pair") => {
            let tenant = tenant_arg(1)?;
            let nums: Vec<u64> = positional[2..]
                .iter()
                .map(|s| s.parse().map_err(|_| format!("bad number `{s}`")))
                .collect::<Result<_, _>>()?;
            let [s1, l1, s2, l2] = nums[..] else {
                return Err("pair needs <start1> <len1> <start2> <len2>".to_string());
            };
            let extent = |start: u64, len: u64| {
                Extent::new(start, u32::try_from(len).map_err(|_| "length too large")?)
                    .map_err(|e| e.to_string())
            };
            let pair =
                ExtentPair::new(extent(s1, l1)?, extent(s2, l2)?).map_err(|e| e.to_string())?;
            client.open(tenant).map_err(|e| e.to_string())?;
            match client.pair_tally(pair).map_err(|e| e.to_string())? {
                Some(tally) => println!("{pair}\t{tally}"),
                None => println!("{pair}\tuntracked"),
            }
            Ok(())
        }
        Some("stats") => {
            let tenant = tenant_arg(1)?;
            client.open(tenant).map_err(|e| e.to_string())?;
            let WireStats {
                events,
                transactions,
                batches,
                view_epoch,
                parked,
            } = client.stats().map_err(|e| e.to_string())?;
            println!(
                "tenant {tenant}: {events} events, {transactions} transactions, \
                 {batches} batches, view at epoch {view_epoch}{}",
                if parked { ", parked" } else { "" }
            );
            Ok(())
        }
        Some("tenants") => {
            for id in client.tenants().map_err(|e| e.to_string())? {
                println!("{id}");
            }
            Ok(())
        }
        Some("evict") => {
            let tenant = tenant_arg(1)?;
            client.evict(tenant).map_err(|e| e.to_string())?;
            println!("evicted {tenant}");
            Ok(())
        }
        Some("shutdown") => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("daemon stopping");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

fn print_pairs(pairs: &[(ExtentPair, u32)]) {
    for (pair, tally) in pairs {
        println!("{pair}\t{tally}");
    }
}

/// Offline reference run with the daemon's tenant sizing: the same
/// event decode (blktrace D/C pairing, same default latency), the same
/// monitor windowing, the same analyzer config derivation — so its
/// report is the ground truth a daemon-side `top` must equal.
fn oracle(path: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    let k: usize = parse_flag(flags, "k", 20)?;
    let runtime = TenantRuntime::new(TenantRuntimeConfig {
        tenant_budget_bytes: parse_flag(flags, "budget", 512 * 1024usize)?,
        doorkeeper_bytes: parse_flag(flags, "doorkeeper", 0usize)?,
        ..TenantRuntimeConfig::default()
    });
    let config = runtime.analyzer_config().clone();
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut source = BlktraceEventSource::new(BufReader::new(file), DEFAULT_LATENCY);
    let mut monitor = Monitor::default();
    let mut analyzer = ReferenceAnalyzer::new(config);
    while let Some(event) = source
        .next_event()
        .map_err(|e| format!("cannot read {path}: {e}"))?
    {
        if let Some(txn) = monitor.push(event) {
            analyzer.process(&txn);
        }
    }
    if let Some(txn) = monitor.flush() {
        analyzer.process(&txn);
    }
    // The daemon's live view totally orders ties (tally desc, pair
    // asc); the reference leaves ties in insertion order. Re-sort so
    // the reports are diffable.
    let mut pairs = analyzer.frequent_pairs(1);
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    pairs.truncate(k);
    print_pairs(&pairs);
    Ok(())
}
