//! `rtdac_bench` — drives `rtdacd` over loopback on three workloads and
//! reports end-to-end metrics, then replays each workload in process
//! with spans around every layer for the per-layer cost ledger.
//!
//! ```text
//! rtdac_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!             [--out DIR]
//! ```
//!
//! Without `--workload` every workload runs. `--seconds` is the paced
//! window. `--trace 1` (the default) adds the traced replay. Every
//! metric prints as `workload name value unit (n=samples)`; the last
//! line is one JSON object holding the end-to-end metrics (`--trace 0`)
//! or the per-layer ones (`--trace 1`). `--out` also writes each
//! workload's full record and its spans there. The exit code is nonzero
//! on any oracle mismatch, wire error, failed guard or unsupported
//! percentile. `rtdacd` must sit beside this executable (see `run.sh`).

mod drive;
mod layers;
mod oracle;
mod report;
mod server;
mod workload;

#[cfg(test)]
mod tests;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use drive::Params;
use report::{result_line, Report};
use server::{Daemon, Server};
use workload::Workload;

/// The gated metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "ingest_events_per_s",
    "ingest_lag_p50_ms",
    "ingest_lag_p99_ms",
    "query_p50_us",
    "query_p90_us",
    "peak_rss_mb",
];

/// The per-layer metrics, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [&str; 50] = [
    "wire.frames",
    "wire.bytes_per_event",
    "wire.rtt_us_p50",
    "wire.codec_ns_per_event",
    "wire.wait_share",
    "service.errors",
    "service.ingest_end_ms_mean",
    "service.queries_per_s",
    "service.query_miss_frac",
    "decode.ns_per_event",
    "decode.records_per_event",
    "monitor.ns_per_event",
    "monitor.transactions",
    "monitor.extents_per_txn",
    "router.ns_per_event",
    "router.ops",
    "router.skew_max_over_mean",
    "shard.ns_per_event",
    "shard.item_hit_ratio",
    "shard.pair_hit_ratio",
    "shard.item_evictions",
    "shard.pair_evictions",
    "shard.promotions",
    "shard.pair_rejections",
    "shard.admit_ratio",
    "shard.table_bytes",
    "publish.ns_per_event",
    "publish.deltas",
    "publish.ops_per_delta",
    "live.fold_us_per_delta",
    "live.topk_us",
    "live.pair_query_ns",
    "live.view_lag_batches_p50",
    "live.folds",
    "pipeline.ns_per_event",
    "pipeline.shard_busy_ms",
    "pipeline.router_busy_ms",
    "pipeline.stall_ms",
    "pipeline.ring_highwater_frac",
    "pipeline.epoch_publishes",
    "pipeline.publish_skips",
    "tenant.park_us",
    "tenant.resume_us",
    "tenant.resumes",
    "gen.send_late_us_max",
    "ledger.daemon_cpu_ns_per_event",
    "ledger.layer_cpu_ns_per_event",
    "ledger.explained_cpu_share",
    "ledger.cpu_share_of_wall",
    "ledger.trace_overhead_frac",
];

/// Daemon start-ups per run; `setup_s` is their median.
const SETUPS: usize = 31;

const USAGE: &str = "usage: rtdac_bench [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out DIR]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 7,
        seconds: 10,
        trace: true,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("bad value `{value}` for {flag}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = number()?,
            "--seconds" if number()? > 0 => parsed.seconds = number()?,
            "--trace" if number()? <= 1 => parsed.trace = number()? == 1,
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unexpected argument `{flag} {value}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<Workload> = workload::all()
        .into_iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect();
    if workloads.is_empty() {
        eprintln!("error: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    }
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
    else {
        eprintln!("error: cannot locate this executable");
        return ExitCode::FAILURE;
    };
    let daemon = dir.join("rtdacd");
    if !daemon.is_file() {
        eprintln!(
            "error: {} not found; build it first (see run.sh)",
            daemon.display()
        );
        return ExitCode::FAILURE;
    }
    let scratch = dir.join("rtdac_bench_tmp");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }

    let mut reports = Vec::new();
    for workload in &workloads {
        let report = run_workload(workload, &args, &daemon, &scratch);
        print!("{}", report.human_lines());
        reports.push(report);
    }
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result_line(&reports, names));
    if reports.iter().all(Report::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_workload(workload: &Workload, args: &Args, daemon: &Path, scratch: &Path) -> Report {
    let traces = workload.inputs(args.seed);
    let mut report = Report::new(workload.name);
    let params = Params {
        window: Duration::from_secs(args.seconds),
        setups: SETUPS,
    };
    let flags = workload.daemon_flags();
    let mut spawn = || -> Result<Box<dyn Server>, String> {
        Ok(Box::new(Daemon::spawn(daemon, &flags, scratch)?))
    };
    drive::run(workload, &traces, &params, &mut spawn, &mut report);
    let spans = if args.trace {
        layers::run(workload, &traces, &mut report)
    } else {
        Vec::new()
    };
    if let Some(out) = &args.out {
        if let Err(e) = write_out(out, &report, &spans) {
            eprintln!("error: writing {}: {e}", out.display());
            report
                .failures
                .push(report::Failure::Wire(format!("write --out: {e}")));
        }
    }
    report
}

fn write_out(dir: &Path, report: &Report, spans: &[layers::Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("{}.json", report.workload)),
        report.to_json(),
    )?;
    if !spans.is_empty() {
        let mut csv = String::from("layer,batch,start_ns,end_ns\n");
        for s in spans {
            let _ = writeln!(csv, "{},{},{},{}", s.layer, s.batch, s.start_ns, s.end_ns);
        }
        std::fs::write(dir.join(format!("{}.spans.csv", report.workload)), csv)?;
    }
    Ok(())
}
