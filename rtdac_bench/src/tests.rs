//! Loopback smoke test: every workload end to end at tiny N and D against
//! an in-process `rtdac_monitor::serve`, plus the checks that a
//! corrupted report or a failed guard fails the run.

use std::collections::BTreeSet;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use rtdac_monitor::{serve, ServiceConfig};
use rtdac_types::wire::WireClient;

use crate::drive::{self, Params};
use crate::oracle::{self, Expected};
use crate::report::{result_line, Failure, Report};
use crate::server::{connect, process_cpu_ns, shutdown, status_hwm_bytes, Server};
use crate::workload::{self, Shape, Workload};
use crate::{layers, END_TO_END, PER_LAYER};

/// `serve` on its own thread; CPU and memory are this test process's.
struct InProcess {
    addr: SocketAddr,
    handle: JoinHandle<io::Result<()>>,
}

impl InProcess {
    fn start(workload: &Workload) -> Result<Box<dyn Server>, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let config = ServiceConfig {
            runtime: workload.runtime_config(),
            idle_sweep: Duration::from_millis(50),
            ..ServiceConfig::default()
        };
        let handle = thread::spawn(move || serve(listener, config));
        Ok(Box::new(InProcess { addr, handle }))
    }
}

impl Server for InProcess {
    fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn cpu_ns(&self) -> io::Result<u64> {
        process_cpu_ns(std::process::id())
    }

    fn peak_rss_bytes(&self) -> io::Result<u64> {
        status_hwm_bytes(&std::fs::read_to_string("/proc/self/status")?)
    }

    fn stop(self: Box<Self>) -> Result<(), String> {
        shutdown(self.addr)?;
        match self.handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("serve failed: {e}")),
            Err(_) => Err("serve panicked".to_string()),
        }
    }
}

/// The workload at smoke scale: a few thousand events, a short window.
fn tiny(name: &str) -> Workload {
    let mut w = workload::all()
        .into_iter()
        .find(|w| w.name == name)
        .expect("known workload");
    match &mut w.shape {
        Shape::Stream { events, .. } => {
            *events = 6_000;
            w.rate = 4_000.0;
        }
        Shape::Tenants {
            tenants,
            requests,
            visit_frame,
            ..
        } => {
            *tenants = 3;
            *requests = 800;
            *visit_frame = 100 * 40;
            w.rate = 6.0;
            w.idle_park_ms = Some(100);
            w.max_tenants = Some(3);
        }
    }
    w
}

fn smoke(name: &str) {
    let workload = tiny(name);
    let traces = workload.inputs(7);
    let params = Params {
        window: Duration::from_millis(1_500),
        setups: 2,
    };
    let mut report = Report::new(workload.name);
    let mut spawn = || InProcess::start(&workload);
    drive::run(&workload, &traces, &params, &mut spawn, &mut report);
    layers::run(&workload, &traces, &mut report);

    // Percentiles may lack samples at this scale; nothing else may fail.
    let hard: Vec<&Failure> = report
        .failures
        .iter()
        .filter(|f| !matches!(f, Failure::Samples(_)))
        .collect();
    assert!(hard.is_empty(), "{name}: {hard:?}");
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0);

    let emitted: BTreeSet<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    let declared: BTreeSet<&str> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
    assert_eq!(emitted, declared, "{name}: emitted metric names");
    assert_eq!(
        report.metrics.len(),
        declared.len(),
        "{name}: a metric twice"
    );
}

#[test]
fn wdev_ingest_smoke() {
    smoke("wdev_ingest");
}

#[test]
fn stg_churn_smoke() {
    smoke("stg_churn");
}

#[test]
fn tenant_churn_smoke() {
    smoke("tenant_churn");
}

/// `"name": "…"` values in one section of `BENCHMARK.json`.
fn names_in(section: &str) -> Vec<String> {
    section
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = rest.trim_start().trim_start_matches(':').trim_start();
            value[1..]
                .split('"')
                .next()
                .expect("quoted name")
                .to_string()
        })
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let workloads = text.find("\"workloads\"").expect("workloads key");
    let e2e = text.find("\"end_to_end\"").expect("end_to_end key");
    let layer = text.find("\"per_layer\"").expect("per_layer key");
    assert!(workloads < e2e && e2e < layer, "key order");
    assert_eq!(names_in(&text[e2e..layer]), END_TO_END);
    assert_eq!(names_in(&text[layer..]), PER_LAYER);
    let names: Vec<String> = workload::all().iter().map(|w| w.name.to_string()).collect();
    assert_eq!(names_in(&text[workloads..e2e]), names);
}

#[test]
fn corrupted_report_fails_the_run() {
    let workload = tiny("wdev_ingest");
    let trace = &workload.inputs(3)[0];
    let server = InProcess::start(&workload).expect("serve");
    let mut client = WireClient::new(connect(server.addr()).expect("connect"));
    client.open("t").expect("open");
    client.ingest(&trace.bytes).expect("ingest");
    client.end_ingest().expect("end_ingest");
    let wire = client.frequent_pairs(1).expect("frequent_pairs");
    drop(client);
    server.stop().expect("clean stop");

    let mut expected = oracle::expect(&workload, &[&trace.bytes]);
    assert_eq!(oracle::compare(wire.clone(), &expected.pairs), Ok(()));
    expected.pairs[0].1 += 1;
    let mut report = Report::new(workload.name);
    report.oracle("corrupted", oracle::compare(wire, &expected.pairs));
    assert!(!report.correct());
    assert_eq!(report.failed, 1);
    assert!(result_line(&[report], &END_TO_END).starts_with("{\"correct\": false"));
}

#[test]
fn failed_guard_fails_the_run() {
    let churn = tiny("stg_churn");
    let unexercised = Expected {
        pairs: Vec::new(),
        pair_rejections: 0,
        item_evictions: 1,
    };
    let mut report = Report::new(churn.name);
    drive::admission_guards(&churn, &unexercised, &mut report);
    assert!(matches!(report.failures[..], [Failure::Guard(_)]));
    assert!(!report.correct());
}
