//! The system under test: an `rtdacd` child process, seen through its
//! socket and `/proc`.

use std::ffi::c_long;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use rtdac_types::wire::WireClient;

/// How long the daemon may take to publish its port or to exit.
const START_DEADLINE: Duration = Duration::from_secs(10);
const EXIT_DEADLINE: Duration = Duration::from_secs(10);

/// A running daemon the benchmark phases can measure and stop.
pub trait Server {
    fn addr(&self) -> SocketAddr;
    /// CPU time (user + system) the server process has used so far.
    fn cpu_ns(&self) -> io::Result<u64>;
    /// Peak resident set size of the server process.
    fn peak_rss_bytes(&self) -> io::Result<u64>;
    /// Sends `Shutdown` and requires a clean exit within 10 s.
    fn stop(self: Box<Self>) -> Result<(), String>;
}

/// Opens a connection with Nagle's algorithm off, so the generator adds
/// no send delay of its own.
pub fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("set TCP_NODELAY: {e}"))?;
    Ok(stream)
}

/// Sends `Shutdown` on a connection of its own.
pub fn shutdown(addr: SocketAddr) -> Result<(), String> {
    WireClient::new(connect(addr)?)
        .shutdown()
        .map_err(|e| format!("shutdown: {e}"))
}

/// `rtdacd` as a child process.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    port_file: PathBuf,
}

impl Daemon {
    /// Spawns `exe` with `flags` on an ephemeral loopback port and waits
    /// for it to publish the port in a file under `scratch`.
    pub fn spawn(exe: &Path, flags: &[String], scratch: &Path) -> Result<Daemon, String> {
        let port_file = scratch.join(format!("port-{}", std::process::id()));
        // A stale file from an earlier spawn would be read as this one's.
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(exe)
            .args(flags)
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            port_file,
        };
        let started = Instant::now();
        loop {
            if let Ok(text) = std::fs::read_to_string(&daemon.port_file) {
                // Written in one call ending in a newline; anything else
                // is a partial read.
                if let Some(port) = text.strip_suffix('\n').and_then(|p| p.parse().ok()) {
                    daemon.addr.set_port(port);
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("rtdacd exited during start-up: {status}"));
            }
            if started.elapsed() > START_DEADLINE {
                return Err("rtdacd never published its port".to_string());
            }
            // Fine-grained, so the poll adds little to `setup_s`.
            thread::sleep(Duration::from_micros(50));
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time of process `pid` in nanoseconds, all threads included —
/// also those that have exited. This is the exact sum behind
/// `/proc/<pid>/stat`'s `utime + stime`, which counts in 10 ms ticks:
/// too coarse for a few hundred milliseconds of daemon CPU.
pub fn process_cpu_ns(pid: u32) -> io::Result<u64> {
    // The kernel's process CPU clock id (MAKE_PROCESS_CPUCLOCK with
    // CPUCLOCK_SCHED), as `clock_getcpuclockid` computes it.
    let clock = ((!(pid as i32)) << 3) | 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the whole
    // call, and `clock_gettime` writes nothing else.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// `VmHWM` of a `/proc/<pid>/status` file, in bytes.
pub fn status_hwm_bytes(status: &str) -> io::Result<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc status"))
}

impl Server for Daemon {
    fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn cpu_ns(&self) -> io::Result<u64> {
        process_cpu_ns(self.child.id())
    }

    fn peak_rss_bytes(&self) -> io::Result<u64> {
        status_hwm_bytes(&std::fs::read_to_string(format!(
            "/proc/{}/status",
            self.child.id()
        ))?)
    }

    fn stop(mut self: Box<Self>) -> Result<(), String> {
        shutdown(self.addr)?;
        let asked = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("rtdacd exited with {status}")),
                Ok(None) if asked.elapsed() > EXIT_DEADLINE => {
                    return Err("rtdacd did not exit within 10 s of Shutdown".to_string())
                }
                Ok(None) => thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("wait for rtdacd: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    /// A daemon not stopped cleanly (a failed run) is killed, so no
    /// process outlives the benchmark.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.port_file);
    }
}
