//! Running `daas-serve`: building it, spawning it on a per-run socket,
//! talking JSONL over that socket with a timeout on every read, and
//! killing it on every exit path.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::util::{clip, parse_ok, vm_hwm_mb};

/// How long one reply may take before the request counts as failed and
/// the run ends. Generous: the slowest request (`artifact` at paper
/// scale) takes about a second.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a daemon may take from spawn to accepting its socket.
const BOOT_TIMEOUT: Duration = Duration::from_secs(120);

/// Where each run keeps its sockets, checkpoints and daemon logs.
pub const RUN_DIR: &str = ".bench_run";

/// Builds the `daas-serve` binary from the checkout's sources (a no-op
/// when it is fresh) and returns its path, so a stale binary is never
/// measured.
pub fn build_daas_serve() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "-p", "daas-serve", "--bin", "daas-serve"])
        .args(["--manifest-path", "Cargo.toml", "--message-format", "json"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err("cargo build of daas-serve failed".into());
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.contains("\"compiler-artifact\""))
        .filter_map(|l| daas_obs::json::parse(l).ok())
        .filter_map(|v| crate::util::field(&v, "executable").and_then(|e| e.as_str()).map(PathBuf::from))
        .find(|p| p.file_name().is_some_and(|n| n == "daas-serve"))
        .ok_or_else(|| "cargo reported no daas-serve executable".into())
}

/// A spawned daemon. Dropping it kills the process and waits for it, so
/// an early return or a panic never leaves a daemon behind.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    log: PathBuf,
    /// When the process was spawned.
    pub spawned: Instant,
}

impl Daemon {
    /// Spawns `daas-serve <args> --socket <fresh path>`; stdin is closed
    /// (not a connection), stderr goes to a log file in the run dir.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Daemon, String> {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        // Relative to the checkout root: short, whatever the root's path.
        let socket = PathBuf::from(format!("{RUN_DIR}/{}-{n}.sock", std::process::id()));
        let log = PathBuf::from(format!("{RUN_DIR}/{}-{n}.log", std::process::id()));
        let log_file = std::fs::File::create(&log).map_err(|e| format!("daemon log: {e}"))?;
        let _ = std::fs::remove_file(&socket);
        let spawned = Instant::now();
        let child = Command::new(bin)
            .args(args)
            .arg("--socket")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        Ok(Daemon { child, socket, log, spawned })
    }

    /// Waits until the daemon accepts on its socket and connects.
    pub fn connect(&mut self) -> Result<Conn, String> {
        loop {
            if let Ok(stream) = UnixStream::connect(&self.socket) {
                return Conn::new(stream);
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("daemon exited during start-up ({status})"));
            }
            if self.spawned.elapsed() > BOOT_TIMEOUT {
                return Err("daemon did not open its socket in time".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set of the daemon so far, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        vm_hwm_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }

    /// Sends `shutdown` and waits for the process to exit (killing it
    /// if it lingers). A clean exit drops the daemon's log; any other
    /// keeps it in the run dir.
    pub fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        let reply = conn.request("{\"cmd\":\"shutdown\"}");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                if status.success() && reply.is_ok() {
                    let _ = std::fs::remove_file(&self.log);
                }
                return reply.map(|_| ());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        reply.and(Err("daemon did not exit after shutdown".into()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One JSONL connection; every read has [`READ_TIMEOUT`].
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Conn {
    fn new(stream: UnixStream) -> Result<Conn, String> {
        stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn { reader: BufReader::new(stream), writer, line: String::new() })
    }

    /// Sends one request line and returns the raw reply line.
    pub fn request_raw(&mut self, request: &str) -> Result<String, String> {
        self.writer
            .write_all(request.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send {}: {e}", clip(request)))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err(format!("connection closed awaiting {}", clip(request))),
            Ok(_) => Ok(std::mem::take(&mut self.line)),
            Err(e) => Err(format!("no reply to {} ({e})", clip(request))),
        }
    }

    /// [`Conn::request_raw`] plus parsing and the `"ok":true` check.
    pub fn request(&mut self, request: &str) -> Result<daas_obs::json::Value, String> {
        parse_ok(&self.request_raw(request)?)
    }
}

/// Arguments naming a world: the program's defaults plus seed and scale.
pub fn world_args(seed: u64, scale: f64) -> Vec<String> {
    vec!["--seed".into(), seed.to_string(), "--scale".into(), scale.to_string()]
}

/// Removes a daemon's recorder outputs once they have been read (the
/// metrics summary comes with a Prometheus copy at `<path>.prom`).
pub fn remove_obs_files(metrics: &Path, trace: &Path) {
    let _ = std::fs::remove_file(metrics);
    let _ = std::fs::remove_file(format!("{}.prom", metrics.display()));
    let _ = std::fs::remove_file(trace);
}

/// Arguments that turn the daemon's recorder on and name its outputs.
pub fn obs_args(tag: &str) -> (Vec<String>, PathBuf, PathBuf) {
    let metrics = PathBuf::from(format!("{RUN_DIR}/{}-{tag}.metrics.json", std::process::id()));
    let trace = PathBuf::from(format!("{RUN_DIR}/{}-{tag}.trace.jsonl", std::process::id()));
    let args = vec![
        "--metrics-out".into(),
        metrics.display().to_string(),
        "--trace-out".into(),
        trace.display().to_string(),
    ];
    (args, metrics, trace)
}
