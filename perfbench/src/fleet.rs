//! Inputs, the shipped `fis-one` binary, and the daemon under test.
//!
//! Every input is drawn from the benchmark seed: tenant `i` is the
//! synthetic building `fis-one generate` writes for seed
//! `seed * 16 + i`, and its held-out queries are fresh scans of the same
//! site from a zero-drift [`TemporalConfig`] epoch (known floor, never
//! part of the training corpus).

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

use fis_one::synth::{DriftScenario, TemporalConfig};
use fis_one::types::json::{Json, ToJson};
use fis_one::{BuildingConfig, SignalSample};

/// Tenants in the fleet: connection A serves 0 and 1, connection B 2 and 3.
pub const TENANTS: usize = 4;

/// Scans per `assign_batch` frame.
pub const BATCH: usize = 8;

/// Workload sizes. `full` is what the benchmark measures; `smoke` only
/// proves every metric and check runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub floors: usize,
    pub samples_per_floor: usize,
    /// Held-out scans per tenant; a multiple of [`BATCH`].
    pub queries: usize,
    /// Full set-ups per run; `setup_s` and `fit_s` are their medians.
    pub setups: usize,
    /// Requests each connection must complete before the timed phase
    /// may end, so the reported tail has at least ten samples beyond it.
    pub min_requests: usize,
    /// Quality floors apply only at full size.
    pub check_quality: bool,
}

impl Scale {
    pub const FULL: Scale = Scale {
        floors: 4,
        samples_per_floor: 60,
        queries: 96,
        setups: 2,
        min_requests: 110,
        check_quality: true,
    };

    pub const SMOKE: Scale = Scale {
        floors: 3,
        samples_per_floor: 20,
        queries: 16,
        setups: 2,
        min_requests: 5,
        check_quality: false,
    };
}

pub fn tenant_name(i: usize) -> String {
    format!("t{i}")
}

fn tenant_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(16).wrapping_add(i as u64)
}

/// One tenant's held-out queries and their request frames.
#[derive(Debug)]
pub struct Tenant {
    pub name: String,
    pub queries: Vec<SignalSample>,
    pub truth: Vec<usize>,
    /// Ground-truth floor of every training scan, in corpus order.
    pub train_truth: Vec<usize>,
    /// `assign_batch` request lines, [`BATCH`] queries each.
    pub frames: Vec<String>,
}

pub fn tenants(seed: u64, scale: &Scale) -> Vec<Tenant> {
    (0..TENANTS)
        .map(|i| {
            let name = tenant_name(i);
            let base = BuildingConfig::new(name.clone(), scale.floors)
                .samples_per_floor(scale.samples_per_floor)
                .seed(tenant_seed(seed, i));
            let corpus =
                TemporalConfig::new(base, DriftScenario::MixedDensity { cycle: vec![1.0] })
                    .epochs(1)
                    .scans_per_epoch(scale.queries)
                    .generate();
            let epoch = corpus
                .epochs
                .into_iter()
                .next()
                .expect("one epoch requested");
            let frames = epoch
                .samples
                .chunks(BATCH)
                .map(|scans| {
                    Json::obj([
                        ("op", Json::Str("assign_batch".into())),
                        ("building", Json::Str(name.clone())),
                        (
                            "scans",
                            Json::Arr(scans.iter().map(ToJson::to_json).collect()),
                        ),
                    ])
                    .to_string()
                })
                .collect();
            Tenant {
                train_truth: corpus
                    .building
                    .ground_truth()
                    .iter()
                    .map(|f| f.index())
                    .collect(),
                truth: epoch.ground_truth.iter().map(|f| f.index()).collect(),
                queries: epoch.samples,
                frames,
                name,
            }
        })
        .collect()
}

/// The shipped `fis-one` binary.
#[derive(Debug, Clone)]
pub struct Cli {
    pub exe: PathBuf,
}

impl Cli {
    fn command(&self, args: &[&str]) -> Command {
        let mut cmd = Command::new(&self.exe);
        cmd.args(args).stdin(Stdio::null()).stdout(Stdio::null());
        cmd
    }

    /// Runs one command to completion; returns its wall time in seconds.
    pub fn run(&self, args: &[&str]) -> Result<f64, String> {
        let started = Instant::now();
        let out = self
            .command(args)
            .stderr(Stdio::piped())
            .output()
            .map_err(|e| format!("spawning {}: {e}", self.exe.display()))?;
        let wall = started.elapsed().as_secs_f64();
        if !out.status.success() {
            return Err(format!(
                "`fis-one {}` failed ({}): {}",
                args.join(" "),
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        Ok(wall)
    }

    pub fn generate(&self, seed: u64, scale: &Scale, i: usize, out: &Path) -> Result<f64, String> {
        let (floors, samples) = (
            scale.floors.to_string(),
            scale.samples_per_floor.to_string(),
        );
        let seed = tenant_seed(seed, i).to_string();
        let name = tenant_name(i);
        self.run(&[
            "generate",
            "--floors",
            &floors,
            "--samples",
            &samples,
            "--seed",
            &seed,
            "--name",
            &name,
            "--out",
            path_str(out)?,
        ])
    }

    /// `fis-one fit`; `threads: None` keeps the shipped default budget.
    pub fn fit(&self, corpus: &Path, out: &Path, threads: Option<usize>) -> Result<f64, String> {
        let mut args = vec![
            "fit",
            "--corpus",
            path_str(corpus)?,
            "--out",
            path_str(out)?,
        ];
        let threads = threads.map(|t| t.to_string());
        if let Some(t) = &threads {
            args.extend(["--threads", t]);
        }
        self.run(&args)
    }

    /// Starts `fis-one serve --tcp` on an ephemeral port with the shipped
    /// pool and thread defaults.
    pub fn serve(&self, models: &Path, log: &Path) -> Result<DaemonProc, String> {
        let log_file =
            fs::File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
        let child = self
            .command(&[
                "serve",
                "--models",
                path_str(models)?,
                "--tcp",
                "127.0.0.1:0",
            ])
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let mut daemon = DaemonProc {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while daemon.addr.is_empty() {
            let text = fs::read_to_string(log).unwrap_or_default();
            if let Some(rest) = text.split("listening on ").nth(1) {
                daemon.addr = rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_owned();
            } else if Instant::now() > deadline {
                return Err(format!("daemon never reported its address: {text}"));
            } else if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited early ({status}): {text}"));
            } else {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        Ok(daemon)
    }
}

pub fn path_str(path: &Path) -> Result<&str, String> {
    path.to_str()
        .ok_or_else(|| format!("non-UTF-8 path {}", path.display()))
}

/// A running `fis-one serve` process; killed and reaped on drop if it
/// was not shut down cleanly.
#[derive(Debug)]
pub struct DaemonProc {
    child: Child,
    pub addr: String,
}

impl DaemonProc {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size so far, in MB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("reading daemon status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "daemon status has no VmHWM".to_owned())
    }

    /// Sends `shutdown` and waits for a clean exit.
    pub fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        let reply = conn.call(r#"{"op":"shutdown"}"#)?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("shutdown refused: {reply}"));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not stop after shutdown".into()),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection speaking newline-delimited JSON.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("setting TCP_NODELAY: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("setting a read timeout: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cloning the socket: {e}"))?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Sends one request line and returns the response line.
    pub fn call(&mut self, request: &str) -> Result<String, String> {
        self.writer
            .write_all(request.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("sending a request: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end().to_owned()),
            Err(e) => Err(format!("reading a response: {e}")),
        }
    }

    /// Registry counters from the daemon's `stats` op: `(hits, misses,
    /// evictions)`.
    pub fn registry_counters(&mut self) -> Result<[f64; 3], String> {
        let reply = self.call(r#"{"op":"stats"}"#)?;
        let json = Json::parse(&reply).map_err(|e| format!("bad stats reply: {e}"))?;
        let registry = json
            .get("stats")
            .and_then(|s| s.get("registry"))
            .ok_or_else(|| format!("stats reply has no registry: {reply}"))?;
        let field = |k: &str| {
            registry
                .get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("stats registry has no `{k}`"))
        };
        Ok([field("hits")?, field("misses")?, field("evictions")?])
    }
}

/// Sleeps until every file in `dir` is older than `window` plus a
/// margin, so the registry trusts its cached fingerprints (no per-request
/// re-read and hash of a freshly written artifact).
pub fn wait_out_fresh_writes(dir: &Path, window: Duration) -> Result<(), String> {
    let newest = fs::read_dir(dir)
        .map_err(|e| format!("listing {}: {e}", dir.display()))?
        .filter_map(|e| e.ok()?.metadata().ok()?.modified().ok())
        .max()
        .unwrap_or(SystemTime::UNIX_EPOCH);
    let ready = newest + window + Duration::from_millis(500);
    if let Ok(wait) = ready.duration_since(SystemTime::now()) {
        std::thread::sleep(wait);
    }
    Ok(())
}
