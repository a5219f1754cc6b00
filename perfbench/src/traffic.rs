//! The closed-loop load: two client connections, each waiting for its
//! reply before sending the next request.
//!
//! In `serve-warm` connection A sends `assign_batch` frames to tenants 0
//! and 1 and connection B to tenants 2 and 3, all resident. In
//! `serve-churn` A evicts tenant 0 before every `assign_batch` to it, so
//! each of A's timed requests loads an artifact, while B keeps sending
//! warm traffic beside it.
//!
//! Two choices keep the churn figures from jumping between latency modes
//! from run to run. A churns one tenant, because two artifacts differ in
//! parse cost. B sends each warm frame [`CUE_DELAY`] after A sends a cold
//! one, so every warm frame arrives while a load is in progress. A free
//! B races A for the registry lock after each load; the share of races B
//! won varied from run to run, and with it B's median, between 1 ms and a
//! whole load.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

use crate::fleet::{Conn, Tenant};

/// How long after connection A sends a cold frame connection B sends its
/// warm one on `serve-churn`: well inside a load, which takes over 100 ms
/// with today's artifact parser.
const CUE_DELAY: Duration = Duration::from_millis(10);

/// When a connection sends its timed frames.
enum Pace {
    /// Back to back.
    Free,
    /// Evicts its tenant before each frame, and tells the cued connection
    /// when it sends the frame.
    Churn(Sender<Instant>),
    /// [`CUE_DELAY`] after the latest churned frame.
    Cued(Receiver<Instant>),
}

/// One timed request.
#[derive(Debug)]
pub struct Sample {
    pub tenant: usize,
    pub frame: usize,
    /// Completion time, in seconds since the phase started.
    pub at: f64,
    pub ms: f64,
    pub response: String,
}

#[derive(Debug)]
pub struct Traffic {
    pub a: Vec<Sample>,
    pub b: Vec<Sample>,
    /// Seconds from the start of the phase until the last connection
    /// stopped.
    pub elapsed: f64,
    /// Requests that got an error reply (including failed evictions).
    pub errors: usize,
}

/// The workload: whether A's requests must load their model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Warm,
    Churn,
}

impl Mode {
    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Warm => "serve-warm",
            Mode::Churn => "serve-churn",
        }
    }
}

/// Runs the timed phase. It lasts `seconds`, and longer if needed until
/// both connections completed `min_requests` (capped at `cap`).
pub fn run(
    mode: Mode,
    conns: [&mut Conn; 2],
    tenants: &[Tenant],
    seconds: f64,
    min_requests: usize,
    cap: f64,
) -> Result<Traffic, String> {
    let done = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let start = Instant::now();
    let keep_going = || {
        let t = start.elapsed().as_secs_f64();
        t < cap
            && (t < seconds
                || done
                    .iter()
                    .any(|d| d.load(Ordering::Relaxed) < min_requests))
    };
    let [conn_a, conn_b] = conns;
    let (a_ids, a_pace, b_pace): (&[usize], _, _) = match mode {
        Mode::Warm => (&[0, 1], Pace::Free, Pace::Free),
        Mode::Churn => {
            let (cue, cued) = mpsc::channel();
            (&[0], Pace::Churn(cue), Pace::Cued(cued))
        }
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| drive(conn_a, tenants, a_ids, a_pace, start, &done[0], &keep_going));
        let b = s.spawn(|| {
            drive(
                conn_b,
                tenants,
                &[2, 3],
                b_pace,
                start,
                &done[1],
                &keep_going,
            )
        });
        (
            a.join().expect("connection A thread panicked"),
            b.join().expect("connection B thread panicked"),
        )
    });
    let elapsed = start.elapsed().as_secs_f64();
    let (a, a_errors) = a?;
    let (b, b_errors) = b?;
    Ok(Traffic {
        a,
        b,
        elapsed,
        errors: a_errors + b_errors,
    })
}

/// One connection's loop over the tenants `ids`, taking turns between
/// them and cycling through their frames at `pace`.
fn drive(
    conn: &mut Conn,
    tenants: &[Tenant],
    ids: &[usize],
    pace: Pace,
    start: Instant,
    done: &AtomicUsize,
    keep_going: &dyn Fn() -> bool,
) -> Result<(Vec<Sample>, usize), String> {
    let mut samples = Vec::new();
    let mut errors = 0;
    let mut i = 0usize;
    while keep_going() {
        let id = ids[i % ids.len()];
        let tenant = &tenants[id];
        let frame = (i / ids.len()) % tenant.frames.len();
        match &pace {
            Pace::Free => {}
            Pace::Churn(cue) => {
                let request = format!(r#"{{"op":"evict","building":"{}"}}"#, tenant.name);
                let reply = conn.call(&request)?;
                if !reply.contains("\"evicted\":true") {
                    errors += 1;
                }
                // The cued connection stops when this one does.
                let _ = cue.send(Instant::now());
            }
            Pace::Cued(cued) => {
                let Ok(mut sent) = cued.recv() else { break };
                sent = cued.try_iter().last().unwrap_or(sent);
                std::thread::sleep((sent + CUE_DELAY).saturating_duration_since(Instant::now()));
            }
        }
        let started = Instant::now();
        let response = conn.call(&tenant.frames[frame])?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let at = start.elapsed().as_secs_f64();
        if !response.contains("\"ok\":true") {
            errors += 1;
        }
        samples.push(Sample {
            tenant: id,
            frame,
            at,
            ms,
            response,
        });
        done.fetch_add(1, Ordering::Relaxed);
        i += 1;
    }
    Ok((samples, errors))
}

/// Sends `request(tenant)` for each connection's tenants and checks the
/// replies (set-up loads, connection warm-up, and the first trusted cache
/// hit after the registry's fresh-write window).
pub fn touch(
    conns: [&mut Conn; 2],
    tenants: &[Tenant],
    request: impl Fn(&Tenant) -> String,
) -> Result<(), String> {
    for (c, conn) in conns.into_iter().enumerate() {
        for tenant in &tenants[2 * c..2 * c + 2] {
            let reply = conn.call(&request(tenant))?;
            if !reply.contains("\"ok\":true") {
                return Err(format!("set-up request to {} failed: {reply}", tenant.name));
            }
        }
    }
    Ok(())
}

/// A warm `assign_batch` frame for `tenant`.
pub fn first_frame(tenant: &Tenant) -> String {
    tenant.frames[0].clone()
}

/// A `load` request for `tenant`.
pub fn load(tenant: &Tenant) -> String {
    format!(r#"{{"op":"load","building":"{}"}}"#, tenant.name)
}
