//! Hand-rolled concurrent TCP serving: a bounded thread-per-connection
//! worker pool over a blocking accept loop (we are offline — no tokio).
//!
//! The [`Daemon`](crate::Daemon) speaks a one-request-line-in /
//! one-response-line-out protocol; this machinery drives any such server
//! through the [`LineServer`] trait:
//!
//! - [`serve_lines`] drives one blocking transport (pipe mode, in-memory
//!   tests) to completion;
//! - [`serve_pooled`] accepts TCP connections and fans them out over a
//!   fixed pool of worker threads, so one slow or idle client can no
//!   longer stall every other connection.
//!
//! # Robustness rules
//!
//! - **Bytes, not UTF-8.** Lines are read with `read_until(b'\n')` and
//!   decoded lossily: a stray non-UTF-8 byte on the wire yields a typed
//!   `protocol` error *response* (the replacement character breaks the
//!   JSON parse), never an `InvalidData` transport error that kills the
//!   connection.
//! - **Transient accept errors don't kill the daemon.** `ECONNABORTED`
//!   (client gave up mid-handshake), `ECONNRESET`, `EINTR`, timeouts,
//!   and fd exhaustion (`EMFILE`/`ENFILE`) are logged and the loop keeps
//!   accepting; only bind-level failures propagate.
//! - **Graceful shutdown drains in-flight work.** A `shutdown` request
//!   raises a flag and wakes the acceptor (by dialing the listener);
//!   queued connections are still served, in-flight connections finish
//!   the requests already sent and close at their next idle read
//!   timeout, and the pool joins before [`serve_pooled`] returns.
//!
//! None of this can move an answer: responses are pure functions of the
//! request (see the crate docs), so connection interleaving, worker
//! scheduling, and shutdown timing only reorder *when* lines are
//! answered, never *what* they say.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

use fis_obs::{self as obs, Level};

/// How long a pooled connection blocks in `read` before re-checking the
/// shutdown flag. Latency of the *graceful-shutdown path* only; requests
/// are answered as soon as their line arrives.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// A server that turns one request line into one response line.
/// `handle` returns the response plus whether the line asked the whole
/// process to shut down. Implementations must be safe to call from many
/// worker threads at once.
pub trait LineServer: Sync {
    /// Answers one (already trimmed, non-empty) request line.
    fn handle(&self, line: &str) -> (String, bool);
}

/// Classifies accept-loop errors: transient failures (a client aborting
/// its own half-open connection, an interrupted syscall, momentary fd
/// exhaustion) are logged and survived; anything else — a dead listener,
/// a bad bind — stays fatal.
pub fn is_transient_accept_error(e: &std::io::Error) -> bool {
    if matches!(
        e.kind(),
        ErrorKind::ConnectionAborted
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionRefused
            | ErrorKind::Interrupted
            | ErrorKind::TimedOut
            | ErrorKind::WouldBlock
    ) {
        return true;
    }
    // EMFILE (24) / ENFILE (23) on unix-likes: the process or system ran
    // out of file descriptors. Backing off and continuing beats dying —
    // fds free up as connections close.
    matches!(e.raw_os_error(), Some(23) | Some(24))
}

/// Reads request lines with `read_until(b'\n')` + lossy decode and
/// answers each through `server`, until EOF or a shutdown request.
/// Returns `Ok(true)` when a shutdown request ended the session.
///
/// # Errors
///
/// Only transport-level I/O errors; malformed input (including invalid
/// UTF-8) becomes a typed error *response*.
pub fn serve_lines<R: BufRead, W: Write>(
    mut reader: R,
    mut writer: W,
    server: &impl LineServer,
) -> std::io::Result<bool> {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            return Ok(false);
        }
        if answer_buffered_line(&buf, &mut writer, server)? {
            return Ok(true);
        }
    }
}

/// Decodes and answers one buffered line (which may lack its trailing
/// newline at EOF). Returns whether the line requested shutdown.
fn answer_buffered_line<W: Write>(
    buf: &[u8],
    writer: &mut W,
    server: &impl LineServer,
) -> std::io::Result<bool> {
    // Lossy decode: a non-UTF-8 byte becomes U+FFFD, which fails JSON
    // parsing and produces a typed `protocol` error response — the
    // connection survives.
    let line = String::from_utf8_lossy(buf);
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(false);
    }
    let (response, shutdown) = server.handle(trimmed);
    writer.write_all(response.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    Ok(shutdown)
}

/// Serves one pooled TCP connection: like [`serve_lines`], but reads
/// under [`IDLE_POLL`] so the connection notices `shutdown` (raised by
/// *any* connection) while idle. Partial lines survive poll timeouts —
/// the buffer accumulates across reads until the newline arrives.
fn serve_tcp_connection(
    stream: TcpStream,
    server: &impl LineServer,
    shutdown: &AtomicBool,
) -> std::io::Result<bool> {
    // Request/response frames are small; Nagle + delayed ACK would add
    // ~40ms per round-trip.
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(IDLE_POLL))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut buf = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => {
                // EOF; a final unterminated line is still answered.
                if !buf.is_empty() {
                    answer_buffered_line(&buf, &mut writer, server)?;
                }
                return Ok(false);
            }
            Ok(_) => {
                if buf.last() != Some(&b'\n') {
                    // EOF mid-line: answer it, then the next read
                    // returns Ok(0) and closes cleanly.
                    continue;
                }
                if answer_buffered_line(&buf, &mut writer, server)? {
                    return Ok(true);
                }
                buf.clear();
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Idle poll tick: a draining daemon closes idle
                // connections; otherwise keep waiting (any partial line
                // stays buffered).
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// The address to dial to wake an acceptor blocked on `listener` —
/// loopback when the listener is bound to a wildcard address.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local.port())
}

/// Accepts connections and serves each on a bounded pool of `workers`
/// threads until some connection requests shutdown. Queued connections
/// (bounded at `workers` beyond the ones being served) are drained
/// before returning; see the [module docs](self) for the full lifecycle.
///
/// # Errors
///
/// Only non-transient accept-level I/O errors.
pub fn serve_pooled(
    listener: &TcpListener,
    server: &impl LineServer,
    workers: usize,
) -> std::io::Result<()> {
    let workers = workers.max(1);
    let shutdown = AtomicBool::new(false);
    let wake = listener.local_addr().map(wake_addr);
    // Bounded hand-off: when every worker is busy and the backlog is
    // full, the acceptor itself blocks — natural backpressure instead of
    // an unbounded queue.
    let (tx, rx) = mpsc::sync_channel::<TcpStream>(workers);
    let rx = Mutex::new(rx);
    let mut accept_error = None;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Holding the lock while blocked in recv is fine: only
                // idle workers compete for it.
                let stream = match rx.lock().unwrap_or_else(|p| p.into_inner()).recv() {
                    Ok(stream) => stream,
                    Err(_) => return, // acceptor gone, queue drained
                };
                let peer = stream
                    .peer_addr()
                    .map_or_else(|_| "client".to_owned(), |p| p.to_string());
                match serve_tcp_connection(stream, server, &shutdown) {
                    Ok(true) => {
                        // This connection asked for shutdown: raise the
                        // flag and wake the (possibly blocked) acceptor.
                        shutdown.store(true, Ordering::SeqCst);
                        if let Ok(addr) = wake {
                            TcpStream::connect_timeout(&addr, Duration::from_secs(1)).ok();
                        }
                    }
                    Ok(false) => {}
                    Err(e) => obs::event(Level::Error, "pool", "connection_failed")
                        .str("peer", peer.to_string())
                        .str("error", e.to_string())
                        .emit(),
                }
            });
        }
        while !shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    // Re-check after a (possibly wake-up) accept so a
                    // drained daemon stops taking on new work.
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(e) if is_transient_accept_error(&e) => {
                    obs::event(Level::Warn, "pool", "transient_accept_error")
                        .str("error", e.to_string())
                        .emit();
                    // Fd exhaustion clears only as connections close;
                    // don't spin at full speed while it does.
                    if matches!(e.raw_os_error(), Some(23) | Some(24)) {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
                Err(e) => {
                    accept_error = Some(e);
                    break;
                }
            }
        }
        // Closing the channel lets workers drain the queued connections
        // and exit; the scope then joins them all.
        drop(tx);
    });
    match accept_error {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl LineServer for Echo {
        fn handle(&self, line: &str) -> (String, bool) {
            (format!("echo:{line}"), line == "quit")
        }
    }

    #[test]
    fn transient_accept_errors_are_classified() {
        for kind in [
            ErrorKind::ConnectionAborted,
            ErrorKind::ConnectionReset,
            ErrorKind::Interrupted,
            ErrorKind::TimedOut,
            ErrorKind::WouldBlock,
        ] {
            assert!(
                is_transient_accept_error(&std::io::Error::new(kind, "x")),
                "{kind:?} must be survivable"
            );
        }
        // fd exhaustion by raw errno (EMFILE/ENFILE).
        assert!(is_transient_accept_error(
            &std::io::Error::from_raw_os_error(24)
        ));
        assert!(is_transient_accept_error(
            &std::io::Error::from_raw_os_error(23)
        ));
        // Bind-level / programmer errors stay fatal.
        for kind in [
            ErrorKind::AddrInUse,
            ErrorKind::PermissionDenied,
            ErrorKind::InvalidInput,
            ErrorKind::NotFound,
        ] {
            assert!(
                !is_transient_accept_error(&std::io::Error::new(kind, "x")),
                "{kind:?} must stay fatal"
            );
        }
    }

    #[test]
    fn serve_lines_answers_non_utf8_with_a_response() {
        // An invalid byte mid-line must produce a response line (the
        // lossy-decoded text), not an InvalidData transport error.
        let input: &[u8] = b"hello\n\xff\xfe!\nquit\n";
        let mut out = Vec::new();
        let shutdown = serve_lines(input, &mut out, &Echo).unwrap();
        assert!(shutdown);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "every line answered: {text}");
        assert_eq!(lines[0], "echo:hello");
        assert!(lines[1].starts_with("echo:"), "lossy-decoded: {}", lines[1]);
        assert_eq!(lines[2], "echo:quit");
    }

    #[test]
    fn serve_lines_answers_final_unterminated_line() {
        let input: &[u8] = b"one\ntwo"; // no trailing newline
        let mut out = Vec::new();
        let shutdown = serve_lines(input, &mut out, &Echo).unwrap();
        assert!(!shutdown);
        assert_eq!(String::from_utf8(out).unwrap(), "echo:one\necho:two\n");
    }

    #[test]
    fn pooled_connections_are_served_concurrently_and_drain_on_shutdown() {
        use std::io::{BufRead, BufReader, Write};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || serve_pooled(&listener, &Echo, 3));

        // An idle connection that never sends a byte must not block the
        // others (this deadlocked under the old sequential accept loop).
        let idle = TcpStream::connect(addr).unwrap();

        let mut streams: Vec<TcpStream> =
            (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for (i, s) in streams.iter_mut().enumerate() {
            writeln!(s, "ping-{i}").unwrap();
        }
        for (i, s) in streams.iter().enumerate() {
            let mut reader = BufReader::new(s.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim(), format!("echo:ping-{i}"));
        }
        // Close the answered connections to free their workers (the
        // idle one stays open through shutdown).
        drop(streams);

        // Shutdown from a fresh connection; the pool must drain and join
        // even though `idle` is still open.
        let mut quitter = TcpStream::connect(addr).unwrap();
        writeln!(quitter, "quit").unwrap();
        let mut line = String::new();
        BufReader::new(quitter.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert_eq!(line.trim(), "echo:quit");
        handle.join().unwrap().unwrap();
        drop(idle);
    }
}
