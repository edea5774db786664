//! The TCP front end: JSON-lines requests, binary waveform frames.
//!
//! One request per line, one-or-more responses per request, every
//! response carrying the unified envelope fields `"ok"` (bool) and
//! `"code"` (a stable machine string: `"ok"` on success, else a
//! [`ServeError::code`] such as `"rejected"` or `"protocol"`); error
//! envelopes add `"error"` (human text) and — for admission rejections
//! — `"retry_after_ms"`. Commands:
//!
//! | request | response |
//! |---|---|
//! | `{"cmd":"hello","proto":2,"frames":"binary"}` | `{"ok":true,"code":"ok","proto":2,"max_proto":2,"frames":"binary"}` — a version check: `proto` ≥ 2, `frames` absent or `"binary"` |
//! | `{"cmd":"submit", ...}` | `{"ok":true,"code":"ok","job":N}` — or a rejection (below) |
//! | `{"cmd":"poll","job":N}` | `{"ok":true,"code":"ok","job":N,"state":"queued\|running\|done\|failed\|cancelled\|expired",...}` |
//! | `{"cmd":"wait","job":N}` | as `poll`, but blocks until resolved |
//! | `{"cmd":"cancel","job":N}` | `{"ok":true,"code":"ok","job":N,"state":...}` — queued jobs drop, running jobs stop at the next step |
//! | `{"cmd":"stream","job":N}` | a meta line, then `frames` binary waveform records |
//! | `{"cmd":"stats"}` | engine counters (overload: `rejected`, `cancelled`, `deadline_misses`, `queue_depth`; retention: `retained_jobs`, `retained_bytes`; store: `store_hits`, `store_writes`) and cache sizes — plus `job_p50_us`/`p90`/`p99` and `queue_wait_p50_us`/`p90`/`p99` histogram quantiles when the engine runs with observability enabled |
//! | `{"cmd":"metrics"}` | `{"ok":true,"code":"ok","lines":N}`, then `N` raw Prometheus text-exposition lines from the engine's [`matex_obs`] recorder (comment-only page when observability is disabled) |
//! | `{"cmd":"trace"}` | `{"ok":true,"code":"ok","events":[...]}` — the Chrome-trace event array (concatenable with a client's own events into one `chrome://tracing` timeline) |
//!
//! # Wire format
//!
//! Requests and control responses are JSON lines. A `stream` response
//! is one JSON meta line (with `"encoding": "binary"`) followed by
//! `frames` length-prefixed [`matex_waveform::WaveFrame`] records
//! carrying raw little-endian `f64` bit patterns. That is the only
//! waveform framing, on every connection, whether or not it sent
//! `hello`: the handshake changes no connection state, it only lets a
//! client confirm the server speaks protocol 2. Protocol 1 and its JSON
//! text frames are retired; asking for them is a `"protocol"` error.
//!
//! A `submit` names its circuit either inline (`"netlist"`: SPICE text,
//! newlines escaped) or synthetically (`"pdn_nx"`/`"pdn_ny"` plus
//! optional `pdn_loads`, `pdn_features`, `pdn_seed`, `pdn_window`), and
//! the window via `t_stop` + `dt_out` (+ optional `t_start`). Counts and
//! indices (`pdn_nx`, `pdn_ny`, `pdn_loads`, `pdn_features`, `pdn_seed`,
//! `cap_row`, `workers`, and every `job` / `chunk`) must be non-negative
//! integers no larger than 2^53; a synthetic grid is bounded:
//!
//! | bound | limit |
//! |---|---|
//! | `pdn_nx · pdn_ny` | `MAX_PDN_NODES` = 65,536 (256 × 256) |
//! | `pdn_loads`, `pdn_features` | `MAX_PDN_LOADS` = 65,536 each |
//!
//! Anything else is answered `"code": "protocol"`. Optional
//! scenario fields: `gamma`, `tol`, `scale`, `cap_row` + `cap_scale`
//! (a what-if edit: scale one node's ground capacitance — served by
//! low-rank correction of the cached base factorization when the base
//! job ran first), `mode` (`"mono"` / `"dist"`), `workers`, `rows`
//! (comma-separated state rows to record). Admission fields:
//! `priority` (`"high"` / `"normal"` / `"low"`, strict classes) and
//! `deadline_ms` (relative deadline; orders the job EDF within its
//! class). When admission refuses a job — queue full, or the deadline
//! provably unmeetable under the engine's calibrated cost model — the
//! submit answers `{"ok": false, "code": "rejected", "retry_after_ms":
//! N, "error": ...}` and the client should back off `retry_after_ms`
//! before resubmitting.
//! Parsed/built circuits are cached by content hash, so a fleet of
//! submissions of one circuit assembles it once — and hits the engine's
//! artifact cache underneath.
//!
//! Each reply leaves in as few writes as its size allows: accepted
//! sockets run with `TCP_NODELAY` (Nagle off), and every reply is
//! written through one 64 KiB buffer that is flushed once, when the
//! reply is complete. A reply that fits the buffer is one write, so no
//! tail segment waits out the client's delayed ACK. A larger one (a
//! full-state stream) spills as the buffer fills, so the writer never
//! holds more than one buffer and a stalled peer trips the write
//! timeout mid-reply.
//!
//! The service defends itself against slow, stuck or hostile peers:
//! accepted sockets carry read/write timeouts
//! ([`ServiceOptions::io_timeout`]), so a connection that goes silent,
//! or a client that stops draining its receive window mid-stream, is
//! dropped instead of pinning a handler thread forever. A request line
//! longer than `MAX_REQUEST_BYTES` (16 MiB) is answered with a
//! `"protocol"` error and the connection is closed, so a peer that
//! never sends a newline cannot grow one line until the process dies.
//! The close is graceful: the server half-closes, then discards up to
//! another `MAX_REQUEST_BYTES` of what the peer is still sending, so
//! the peer reads the error instead of a connection reset.
//!
//! Responses to distinct requests never interleave on one connection;
//! `stream` waveform frames are chunked so a client can process arrival
//! by arrival. Frames carry the exact `f64` bits — two clients streaming
//! the same job sequence receive byte-identical records (the
//! determinism check `run_load` performs).

use crate::job::{ExecutionMode, JobSpec, JobStatus, Priority};
use crate::json::{escape, parse_flat_json, JsonValue};
use crate::{JobId, ScenarioEngine, ServeError};
use matex_circuit::{parse_netlist, MnaSystem, PdnBuilder};
use matex_core::TransientSpec;
use matex_waveform::{Fnv64, GroupingStrategy, WaveFrame};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Bind address; port 0 picks a free port (see
    /// [`ServiceHandle::addr`]).
    pub addr: String,
    /// Output samples per streamed waveform frame.
    pub stream_chunk: usize,
    /// Read/write timeout applied to every accepted socket. A peer that
    /// sends nothing for this long, or stalls mid-frame without
    /// draining its receive window, has its connection dropped — the
    /// handler thread is returned instead of pinned forever. `None`
    /// disables the guard (trusted local clients only).
    pub io_timeout: Option<Duration>,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            addr: "127.0.0.1:0".into(),
            stream_chunk: 32,
            io_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// A running service; stops (and joins the accept loop) on
/// [`ServiceHandle::stop`] or drop.
#[derive(Debug)]
pub struct ServiceHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServiceHandle {
    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept thread.
    /// In-flight connection handlers finish with their clients.
    pub fn stop(mut self) {
        self.shutdown_now();
    }

    fn shutdown_now(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.shutdown_now();
    }
}

/// Starts the TCP service on `opts.addr`, serving `engine`.
///
/// # Errors
///
/// Returns [`ServeError::Io`] when the listener cannot bind.
pub fn serve(
    engine: Arc<ScenarioEngine>,
    opts: &ServiceOptions,
) -> Result<ServiceHandle, ServeError> {
    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let accept = {
        let shutdown = shutdown.clone();
        let opts = opts.clone();
        let state = Arc::new(ServiceState {
            engine,
            circuits: Mutex::new(HashMap::new()),
            stream_chunk: opts.stream_chunk.max(1),
        });
        std::thread::Builder::new()
            .name("matex-serve-accept".into())
            .spawn(move || {
                // Connection handlers are detached: each exits when its
                // client disconnects (they hold the engine alive through
                // their shared state, so a stopped service drains
                // naturally as clients hang up).
                while !shutdown.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // A socket without its timeouts could pin a
                            // handler thread forever: drop it instead.
                            if configure_socket(&stream, opts.io_timeout).is_err() {
                                continue;
                            }
                            let state = state.clone();
                            let _ = std::thread::Builder::new()
                                .name("matex-serve-conn".into())
                                .spawn(move || handle_connection(stream, &state));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn accept loop")
    };
    Ok(ServiceHandle {
        addr,
        shutdown,
        accept: Some(accept),
    })
}

/// Bound on the per-service circuit-assembly cache. It is a pure
/// content-hash cache (jobs hold their own `Arc`s), so wholesale
/// clearing at the cap is safe — just a re-parse for later submissions.
const MAX_ASSEMBLED_CIRCUITS: usize = 256;

struct ServiceState {
    engine: Arc<ScenarioEngine>,
    /// Assembled circuits by content hash (netlist text or PDN params):
    /// a fleet of submissions of one circuit assembles it once.
    circuits: Mutex<HashMap<u64, Arc<MnaSystem>>>,
    stream_chunk: usize,
}

impl ServiceState {
    /// Looks up an assembled circuit by content hash.
    fn cached_circuit(&self, key: u64) -> Option<Arc<MnaSystem>> {
        self.circuits
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .cloned()
    }

    /// Caches an assembled circuit, clearing the map at the cap.
    fn store_circuit(&self, key: u64, sys: Arc<MnaSystem>) {
        let mut map = self.circuits.lock().unwrap_or_else(|e| e.into_inner());
        if map.len() >= MAX_ASSEMBLED_CIRCUITS {
            map.clear();
        }
        map.insert(key, sys);
    }
}

/// Per-socket setup of an accepted connection. `TCP_NODELAY` sends each
/// flushed reply at once instead of holding its last segment until the
/// peer acknowledges the previous one (the peer may delay that ACK by
/// ~40 ms). The timeouts are the slow-peer guard: a socket that stays
/// silent or stops draining for `io_timeout` errors out of its blocking
/// read or write, and the handler thread exits.
fn configure_socket(stream: &TcpStream, io_timeout: Option<Duration>) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(io_timeout)?;
    stream.set_write_timeout(io_timeout)
}

/// Capacity of a connection's write buffer. A reply up to this size
/// leaves in one write; a larger one spills as the buffer fills, so a
/// stalled peer still trips the write timeout mid-reply.
const REPLY_BUFFER_BYTES: usize = 64 * 1024;

/// Longest request line the service reads, newline excluded. Far above
/// any netlist a real client submits; a longer line is a protocol error
/// that closes the connection.
const MAX_REQUEST_BYTES: u64 = 16 << 20;

/// The only protocol version this server speaks.
const PROTO: u64 = 2;

/// One response unit: a JSON text line, or a length-prefixed binary
/// [`WaveFrame`] record written verbatim.
enum Payload {
    Line(String),
    Bytes(Vec<u8>),
}

/// Flushes the connection writer once a reply is complete, timing the
/// flush into the engine's `service_flush_seconds` histogram when
/// observability is enabled: one observation per request. A slow flush
/// is the signature of a peer that stopped draining its receive window —
/// the histogram's tail is the early-warning signal the `io_timeout`
/// guard acts on.
fn flush_timed<W: Write>(writer: &mut BufWriter<W>, obs: &matex_obs::Obs) -> std::io::Result<()> {
    if !obs.is_enabled() {
        return writer.flush();
    }
    let t0 = Instant::now();
    let r = writer.flush();
    obs.observe_labeled(
        "service_flush_seconds",
        &[("ok", if r.is_ok() { "1" } else { "0" })],
        t0.elapsed(),
    );
    r
}

fn handle_connection(stream: TcpStream, state: &ServiceState) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::with_capacity(REPLY_BUFFER_BYTES, stream);
    let obs = state.engine.obs().clone();
    loop {
        // A fresh buffer per request: one large netlist must not leave
        // its capacity pinned on an idle connection.
        let mut line = Vec::new();
        match (&mut reader)
            .take(MAX_REQUEST_BYTES + 1)
            .read_until(b'\n', &mut line)
        {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let ended = line.last() == Some(&b'\n');
        if !ended && line.len() as u64 > MAX_REQUEST_BYTES {
            let e = ServeError::Protocol(format!(
                "request line exceeds {MAX_REQUEST_BYTES} bytes; closing the connection"
            ));
            let _ = write_reply(&mut writer, &[Payload::Line(error_line(&e))], &obs);
            // Half-close, then discard what the peer is still sending
            // (bounded by the cap and the read timeout): closing with
            // unread bytes makes the kernel answer with a reset, and
            // the peer would see ECONNRESET instead of the envelope.
            let _ = writer.get_ref().shutdown(Shutdown::Write);
            let _ = std::io::copy(&mut reader.take(MAX_REQUEST_BYTES), &mut std::io::sink());
            return;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            return;
        };
        let text = text.strip_suffix('\n').unwrap_or(text);
        let text = text.strip_suffix('\r').unwrap_or(text);
        if text.trim().is_empty() {
            continue;
        }
        let reply = match handle_request(text, state) {
            Ok(payloads) => payloads,
            Err(e) => vec![Payload::Line(error_line(&e))],
        };
        if write_reply(&mut writer, &reply, &obs).is_err() {
            return;
        }
    }
}

/// Writes one whole reply and flushes it once.
fn write_reply<W: Write>(
    writer: &mut BufWriter<W>,
    reply: &[Payload],
    obs: &matex_obs::Obs,
) -> std::io::Result<()> {
    for r in reply {
        match r {
            Payload::Line(l) => writeln!(writer, "{l}")?,
            Payload::Bytes(b) => writer.write_all(b)?,
        }
    }
    flush_timed(writer, obs)
}

/// Serializes an error envelope: `ok`, the stable [`ServeError::code`],
/// the human-readable `error` text, and — for admission rejections —
/// the `retry_after_ms` back-off hint, so clients can distinguish
/// "resubmit later" from a hard failure by `code` alone.
fn error_line(e: &ServeError) -> String {
    match e {
        ServeError::Rejected {
            reason,
            retry_after,
        } => format!(
            "{{\"ok\": false, \"code\": \"rejected\", \"retry_after_ms\": {}, \"error\": \"{}\"}}",
            retry_after.as_millis().max(1),
            escape(reason)
        ),
        _ => format!(
            "{{\"ok\": false, \"code\": \"{}\", \"error\": \"{}\"}}",
            e.code(),
            escape(&e.to_string())
        ),
    }
}

fn handle_request(line: &str, state: &ServiceState) -> Result<Vec<Payload>, ServeError> {
    let req = parse_flat_json(line).map_err(ServeError::Protocol)?;
    let cmd = req
        .get("cmd")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ServeError::Protocol("request has no \"cmd\"".into()))?;
    match cmd {
        "hello" => Ok(vec![Payload::Line(hello_line(&req)?)]),
        "submit" => {
            let spec = build_job(&req, state)?;
            let id = state.engine.submit(spec)?;
            Ok(vec![Payload::Line(format!(
                "{{\"ok\": true, \"code\": \"ok\", \"job\": {id}}}"
            ))])
        }
        "poll" => {
            let id = job_id(&req)?;
            Ok(vec![Payload::Line(status_line(id, state)?)])
        }
        "wait" => {
            let id = job_id(&req)?;
            // Resolve (ignoring the job's own failure — reported by the
            // status line), then report.
            let _ = state.engine.wait(id);
            Ok(vec![Payload::Line(status_line(id, state)?)])
        }
        "cancel" => {
            let id = job_id(&req)?;
            // Queued jobs drop immediately; running jobs get their
            // token tripped and stop at the next transient-step
            // boundary. The response reports the state as of the
            // cancel — poll again to observe a running job wind down.
            state.engine.cancel(id).ok_or(ServeError::UnknownJob(id))?;
            Ok(vec![Payload::Line(status_line(id, state)?)])
        }
        "stream" => stream_payloads(&req, state),
        "stats" => Ok(vec![Payload::Line(stats_line(state))]),
        "metrics" => Ok(metrics_payloads(state)),
        "trace" => Ok(vec![Payload::Line(format!(
            "{{\"ok\": true, \"code\": \"ok\", \"events\": {}}}",
            state.engine.obs().chrome_trace_events()
        ))]),
        other => Err(ServeError::Protocol(format!("unknown cmd {other:?}"))),
    }
}

/// The handshake, a stateless version check: the client names the
/// highest protocol it speaks (an integer ≥ 2) and may name the frame
/// encoding (`"binary"`, the only one). Every connection streams binary
/// frames whether or not it says hello.
fn hello_line(req: &HashMap<String, JsonValue>) -> Result<String, ServeError> {
    let proto = count(req, "proto", u32::MAX.into())?.unwrap_or(1);
    if proto < PROTO {
        return Err(ServeError::Protocol(format!(
            "protocol {proto} is not served (protocol 1 and its JSON waveform frames \
             are retired); send \"proto\": {PROTO}"
        )));
    }
    match req.get("frames").and_then(JsonValue::as_str) {
        None | Some("binary") => {}
        Some("json") => {
            return Err(ServeError::Protocol(
                "JSON waveform frames are retired: streams are binary WaveFrame records".into(),
            ))
        }
        Some(other) => {
            return Err(ServeError::Protocol(format!(
                "unknown frame encoding {other:?}"
            )))
        }
    }
    Ok(format!(
        "{{\"ok\": true, \"code\": \"ok\", \"proto\": {PROTO}, \"max_proto\": {PROTO}, \"frames\": \"binary\"}}"
    ))
}

fn job_id(req: &HashMap<String, JsonValue>) -> Result<JobId, ServeError> {
    count(req, "job", MAX_COUNT)?
        .ok_or_else(|| ServeError::Protocol("request has no \"job\" id".into()))
}

fn num(req: &HashMap<String, JsonValue>, key: &str) -> Option<f64> {
    req.get(key).and_then(JsonValue::as_num)
}

/// Largest synthetic grid a `submit` may ask for, in fine-mesh nodes
/// (`pdn_nx · pdn_ny`): one request line must not make a handler thread
/// build an arbitrarily large netlist.
const MAX_PDN_NODES: u64 = 1 << 16;

/// Largest `pdn_loads` (and `pdn_features`) a `submit` may ask for.
const MAX_PDN_LOADS: u64 = 1 << 16;

/// Largest count or index a request may carry: the wire's numbers are
/// `f64`s, which hold every integer up to 2^53 exactly.
const MAX_COUNT: u64 = 1 << 53;

/// A count or index field: absent, or an integer in `0..=max`. Anything
/// else — non-finite, negative, fractional or too large — is a protocol
/// error, never a saturating cast.
fn count(req: &HashMap<String, JsonValue>, key: &str, max: u64) -> Result<Option<u64>, ServeError> {
    match num(req, key) {
        None => Ok(None),
        Some(v) if v >= 0.0 && v.fract() == 0.0 && v <= max as f64 => Ok(Some(v as u64)),
        Some(v) => Err(ServeError::Protocol(format!(
            "\"{key}\" must be an integer in 0..={max}, got {v}"
        ))),
    }
}

fn status_line(id: JobId, state: &ServiceState) -> Result<String, ServeError> {
    let status = state.engine.status(id).ok_or(ServeError::UnknownJob(id))?;
    let mut line = format!(
        "{{\"ok\": true, \"code\": \"ok\", \"job\": {id}, \"state\": \"{}\"",
        status.label()
    );
    match &status {
        JobStatus::Failed(msg) => {
            line.push_str(&format!(", \"error\": \"{}\"", escape(msg)));
        }
        JobStatus::Done(out) => {
            line.push_str(&format!(
                ", \"warm\": {}, \"whatif\": {}, \"wall_us\": {}, \"points\": {}",
                out.cache.is_warm(),
                out.cache.is_whatif(),
                out.wall.as_micros(),
                out.result.times().len()
            ));
            if let Some(groups) = out.groups {
                line.push_str(&format!(", \"groups\": {groups}"));
            }
        }
        _ => {}
    }
    line.push('}');
    Ok(line)
}

/// The Prometheus page as a protocol response: one JSON meta line
/// announcing the raw text line count, then the page verbatim. The page
/// is text exposition format, not JSON — announcing the count first
/// keeps the JSON-lines framing unambiguous (same pattern as `stream`).
fn metrics_payloads(state: &ServiceState) -> Vec<Payload> {
    let page = state.engine.obs().prometheus_text();
    let lines: Vec<&str> = page.lines().collect();
    let mut payloads = Vec::with_capacity(lines.len() + 1);
    payloads.push(Payload::Line(format!(
        "{{\"ok\": true, \"code\": \"ok\", \"lines\": {}}}",
        lines.len()
    )));
    payloads.extend(lines.into_iter().map(|l| Payload::Line(l.to_string())));
    payloads
}

fn stats_line(state: &ServiceState) -> String {
    let s = state.engine.stats();
    let mut line = format!(
        "{{\"ok\": true, \"code\": \"ok\", \
         \"submitted\": {}, \"completed\": {}, \"failed\": {}, \
         \"rejected\": {}, \"cancelled\": {}, \"deadline_misses\": {}, \
         \"queue_depth\": {}, \"retained_jobs\": {}, \"retained_bytes\": {}, \
         \"warm_jobs\": {}, \"setup_hits\": {}, \"setup_misses\": {}, \
         \"symbolic_hits\": {}, \"dc_hits\": {}, \"plan_hits\": {}, \
         \"whatif_hits\": {}, \"whatif_rank\": {}, \"whatif_fallbacks\": {}, \
         \"anchor_plants\": {}, \"evictions\": {}, \
         \"store_hits\": {}, \"store_writes\": {}, \
         \"circuits_cached\": {}, \"setups_cached\": {}",
        s.submitted,
        s.completed,
        s.failed,
        s.rejected,
        s.cancelled,
        s.deadline_misses,
        s.queue_depth,
        s.retained_jobs,
        s.retained_bytes,
        s.warm_jobs,
        s.setup_hits,
        s.setup_misses,
        s.symbolic_hits,
        s.dc_hits,
        s.plan_hits,
        s.whatif_hits,
        s.whatif_rank,
        s.whatif_fallbacks,
        s.anchor_plants,
        s.evictions,
        s.store_hits,
        s.store_writes,
        s.cache.circuits,
        s.cache.setups,
    );
    // Histogram quantiles ride along when the engine observes itself —
    // absent otherwise, so disabled engines keep the legacy line shape.
    let obs = state.engine.obs();
    if obs.is_enabled() {
        let (jp50, jp90, jp99) = obs.quantiles("engine_job_seconds");
        let (qp50, qp90, qp99) = obs.quantiles("engine_queue_wait_seconds");
        line.push_str(&format!(
            ", \"job_p50_us\": {:.0}, \"job_p90_us\": {:.0}, \"job_p99_us\": {:.0}, \
             \"queue_wait_p50_us\": {:.0}, \"queue_wait_p90_us\": {:.0}, \"queue_wait_p99_us\": {:.0}",
            jp50 * 1e6,
            jp90 * 1e6,
            jp99 * 1e6,
            qp50 * 1e6,
            qp90 * 1e6,
            qp99 * 1e6,
        ));
    }
    line.push('}');
    line
}

/// Emits a stream response: one meta line, then length-prefixed binary
/// [`WaveFrame`] records covering the whole sampled window.
fn stream_payloads(
    req: &HashMap<String, JsonValue>,
    state: &ServiceState,
) -> Result<Vec<Payload>, ServeError> {
    let id = job_id(req)?;
    let out = state.engine.wait(id)?;
    let times = out.result.times();
    let chunk = count(req, "chunk", MAX_COUNT)?
        .map(|c| (c as usize).max(1))
        .unwrap_or(state.stream_chunk);
    let frames = times.len().div_ceil(chunk);
    let mut payloads = Vec::with_capacity(frames + 1);
    payloads.push(Payload::Line(format!(
        "{{\"ok\": true, \"code\": \"ok\", \"job\": {id}, \"frames\": {frames}, \
         \"rows\": {}, \"points\": {}, \"encoding\": \"binary\"}}",
        out.result.rows().len(),
        times.len(),
    )));
    for f in 0..frames {
        let start = f * chunk;
        let end = (start + chunk).min(times.len());
        // Frames deliberately omit the job id: they follow their meta
        // line positionally on the connection, and leaving the id out
        // makes frame bytes comparable across clients (two clients
        // running the same job sequence receive identical frames even
        // though their engine-assigned ids differ).
        let wf = WaveFrame {
            frame: f as u64,
            start: start as u64,
            times: times[start..end].to_vec(),
            series: out
                .result
                .series()
                .iter()
                .map(|s| s[start..end].to_vec())
                .collect(),
        };
        payloads.push(Payload::Bytes(wf.encode()));
    }
    Ok(payloads)
}

/// Builds a [`JobSpec`] from a flat `submit` request.
fn build_job(
    req: &HashMap<String, JsonValue>,
    state: &ServiceState,
) -> Result<JobSpec, ServeError> {
    let circuit = resolve_circuit(req, state)?;
    let t_start = num(req, "t_start").unwrap_or(0.0);
    let t_stop = num(req, "t_stop")
        .ok_or_else(|| ServeError::Protocol("submit requires \"t_stop\"".into()))?;
    let dt_out = num(req, "dt_out")
        .ok_or_else(|| ServeError::Protocol("submit requires \"dt_out\"".into()))?;
    let mut spec = TransientSpec::new(t_start, t_stop, dt_out).map_err(ServeError::Core)?;
    if let Some(rows) = req.get("rows").and_then(JsonValue::as_str) {
        let parsed: Result<Vec<usize>, _> = rows
            .split(',')
            .filter(|t| !t.trim().is_empty())
            .map(|t| t.trim().parse::<usize>())
            .collect();
        let parsed =
            parsed.map_err(|_| ServeError::Protocol(format!("bad \"rows\" list {rows:?}")))?;
        // Validate against the circuit here, at the protocol boundary —
        // the recorder indexes the state vector by these rows verbatim.
        if let Some(&bad) = parsed.iter().find(|&&r| r >= circuit.dim()) {
            return Err(ServeError::Protocol(format!(
                "row {bad} out of range for a {}-state circuit",
                circuit.dim()
            )));
        }
        spec = spec.observing(parsed);
    }
    let mut job = JobSpec::new(circuit, spec);
    if let Some(g) = num(req, "gamma") {
        job = job.gamma(g);
    }
    if let Some(t) = num(req, "tol") {
        job = job.tol(t);
    }
    if let Some(k) = num(req, "scale") {
        job = job.source_scale(k);
    }
    match (count(req, "cap_row", MAX_COUNT)?, num(req, "cap_scale")) {
        (Some(row), Some(factor)) => {
            // Validate the row at the protocol boundary, like "rows".
            let nodes = job.circuit.num_nodes();
            if row >= nodes as u64 {
                return Err(ServeError::Protocol(format!(
                    "cap_row {row} out of range for a {nodes}-node circuit"
                )));
            }
            job = job.cap_scale(row as usize, factor);
        }
        (None, None) => {}
        _ => {
            return Err(ServeError::Protocol(
                "\"cap_row\" and \"cap_scale\" must be given together".into(),
            ));
        }
    }
    if let Some(p) = req.get("priority").and_then(JsonValue::as_str) {
        let p = Priority::parse(p)
            .ok_or_else(|| ServeError::Protocol(format!("unknown priority {p:?}")))?;
        job = job.priority(p);
    }
    if let Some(ms) = num(req, "deadline_ms") {
        if !ms.is_finite() || ms <= 0.0 {
            return Err(ServeError::Protocol(format!(
                "\"deadline_ms\" must be a positive number, got {ms}"
            )));
        }
        let d = Duration::try_from_secs_f64(ms / 1e3)
            .map_err(|_| ServeError::Protocol(format!("\"deadline_ms\" {ms} is out of range")))?;
        job = job.deadline(d);
    }
    match req.get("mode").and_then(JsonValue::as_str) {
        None | Some("mono") => {}
        Some("dist") => {
            job = job.mode(ExecutionMode::Distributed {
                strategy: GroupingStrategy::ByBumpFeature,
                workers: count(req, "workers", MAX_COUNT)?.map(|w| (w as usize).max(1)),
            });
        }
        Some(other) => {
            return Err(ServeError::Protocol(format!("unknown mode {other:?}")));
        }
    }
    Ok(job)
}

/// Resolves the request's circuit — inline netlist or synthetic PDN —
/// through the per-service assembly cache.
fn resolve_circuit(
    req: &HashMap<String, JsonValue>,
    state: &ServiceState,
) -> Result<Arc<MnaSystem>, ServeError> {
    let mut h = Fnv64::new();
    if let Some(text) = req.get("netlist").and_then(JsonValue::as_str) {
        h.write_u8(0);
        h.write_bytes(text.as_bytes());
        let key = h.finish();
        if let Some(sys) = state.cached_circuit(key) {
            return Ok(sys);
        }
        let parsed = parse_netlist(text)?;
        let sys = Arc::new(MnaSystem::assemble(&parsed.netlist)?);
        state.store_circuit(key, sys.clone());
        Ok(sys)
    } else if let (Some(nx), Some(ny)) = (
        count(req, "pdn_nx", MAX_PDN_NODES)?,
        count(req, "pdn_ny", MAX_PDN_NODES)?,
    ) {
        if nx * ny > MAX_PDN_NODES {
            return Err(ServeError::Protocol(format!(
                "a {nx} x {ny} grid exceeds {MAX_PDN_NODES} nodes"
            )));
        }
        let loads = count(req, "pdn_loads", MAX_PDN_LOADS)?.unwrap_or(8);
        let features = count(req, "pdn_features", MAX_PDN_LOADS)?.unwrap_or(3);
        let seed = count(req, "pdn_seed", MAX_COUNT)?.unwrap_or(1);
        let window = num(req, "pdn_window").unwrap_or(1e-9);
        h.write_u8(1);
        for v in [nx, ny, loads, features, seed] {
            h.write_f64(v as f64);
        }
        h.write_f64(window);
        let key = h.finish();
        if let Some(sys) = state.cached_circuit(key) {
            return Ok(sys);
        }
        let sys = Arc::new(
            PdnBuilder::new(nx as usize, ny as usize)
                .num_loads(loads as usize)
                .num_features(features as usize)
                .seed(seed)
                .window(window)
                .build()?,
        );
        state.store_circuit(key, sys.clone());
        Ok(sys)
    } else {
        Err(ServeError::Protocol(
            "submit requires \"netlist\" or \"pdn_nx\"/\"pdn_ny\"".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineOptions;
    use std::io::{BufRead, Read};

    fn start() -> (Arc<ScenarioEngine>, ServiceHandle) {
        let engine = Arc::new(ScenarioEngine::new(EngineOptions {
            executors: 2,
            ..EngineOptions::default()
        }));
        let handle = serve(engine.clone(), &ServiceOptions::default()).unwrap();
        (engine, handle)
    }

    /// Sends one request and reads its whole response: the reply line,
    /// then — when it announces a numeric `"frames"` count, as a
    /// `stream` meta line does — that many binary records, each kept
    /// whole (length prefix included).
    fn exchange(stream: &mut TcpStream, req: &str) -> (Vec<String>, Vec<Vec<u8>>) {
        let mut w = stream.try_clone().unwrap();
        writeln!(w, "{req}").unwrap();
        w.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut first = String::new();
        reader.read_line(&mut first).unwrap();
        let line = first.trim_end().to_string();
        // A hello ack's "frames" is a string, not a count.
        let frames = parse_flat_json(&line)
            .ok()
            .and_then(|r| r.get("frames")?.as_num())
            .unwrap_or(0.0) as usize;
        let records = (0..frames)
            .map(|_| {
                let mut record = vec![0u8; 8];
                reader.read_exact(&mut record).unwrap();
                let (len, _) = WaveFrame::decode_len(&record).unwrap();
                record.resize(8 + len, 0);
                reader.read_exact(&mut record[8..]).unwrap();
                record
            })
            .collect();
        (vec![line], records)
    }

    /// [`exchange`] for requests whose records the test ignores.
    fn roundtrip(stream: &mut TcpStream, req: &str) -> Vec<String> {
        exchange(stream, req).0
    }

    fn decode(record: &[u8]) -> WaveFrame {
        let (len, _) = WaveFrame::decode_len(&record[..8]).unwrap();
        assert_eq!(8 + len, record.len());
        WaveFrame::decode_payload(&record[8..]).unwrap()
    }

    /// The `n × n` grid a `{"pdn_nx": n, "pdn_ny": n}` submit builds.
    fn pdn(n: usize) -> MnaSystem {
        PdnBuilder::new(n, n)
            .num_loads(8)
            .num_features(3)
            .seed(1)
            .window(1e-9)
            .build()
            .unwrap()
    }

    /// The chained frame hash of a standalone solver run, cut into
    /// `chunk`-point frames the way the service cuts a stream.
    fn standalone_hash(sys: &MnaSystem, spec: &TransientSpec, chunk: usize) -> u64 {
        use matex_core::{MatexOptions, MatexSolver, TransientEngine};
        let alone = MatexSolver::new(MatexOptions::default())
            .run(sys, spec)
            .unwrap();
        let (times, series) = (alone.times(), alone.series());
        let mut want = Fnv64::new();
        for (f, start) in (0..times.len()).step_by(chunk).enumerate() {
            let end = (start + chunk).min(times.len());
            WaveFrame {
                frame: f as u64,
                start: start as u64,
                times: times[start..end].to_vec(),
                series: series.iter().map(|s| s[start..end].to_vec()).collect(),
            }
            .feed(&mut want);
        }
        want.finish()
    }

    /// The chained frame hash of streamed records.
    fn records_hash(records: &[Vec<u8>]) -> u64 {
        let mut got = Fnv64::new();
        for r in records {
            decode(r).feed(&mut got);
        }
        got.finish()
    }

    #[test]
    fn submit_wait_stream_stats_over_tcp() {
        let (_engine, handle) = start();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        let sub = roundtrip(
            &mut conn,
            r#"{"cmd": "submit", "pdn_nx": 6, "pdn_ny": 6, "t_stop": 1e-9, "dt_out": 2e-11, "rows": "0,1"}"#,
        );
        assert!(sub[0].contains("\"ok\": true"), "{sub:?}");
        assert!(sub[0].contains("\"job\": 0"));
        let wait = roundtrip(&mut conn, r#"{"cmd": "wait", "job": 0}"#);
        assert!(wait[0].contains("\"state\": \"done\""), "{wait:?}");
        let (meta, records) = exchange(&mut conn, r#"{"cmd": "stream", "job": 0, "chunk": 20}"#);
        assert!(meta[0].contains("\"frames\": 3"), "{meta:?}"); // 51 points / 20
        assert!(meta[0].contains("\"encoding\": \"binary\""), "{meta:?}");
        let frames: Vec<WaveFrame> = records.iter().map(|r| decode(r)).collect();
        let shape: Vec<_> = frames
            .iter()
            .map(|f| (f.frame, f.start, f.rows(), f.count()))
            .collect();
        assert_eq!(shape, [(0, 0, 2, 20), (1, 20, 2, 20), (2, 40, 2, 11)]);
        assert_eq!(frames[0].times[0], 0.0);
        let stats = roundtrip(&mut conn, r#"{"cmd": "stats"}"#);
        assert!(stats[0].contains("\"completed\": 1"), "{stats:?}");
        handle.stop();
    }

    #[test]
    fn netlist_submissions_share_assembly_and_protocol_errors_report() {
        let (_engine, handle) = start();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        let netlist = "i1 0 a PULSE(0 1m 0.1n 50p 200p 50p)\\nr1 a 0 1k\\nc1 a 0 10f\\n.end";
        let req = format!(
            "{{\"cmd\": \"submit\", \"netlist\": \"{netlist}\", \"t_stop\": 1e-9, \"dt_out\": 1e-11}}"
        );
        let a = roundtrip(&mut conn, &req);
        assert!(a[0].contains("\"job\": 0"), "{a:?}");
        let b = roundtrip(&mut conn, &req);
        assert!(b[0].contains("\"job\": 1"));
        for id in [0, 1] {
            let w = roundtrip(&mut conn, &format!("{{\"cmd\": \"wait\", \"job\": {id}}}"));
            assert!(w[0].contains("done"), "{w:?}");
        }
        // Identical submissions: the second assembled nothing and ran warm.
        let stats = roundtrip(&mut conn, r#"{"cmd": "stats"}"#);
        assert!(stats[0].contains("\"warm_jobs\": 1"), "{stats:?}");
        // Errors come back as ok:false lines, connection stays usable.
        let err = roundtrip(&mut conn, r#"{"cmd": "submit", "t_stop": 1e-9}"#);
        assert!(err[0].contains("\"ok\": false"));
        // Out-of-range observed rows are rejected at the protocol
        // boundary, never reaching the solver.
        let err = roundtrip(
            &mut conn,
            r#"{"cmd": "submit", "pdn_nx": 5, "pdn_ny": 5, "t_stop": 1e-9, "dt_out": 1e-11, "rows": "99999"}"#,
        );
        assert!(err[0].contains("out of range"), "{err:?}");
        let err = roundtrip(&mut conn, r#"{"cmd": "nonsense"}"#);
        assert!(err[0].contains("unknown cmd"));
        assert!(err[0].contains("\"code\": \"protocol\""), "{err:?}");
        let err = roundtrip(&mut conn, "not json at all");
        assert!(err[0].contains("\"ok\": false"));
        // Unknown job ids carry their own stable code.
        let err = roundtrip(&mut conn, r#"{"cmd": "wait", "job": 999}"#);
        assert!(err[0].contains("\"code\": \"unknown_job\""), "{err:?}");
        handle.stop();
    }

    #[test]
    fn non_integral_counts_and_oversized_grids_are_protocol_errors() {
        let (engine, handle) = start();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        let grid = r#""pdn_nx": 6, "pdn_ny": 6, "t_stop": 1e-9, "dt_out": 2e-11"#;
        for fields in [
            format!(r#"{grid}, "cap_row": -1, "cap_scale": 2"#),
            format!(r#"{grid}, "cap_row": 2.7, "cap_scale": 2"#),
            r#""pdn_nx": -4, "pdn_ny": 6, "t_stop": 1e-9, "dt_out": 2e-11"#.to_string(),
            format!(r#"{grid}, "mode": "dist", "workers": -3"#),
            r#""pdn_nx": 1e6, "pdn_ny": 1e6, "t_stop": 1e-9, "dt_out": 2e-11"#.to_string(),
            format!(r#"{grid}, "pdn_loads": 1e9"#),
            format!(r#"{grid}, "pdn_seed": 1e300"#),
        ] {
            let err = roundtrip(&mut conn, &format!(r#"{{"cmd": "submit", {fields}}}"#));
            assert!(
                err[0].contains("\"code\": \"protocol\""),
                "{fields}: {err:?}"
            );
        }
        let err = roundtrip(&mut conn, r#"{"cmd": "poll", "job": -1}"#);
        assert!(err[0].contains("\"code\": \"protocol\""), "{err:?}");
        // None of them reached the engine; a well-formed edit still does.
        assert_eq!(engine.stats().submitted, 0);
        let ok = roundtrip(
            &mut conn,
            &format!(r#"{{"cmd": "submit", {grid}, "cap_row": 3, "cap_scale": 2}}"#),
        );
        assert!(ok[0].contains("\"job\": 0"), "{ok:?}");
        handle.stop();
    }

    #[test]
    fn out_of_range_deadlines_and_protocol_versions_are_errors_not_panics() {
        let (engine, handle) = start();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        let grid = r#""pdn_nx": 6, "pdn_ny": 6, "t_stop": 1e-9, "dt_out": 2e-11"#;
        for (req, code) in [
            // Past `Duration`'s range.
            (
                format!(r#"{{"cmd": "submit", {grid}, "deadline_ms": 1e300}}"#),
                "protocol",
            ),
            // A `Duration`, but past the clock's range once added to now.
            (
                format!(r#"{{"cmd": "submit", {grid}, "deadline_ms": 1e22}}"#),
                "invalid_job",
            ),
            (r#"{"cmd": "hello", "proto": 2.5}"#.into(), "protocol"),
            (
                r#"{"cmd": "hello", "proto": 4294967296}"#.into(),
                "protocol",
            ),
        ] {
            let err = roundtrip(&mut conn, &req);
            assert!(
                err[0].contains(&format!("\"code\": \"{code}\"")),
                "{req}: {err:?}"
            );
        }
        let stats = roundtrip(&mut conn, r#"{"cmd": "stats"}"#);
        assert!(stats[0].contains("\"submitted\": 0"), "{stats:?}");
        // In process: the same refusal from `submit` and from `run`.
        let job = JobSpec::new(
            Arc::new(PdnBuilder::new(6, 6).build().unwrap()),
            TransientSpec::new(0.0, 1e-9, 2e-11).unwrap(),
        )
        .deadline(Duration::MAX);
        assert!(matches!(
            engine.submit(job.clone()),
            Err(ServeError::InvalidJob(_))
        ));
        assert!(matches!(engine.run(&job), Err(ServeError::InvalidJob(_))));
        assert_eq!(engine.stats().submitted, 0);
        handle.stop();
    }

    fn field(key: &str, v: f64) -> HashMap<String, JsonValue> {
        HashMap::from([(key.to_string(), JsonValue::Num(v))])
    }

    fn is_protocol(r: Result<Option<u64>, ServeError>) -> bool {
        matches!(r, Err(ServeError::Protocol(_)))
    }

    #[test]
    fn count_reads_absent_and_integral_values() {
        assert_eq!(count(&HashMap::new(), "job", MAX_COUNT).unwrap(), None);
        // A non-numeric value is not a count: the field reads as absent.
        let text = HashMap::from([("job".to_string(), JsonValue::Str("3".into()))]);
        assert_eq!(count(&text, "job", MAX_COUNT).unwrap(), None);
        for (v, want) in [(0.0, 0), (7.0, 7), (1e3, 1000), (65_536.0, 65_536)] {
            assert_eq!(
                count(&field("k", v), "k", MAX_PDN_NODES).unwrap(),
                Some(want)
            );
        }
        assert_eq!(
            count(&field("k", MAX_COUNT as f64), "k", MAX_COUNT).unwrap(),
            Some(MAX_COUNT)
        );
    }

    #[test]
    fn count_rejects_negative_values() {
        for v in [-1.0, -3.0, -4.0, -1e300] {
            assert!(is_protocol(count(&field("k", v), "k", MAX_COUNT)), "{v}");
        }
    }

    #[test]
    fn count_rejects_fractional_values() {
        for v in [2.7, 0.5, 1e-300, 65_535.5] {
            assert!(is_protocol(count(&field("k", v), "k", MAX_COUNT)), "{v}");
        }
    }

    #[test]
    fn count_rejects_non_finite_values() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(is_protocol(count(&field("k", v), "k", MAX_COUNT)), "{v}");
        }
    }

    #[test]
    fn count_rejects_values_above_its_bound() {
        assert!(is_protocol(count(
            &field("k", 65_537.0),
            "k",
            MAX_PDN_NODES
        )));
        // 2^53 + 2 is the first integer past the bound an f64 can carry.
        assert!(is_protocol(count(
            &field("k", (MAX_COUNT + 2) as f64),
            "k",
            MAX_COUNT
        )));
        assert!(is_protocol(count(&field("k", 1e300), "k", MAX_COUNT)));
    }

    fn state() -> ServiceState {
        ServiceState {
            engine: Arc::new(ScenarioEngine::new(EngineOptions {
                executors: 1,
                ..EngineOptions::default()
            })),
            circuits: Mutex::new(HashMap::new()),
            stream_chunk: 64,
        }
    }

    fn pdn_request(fields: &[(&str, f64)]) -> HashMap<String, JsonValue> {
        fields
            .iter()
            .map(|(k, v)| ((*k).to_string(), JsonValue::Num(*v)))
            .collect()
    }

    #[test]
    fn grid_bounds_admit_the_benchmarks_largest_grid() {
        // The benchmark's serve workloads submit grids up to 44 x 44 with
        // n²/4 loads, 4 features and seeds below 2^40.
        let n = 44.0;
        let req = pdn_request(&[
            ("pdn_nx", n),
            ("pdn_ny", n),
            ("pdn_loads", n * n / 4.0),
            ("pdn_features", 4.0),
            ("pdn_seed", ((1u64 << 40) - 1) as f64),
        ]);
        let sys = resolve_circuit(&req, &state()).unwrap();
        assert!(sys.num_nodes() >= 44 * 44);
        // Load generation walks sides 6 + 2g for g < 126: up to 256².
        const { assert!(256 * 256 <= MAX_PDN_NODES) };
    }

    #[test]
    fn grids_past_the_node_bound_are_rejected_before_building() {
        let state = state();
        for (nx, ny) in [(256.0, 257.0), (65_537.0, 1.0), (1.0, 65_537.0), (1e6, 1e6)] {
            let req = pdn_request(&[("pdn_nx", nx), ("pdn_ny", ny)]);
            assert!(
                matches!(resolve_circuit(&req, &state), Err(ServeError::Protocol(_))),
                "{nx} x {ny}"
            );
        }
        let req = pdn_request(&[("pdn_nx", 6.0), ("pdn_ny", 6.0), ("pdn_features", 65_537.0)]);
        assert!(matches!(
            resolve_circuit(&req, &state),
            Err(ServeError::Protocol(_))
        ));
        assert!(state.circuits.lock().unwrap().is_empty());
    }

    #[test]
    fn stream_chunks_and_job_ids_must_be_integral() {
        let (_engine, handle) = start();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        let sub = roundtrip(
            &mut conn,
            r#"{"cmd": "submit", "pdn_nx": 6, "pdn_ny": 6, "t_stop": 1e-9, "dt_out": 2e-11}"#,
        );
        assert!(sub[0].contains("\"job\": 0"), "{sub:?}");
        for req in [
            r#"{"cmd": "stream", "job": 0, "chunk": -5}"#,
            r#"{"cmd": "stream", "job": 0, "chunk": 1.5}"#,
            r#"{"cmd": "wait", "job": 0.5}"#,
            r#"{"cmd": "cancel", "job": 1e300}"#,
        ] {
            let err = roundtrip(&mut conn, req);
            assert!(err[0].contains("\"code\": \"protocol\""), "{req}: {err:?}");
        }
        // The job itself is untouched and streams normally.
        let stream = roundtrip(&mut conn, r#"{"cmd": "stream", "job": 0, "chunk": 20}"#);
        assert!(stream[0].contains("\"frames\": 3"), "{stream:?}");
        handle.stop();
    }

    #[test]
    fn metrics_and_trace_verbs_export_observability() {
        let engine = Arc::new(ScenarioEngine::new(EngineOptions {
            executors: 2,
            obs: matex_obs::Obs::enabled(),
            ..EngineOptions::default()
        }));
        let handle = serve(engine.clone(), &ServiceOptions::default()).unwrap();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        // Two jobs of one circuit: a cold path and a cache-hit path, so
        // the job histogram splits by hit-path label.
        for _ in 0..2 {
            roundtrip(
                &mut conn,
                r#"{"cmd": "submit", "pdn_nx": 6, "pdn_ny": 6, "t_stop": 1e-9, "dt_out": 2e-11}"#,
            );
        }
        roundtrip(&mut conn, r#"{"cmd": "wait", "job": 0}"#);
        roundtrip(&mut conn, r#"{"cmd": "wait", "job": 1}"#);

        // metrics: meta line + raw Prometheus page, lint-clean, with
        // the job histogram split by hit path and solver timings.
        let mut w = conn.try_clone().unwrap();
        writeln!(w, r#"{{"cmd": "metrics"}}"#).unwrap();
        w.flush().unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut meta = String::new();
        reader.read_line(&mut meta).unwrap();
        assert!(meta.contains("\"lines\": "), "{meta}");
        let n: usize = {
            let at = meta.find("\"lines\": ").unwrap() + 9;
            let rest = &meta[at..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().unwrap()
        };
        let mut page = String::new();
        for _ in 0..n {
            let mut l = String::new();
            reader.read_line(&mut l).unwrap();
            page.push_str(&l);
        }
        matex_obs::lint_prometheus(&page).unwrap();
        assert!(
            page.contains("matex_engine_jobs_total{path=\"cold\"}"),
            "{page}"
        );
        assert!(
            page.contains("matex_engine_jobs_total{path=\"cache\"}"),
            "{page}"
        );
        assert!(page.contains("matex_engine_job_seconds"), "{page}");
        assert!(page.contains("matex_solver_expm_seconds"), "{page}");

        // stats gains histogram quantiles on an observing engine.
        let stats = roundtrip(&mut conn, r#"{"cmd": "stats"}"#);
        assert!(stats[0].contains("\"job_p99_us\": "), "{stats:?}");

        // trace: one envelope line whose events array reconstructs the
        // per-job solver phase split (factor / T_H expm / T_e combine).
        let trace = roundtrip(&mut conn, r#"{"cmd": "trace"}"#);
        assert!(trace[0].contains("\"events\": ["), "{}", &trace[0][..80]);
        for site in [
            "engine.run",
            "engine.queue_wait",
            "solver.factor",
            "solver.expm",
            "solver.combine",
        ] {
            assert!(trace[0].contains(site), "missing {site} in trace");
        }
        handle.stop();
    }

    #[test]
    fn hello_is_a_version_check_and_every_connection_streams_the_same_bytes() {
        let (_engine, handle) = start();
        let stream_job = r#"{"cmd": "stream", "job": 0, "chunk": 20}"#;

        // A client that never says hello.
        let mut bare = TcpStream::connect(handle.addr()).unwrap();
        let sub = roundtrip(
            &mut bare,
            r#"{"cmd": "submit", "pdn_nx": 6, "pdn_ny": 6, "t_stop": 1e-9, "dt_out": 2e-11, "rows": "0,1,2"}"#,
        );
        assert!(sub[0].contains("\"code\": \"ok\""), "{sub:?}");
        roundtrip(&mut bare, r#"{"cmd": "wait", "job": 0}"#);
        let (bare_meta, bare_records) = exchange(&mut bare, stream_job);
        assert!(
            bare_meta[0].contains("\"encoding\": \"binary\""),
            "{bare_meta:?}"
        );

        // A client that says hello first gets the same bytes. A newer
        // client is granted protocol 2, and `frames` may be left out.
        let mut greeted = TcpStream::connect(handle.addr()).unwrap();
        let ack = roundtrip(
            &mut greeted,
            r#"{"cmd": "hello", "proto": 2, "frames": "binary"}"#,
        );
        let granted =
            r#"{"ok": true, "code": "ok", "proto": 2, "max_proto": 2, "frames": "binary"}"#;
        assert_eq!(ack, [granted]);
        assert_eq!(
            roundtrip(&mut greeted, r#"{"cmd": "hello", "proto": 3}"#),
            [granted]
        );
        assert_eq!(
            exchange(&mut greeted, stream_job),
            (bare_meta.clone(), bare_records.clone())
        );

        // Those frames are the standalone solver's waveform, bit for bit.
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11)
            .unwrap()
            .observing(vec![0, 1, 2]);
        assert_eq!(
            records_hash(&bare_records),
            standalone_hash(&pdn(6), &spec, 20)
        );

        // Refused handshakes are protocol errors; the connection that
        // sent them still streams the same bytes afterwards.
        for req in [
            r#"{"cmd": "hello", "proto": 0}"#,
            r#"{"cmd": "hello", "proto": 1}"#,
            r#"{"cmd": "hello", "proto": 2.5}"#,
            r#"{"cmd": "hello", "proto": 2, "frames": "json"}"#,
            r#"{"cmd": "hello", "proto": 2, "frames": "morse"}"#,
        ] {
            let err = roundtrip(&mut greeted, req);
            assert!(err[0].contains("\"code\": \"protocol\""), "{req}: {err:?}");
            if req.contains("\"proto\": 1") || req.contains("json") {
                assert!(err[0].contains("retired"), "{req}: {err:?}");
            }
        }
        assert_eq!(
            exchange(&mut greeted, stream_job),
            (bare_meta, bare_records)
        );
        handle.stop();
    }

    /// A socket stand-in that counts the writes reaching it.
    #[derive(Default)]
    struct CountingSink {
        writes: usize,
        bytes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes += buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_reply_under_the_buffer_is_one_write_and_one_flush() {
        let state = ServiceState {
            engine: Arc::new(ScenarioEngine::new(EngineOptions {
                executors: 1,
                obs: matex_obs::Obs::enabled(),
                ..EngineOptions::default()
            })),
            circuits: Mutex::new(HashMap::new()),
            stream_chunk: 8,
        };
        let obs = state.engine.obs().clone();
        let flushes = || {
            obs.recorder()
                .unwrap()
                .histogram_snapshot("service_flush_seconds")
                .count()
        };
        let mut writer = BufWriter::with_capacity(REPLY_BUFFER_BYTES, CountingSink::default());
        let requests = [
            r#"{"cmd": "submit", "pdn_nx": 6, "pdn_ny": 6, "t_stop": 1e-9, "dt_out": 2e-11, "rows": "0,1"}"#,
            r#"{"cmd": "wait", "job": 0}"#,
            r#"{"cmd": "stream", "job": 0}"#,
            r#"{"cmd": "stats"}"#,
        ];
        for (k, req) in requests.into_iter().enumerate() {
            let reply = handle_request(req, &state).unwrap();
            let before = (writer.get_ref().writes, writer.get_ref().bytes);
            write_reply(&mut writer, &reply, &obs).unwrap();
            assert_eq!(flushes(), k as u64 + 1, "{req}");
            let sink = writer.get_ref();
            assert_eq!(sink.writes, before.0 + 1, "{req}");
            if req.contains("stream") {
                // A meta line and seven frame records (51 points / 8),
                // well under the buffer: one write.
                assert_eq!(reply.len(), 8);
                assert!(sink.bytes - before.1 < REPLY_BUFFER_BYTES);
            }
        }
    }

    #[test]
    fn a_reply_over_the_buffer_streams_the_standalone_bits() {
        // A retention budget of one byte: the outcome is larger than the
        // whole budget and is still kept, as the newest, to stream.
        let engine = Arc::new(ScenarioEngine::new(EngineOptions {
            executors: 1,
            max_retained_bytes: 1,
            ..EngineOptions::default()
        }));
        let handle = serve(engine.clone(), &ServiceOptions::default()).unwrap();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        let sub = roundtrip(
            &mut conn,
            r#"{"cmd": "submit", "pdn_nx": 16, "pdn_ny": 16, "t_stop": 1e-9, "dt_out": 2e-11}"#,
        );
        assert!(sub[0].contains("\"job\": 0"), "{sub:?}");
        let (meta, records) = exchange(&mut conn, r#"{"cmd": "stream", "job": 0}"#);
        assert!(meta[0].contains("\"frames\": 2"), "{meta:?}"); // 51 points / 32
        let wire: usize = records.iter().map(Vec::len).sum();
        assert!(wire > REPLY_BUFFER_BYTES, "{wire} bytes");
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        assert_eq!(records_hash(&records), standalone_hash(&pdn(16), &spec, 32));
        let stats = roundtrip(&mut conn, r#"{"cmd": "stats"}"#);
        assert!(stats[0].contains("\"retained_jobs\": 1"), "{stats:?}");
        assert_eq!(engine.stats().retained_jobs, 1);
        handle.stop();
    }

    #[test]
    fn accepted_sockets_run_without_nagle_and_with_timeouts() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let timeout = Some(Duration::from_secs(3));
        configure_socket(&accepted, timeout).unwrap();
        assert!(accepted.nodelay().unwrap());
        assert_eq!(accepted.read_timeout().unwrap(), timeout);
        assert_eq!(accepted.write_timeout().unwrap(), timeout);
    }

    #[test]
    fn an_over_long_request_line_is_refused_and_closes_the_connection() {
        let (_engine, handle) = start();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        // Well past the cap, and no newline: the peer is still sending
        // when the server refuses the line. Every byte is accepted (no
        // reset), and the envelope arrives before the server's EOF.
        let line = vec![b'x'; MAX_REQUEST_BYTES as usize + (4 << 20)];
        conn.write_all(&line).unwrap();
        conn.flush().unwrap();
        let mut reader = BufReader::new(conn);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.contains("\"ok\": false"), "{reply}");
        assert!(reply.contains("\"code\": \"protocol\""), "{reply}");
        assert!(reply.contains("exceeds"), "{reply}");
        // Closed: nothing follows the error envelope.
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0);
        // The server itself still serves a new connection.
        let mut next = TcpStream::connect(handle.addr()).unwrap();
        let stats = roundtrip(&mut next, r#"{"cmd": "stats"}"#);
        assert!(stats[0].contains("\"ok\": true"), "{stats:?}");
        handle.stop();
    }
}
