//! Load generator for the TCP service.
//!
//! Drives N concurrent clients through identical job sequences and
//! measures what a serving system is judged on: throughput (jobs/s),
//! latency percentiles (p50/p99 of submit→stream-complete), overload
//! behavior (admission rejections are counted separately from
//! failures), and **determinism** — every client decodes each job's
//! streamed binary [`WaveFrame`] records and hashes their content, and
//! for every job index the hashes must agree across all clients that
//! completed it (the engine's bitwise-replay contract, observed end to
//! end through the wire, robust to per-client shed load). Every client
//! opens with the protocol-2 `hello` and checks the grant; the report
//! totals the stream bytes received.
//!
//! Adversarial client behaviors are modeled by [`LoadMode`]:
//! synchronized [`LoadMode::Burst`] waves that hit the service's
//! admission queue all at once, and [`LoadMode::SlowReader`] clients
//! that drain stream frames with a per-frame delay (exercising the
//! service's write-timeout defenses). Heavy-tailed job-size mixes are
//! a property of the job *list*, not the client loop — build one from
//! spread-out `pdn_*` parameters (see the `matex-serve load` binary's
//! `heavytail` mode).

use crate::json::escape;
use crate::{Priority, ServeError};
use matex_core::FaultHook;
use matex_waveform::{Fnv64, WaveFrame};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One client-side job template of a load run.
#[derive(Debug, Clone)]
pub struct LoadJob {
    /// Extra `submit` fields (for example
    /// `"pdn_nx": 8, "pdn_ny": 8` or a `"netlist"` — already escaped),
    /// joined into the request object.
    pub submit_fields: String,
    /// Window end (seconds).
    pub t_stop: f64,
    /// Output step (seconds).
    pub dt_out: f64,
    /// Optional uniform source scale.
    pub scale: Option<f64>,
    /// Optional what-if edit: scale one node's ground capacitance
    /// (`cap_row` / `cap_scale` submit fields).
    pub cap: Option<(usize, f64)>,
    /// Optional admission priority (the `priority` submit field).
    pub priority: Option<Priority>,
    /// Optional relative deadline in milliseconds (the `deadline_ms`
    /// submit field). Deadlined jobs may be rejected at submit under
    /// overload — that is the point: shed instead of queued late.
    pub deadline_ms: Option<f64>,
}

impl LoadJob {
    /// A synthetic-PDN job.
    pub fn pdn(nx: usize, ny: usize, loads: usize, features: usize, seed: u64) -> LoadJob {
        LoadJob {
            submit_fields: format!(
                "\"pdn_nx\": {nx}, \"pdn_ny\": {ny}, \"pdn_loads\": {loads}, \
                 \"pdn_features\": {features}, \"pdn_seed\": {seed}"
            ),
            t_stop: 1e-9,
            dt_out: 2e-11,
            scale: None,
            cap: None,
            priority: None,
            deadline_ms: None,
        }
    }

    /// An inline-netlist job.
    pub fn netlist(text: &str) -> LoadJob {
        LoadJob {
            submit_fields: format!("\"netlist\": \"{}\"", escape(text)),
            t_stop: 1e-9,
            dt_out: 2e-11,
            scale: None,
            cap: None,
            priority: None,
            deadline_ms: None,
        }
    }

    /// Sets the window (builder style).
    pub fn window(mut self, t_stop: f64, dt_out: f64) -> LoadJob {
        self.t_stop = t_stop;
        self.dt_out = dt_out;
        self
    }

    /// Sets the source scale (builder style).
    pub fn scaled(mut self, k: f64) -> LoadJob {
        self.scale = Some(k);
        self
    }

    /// Sets a what-if cap edit (builder style).
    pub fn cap_scaled(mut self, row: usize, factor: f64) -> LoadJob {
        self.cap = Some((row, factor));
        self
    }

    /// Sets the admission priority (builder style).
    pub fn priority(mut self, p: Priority) -> LoadJob {
        self.priority = Some(p);
        self
    }

    /// Sets a relative deadline in milliseconds (builder style).
    pub fn deadline_ms(mut self, ms: f64) -> LoadJob {
        self.deadline_ms = Some(ms);
        self
    }

    pub(crate) fn submit_line(&self) -> String {
        let mut line = format!(
            "{{\"cmd\": \"submit\", {}, \"t_stop\": {:e}, \"dt_out\": {:e}",
            self.submit_fields, self.t_stop, self.dt_out
        );
        if let Some(k) = self.scale {
            line.push_str(&format!(", \"scale\": {k:e}"));
        }
        if let Some((row, factor)) = self.cap {
            line.push_str(&format!(", \"cap_row\": {row}, \"cap_scale\": {factor:e}"));
        }
        if let Some(p) = self.priority {
            line.push_str(&format!(", \"priority\": \"{}\"", p.as_str()));
        }
        if let Some(ms) = self.deadline_ms {
            line.push_str(&format!(", \"deadline_ms\": {ms:e}"));
        }
        line.push('}');
        line
    }
}

/// How the clients drive their sequences.
#[derive(Debug, Clone, Default)]
pub enum LoadMode {
    /// Each client runs straight through its sequence at full speed.
    #[default]
    Steady,
    /// Synchronized waves: every client rendezvouses at a barrier
    /// before each job, so submissions hit the admission queue
    /// simultaneously — the adversarial overload pattern the engine's
    /// bounded queue and deadline triage exist for.
    Burst,
    /// Clients drain stream frames slowly, sleeping between frame
    /// reads. Exercises the service's slow-peer defenses (a delay
    /// beyond the service's `io_timeout` gets the connection dropped,
    /// which the report surfaces as failures).
    SlowReader {
        /// Sleep inserted after each received frame.
        frame_delay: Duration,
    },
}

/// The handshake every load client sends on connect.
pub(crate) const HELLO: &str = "{\"cmd\": \"hello\", \"proto\": 2, \"frames\": \"binary\"}";

/// A load-generation request: `clients` concurrent connections each
/// running the whole `jobs` sequence, in order.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Service address (`host:port`).
    pub addr: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// The job sequence every client runs.
    pub jobs: Vec<LoadJob>,
    /// Client pacing/draining behavior.
    pub mode: LoadMode,
    /// Per-job retry budget (default 0: shed load is final). A rejected
    /// submit sleeps the server's `retry_after_ms` hint and resubmits;
    /// a dropped connection reconnects (redoing the handshake) and
    /// resubmits the in-flight job. Retried jobs vote in the
    /// determinism check with the hash of their *successful* attempt
    /// only, so recovery must reproduce the fault-free bytes.
    pub max_retries: usize,
    /// Fault-injection hook consulted at `"loadgen.conn"` once per
    /// stream drain: a firing kills the TCP connection mid-stream, the
    /// failure mode `max_retries` exists to absorb. Disarmed by
    /// default. Shared by every client, so one seeded plan schedules
    /// faults fleet-wide.
    pub faults: FaultHook,
    /// Client-side observability (disabled by default). When enabled,
    /// every client records a `loadgen.job` span per attempt and feeds
    /// submit→stream-complete latency into the `loadgen_job_seconds`
    /// histogram (labeled by outcome and by client index), and the
    /// report carries a merged Chrome trace — the clients' spans
    /// concatenated with the server's own timeline fetched over the
    /// `trace` verb.
    pub obs: matex_obs::Obs,
}

impl LoadSpec {
    /// A steady-mode spec (the common case).
    pub fn new(addr: String, clients: usize, jobs: Vec<LoadJob>) -> LoadSpec {
        LoadSpec {
            addr,
            clients,
            jobs,
            mode: LoadMode::Steady,
            max_retries: 0,
            faults: FaultHook::default(),
            obs: matex_obs::Obs::disabled(),
        }
    }

    /// Sets the client mode (builder style).
    pub fn mode(mut self, mode: LoadMode) -> LoadSpec {
        self.mode = mode;
        self
    }

    /// Sets the per-job retry budget (builder style).
    pub fn retries(mut self, max_retries: usize) -> LoadSpec {
        self.max_retries = max_retries;
        self
    }

    /// Arms the connection-fault hook (builder style).
    pub fn faults(mut self, faults: FaultHook) -> LoadSpec {
        self.faults = faults;
        self
    }

    /// Enables client-side observability (builder style).
    pub fn obs(mut self, obs: matex_obs::Obs) -> LoadSpec {
        self.obs = obs;
        self
    }
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Jobs completed successfully (across all clients).
    pub completed: usize,
    /// Jobs that failed (protocol/solve errors, dropped connections).
    pub failed: usize,
    /// Jobs admission rejected at submit (queue full / deadline
    /// unmeetable) — shed load, counted apart from failures.
    pub rejected: usize,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Throughput over the whole run.
    pub jobs_per_s: f64,
    /// Median submit→stream-complete latency (completed jobs only).
    pub p50: Duration,
    /// 99th-percentile latency (max for small samples).
    pub p99: Duration,
    /// Per-client whole-run hash, in client order: every streamed
    /// frame's content, fed in arrival order. Comparable across
    /// clients only when no load was shed.
    pub stream_hashes: Vec<u64>,
    /// `true` when, for every job index, all clients that completed it
    /// streamed identical frames (the per-job vote hashes decoded
    /// [`WaveFrame`] content). Robust to per-client shed load:
    /// rejected/failed jobs simply don't vote.
    pub deterministic: bool,
    /// Jobs whose setup was served by the what-if fast path (from the
    /// per-job `wait` status lines).
    pub whatif_hits: usize,
    /// Stream frame bytes received by all clients (length prefixes
    /// included).
    pub stream_bytes: u64,
    /// Resubmissions after a `retry_after_ms` rejection hint (jobs
    /// that eventually completed count under `completed`, not
    /// `rejected`).
    pub retries: usize,
    /// Reconnections after a dropped connection, each followed by a
    /// resubmit of the in-flight job.
    pub reconnects: usize,
    /// Merged Chrome trace JSON — the clients' `loadgen.job` spans
    /// concatenated with the server's timeline (fetched over the
    /// `trace` verb after the run). Present only when [`LoadSpec::obs`]
    /// was enabled. Each side's timestamps are relative to its own
    /// recorder epoch, so the two timelines align per-side, not to each
    /// other — good enough to read each job's queue/solve phase split
    /// next to the client-observed latency.
    pub trace_json: Option<String>,
}

impl LoadReport {
    /// Fraction of completed jobs served by the what-if fast path.
    pub fn whatif_rate(&self) -> f64 {
        self.whatif_hits as f64 / self.completed.max(1) as f64
    }

    /// Fraction of offered jobs admission shed.
    pub fn rejection_rate(&self) -> f64 {
        let offered = self.completed + self.failed + self.rejected;
        self.rejected as f64 / offered.max(1) as f64
    }
}

/// Runs the load: spawns the clients, drives the sequences, aggregates.
///
/// # Errors
///
/// Returns [`ServeError::Io`] when a client cannot connect; per-job
/// failures and rejections are counted, not fatal.
pub fn run_load(spec: &LoadSpec) -> Result<LoadReport, ServeError> {
    let t0 = Instant::now();
    let clients = spec.clients.max(1);
    // Burst mode synchronizes every client's submits through one
    // barrier — one wave per job index.
    let barrier = match spec.mode {
        LoadMode::Burst => Some(Arc::new(Barrier::new(clients))),
        _ => None,
    };
    let mut handles = Vec::new();
    for i in 0..clients {
        let addr = spec.addr.clone();
        let jobs = spec.jobs.clone();
        let mode = spec.mode.clone();
        let barrier = barrier.clone();
        let max_retries = spec.max_retries;
        // Clones share occurrence counters: one plan schedules the fleet.
        let faults = spec.faults.clone();
        // Clients share one recorder; each tags its spans by index.
        let obs = spec.obs.clone();
        handles.push(std::thread::spawn(move || {
            client_run(&addr, &jobs, &mode, barrier, max_retries, &faults, &obs, i)
        }));
    }
    let mut latencies: Vec<Duration> = Vec::new();
    let mut stream_hashes = Vec::new();
    let mut job_hashes: Vec<Vec<Option<u64>>> = Vec::new();
    let mut completed = 0usize;
    let mut failed = 0usize;
    let mut rejected = 0usize;
    let mut whatif_hits = 0usize;
    let mut stream_bytes = 0u64;
    let mut retries = 0usize;
    let mut reconnects = 0usize;
    for h in handles {
        let outcome = h
            .join()
            .map_err(|_| ServeError::Io("load client panicked".into()))??;
        completed += outcome.completed;
        failed += outcome.failed;
        rejected += outcome.rejected;
        whatif_hits += outcome.whatif_hits;
        retries += outcome.retries;
        reconnects += outcome.reconnects;
        stream_bytes += outcome.stream_bytes;
        latencies.extend(outcome.latencies);
        stream_hashes.push(outcome.stream_hash);
        job_hashes.push(outcome.job_hashes);
    }
    let wall = t0.elapsed();
    latencies.sort();
    let pick = |q: f64| {
        if latencies.is_empty() {
            Duration::ZERO
        } else {
            let idx = ((latencies.len() as f64 - 1.0) * q).round() as usize;
            latencies[idx]
        }
    };
    // Per-job-index agreement among the clients that completed that
    // job: the determinism verdict must survive partial shed.
    let deterministic = (0..spec.jobs.len()).all(|j| {
        let mut seen: Option<u64> = None;
        job_hashes
            .iter()
            .filter_map(|client| client.get(j).copied().flatten())
            .all(|h| *seen.get_or_insert(h) == h)
    });
    // Merge the fleet's client-side spans with the server's timeline
    // into one Chrome trace. A server without the `trace` verb (or an
    // unreachable one) degrades to a client-only trace.
    let trace_json = spec.obs.is_enabled().then(|| {
        let server = fetch_trace_events(&spec.addr).unwrap_or_else(|_| "[]".into());
        merge_chrome_traces(&[&spec.obs.chrome_trace_events(), &server])
    });
    Ok(LoadReport {
        completed,
        failed,
        rejected,
        jobs_per_s: completed as f64 / wall.as_secs_f64().max(1e-9),
        wall,
        p50: pick(0.5),
        p99: pick(0.99),
        stream_hashes,
        deterministic,
        whatif_hits,
        stream_bytes,
        retries,
        reconnects,
        trace_json,
    })
}

/// Fetches the server's Chrome-trace event array over the `trace` verb.
fn fetch_trace_events(addr: &str) -> Result<String, ServeError> {
    let mut conn = Conn::connect(addr)?;
    writeln!(conn.writer, "{{\"cmd\": \"trace\"}}")?;
    conn.writer.flush()?;
    let line = conn.read_line()?;
    let pat = "\"events\": ";
    let at = line
        .find(pat)
        .ok_or_else(|| ServeError::Protocol(format!("no events in trace response: {line}")))?;
    // The array runs to the envelope's final closing brace.
    let events = line[at + pat.len()..].trim_end();
    Ok(events
        .strip_suffix('}')
        .unwrap_or(events)
        .trim()
        .to_string())
}

/// Concatenates Chrome-trace event arrays into one complete trace
/// document (openable in `chrome://tracing` / Perfetto).
fn merge_chrome_traces(parts: &[&str]) -> String {
    let mut events = String::from("[");
    for p in parts {
        let inner = p
            .trim()
            .strip_prefix('[')
            .and_then(|s| s.strip_suffix(']'))
            .unwrap_or("")
            .trim();
        if inner.is_empty() {
            continue;
        }
        if events.len() > 1 {
            events.push(',');
        }
        events.push_str(inner);
    }
    events.push(']');
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":{events}}}")
}

struct ClientOutcome {
    completed: usize,
    failed: usize,
    rejected: usize,
    latencies: Vec<Duration>,
    stream_hash: u64,
    /// Per job index: the canonical content hash of that job's decoded
    /// frames, `None` when the job was rejected or failed for this
    /// client.
    job_hashes: Vec<Option<u64>>,
    whatif_hits: usize,
    /// Stream frame bytes this client received off the wire.
    stream_bytes: u64,
    retries: usize,
    reconnects: usize,
}

/// One client connection, re-establishable after a drop: `connect`
/// redoes the TCP dial *and* the handshake.
struct Conn {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, ServeError> {
        let stream = TcpStream::connect(addr)?;
        // Requests go out whole, not held behind an unacknowledged one.
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            writer: BufWriter::new(stream.try_clone()?),
            reader: BufReader::new(stream),
        };
        // A server that does not grant binary frames would
        // desynchronize every stream read below, so the grant is
        // verified, not assumed.
        writeln!(conn.writer, "{HELLO}")?;
        conn.writer.flush()?;
        let ack = conn.read_line()?;
        if !ack.contains("\"frames\": \"binary\"") {
            return Err(ServeError::Protocol(format!(
                "server refused binary frames: {ack}"
            )));
        }
        Ok(conn)
    }

    fn read_line(&mut self) -> Result<String, ServeError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ServeError::Io("server closed the connection".into()));
        }
        Ok(line.trim_end().to_string())
    }
}

/// How one submit→wait→stream transaction ended. Connection-level
/// failures surface as `Err` from [`run_one_job`] instead — those are
/// the cases where the connection is dead and must be re-dialed.
enum JobTry {
    /// Completed: the canonical content hash of the streamed frames.
    Completed { job_hash: u64, whatif: bool },
    /// Admission shed the job; the server's back-off hint, when present.
    Rejected { retry_after_ms: Option<u64> },
    /// The server answered but the job failed (protocol/solve error).
    Failed,
}

/// Drives one job through submit→wait→stream on a live connection.
/// `Err` means the connection itself died (the injected
/// `"loadgen.conn"` fault severs it mid-stream, exactly like a crashed
/// network path) — the caller reconnects and resubmits.
fn run_one_job(
    conn: &mut Conn,
    job: &LoadJob,
    frame_delay: Option<Duration>,
    faults: &FaultHook,
    run_hash: &mut Fnv64,
    stream_bytes: &mut u64,
) -> Result<JobTry, ServeError> {
    writeln!(conn.writer, "{}", job.submit_line())?;
    conn.writer.flush()?;
    let submitted = conn.read_line()?;
    if submitted.contains("\"code\": \"rejected\"") {
        return Ok(JobTry::Rejected {
            retry_after_ms: extract_uint(&submitted, "\"retry_after_ms\": "),
        });
    }
    let Some(id) = extract_uint(&submitted, "\"job\": ") else {
        return Ok(JobTry::Failed);
    };
    // Resolve through `wait` first: its status line reports whether
    // the setup came off the what-if fast path. (Status lines are
    // not part of the determinism hash — they carry wall times.)
    writeln!(conn.writer, "{{\"cmd\": \"wait\", \"job\": {id}}}")?;
    conn.writer.flush()?;
    let status = conn.read_line()?;
    let whatif = status.contains("\"whatif\": true");
    writeln!(conn.writer, "{{\"cmd\": \"stream\", \"job\": {id}}}")?;
    conn.writer.flush()?;
    let meta = conn.read_line()?;
    let Some(frames) = extract_uint(&meta, "\"frames\": ") else {
        return Ok(JobTry::Failed);
    };
    if faults.check("loadgen.conn").is_some() {
        // Sever the socket mid-stream, like a killed network path, and
        // report it here: frames already in the receive buffer still
        // read after the shutdown, so the reads below may not fail.
        // Recovery must reconnect + resubmit.
        conn.reader.get_ref().shutdown(Shutdown::Both).ok();
        return Err(ServeError::Io("injected connection kill".into()));
    }
    let mut ok = true;
    let mut job_hash = Fnv64::new();
    for _ in 0..frames {
        // The decoded frame's content hash is the determinism witness.
        match read_frame(&mut conn.reader, stream_bytes)? {
            Some(wf) => {
                wf.feed(run_hash);
                wf.feed(&mut job_hash);
            }
            None => ok = false,
        }
        if let Some(d) = frame_delay {
            std::thread::sleep(d);
        }
    }
    Ok(if ok {
        JobTry::Completed {
            job_hash: job_hash.finish(),
            whatif,
        }
    } else {
        JobTry::Failed
    })
}

#[allow(clippy::too_many_arguments)]
fn client_run(
    addr: &str,
    jobs: &[LoadJob],
    mode: &LoadMode,
    barrier: Option<Arc<Barrier>>,
    max_retries: usize,
    faults: &FaultHook,
    obs: &matex_obs::Obs,
    client: usize,
) -> Result<ClientOutcome, ServeError> {
    let mut conn = Conn::connect(addr)?;
    // Under injected faults the whole-run hash also absorbs partial
    // attempts, so only the per-job hashes — successful attempts only —
    // vote on determinism.
    let mut hash = Fnv64::new();
    let mut latencies = Vec::with_capacity(jobs.len());
    let mut job_hashes: Vec<Option<u64>> = Vec::with_capacity(jobs.len());
    let mut completed = 0usize;
    let mut failed = 0usize;
    let mut rejected = 0usize;
    let mut whatif_hits = 0usize;
    let mut stream_bytes = 0u64;
    let mut retries = 0usize;
    let mut reconnects = 0usize;
    let frame_delay = match mode {
        LoadMode::SlowReader { frame_delay } => Some(*frame_delay),
        _ => None,
    };
    for (jidx, job) in jobs.iter().enumerate() {
        // Burst: rendezvous so every client's submit lands in the same
        // instant — a synchronized wave against the admission queue.
        if let Some(b) = &barrier {
            b.wait();
        }
        let t0 = Instant::now();
        // Bounded per-job recovery: rejections sleep the server's hint
        // and resubmit; dead connections re-dial and resubmit. Either
        // way the job's determinism vote comes from the attempt that
        // completed.
        let mut attempts = 0usize;
        let mut outcome = "failed";
        let vote = loop {
            match run_one_job(
                &mut conn,
                job,
                frame_delay,
                faults,
                &mut hash,
                &mut stream_bytes,
            ) {
                Ok(JobTry::Completed { job_hash, whatif }) => {
                    if whatif {
                        whatif_hits += 1;
                    }
                    completed += 1;
                    latencies.push(t0.elapsed());
                    outcome = "completed";
                    break Some(job_hash);
                }
                Ok(JobTry::Rejected { retry_after_ms }) => {
                    if attempts >= max_retries {
                        rejected += 1;
                        outcome = "rejected";
                        break None;
                    }
                    attempts += 1;
                    retries += 1;
                    // Honor the hint, but never sleep unboundedly on a
                    // hostile or confused server.
                    let ms = retry_after_ms.unwrap_or(1).clamp(1, 1_000);
                    std::thread::sleep(Duration::from_millis(ms));
                }
                Ok(JobTry::Failed) => {
                    failed += 1;
                    break None;
                }
                Err(_) => {
                    // The connection died (dropped, or the injected
                    // mid-stream kill). Re-dial — the handshake is part
                    // of `connect` — and resubmit unless the budget is
                    // spent. A failed re-dial is fatal for the client.
                    conn = Conn::connect(addr)?;
                    reconnects += 1;
                    if attempts >= max_retries {
                        failed += 1;
                        break None;
                    }
                    attempts += 1;
                }
            }
        };
        // The client-observed latency: submit through stream-complete,
        // retries and reconnects included — what a caller would feel.
        if obs.is_enabled() {
            let d = t0.elapsed();
            let client_label = client.to_string();
            obs.record_span(
                "loadgen.job",
                jidx as u64,
                t0,
                d,
                &[("client", &client_label), ("outcome", outcome)],
            );
            obs.observe_labeled("loadgen_job_seconds", &[("outcome", outcome)], d);
        }
        job_hashes.push(vote);
    }
    Ok(ClientOutcome {
        completed,
        failed,
        rejected,
        latencies,
        stream_hash: hash.finish(),
        job_hashes,
        whatif_hits,
        stream_bytes,
        retries,
        reconnects,
    })
}

/// Reads one length-prefixed binary [`WaveFrame`] record off the
/// connection. I/O failures and a bad length prefix are fatal (the
/// stream is desynchronized); a malformed payload decodes to `None`
/// (counted as a job failure).
fn read_frame(
    reader: &mut BufReader<TcpStream>,
    stream_bytes: &mut u64,
) -> Result<Option<WaveFrame>, ServeError> {
    let mut prefix = [0u8; 8];
    reader.read_exact(&mut prefix)?;
    let (len, _) =
        WaveFrame::decode_len(&prefix).map_err(|e| ServeError::Protocol(e.to_string()))?;
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    *stream_bytes += 8 + len as u64;
    Ok(WaveFrame::decode_payload(&payload).ok())
}

/// Pulls the unsigned integer following `pat` out of a response line.
fn extract_uint(line: &str, pat: &str) -> Option<u64> {
    let at = line.find(pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{serve, EngineOptions, ScenarioEngine, ServiceOptions};
    use std::sync::Arc;

    #[test]
    fn four_clients_are_deterministic() {
        let engine = Arc::new(ScenarioEngine::new(EngineOptions {
            executors: 4,
            threads: Some(4),
            ..EngineOptions::default()
        }));
        let handle = serve(engine, &ServiceOptions::default()).unwrap();
        let jobs = vec![
            LoadJob::pdn(6, 6, 8, 3, 1),
            LoadJob::pdn(6, 6, 8, 3, 1).scaled(1.25),
            LoadJob::pdn(5, 7, 6, 2, 2),
        ];
        let report = run_load(&LoadSpec::new(handle.addr().to_string(), 4, jobs)).unwrap();
        assert_eq!(report.completed, 12);
        assert_eq!(report.failed, 0);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.rejection_rate(), 0.0);
        assert_eq!(report.stream_hashes.len(), 4);
        assert!(
            report.deterministic,
            "clients saw different bytes: {:x?}",
            report.stream_hashes
        );
        // Nothing was shed, so every client's whole run hashes alike
        // and the four received the same number of frame bytes.
        assert!(report
            .stream_hashes
            .iter()
            .all(|&h| h == report.stream_hashes[0]));
        assert!(report.stream_bytes > 0 && report.stream_bytes.is_multiple_of(4));
        assert!(report.p99 >= report.p50);
        assert!(report.jobs_per_s > 0.0);
        handle.stop();
    }

    #[test]
    fn whatif_burst_hits_fast_path_and_stays_deterministic() {
        let engine = Arc::new(ScenarioEngine::new(EngineOptions {
            executors: 3,
            threads: Some(3),
            ..EngineOptions::default()
        }));
        let handle = serve(engine.clone(), &ServiceOptions::default()).unwrap();
        // Base job first, then a burst of small cap edits. Each client
        // resolves its base before submitting the variants, so every
        // variant finds a cached base setup to correct against.
        let jobs = vec![
            LoadJob::pdn(6, 6, 8, 3, 5),
            LoadJob::pdn(6, 6, 8, 3, 5).cap_scaled(3, 1.5),
            LoadJob::pdn(6, 6, 8, 3, 5).cap_scaled(7, 2.0),
            LoadJob::pdn(6, 6, 8, 3, 5).cap_scaled(11, 2.5),
        ];
        let report = run_load(&LoadSpec::new(handle.addr().to_string(), 3, jobs)).unwrap();
        assert_eq!(report.completed, 12);
        assert_eq!(report.failed, 0);
        assert!(
            report.deterministic,
            "clients saw different bytes: {:x?}",
            report.stream_hashes
        );
        // Every edit variant is corrected once; the repeats across
        // clients are direct setup hits. At least the first client's
        // burst rode the fast path.
        assert!(report.whatif_hits >= 3, "hits {}", report.whatif_hits);
        assert!(report.whatif_rate() > 0.0);
        let stats = engine.stats();
        // Exactly 3 corrections unless clients raced the same edit
        // (both miss, both correct; the duplicate insert is dropped).
        assert!(stats.whatif_hits >= 3);
        assert_eq!(stats.whatif_fallbacks, 0);
        handle.stop();
    }

    #[test]
    fn burst_waves_stay_deterministic_and_slow_readers_finish() {
        let engine = Arc::new(ScenarioEngine::new(EngineOptions {
            executors: 2,
            threads: Some(2),
            ..EngineOptions::default()
        }));
        let handle = serve(engine, &ServiceOptions::default()).unwrap();
        let jobs = vec![
            LoadJob::pdn(6, 6, 8, 3, 9),
            LoadJob::pdn(6, 6, 8, 3, 9).scaled(1.5),
        ];
        let burst = run_load(
            &LoadSpec::new(handle.addr().to_string(), 3, jobs.clone()).mode(LoadMode::Burst),
        )
        .unwrap();
        assert_eq!(burst.completed, 6, "burst: {burst:?}");
        assert!(burst.deterministic);
        // A slow reader drains the same bytes, just later — it must
        // neither fail (delay ≪ io_timeout) nor diverge.
        let slow = run_load(&LoadSpec::new(handle.addr().to_string(), 2, jobs).mode(
            LoadMode::SlowReader {
                frame_delay: Duration::from_millis(2),
            },
        ))
        .unwrap();
        assert_eq!(slow.completed, 4, "slow: {slow:?}");
        assert!(slow.deterministic);
        handle.stop();
    }

    #[test]
    fn observed_load_run_merges_client_and_server_traces() {
        let engine = Arc::new(ScenarioEngine::new(EngineOptions {
            executors: 2,
            threads: Some(2),
            obs: matex_obs::Obs::enabled(),
            ..EngineOptions::default()
        }));
        let handle = serve(engine, &ServiceOptions::default()).unwrap();
        let jobs = vec![
            LoadJob::pdn(6, 6, 8, 3, 1),
            LoadJob::pdn(6, 6, 8, 3, 1).scaled(1.25),
        ];
        let client_obs = matex_obs::Obs::enabled();
        let spec = LoadSpec::new(handle.addr().to_string(), 2, jobs).obs(client_obs.clone());
        let report = run_load(&spec).unwrap();
        assert_eq!(report.completed, 4, "{report:?}");
        // Client-side latency histogram: every job observed.
        let (p50, _, p99) = client_obs.quantiles("loadgen_job_seconds");
        assert!(p50 > 0.0 && p99 >= p50);
        // The merged trace carries both sides of the wire: the clients'
        // job spans and the engine's queue/run/solver phases.
        let trace = report.trace_json.as_deref().expect("trace present");
        assert!(
            trace.starts_with("{\"displayTimeUnit\""),
            "{}",
            &trace[..40]
        );
        for site in ["loadgen.job", "engine.run", "solver.expm"] {
            assert!(trace.contains(site), "missing {site} in merged trace");
        }
        handle.stop();
    }

    #[test]
    fn extract_uint_parses_fields() {
        assert_eq!(extract_uint("{\"job\": 42}", "\"job\": "), Some(42));
        assert_eq!(extract_uint("{\"x\": 1}", "\"job\": "), None);
    }

    #[test]
    fn killed_connections_reconnect_resubmit_and_recover_bitwise() {
        use matex_core::{FaultKind, FaultPlan};
        let engine = Arc::new(ScenarioEngine::new(EngineOptions {
            executors: 3,
            threads: Some(3),
            ..EngineOptions::default()
        }));
        let handle = serve(engine, &ServiceOptions::default()).unwrap();
        let jobs = vec![
            LoadJob::pdn(6, 6, 8, 3, 1),
            LoadJob::pdn(6, 6, 8, 3, 1).scaled(1.25),
            LoadJob::pdn(5, 7, 6, 2, 2),
        ];
        // Two stream drains (fleet-wide occurrence indices 1 and 4) get
        // their sockets killed mid-stream. The victims reconnect, redo
        // the handshake, resubmit — and their recovered jobs must vote
        // identically to the clients that never faulted: that vote IS
        // the bitwise-equal-to-fault-free check, observed end to end
        // through the wire.
        let spec = LoadSpec::new(handle.addr().to_string(), 3, jobs)
            .retries(2)
            .faults(FaultHook::new(
                FaultPlan::new()
                    .fail_at("loadgen.conn", 1, FaultKind::Error)
                    .fail_at("loadgen.conn", 4, FaultKind::Error),
            ));
        let report = run_load(&spec).unwrap();
        assert_eq!(report.completed, 9, "{report:?}");
        assert_eq!(report.failed, 0, "{report:?}");
        assert_eq!(report.rejected, 0);
        assert!(report.reconnects >= 2, "{report:?}");
        assert!(
            report.deterministic,
            "recovered waveforms diverged: {:x?}",
            report.stream_hashes
        );
        handle.stop();
    }

    #[test]
    fn an_injected_kill_fires_even_when_the_stream_is_already_buffered() {
        use matex_core::{FaultKind, FaultPlan};
        use std::io::{BufRead, Read};
        // A one-frame stream sent in the same write as its meta line:
        // the client holds the whole reply before the kill, so only a
        // kill that reports itself costs the reconnect it promises.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let frame = WaveFrame {
                frame: 0,
                start: 0,
                times: vec![0.0],
                series: vec![vec![1.0]],
            };
            let mut meta = b"{\"ok\": true, \"code\": \"ok\", \"frames\": 1}\n".to_vec();
            meta.extend(frame.encode());
            let replies = [
                b"{\"ok\": true, \"code\": \"ok\", \"job\": 0}\n".to_vec(),
                b"{\"ok\": true, \"code\": \"ok\", \"state\": \"done\"}\n".to_vec(),
                meta,
            ];
            for reply in replies {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                writer.write_all(&reply).unwrap();
            }
            // Hold the connection open until the client drops it.
            let _ = reader.read_to_end(&mut Vec::new());
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut conn = Conn {
            writer: BufWriter::new(stream.try_clone().unwrap()),
            reader: BufReader::new(stream),
        };
        let faults = FaultHook::new(FaultPlan::new().fail_at("loadgen.conn", 0, FaultKind::Error));
        let job = LoadJob::pdn(4, 4, 2, 1, 1);
        let outcome = run_one_job(&mut conn, &job, None, &faults, &mut Fnv64::new(), &mut 0);
        assert!(outcome.is_err(), "the kill did not fire");
        drop(conn);
        server.join().unwrap();
    }

    #[test]
    fn rejected_jobs_honor_the_retry_hint_and_eventually_complete() {
        let engine = Arc::new(ScenarioEngine::new(EngineOptions {
            executors: 1,
            threads: Some(2),
            max_queue: 1,
            retry_after_cap: Duration::from_millis(50),
            ..EngineOptions::default()
        }));
        let handle = serve(engine, &ServiceOptions::default()).unwrap();
        // A synchronized wave of 4 against a queue of 1: most of the
        // wave is shed with a back-off hint. Polite clients sleep the
        // hint and resubmit until the queue drains.
        let jobs = vec![LoadJob::pdn(6, 6, 8, 3, 4)];
        let spec = LoadSpec::new(handle.addr().to_string(), 4, jobs)
            .mode(LoadMode::Burst)
            .retries(50);
        let report = run_load(&spec).unwrap();
        assert_eq!(report.completed, 4, "{report:?}");
        assert_eq!(report.failed, 0);
        assert_eq!(report.rejected, 0, "budget was generous: {report:?}");
        assert!(report.retries > 0, "queue pressure never shed: {report:?}");
        assert!(report.deterministic);
        handle.stop();
    }
}
