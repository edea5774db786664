//! The harness's TCP client: a plain `TcpStream` speaking `hello`
//! (binary frames) / `submit` / `wait` / `stream` / `stats`. Like
//! `matex_serve::run_load` it sets no socket options beyond timeouts, so
//! what it times is what a user's client sees.

use matex_serve::{parse_flat_json, JsonValue};
use matex_waveform::{Fnv64, WaveFrame};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A reply line, parsed.
pub type Reply = HashMap<String, JsonValue>;

/// One connection, upgraded to binary frames.
#[derive(Debug)]
pub struct Client {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
}

/// What `wait` said about a finished job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waited {
    /// `wall_us` of the reply: the engine's own execution time.
    pub engine_ms: f64,
    /// The setup was an in-memory cache hit.
    pub warm: bool,
    /// The setup was served by the what-if fast path.
    pub whatif: bool,
}

/// A fully decoded stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Streamed {
    /// Chained canonical hash of every frame, in order.
    pub hash: u64,
    /// Frame bytes read off the wire (length prefixes included).
    pub bytes: u64,
    /// The decoded rows, concatenated over the frames (`rows × points`).
    pub series: Vec<Vec<f64>>,
}

/// One job's client-side timeline: contiguous, so the three parts sum
/// to the job time exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTimes {
    /// Submit line written → job id read.
    pub ack_ms: f64,
    /// `wait` written → status line read.
    pub wait_ms: f64,
    /// `stream` written → last frame decoded.
    pub stream_ms: f64,
    /// When the submit line was written.
    pub started: Instant,
}

impl JobTimes {
    /// Submit line in → last waveform sample decoded.
    pub fn total_ms(&self) -> f64 {
        self.ack_ms + self.wait_ms + self.stream_ms
    }
}

fn bad(what: &str, line: &str) -> String {
    let head: String = line.chars().take(160).collect();
    format!("{what}: {head}")
}

fn parse_ok(line: &str) -> Result<Reply, String> {
    let reply = parse_flat_json(line).map_err(|e| bad(&e, line))?;
    match reply.get("ok") {
        Some(JsonValue::Bool(true)) => Ok(reply),
        _ => Err(bad("service refused", line)),
    }
}

fn num(reply: &Reply, key: &str, line: &str) -> Result<f64, String> {
    reply
        .get(key)
        .and_then(JsonValue::as_num)
        .ok_or_else(|| bad(&format!("reply has no numeric {key:?}"), line))
}

fn flag(reply: &Reply, key: &str) -> bool {
    matches!(reply.get(key), Some(JsonValue::Bool(true)))
}

impl Client {
    /// Connects and negotiates protocol 2 with binary frames.
    ///
    /// # Errors
    ///
    /// Connection failures, or a server that does not grant binary
    /// frames (every later stream read would desynchronize).
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let timeout = Some(Duration::from_secs(60));
        stream
            .set_read_timeout(timeout)
            .and_then(|()| stream.set_write_timeout(timeout))
            .map_err(|e| format!("socket timeouts: {e}"))?;
        let mut c = Client {
            writer: BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?),
            reader: BufReader::new(stream),
        };
        let line = c.request("{\"cmd\": \"hello\", \"proto\": 2, \"frames\": \"binary\"}")?;
        let ack = parse_ok(&line)?;
        if ack.get("frames").and_then(JsonValue::as_str) != Some("binary") {
            return Err(bad("binary frames not granted", &line));
        }
        Ok(c)
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("write: {e}"))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn request(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.read_line()
    }

    /// Sends a submit line; returns the job id.
    ///
    /// # Errors
    ///
    /// I/O failures, rejections and protocol errors, as text.
    pub fn submit(&mut self, line: &str) -> Result<u64, String> {
        let reply_line = self.request(line)?;
        let reply = parse_ok(&reply_line)?;
        Ok(num(&reply, "job", &reply_line)? as u64)
    }

    /// Blocks until the job resolves.
    ///
    /// # Errors
    ///
    /// I/O failures, or a job that did not end `done`.
    pub fn wait(&mut self, job: u64) -> Result<Waited, String> {
        let line = self.request(&format!("{{\"cmd\": \"wait\", \"job\": {job}}}"))?;
        let reply = parse_ok(&line)?;
        if reply.get("state").and_then(JsonValue::as_str) != Some("done") {
            return Err(bad("job did not complete", &line));
        }
        Ok(Waited {
            engine_ms: num(&reply, "wall_us", &line)? / 1e3,
            warm: flag(&reply, "warm"),
            whatif: flag(&reply, "whatif"),
        })
    }

    /// Streams and decodes the job's whole waveform.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed frames.
    pub fn stream(&mut self, job: u64) -> Result<Streamed, String> {
        let line = self.request(&format!("{{\"cmd\": \"stream\", \"job\": {job}}}"))?;
        let meta = parse_ok(&line)?;
        let frames = num(&meta, "frames", &line)? as usize;
        let rows = num(&meta, "rows", &line)? as usize;
        let points = num(&meta, "points", &line)? as usize;
        let mut hash = Fnv64::new();
        let mut bytes = 0u64;
        let mut series = vec![Vec::with_capacity(points); rows];
        let mut payload = Vec::new();
        for _ in 0..frames {
            let mut prefix = [0u8; 8];
            self.reader
                .read_exact(&mut prefix)
                .map_err(|e| format!("frame prefix: {e}"))?;
            let (len, _) = WaveFrame::decode_len(&prefix).map_err(|e| e.to_string())?;
            payload.resize(len, 0);
            self.reader
                .read_exact(&mut payload)
                .map_err(|e| format!("frame payload: {e}"))?;
            bytes += 8 + len as u64;
            let frame = WaveFrame::decode_payload(&payload).map_err(|e| e.to_string())?;
            if frame.rows() != rows {
                return Err(format!("frame has {} rows, meta said {rows}", frame.rows()));
            }
            frame.feed(&mut hash);
            for (all, part) in series.iter_mut().zip(&frame.series) {
                all.extend_from_slice(part);
            }
        }
        Ok(Streamed {
            hash: hash.finish(),
            bytes,
            series,
        })
    }

    /// One whole closed-loop job: submit, wait, stream, each timed.
    ///
    /// # Errors
    ///
    /// The first failing step's error.
    pub fn run_job(&mut self, submit_line: &str) -> Result<(JobTimes, Waited, Streamed), String> {
        let started = Instant::now();
        let job = self.submit(submit_line)?;
        let acked = Instant::now();
        let waited = self.wait(job)?;
        let resolved = Instant::now();
        let streamed = self.stream(job)?;
        let done = Instant::now();
        let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
        Ok((
            JobTimes {
                ack_ms: ms(started, acked),
                wait_ms: ms(acked, resolved),
                stream_ms: ms(resolved, done),
                started,
            },
            waited,
            streamed,
        ))
    }

    /// The engine's counters (`stats` verb), numeric fields only.
    ///
    /// # Errors
    ///
    /// I/O failures and protocol errors.
    pub fn stats(&mut self) -> Result<HashMap<String, f64>, String> {
        let line = self.request("{\"cmd\": \"stats\"}")?;
        Ok(parse_ok(&line)?
            .into_iter()
            .filter_map(|(k, v)| v.as_num().map(|n| (k, n)))
            .collect())
    }
}

/// The chained frame hash the service would stream for `times` ×
/// `series`, cut into `chunk`-point frames the way `matex_serve` cuts
/// them. Comparing it with [`Streamed::hash`] is the bitwise contract:
/// a served waveform equals a standalone run of the same circuit.
pub fn expected_stream_hash(times: &[f64], series: &[Vec<f64>], chunk: usize) -> u64 {
    let mut hash = Fnv64::new();
    for (f, start) in (0..times.len()).step_by(chunk).enumerate() {
        let end = (start + chunk).min(times.len());
        WaveFrame {
            frame: f as u64,
            start: start as u64,
            times: times[start..end].to_vec(),
            series: series.iter().map(|s| s[start..end].to_vec()).collect(),
        }
        .feed(&mut hash);
    }
    hash.finish()
}

/// Escapes netlist text for a JSON string field (SPICE text holds no
/// quotes or backslashes; line ends are all that needs care).
pub fn escape_netlist(text: &str) -> String {
    debug_assert!(!text.contains(['"', '\\']));
    text.replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{spread_rows, WirePdn};
    use matex_core::{MatexOptions, MatexSolver, TransientEngine, TransientSpec};
    use matex_serve::{serve, EngineOptions, ScenarioEngine, ServiceOptions};
    use std::sync::Arc;

    #[test]
    fn one_job_through_the_thin_client_matches_a_standalone_run() {
        let engine = Arc::new(ScenarioEngine::new(EngineOptions {
            threads: Some(2),
            ..EngineOptions::default()
        }));
        let opts = ServiceOptions::default();
        let handle = serve(engine, &opts).unwrap();
        let pdn = WirePdn {
            n: 8,
            loads: 10,
            features: 3,
            seed: 11,
            window: 1e-9,
        };
        let sys = pdn.builder().build().unwrap();
        let rows = spread_rows(sys.num_nodes(), 4);
        let row_list: Vec<String> = rows.iter().map(usize::to_string).collect();
        let line = format!(
            "{{\"cmd\": \"submit\", {}, \"t_stop\": 1e-9, \"dt_out\": 1e-11, \"rows\": \"{}\", \
             \"scale\": 1.25e0}}",
            pdn.submit_fields(),
            row_list.join(",")
        );
        let mut client = Client::connect(handle.addr()).unwrap();
        let (times, waited, streamed) = client.run_job(&line).unwrap();
        assert!(!waited.warm && !waited.whatif);
        assert!(waited.engine_ms > 0.0 && times.total_ms() >= waited.engine_ms);
        assert_eq!(streamed.series.len(), 4);
        assert_eq!(streamed.series[0].len(), 101);
        // 101 points in 32-point chunks: four frames of 4 rows.
        assert_eq!(streamed.bytes, 4 * (8 + 32) + 8 * 101 * (1 + 4));

        let spec = TransientSpec::new(0.0, 1e-9, 1e-11)
            .unwrap()
            .observing(rows);
        let alone = MatexSolver::new(MatexOptions::default())
            .run(&sys.with_scaled_sources(1.25).unwrap(), &spec)
            .unwrap();
        assert_eq!(
            streamed.hash,
            expected_stream_hash(alone.times(), alone.series(), opts.stream_chunk)
        );
        assert_eq!(streamed.series, alone.series());

        // The second job of the same circuit is a cache hit.
        let (_, again, _) = client.run_job(&line).unwrap();
        assert!(again.warm);
        let stats = client.stats().unwrap();
        assert_eq!(stats["completed"], 2.0);
        // Errors come back as text, and the connection survives them.
        assert!(client.submit("{\"cmd\": \"submit\"}").is_err());
        assert!(client.wait(999).is_err());
        assert_eq!(client.stats().unwrap()["completed"], 2.0);
        handle.stop();
    }

    #[test]
    fn netlist_escaping_keeps_one_line() {
        assert_eq!(escape_netlist("r1 a 0 1\n.end\n"), "r1 a 0 1\\n.end\\n");
    }
}
