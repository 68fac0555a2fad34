//! The daemon under test as a child process, and a single-threaded
//! closed-loop client that pipelines id-tagged request lines over one TCP
//! connection.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sealpaa_server::json::Json;

/// A running `sealpaa serve` child; killed and reaped on drop.
pub struct Daemon {
    child: Option<Child>,
    addr: String,
    pub pid: String,
}

impl Daemon {
    pub fn spawn(bin: &Path, threads: usize, cache_entries: usize) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--threads", &threads.to_string()])
            .args(["--cache-entries", &cache_entries.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let pid = child.id().to_string();
        let mut line = String::new();
        let stdout = child.stdout.take().ok_or("daemon stdout not captured")?;
        let mut reader = BufReader::new(stdout);
        let read = reader.read_line(&mut line);
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            pid,
        };
        read.map_err(|e| format!("daemon did not report its address: {e}"))?;
        daemon.addr = line
            .trim()
            .rsplit(' ')
            .next()
            .filter(|a| a.contains(':'))
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_owned();
        // Keep draining stdout so the daemon never blocks on a full pipe.
        std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        });
        Ok(daemon)
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 20),
            next_id: 1,
        })
    }

    /// Graceful stop: a `shutdown` request, then wait for the process.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = self.connect()?.call(r#"{"kind":"shutdown"}"#)?;
        if !reply.contains("\"stopping\":true") {
            return Err(format!("unexpected shutdown reply {reply}"));
        }
        let mut child = self.child.take().ok_or("daemon already reaped")?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if child.try_wait().map_err(|e| e.to_string())?.is_some() {
                return Ok(());
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon did not exit after shutdown".to_owned());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One decoded success line: `{"id":N,"ok":true,"kind":K,"cached":B,"micros":M,"result":R}`.
pub struct Reply<'a> {
    pub kind: &'a [u8],
    pub cached: bool,
    pub micros: u64,
    pub result: &'a [u8],
}

fn digits(s: &[u8]) -> (u64, usize) {
    let n = s.iter().take_while(|b| b.is_ascii_digit()).count();
    let v = s[..n]
        .iter()
        .fold(0u64, |acc, &b| acc * 10 + u64::from(b - b'0'));
    (v, n)
}

/// Splits a reply line into its id and fields; `None` if it is not a
/// well-formed success line with a numeric id.
fn decode(line: &[u8]) -> Option<(u64, Reply<'_>)> {
    let rest = line.strip_prefix(b"{\"id\":")?;
    let (id, n) = digits(rest);
    if n == 0 {
        return None;
    }
    let rest = rest[n..].strip_prefix(b",\"ok\":true,\"kind\":\"")?;
    let k = rest.iter().position(|&b| b == b'"')?;
    let (kind, rest) = (&rest[..k], rest[k..].strip_prefix(b"\",\"cached\":")?);
    let (cached, rest) = if let Some(r) = rest.strip_prefix(b"true") {
        (true, r)
    } else {
        (false, rest.strip_prefix(b"false")?)
    };
    let rest = rest.strip_prefix(b",\"micros\":")?;
    let (micros, n) = digits(rest);
    let rest = rest[n..].strip_prefix(b",\"result\":")?;
    let result = rest.strip_suffix(b"}")?;
    Some((
        id,
        Reply {
            kind,
            cached,
            micros,
            result,
        },
    ))
}

/// What a finished request reports to the caller of [`Conn::pipeline`].
pub enum Outcome<'a> {
    Ok(Reply<'a>),
    /// Anything but a well-formed success line (an error response, garbage).
    Bad(&'a [u8]),
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    next_id: u64,
}

impl Conn {
    fn fill(&mut self) -> Result<(), String> {
        let len = self.buf.len();
        self.buf.resize(len + (1 << 16), 0);
        match self.stream.read(&mut self.buf[len..]) {
            Ok(0) => {
                self.buf.truncate(len);
                Err("daemon closed the connection".to_owned())
            }
            Ok(n) => {
                self.buf.truncate(len + n);
                Ok(())
            }
            Err(e) => {
                self.buf.truncate(len);
                Err(format!("read: {e}"))
            }
        }
    }

    /// One request with nothing else in flight; returns the raw reply line.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        loop {
            if let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
                let reply = String::from_utf8_lossy(&self.buf[..end]).into_owned();
                self.buf.drain(..=end);
                return Ok(reply);
            }
            self.fill()?;
        }
    }

    /// The daemon's `stats` result object.
    pub fn stats(&mut self) -> Result<Json, String> {
        let line = self.call(r#"{"kind":"stats"}"#)?;
        let doc = Json::parse(&line).map_err(|e| format!("stats reply: {e}"))?;
        doc.get("result")
            .cloned()
            .ok_or_else(|| format!("stats reply without result: {line}"))
    }

    /// Closed-loop pipelining: keeps up to `window` requests in flight,
    /// asking `next` for the body of each new request (the object's fields
    /// without braces; the id is added here) until it returns `None` or
    /// `deadline` passes, then drains. `done` gets every reply with the tag
    /// `next` returned, the latency from write to id-matched arrival, and
    /// the arrival time.
    pub fn pipeline(
        &mut self,
        window: usize,
        deadline: Option<Instant>,
        mut next: impl FnMut() -> Option<(String, u64)>,
        mut done: impl FnMut(Outcome<'_>, u64, Duration, Instant),
    ) -> Result<(), String> {
        let mut inflight: HashMap<u64, (Instant, u64)> = HashMap::with_capacity(window * 2);
        let mut out = String::with_capacity(window * 256);
        let mut burst: Vec<(u64, u64)> = Vec::with_capacity(window);
        let mut exhausted = false;
        loop {
            if !exhausted && deadline.is_none_or(|d| Instant::now() < d) {
                while inflight.len() + burst.len() < window {
                    let Some((body, tag)) = next() else {
                        exhausted = true;
                        break;
                    };
                    let id = self.next_id;
                    self.next_id += 1;
                    out.push_str("{\"id\":");
                    out.push_str(&id.to_string());
                    out.push(',');
                    out.push_str(&body);
                    out.push_str("}\n");
                    burst.push((id, tag));
                }
            } else {
                exhausted = true;
            }
            if !out.is_empty() {
                let sent = Instant::now();
                self.stream
                    .write_all(out.as_bytes())
                    .map_err(|e| format!("write: {e}"))?;
                out.clear();
                for (id, tag) in burst.drain(..) {
                    inflight.insert(id, (sent, tag));
                }
            }
            if inflight.is_empty() {
                if exhausted {
                    return Ok(());
                }
                continue;
            }
            self.fill()?;
            let arrived = Instant::now();
            let mut consumed = 0;
            while let Some(end) = self.buf[consumed..].iter().position(|&b| b == b'\n') {
                let line = &self.buf[consumed..consumed + end];
                consumed += end + 1;
                let (id, outcome) = match decode(line) {
                    Some((id, reply)) => (id, Outcome::Ok(reply)),
                    None => {
                        // Recover the id of an error line so it still
                        // retires its request.
                        let id = line
                            .strip_prefix(b"{\"id\":")
                            .map_or(0, |rest| digits(rest).0);
                        (id, Outcome::Bad(line))
                    }
                };
                let Some((sent, tag)) = inflight.remove(&id) else {
                    return Err(format!(
                        "reply for unknown id: {}",
                        String::from_utf8_lossy(&line[..line.len().min(200)])
                    ));
                };
                done(outcome, tag, arrived - sent, arrived);
            }
            self.buf.drain(..consumed);
        }
    }
}
