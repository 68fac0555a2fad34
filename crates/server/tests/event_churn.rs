//! Connection churn against the epoll event loop: idle connections must
//! cost registry entries, never threads.
//!
//! The check counts every thread in the process, so it lives in its own
//! test binary: in a shared one, sibling tests' daemons start and stop
//! threads while it counts.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use sealpaa_server::json::Json;
use sealpaa_server::server::{IoModel, Server, ServerConfig};

fn spawn_server(config: ServerConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..config
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> Json {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
        let mut response = String::new();
        let n = self.reader.read_line(&mut response).expect("receive");
        assert!(n > 0, "response before disconnect");
        Json::parse(response.trim_end()).expect("response is valid JSON")
    }
}

fn stats(client: &mut Client) -> Json {
    let response = client.request(r#"{"kind":"stats"}"#);
    response.get("result").cloned().expect("stats result")
}

fn stat_u64(stats: &Json, path: &[&str]) -> u64 {
    let mut node = stats;
    for key in path {
        node = node
            .get(key)
            .unwrap_or_else(|| panic!("missing stats field {}", path.join(".")));
    }
    node.as_u64()
        .unwrap_or_else(|| panic!("non-numeric stats field {}", path.join(".")))
}

/// Process thread count, for proving connections don't cost threads.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("task dir")
        .count()
}

/// Open/idle/close churn against the event loop: `held` connections stay
/// parked while `cycled` more connect, make one request, and disconnect.
/// Connections must cost registry entries, never threads.
#[cfg(target_os = "linux")]
fn event_churn(held: usize, cycled: usize) {
    let (addr, handle) = spawn_server(ServerConfig {
        max_connections: held + 64,
        io_model: IoModel::Event,
        ..Default::default()
    });
    // Baseline after the daemon is fully up (poll thread + worker pool).
    let mut observer = Client::connect(addr);
    stats(&mut observer);
    let baseline = thread_count();

    let mut parked: Vec<TcpStream> = Vec::with_capacity(held);
    for _ in 0..held {
        parked.push(TcpStream::connect(addr).expect("held connect"));
    }
    for i in 0..cycled {
        let mut client = Client::connect(addr);
        let response = client.request(r#"{"kind":"analyze","width":4,"cell":"lpaa2"}"#);
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "churn iteration {i}: {}",
            response.render()
        );
    }

    // Thread count is flat: idle connections are registry entries, not
    // threads (small slack for transient test-harness threads).
    let now = thread_count();
    assert!(
        now <= baseline + 2,
        "thread count grew under churn: {baseline} -> {now}"
    );
    let snapshot = stats(&mut observer);
    let registered = stat_u64(&snapshot, &["connections", "registered_fds"]);
    assert!(
        registered >= held as u64,
        "held connections missing from the fd registry: {registered} < {held}"
    );
    assert!(
        registered <= (held + 8) as u64,
        "fd registry grew past the live set: {}",
        snapshot.render()
    );
    assert_eq!(stat_u64(&snapshot, &["connections", "shed"]), 0);

    drop(parked);
    observer.request(r#"{"kind":"shutdown"}"#);
    handle.join().expect("clean shutdown");
}

#[test]
#[cfg(target_os = "linux")]
fn event_loop_holds_idle_connections_without_threads() {
    // Tier-1 scale; the `--ignored` variant below runs the full 10k churn.
    event_churn(256, 512);
}

#[test]
#[ignore = "10k-connection churn; run explicitly with --ignored"]
#[cfg(target_os = "linux")]
fn event_loop_survives_ten_thousand_connection_churn() {
    // 2k parked + 8k cycled = 10k opens, with at most ~2k simultaneous so
    // the suite stays inside common fd ulimits.
    event_churn(2000, 8000);
}
