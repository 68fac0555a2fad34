//! The two daemon workloads, `serve_hit` and `serve_miss`: seed-fixed
//! request sequences, their set-up (priming or filling the cache), the
//! measured closed loop, reply checks and the stats cross-check.

use std::cell::RefCell;
use std::path::Path;
use std::time::{Duration, Instant};

use sealpaa_server::json::Json;
use sealpaa_server::protocol::Request;

use crate::client::{Conn, Daemon, Outcome};
use crate::engines;
use crate::util::{self, Rng};

/// Result-cache capacity the daemon is started with (the CLI default,
/// passed explicitly so the workloads do not move if the default does).
pub const CACHE_ENTRIES: usize = 1024;
/// Distinct keys `serve_hit` primes: above the 8-entry per-connection hot
/// tier, below the shared LRU (about 32 of 64 slots per shard).
pub const HIT_KEYS: usize = 512;
/// Pipelining window of `serve_hit` (the daemon caps a connection at 128).
pub const HIT_WINDOW: usize = 64;
/// Requests in flight on `serve_miss`: one per daemon worker on this class
/// of host, so the pool, not the client, is the bottleneck.
pub const MISS_WINDOW: usize = 2;
/// Cheap distinct keys `serve_miss` set-up inserts: four times the capacity, so
/// every shard is full and every measured insert evicts.
const FILL_KEYS: usize = 4 * CACHE_ENTRIES;
/// Request bodies (object fields without braces) with their kind.
pub type Keys = Vec<(String, &'static str)>;
const CELLS: [&str; 7] = [
    "lpaa1", "lpaa2", "lpaa3", "lpaa4", "lpaa5", "lpaa6", "lpaa7",
];

/// A probability distinct for every `i` (an irrational rotation), offset
/// per seed and kept inside (0.02, 0.98).
fn distinct_p(offset: f64, i: u64) -> f64 {
    let x = (offset + i as f64 * 0.618_033_988_749_894_9).fract();
    0.02 + 0.96 * x
}

// ---------------------------------------------------------------- keys

/// The `serve_hit` working set: request bodies (fields without braces)
/// mixing analyze/blocks/datapath/compare, each with a distinct `p`.
pub fn hit_keys(seed: u64) -> Keys {
    let mut rng = Rng::new(seed, 1);
    let offset = rng.unit();
    (0..HIT_KEYS as u64)
        .map(|i| {
            let p = distinct_p(offset, i);
            let cell = CELLS[rng.below(7) as usize];
            match i % 4 {
                0 => (
                    format!(
                        "\"kind\":\"analyze\",\"width\":{},\"cell\":\"{cell}\",\"p\":{p}",
                        8 + rng.below(9)
                    ),
                    "analyze",
                ),
                1 => {
                    let lo = 3 + rng.below(3);
                    (
                        format!(
                            "\"kind\":\"blocks\",\"config\":\"{lo}:0:accurate,4:2:{cell}\",\"p\":{p}"
                        ),
                        "blocks",
                    )
                }
                2 => {
                    let k: Vec<u64> = (0..9).map(|_| 1 + rng.below(4)).collect();
                    (
                        format!(
                            "\"kind\":\"datapath\",\"topology\":\"conv2d\",\"kernel\":[[{},{},{}],[{},{},{}],[{},{},{}]],\"cell\":\"{cell}\",\"width\":8,\"p\":{p}",
                            k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[7], k[8]
                        ),
                        "datapath",
                    )
                }
                _ => (
                    format!(
                        "\"kind\":\"compare\",\"width\":{},\"cell\":\"{cell}\",\"p\":{p}",
                        10 + rng.below(3)
                    ),
                    "compare",
                ),
            }
        })
        .collect()
}

/// One operation of the `serve_hit` sequence.
#[derive(Clone)]
pub enum HitOp {
    Single(usize),
    /// Eight items: four distinct keys, each twice.
    Batch([usize; 8]),
}

/// The `serve_hit` request sequence: Zipf(0.9)-skewed keys, a quarter of
/// single requests repeating the previous key under a new id, and one line
/// in sixteen a `batch` holding duplicates.
pub struct HitSeq {
    rng: Rng,
    cdf: Vec<f64>,
    rank_to_key: Vec<usize>,
    last: usize,
}

impl HitSeq {
    pub fn new(seed: u64) -> HitSeq {
        let mut rng = Rng::new(seed, 2);
        let mut total = 0.0;
        let cdf = (0..HIT_KEYS)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(0.9);
                total
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|c| c / total)
            .collect();
        let mut rank_to_key: Vec<usize> = (0..HIT_KEYS).collect();
        for i in (1..HIT_KEYS).rev() {
            rank_to_key.swap(i, rng.below(i as u64 + 1) as usize);
        }
        HitSeq {
            rng,
            cdf,
            rank_to_key,
            last: 0,
        }
    }

    fn zipf(&mut self) -> usize {
        let u = self.rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(HIT_KEYS - 1);
        self.rank_to_key[rank]
    }

    pub fn next_op(&mut self) -> HitOp {
        match self.rng.below(16) {
            0 => {
                let k = [self.zipf(), self.zipf(), self.zipf(), self.zipf()];
                HitOp::Batch([k[0], k[1], k[0], k[2], k[1], k[3], k[2], k[3]])
            }
            1..=3 => HitOp::Single(self.last),
            _ => {
                self.last = self.zipf();
                HitOp::Single(self.last)
            }
        }
    }
}

/// Body of a `batch` line over `keys`.
pub fn batch_body(keys: &[(String, &'static str)], items: &[usize; 8]) -> String {
    let subs: Vec<String> = items
        .iter()
        .enumerate()
        .map(|(i, &k)| format!("{{\"id\":{i},{}}}", keys[k].0))
        .collect();
    format!("\"kind\":\"batch\",\"requests\":[{}]", subs.join(","))
}

/// The exact `result` of a fully cached batch over `items`.
fn batch_result(
    keys: &[(String, &'static str)],
    expected: &[Vec<u8>],
    items: &[usize; 8],
) -> Vec<u8> {
    let mut out = b"{\"count\":8,\"computed\":0,\"results\":[".to_vec();
    for (i, &k) in items.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(
            format!(
                "{{\"id\":{i},\"ok\":true,\"kind\":\"{}\",\"cached\":true,\"result\":",
                keys[k].1
            )
            .as_bytes(),
        );
        out.extend_from_slice(&expected[k]);
        out.push(b'}');
    }
    out.extend_from_slice(b"]}");
    out
}

/// Distinct unique keys among a batch's items (the cache probes it makes).
fn unique(items: &[usize; 8]) -> u64 {
    let mut v = items.to_vec();
    v.sort_unstable();
    v.dedup();
    v.len() as u64
}

/// The `serve_miss` sequence: every request a distinct canonical key. Per
/// sixteen requests: 4 analyze (w32), 4 datapath (5×5 conv2d), 2 blocks,
/// 2 dse, 2 simulate (Monte-Carlo) and 2 profile, in a seed-shuffled order.
pub struct MissSeq {
    rng: Rng,
    offset: f64,
    seq: u64,
    base: u64,
    pattern: Vec<&'static str>,
}

pub const MISS_PATTERN: [&str; 16] = [
    "analyze", "analyze", "analyze", "analyze", "datapath", "datapath", "datapath", "datapath",
    "blocks", "blocks", "dse", "dse", "simulate", "simulate", "profile", "profile",
];

impl MissSeq {
    pub fn new(seed: u64) -> MissSeq {
        let mut rng = Rng::new(seed, 3);
        let offset = rng.unit();
        let base = rng.next_u64() >> 16;
        MissSeq {
            rng,
            offset,
            seq: 0,
            base,
            pattern: Vec::new(),
        }
    }

    /// The next request body and its kind.
    pub fn next_req(&mut self) -> (String, &'static str) {
        if self.pattern.is_empty() {
            self.pattern = MISS_PATTERN.to_vec();
            for i in (1..self.pattern.len()).rev() {
                self.pattern.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
        }
        let kind = self.pattern.pop().expect("refilled above");
        let i = self.seq;
        self.seq += 1;
        let p = distinct_p(self.offset, i);
        let rng = &mut self.rng;
        let cell = CELLS[rng.below(7) as usize];
        let body = match kind {
            "analyze" => format!("\"kind\":\"analyze\",\"width\":32,\"cell\":\"{cell}\",\"p\":{p}"),
            "datapath" => {
                let k: Vec<String> = (0..5)
                    .map(|_| {
                        let row: Vec<String> = (0..5).map(|_| (1 + rng.below(15)).to_string()).collect();
                        format!("[{}]", row.join(","))
                    })
                    .collect();
                format!(
                    "\"kind\":\"datapath\",\"topology\":\"conv2d\",\"kernel\":[{}],\"cell\":\"{cell}\",\"width\":10,\"p\":{p}",
                    k.join(",")
                )
            }
            "blocks" => format!(
                "\"kind\":\"blocks\",\"config\":\"6:0:accurate,6:2:{cell},4:2:lpaa1\",\"p\":{p}"
            ),
            "dse" => format!("\"kind\":\"dse\",\"width\":7,\"p\":{p},\"threads\":1"),
            "simulate" => format!(
                "\"kind\":\"simulate\",\"width\":16,\"cell\":\"{cell}\",\"p\":{p},\"samples\":250000,\"seed\":{},\"threads\":1",
                self.base + i
            ),
            _ => format!(
                "\"kind\":\"profile\",\"width\":8,\"synth\":\"{}\",\"records\":16384,\"seed\":{}",
                ["uniform", "gaussian-sum", "random-walk", "image-gradient"][rng.below(4) as usize],
                self.base + i
            ),
        };
        (body, kind)
    }
}

/// The cheap distinct keys that fill the cache before `serve_miss`
/// measures (width 8, so they never collide with a measured key).
pub fn fill_keys(seed: u64) -> Vec<String> {
    let offset = Rng::new(seed, 4).unit();
    (0..FILL_KEYS as u64)
        .map(|i| {
            format!(
                "\"kind\":\"analyze\",\"width\":8,\"cell\":\"{}\",\"p\":{}",
                CELLS[(i % 7) as usize],
                distinct_p(offset, i)
            )
        })
        .collect()
}

// ---------------------------------------------------------------- runs

/// Replies per block: at least 2000, so a block's p99 has 20 samples
/// beyond it, and at least 128 pipelining windows, so one host stall —
/// which delays every request in flight — cannot by itself reach the
/// block's p99.
fn block_len(window: usize) -> usize {
    (128 * window).max(2000)
}

/// One block of consecutive replies of a measured phase.
pub struct Block {
    /// Replies per second over the block.
    pub per_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
}

/// What a measured serve phase reports. Throughput and latency figures
/// are medians over blocks of consecutive replies ([`block_len`]), so
/// host stalls that hit a minority of blocks do not move them.
pub struct ServeRun {
    pub attempted: u64,
    pub failed: u64,
    pub blocks: Vec<Block>,
    /// Daemon CPU (user+system) over the measured phase.
    pub cpu_ms: f64,
    pub micros: Vec<u32>,
    pub outside_us: Vec<f32>,
    pub peak_rss_mb: f64,
    pub hit_ratio: f64,
    pub hot_hit_ratio: f64,
    pub evictions: f64,
}

fn block(mut lat: Vec<f32>, secs: f64) -> Block {
    lat.sort_by(f32::total_cmp);
    let q =
        |p: f64| f64::from(lat[((p * lat.len() as f64).ceil() as usize).clamp(1, lat.len()) - 1]);
    Block {
        per_s: lat.len() as f64 / secs,
        p50_ms: q(0.50),
        p90_ms: q(0.90),
        p99_ms: q(0.99),
    }
}

/// Failure log: counts every failure, prints the first few to stderr.
#[derive(Default)]
pub struct Failures {
    pub count: u64,
}

impl Failures {
    pub fn record(&mut self, what: impl FnOnce() -> String) {
        self.count += 1;
        if self.count <= 20 {
            eprintln!("perfbench: FAILED: {}", what());
        }
    }
}

fn clip(bytes: &[u8]) -> String {
    String::from_utf8_lossy(&bytes[..bytes.len().min(240)]).into_owned()
}

fn counter(stats: &Json, path: &str) -> f64 {
    path.split('.')
        .try_fold(stats, |node, key| node.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// A started daemon with its connection, ready to measure.
pub struct Ready {
    pub daemon: Daemon,
    pub conn: Conn,
    /// `serve_hit`: the primed result of every key.
    pub expected: Vec<Vec<u8>>,
}

/// `serve_hit` set-up: start the daemon and prime every key of the working
/// set (pipelined). Returns the primed results in key order.
pub fn setup_hit(
    bin: &Path,
    threads: usize,
    keys: &[(String, &'static str)],
    fails: &mut Failures,
) -> Result<Ready, String> {
    let daemon = Daemon::spawn(bin, threads, CACHE_ENTRIES)?;
    let mut conn = daemon.connect()?;
    let mut expected = vec![Vec::new(); keys.len()];
    let mut next = 0usize;
    conn.pipeline(
        HIT_WINDOW,
        None,
        || {
            let k = next;
            next += 1;
            keys.get(k).map(|(body, _)| (body.clone(), k as u64))
        },
        |outcome, tag, _, _| match outcome {
            Outcome::Ok(r) if r.kind == keys[tag as usize].1.as_bytes() && !r.cached => {
                expected[tag as usize] = r.result.to_vec();
            }
            Outcome::Ok(r) => fails.record(|| format!("priming key {tag}: {}", clip(r.result))),
            Outcome::Bad(line) => fails.record(|| format!("priming key {tag}: {}", clip(line))),
        },
    )?;
    Ok(Ready {
        daemon,
        conn,
        expected,
    })
}

/// `serve_miss` set-up: start the daemon and fill its cache to capacity.
pub fn setup_miss(
    bin: &Path,
    threads: usize,
    seed: u64,
    fails: &mut Failures,
) -> Result<Ready, String> {
    let daemon = Daemon::spawn(bin, threads, CACHE_ENTRIES)?;
    let mut conn = daemon.connect()?;
    let keys = fill_keys(seed);
    let mut it = keys.into_iter();
    conn.pipeline(
        HIT_WINDOW,
        None,
        || it.next().map(|b| (b, 0)),
        |outcome, _, _, _| match outcome {
            Outcome::Ok(r) if !r.cached => {}
            Outcome::Ok(r) => {
                fails.record(|| format!("fill key answered cached: {}", clip(r.result)))
            }
            Outcome::Bad(line) => fails.record(|| format!("fill key: {}", clip(line))),
        },
    )?;
    let entries = counter(&conn.stats()?, "cache.entries");
    if entries != CACHE_ENTRIES as f64 {
        fails.record(|| {
            format!("cache holds {entries} entries after the fill, not {CACHE_ENTRIES}")
        });
    }
    Ok(Ready {
        daemon,
        conn,
        expected: Vec::new(),
    })
}

/// Per-run tallies the cross-check compares with the daemon's counters.
#[derive(Default)]
struct Tally {
    ok: u64,
    hits: u64,
    misses: u64,
}

/// Requests `stats` itself adds to the `requests` counter between two
/// snapshots (measured, so the cross-check does not assume it).
fn stats_self_count(conn: &mut Conn) -> Result<f64, String> {
    let a = counter(&conn.stats()?, "requests");
    let b = counter(&conn.stats()?, "requests");
    Ok(b - a)
}

fn cross_check(before: &Json, after: &Json, self_count: f64, t: &Tally, fails: &mut Failures) {
    let delta = |path: &str| counter(after, path) - counter(before, path);
    for (what, daemon, client) in [
        ("requests", delta("requests") - self_count, t.ok as f64),
        ("errors", delta("errors"), 0.0),
        ("cache.hits", delta("cache.hits"), t.hits as f64),
        ("cache.misses", delta("cache.misses"), t.misses as f64),
    ] {
        if daemon != client {
            fails.record(|| {
                format!("stats cross-check: daemon counted {daemon} {what}, the client {client}")
            });
        }
    }
}

/// Runs a measured phase on a ready daemon for `duration`, then reads the
/// daemon's counters, CPU and peak memory.
fn measure(
    ready: &mut Ready,
    window: usize,
    duration: Duration,
    fails: &mut Failures,
    mut next: impl FnMut() -> (String, u64),
    mut check: impl FnMut(&crate::client::Reply<'_>, u64, &mut Tally, &mut Failures) -> bool,
) -> Result<ServeRun, String> {
    let self_count = stats_self_count(&mut ready.conn)?;
    let before = ready.conn.stats()?;
    let pid = ready.daemon.pid.clone();
    let mut run = ServeRun {
        attempted: 0,
        failed: 0,
        blocks: Vec::new(),
        cpu_ms: 0.0,
        micros: Vec::with_capacity(1 << 20),
        outside_us: Vec::with_capacity(1 << 20),
        peak_rss_mb: 0.0,
        hit_ratio: 0.0,
        hot_hit_ratio: 0.0,
        evictions: 0.0,
    };
    let mut tally = Tally::default();
    let before_fails = fails.count;
    let len = block_len(window);
    let mut latencies: Vec<f32> = Vec::with_capacity(len);
    let cpu0 = util::cpu_ms(&pid);
    let t0 = Instant::now();
    let mut block_start = t0;
    ready.conn.pipeline(
        window,
        Some(t0 + duration),
        || Some(next()),
        |outcome, tag, latency, arrived| {
            run.attempted += 1;
            let lat_us = latency.as_secs_f64() * 1e6;
            latencies.push((lat_us / 1e3) as f32);
            if latencies.len() == len {
                let lat = std::mem::replace(&mut latencies, Vec::with_capacity(len));
                run.blocks
                    .push(block(lat, (arrived - block_start).as_secs_f64()));
                block_start = arrived;
            }
            match outcome {
                Outcome::Ok(r) => {
                    run.micros.push(r.micros.min(u64::from(u32::MAX)) as u32);
                    run.outside_us.push((lat_us - r.micros as f64) as f32);
                    tally.ok += 1;
                    if !check(&r, tag, &mut tally, fails) {
                        run.failed += 1;
                    }
                }
                Outcome::Bad(line) => {
                    run.failed += 1;
                    fails.record(|| format!("request {tag}: {}", clip(line)));
                }
            }
        },
    )?;
    run.cpu_ms = util::cpu_ms(&pid) - cpu0;
    if run.blocks.is_empty() && !latencies.is_empty() {
        // A run too short for one full block reports its partial one.
        run.blocks
            .push(block(latencies, block_start.elapsed().as_secs_f64()));
    }
    run.peak_rss_mb = util::peak_rss_mb(&pid);
    let after = ready.conn.stats()?;
    let delta = |path: &str| counter(&after, path) - counter(&before, path);
    let (hits, misses) = (delta("cache.hits"), delta("cache.misses"));
    run.hit_ratio = hits / (hits + misses).max(1.0);
    let (hot, cold) = (delta("cache.hot_hits"), delta("cache.hot_misses"));
    run.hot_hit_ratio = hot / (hot + cold).max(1.0);
    run.evictions = delta("cache.evictions");
    let op_fails = fails.count - before_fails;
    cross_check(&before, &after, self_count, &tally, fails);
    // A failed cross-check fails the run without touching success_rate.
    run.failed += fails.count - before_fails - op_fails;
    Ok(run)
}

/// The measured `serve_hit` phase: every reply must be `cached:true` and
/// byte-identical to the primed result of its key (batches: to the exact
/// envelope over the primed results).
pub fn measure_hit(
    ready: &mut Ready,
    keys: &[(String, &'static str)],
    seed: u64,
    duration: Duration,
    fails: &mut Failures,
) -> Result<ServeRun, String> {
    let mut seq = HitSeq::new(seed);
    // A single request's tag is its key; a batch's is BATCH_TAG + its index.
    const BATCH_TAG: u64 = 1 << 63;
    let batches: RefCell<Vec<[usize; 8]>> = RefCell::new(Vec::new());
    let expected = std::mem::take(&mut ready.expected);
    let run = measure(
        ready,
        HIT_WINDOW,
        duration,
        fails,
        || match seq.next_op() {
            HitOp::Single(k) => (keys[k].0.clone(), k as u64),
            HitOp::Batch(items) => {
                let mut b = batches.borrow_mut();
                b.push(items);
                (batch_body(keys, &items), BATCH_TAG + b.len() as u64 - 1)
            }
        },
        |r, tag, tally, fails| {
            let (kind, good, probes) = if tag >= BATCH_TAG {
                let items = &batches.borrow()[(tag - BATCH_TAG) as usize];
                let want = batch_result(keys, &expected, items);
                ("batch", r.result == want.as_slice(), unique(items))
            } else {
                let k = tag as usize;
                (keys[k].1, r.result == expected[k].as_slice(), 1)
            };
            if r.cached {
                tally.hits += probes;
            } else {
                tally.misses += probes;
            }
            let good = good && r.cached && r.kind == kind.as_bytes();
            if !good {
                fails.record(|| format!("serve_hit {kind} reply: {}", clip(r.result)));
            }
            good
        },
    );
    ready.expected = expected;
    run
}

/// The measured `serve_miss` phase: every reply must be a computed
/// (`cached:false`) answer of the right kind; a seed-chosen sixteenth are
/// kept for [`verify_sample`].
pub fn measure_miss(
    ready: &mut Ready,
    seed: u64,
    duration: Duration,
    fails: &mut Failures,
    sample: &mut Vec<(String, Vec<u8>)>,
) -> Result<ServeRun, String> {
    let mut seq = MissSeq::new(seed);
    let mut pick = Rng::new(seed, 5);
    let sent: RefCell<Vec<(String, &'static str, bool)>> = RefCell::new(Vec::new());
    measure(
        ready,
        MISS_WINDOW,
        duration,
        fails,
        || {
            let (body, kind) = seq.next_req();
            let keep = pick.below(16) == 0;
            let mut sent = sent.borrow_mut();
            sent.push((if keep { body.clone() } else { String::new() }, kind, keep));
            (body, sent.len() as u64 - 1)
        },
        |r, tag, tally, fails| {
            let sent = sent.borrow();
            let (body, kind, keep) = &sent[tag as usize];
            if r.cached {
                tally.hits += 1;
            } else {
                tally.misses += 1;
            }
            let good = r.kind == kind.as_bytes() && !r.cached;
            if !good {
                fails.record(|| format!("serve_miss op {tag} ({kind}): got {}", clip(r.result)));
            } else if *keep {
                sample.push((body.clone(), r.result.to_vec()));
            }
            good
        },
    )
}

/// Recomputes sampled answers in-process through the engines' public
/// calls and compares them exactly with what the daemon served. Returns
/// the number of mismatches.
pub fn verify_sample(sample: &[(String, Vec<u8>)], fails: &mut Failures) -> u64 {
    let mut bad = 0;
    for (body, result) in sample {
        let ok = (|| {
            let req = Request::parse(&format!("{{{body}}}"))?;
            let want = engines::evaluate(&req.body)?;
            let text = std::str::from_utf8(result).map_err(|e| e.to_string())?;
            let doc = Json::parse(text).map_err(|e| e.to_string())?;
            let got = engines::served(&doc, &want);
            if engines::same(&want, &got) {
                Ok(())
            } else {
                Err(format!("served {got:?}, recomputed {want:?}"))
            }
        })();
        if let Err(e) = ok {
            bad += 1;
            fails.record(|| format!("recomputation of {{{body}}}: {e}"));
        }
    }
    bad
}

/// A seed-chosen sample of the primed `serve_hit` keys, for
/// [`verify_sample`].
pub fn hit_sample(
    keys: &[(String, &'static str)],
    expected: &[Vec<u8>],
    seed: u64,
) -> Vec<(String, Vec<u8>)> {
    let mut pick = Rng::new(seed, 6);
    keys.iter()
        .zip(expected)
        .filter(|_| pick.below(8) == 0)
        .map(|((body, _), result)| (body.clone(), result.clone()))
        .collect()
}
