//! The sealpaa benchmark. One run measures one workload for a fixed time
//! and prints, as its last stdout line, one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//!
//! ```text
//! perfbench --workload serve_hit|serve_miss|workflow_datapath \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` the per-layer
//! metrics, from a separate run that also times each layer's public calls.
//! See `perfbench/README.md` for what each workload and metric is for.

mod client;
mod engines;
mod layers;
mod serve;
mod trace;
mod util;
mod workflow;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serve::{Failures, Ready, ServeRun};
use trace::{Layer, Tracer};
use util::{metric, Metric};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// `serve_hit` lines replayed in-process per traced pass.
const TRACE_HIT_OPS: u64 = 20_000;
/// `serve_miss` lines replayed in-process per traced pass.
const TRACE_MISS_OPS: u64 = 640;
/// Workflows per traced pass.
const TRACE_WORKFLOWS: u64 = 8;
/// Sizes of the probes that time layers a workload's own sequence does not
/// reach, so every traced run reports every layer.
const PROBE_HIT_OPS: u64 = 5_000;
const PROBE_MISS_OPS: u64 = 96;
const PROBE_WORKFLOWS: u64 = 2;
const PROBE_SERVE: Duration = Duration::from_secs(2);

const WORKLOADS: [&str; 3] = ["serve_hit", "serve_miss", "workflow_datapath"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} (usage: perfbench --workload W --seed N --seconds S --trace 0|1)"))
    };
    let workload = get("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------- host

/// FNV-1a-64 over every source file of the workspace (sorted paths), so a
/// result is attributable even in a checkout that is not a git repository.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The host block printed with every result: usable cores, the SIMD
/// backend as `sealpaa simd --json` reports it, daemon workers, commit.
fn host_line(bin: &Path, workers: usize, parallelism: usize) -> String {
    let simd = std::process::Command::new(bin)
        .args(["simd", "--json"])
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| sealpaa_server::json::Json::parse(s.trim()).ok())
        .and_then(|doc| {
            doc.get("active")
                .and_then(|a| a.as_str().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "none (not a git checkout)".to_owned(),
            |s| s.trim().to_owned(),
        );
    format!(
        "{{\"host\":{{\"available_parallelism\":{parallelism},\"simd_backend\":{},\"daemon_workers\":{workers},\"workers_exceed_cores\":{},\"commit\":{},\"source_fnv64\":{}}}}}",
        util::json_str(&simd),
        workers > parallelism,
        util::json_str(&commit),
        util::json_str(&source_digest(Path::new("."))),
    )
}

// ---------------------------------------------------------------- runs

fn run(args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin = exe.with_file_name("sealpaa");
    if !bin.is_file() {
        return Err(format!("daemon binary {} not built", bin.display()));
    }
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    // One daemon worker per usable core, never more.
    let workers = parallelism;
    let host = host_line(&bin, workers, parallelism);
    println!("{host}");
    let mut fails = Failures::default();
    let (attempted, metrics) = if args.trace {
        traced(args, &bin, workers, &host, &mut fails)?
    } else if args.workload == "workflow_datapath" {
        workflow_e2e(args, &mut fails)?
    } else {
        serve_e2e(args, &bin, workers, &mut fails)?
    };
    Ok(util::result_line(
        attempted,
        fails.count.min(attempted),
        &metrics,
    ))
}

/// Sets a workload's daemon up `SETUPS` times (stopping all but the last)
/// and returns the last one with the median set-up time.
fn serve_setup(
    workload: &str,
    bin: &Path,
    workers: usize,
    seed: u64,
    keys: &[(String, &'static str)],
    fails: &mut Failures,
) -> Result<(Ready, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(previous) = last.take() {
            let Ready { daemon, conn, .. } = previous;
            drop(conn);
            daemon.shutdown()?;
        }
        let t0 = Instant::now();
        let ready = if workload == "serve_hit" {
            serve::setup_hit(bin, workers, keys, fails)?
        } else {
            serve::setup_miss(bin, workers, seed, fails)?
        };
        times.push(t0.elapsed().as_secs_f64());
        last = Some(ready);
    }
    Ok((last.expect("SETUPS > 0"), util::median(&times)))
}

/// One measured daemon phase plus its output checks.
fn serve_phase(
    workload: &str,
    bin: &Path,
    workers: usize,
    seed: u64,
    duration: Duration,
    fails: &mut Failures,
) -> Result<(ServeRun, f64), String> {
    let keys = serve::hit_keys(seed);
    let (mut ready, setup_s) = serve_setup(workload, bin, workers, seed, &keys, fails)?;
    let mut sample = Vec::new();
    let mut run = if workload == "serve_hit" {
        let run = serve::measure_hit(&mut ready, &keys, seed, duration, fails)?;
        sample = serve::hit_sample(&keys, &ready.expected, seed);
        run
    } else {
        serve::measure_miss(&mut ready, seed, duration, fails, &mut sample)?
    };
    let Ready { daemon, conn, .. } = ready;
    drop(conn);
    daemon.shutdown()?;
    run.failed += serve::verify_sample(&sample, fails);
    Ok((run, setup_s))
}

fn serve_e2e(
    args: &Args,
    bin: &Path,
    workers: usize,
    fails: &mut Failures,
) -> Result<(u64, Vec<Metric>), String> {
    let duration = Duration::from_secs(args.seconds);
    let (run, setup_s) = serve_phase(&args.workload, bin, workers, args.seed, duration, fails)?;
    let over = |f: fn(&serve::Block) -> f64| -> f64 {
        util::median(&run.blocks.iter().map(f).collect::<Vec<_>>())
    };
    let m = vec![
        metric("throughput_per_s", over(|b| b.per_s), "1/s"),
        metric("p50_ms", over(|b| b.p50_ms), "ms"),
        metric("p90_ms", over(|b| b.p90_ms), "ms"),
        metric("p99_ms", over(|b| b.p99_ms), "ms"),
        metric("cpu_ms_per_op", run.cpu_ms / run.attempted as f64, "ms"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", run.peak_rss_mb, "MiB"),
        metric(
            "success_rate",
            (run.attempted - run.failed.min(run.attempted)) as f64 / run.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    Ok((run.attempted, m))
}

fn workflow_e2e(args: &Args, fails: &mut Failures) -> Result<(u64, Vec<Metric>), String> {
    // Set-up: build the seed's graph pool and run the first two workflows
    // (one per topology) as a warm-up, several times.
    let mut off = Tracer::new(false);
    let mut times = Vec::new();
    let mut pool = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        pool = workflow::pool(args.seed)?;
        for i in 0..2 {
            let job = workflow::job(args.seed, i);
            let v = workflow::run(&pool[job.graph], &job, &mut off)?;
            if let Some(f) = v.failure {
                fails.record(|| format!("warm-up workflow {i}: {f}"));
            }
        }
        times.push(t0.elapsed().as_secs_f64());
    }
    let cpu0 = util::cpu_ms("self");
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let mut lat = Vec::new();
    let mut failed = 0u64;
    let mut i = 0;
    while Instant::now() < deadline {
        let job = workflow::job(args.seed, i);
        let t0 = Instant::now();
        let v = workflow::run(&pool[job.graph], &job, &mut off)?;
        lat.push(util::ms(t0.elapsed()));
        if let Some(f) = v.failure {
            failed += 1;
            fails.record(|| format!("workflow {i} ({}): {f}", pool[job.graph].name));
        }
        i += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let cpu = util::cpu_ms("self") - cpu0;
    let n = i.max(1) as f64;
    lat.sort_by(f64::total_cmp);
    let mut m = vec![metric("throughput_per_s", n / elapsed, "1/s")];
    for (name, q) in [("p50_ms", 0.50), ("p90_ms", 0.90), ("p99_ms", 0.99)] {
        m.push(metric(name, util::quantile(&lat, q), "ms"));
    }
    m.push(metric("cpu_ms_per_op", cpu / n, "ms"));
    m.push(metric("setup_s", util::median(&times), "s"));
    m.push(metric("peak_rss_mb", util::peak_rss_mb("self"), "MiB"));
    m.push(metric("success_rate", (n - failed as f64) / n, "ratio"));
    Ok((i, m))
}

// ---------------------------------------------------------------- traced

/// The layers each in-process section produced, with its wall time.
struct Section {
    layers: BTreeMap<&'static str, Layer>,
    wall_s: f64,
    /// Operations the section ran (requests or workflows).
    ops: u64,
}

fn section(
    name: &str,
    args: &Args,
    host: &str,
    t: Tracer,
    wall_s: f64,
    ops: u64,
) -> Result<Section, String> {
    let path = PathBuf::from(".bench_out").join(format!(
        "spans-{}-seed{}-{name}.tsv",
        args.workload, args.seed
    ));
    trace::write_spans(&path, host, &t.spans).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Section {
        layers: trace::layers(&t.spans),
        wall_s,
        ops,
    })
}

fn timed<R>(f: impl FnOnce() -> Result<R, String>) -> Result<(R, f64), String> {
    let t0 = Instant::now();
    let r = f()?;
    Ok((r, t0.elapsed().as_secs_f64()))
}

fn hit_pass(seed: u64, ops: u64, on: bool, fails: &mut Failures) -> Result<(Tracer, f64), String> {
    let (keys, cache) = layers::primed_hit_cache(seed)?;
    let mut t = Tracer::new(on);
    let (misses, wall) = timed(|| layers::replay_hit(&keys, &cache, seed, ops, &mut t))?;
    if misses > 0 {
        fails.record(|| format!("{misses} in-process serve_hit lines missed the primed cache"));
    }
    Ok((t, wall))
}

fn miss_pass(seed: u64, ops: u64, on: bool, fails: &mut Failures) -> Result<(Tracer, f64), String> {
    let cache = layers::filled_miss_cache(seed)?;
    let mut t = Tracer::new(on);
    let (hits, wall) = timed(|| layers::replay_miss(&cache, seed, ops, &mut t))?;
    if hits > 0 {
        fails.record(|| format!("{hits} in-process serve_miss lines hit the cache"));
    }
    Ok((t, wall))
}

/// Workflow pass; also returns (interpreter evaluations, assignments scored).
fn workflow_pass(
    seed: u64,
    n: u64,
    on: bool,
    fails: &mut Failures,
) -> Result<(Tracer, f64, u64, u64), String> {
    let pool = workflow::pool(seed)?;
    let mut t = Tracer::new(on);
    let (mut evals, mut scored) = (0, 0);
    let t0 = Instant::now();
    for i in 0..n {
        let job = workflow::job(seed, i);
        t.set_op(i);
        let v = workflow::run(&pool[job.graph], &job, &mut t)?;
        if let Some(f) = v.failure {
            fails.record(|| format!("traced workflow {i}: {f}"));
        }
        evals += v.evaluations;
        scored += pool[job.graph].admitted;
    }
    Ok((t, t0.elapsed().as_secs_f64(), evals, scored))
}

const ENGINES: [(&str, &str); 6] = [
    ("core.analyze", "core.analyze_us"),
    ("blocks.distribution", "blocks.distribution_us"),
    ("explore.dse", "explore.dse_us"),
    ("propagate.predict", "propagate.predict_us"),
    ("sim.monte_carlo", "sim.monte_carlo_us"),
    ("trace.profile", "trace.profile_us"),
];
const SERVER_LAYERS: [(&str, &str); 5] = [
    ("server.protocol.parse", "server.protocol.parse_us"),
    (
        "server.canonical.cache_key",
        "server.canonical.cache_key_us",
    ),
    ("server.cache.get", "server.cache.get_us"),
    ("server.json.render", "server.json.render_us"),
    ("server.cache.insert", "server.cache.insert_us"),
];
const WORKFLOW_STEPS: [(&str, &str); 6] = [
    ("trace.synth", "trace.synth_ms"),
    ("propagate.fit", "propagate.fit_ms"),
    ("propagate.predict", "propagate.predict_ms"),
    ("datapath.replay", "datapath.replay_ms"),
    ("explore.optimize", "explore.optimize_ms"),
    ("datapath.monte_carlo", "datapath.monte_carlo_ms"),
];

/// Share of a section's wall time that no program layer accounts for
/// (the benchmark's own loop and span bookkeeping).
fn unaccounted(s: &Section) -> f64 {
    let layered: u64 = s
        .layers
        .iter()
        .filter(|(name, _)| !name.starts_with("bench."))
        .map(|(_, l)| l.self_ns)
        .sum();
    (1.0 - layered as f64 / 1e9 / s.wall_s).max(0.0)
}

/// The traced run: the workload's own daemon phase (for the daemon-side
/// metrics, untraced), then in-process passes of its own sequence — once
/// untraced and once traced — plus small traced probes of the other
/// sequences, so every layer is reported on every workload.
fn traced(
    args: &Args,
    bin: &Path,
    workers: usize,
    host: &str,
    fails: &mut Failures,
) -> Result<(u64, Vec<Metric>), String> {
    let seed = args.seed;
    let own = args.workload.as_str();
    let (daemon_workload, duration) = match own {
        "workflow_datapath" => ("serve_hit", PROBE_SERVE),
        w => (w, Duration::from_secs(args.seconds)),
    };
    let (run, _) = serve_phase(daemon_workload, bin, workers, seed, duration, fails)?;
    let mut attempted = run.attempted;

    let (hit_ops, miss_ops, flows) = match own {
        "serve_hit" => (TRACE_HIT_OPS, PROBE_MISS_OPS, PROBE_WORKFLOWS),
        "serve_miss" => (PROBE_HIT_OPS, TRACE_MISS_OPS, PROBE_WORKFLOWS),
        _ => (PROBE_HIT_OPS, PROBE_MISS_OPS, TRACE_WORKFLOWS),
    };
    // Untraced passes of the workload's own sequence, before and after the
    // traced one, for the overhead ratio.
    let untraced = |fails: &mut Failures| -> Result<f64, String> {
        Ok(match own {
            "serve_hit" => hit_pass(seed, hit_ops, false, fails)?.1,
            "serve_miss" => miss_pass(seed, miss_ops, false, fails)?.1,
            _ => workflow_pass(seed, flows, false, fails)?.1,
        })
    };
    let untraced_before = untraced(fails)?;
    let (t, wall) = hit_pass(seed, hit_ops, true, fails)?;
    let hit = section("serve_hit", args, host, t, wall, hit_ops)?;
    let (t, wall) = miss_pass(seed, miss_ops, true, fails)?;
    let miss = section("serve_miss", args, host, t, wall, miss_ops)?;
    let (t, wall, evals, scored) = workflow_pass(seed, flows, true, fails)?;
    let flow = section("workflow_datapath", args, host, t, wall, flows)?;
    let untraced_wall = (untraced_before + untraced(fails)?) / 2.0;
    attempted += hit_ops + miss_ops + flows;
    let own_section = match own {
        "serve_hit" => &hit,
        "serve_miss" => &miss,
        _ => &flow,
    };

    let mut m = Vec::new();
    let mut micros: Vec<f64> = run.micros.iter().map(|&v| f64::from(v)).collect();
    let mut outside: Vec<f64> = run.outside_us.iter().map(|&v| f64::from(v)).collect();
    micros.sort_by(f64::total_cmp);
    outside.sort_by(f64::total_cmp);
    m.push(metric(
        "server.daemon_us.p50",
        util::quantile(&micros, 0.5),
        "us",
    ));
    m.push(metric(
        "server.outside_us.p50",
        util::quantile(&outside, 0.5),
        "us",
    ));
    m.push(metric("server.cache.hit_ratio", run.hit_ratio, "ratio"));
    m.push(metric(
        "server.cache.hot_hit_ratio",
        run.hot_hit_ratio,
        "ratio",
    ));
    m.push(metric("server.cache.evictions", run.evictions, "count"));
    // Server layers: from the workload's own serve sequence when it has one.
    let serve_src = if own == "serve_miss" { &miss } else { &hit };
    for (layer, name) in SERVER_LAYERS {
        let l = serve_src
            .layers
            .get(layer)
            .filter(|l| l.calls > 0)
            .or_else(|| miss.layers.get(layer))
            .copied()
            .unwrap_or_default();
        m.push(metric(name, l.mean_self_us(), "us"));
    }
    let engine_total: u64 = ENGINES
        .iter()
        .map(|(layer, _)| miss.layers.get(layer).map_or(0, |l| l.self_ns))
        .sum();
    let mut share_max: f64 = 0.0;
    for (layer, name) in ENGINES {
        let l = miss.layers.get(layer).copied().unwrap_or_default();
        share_max = share_max.max(l.self_ns as f64 / engine_total.max(1) as f64);
        m.push(metric(name, l.mean_self_us(), "us"));
    }
    for (layer, name) in WORKFLOW_STEPS {
        let l = flow.layers.get(layer).copied().unwrap_or_default();
        m.push(metric(
            name,
            l.self_ns as f64 / 1e6 / flow.ops.max(1) as f64,
            "ms",
        ));
    }
    m.push(metric(
        "datapath.evaluations",
        evals as f64 / flows as f64,
        "count",
    ));
    m.push(metric(
        "explore.assignments_scored",
        scored as f64 / flows as f64,
        "count",
    ));
    m.push(metric("bench.miss_engine_share_max", share_max, "ratio"));
    m.push(metric(
        "bench.trace_overhead_ratio",
        own_section.wall_s / untraced_wall,
        "ratio",
    ));
    m.push(metric(
        "bench.unaccounted_share",
        unaccounted(own_section),
        "ratio",
    ));
    Ok((attempted, m))
}
