//! `workflow_datapath`: the designer's loop on a datapath, in-process —
//! synthesize a stream, fit input models, predict, optimize the per-adder
//! cells under a power budget, and verify the winner by replay and
//! Monte-Carlo.

use sealpaa_cells::{Cell, StandardCell};
use sealpaa_explore::{accurate_cell_with_proxy_costs, best_datapath_assignment, Budget};
use sealpaa_propagate::{fit_inputs, monte_carlo, propagate_moments, replay, topologies, Topology};
use sealpaa_trace::SynthKind;

use crate::trace::Tracer;
use crate::util::Rng;

/// Samples per synthetic stream (one replay window per sample, less the
/// graph's input count).
pub const STREAM_RECORDS: usize = 6000;
/// Monte-Carlo samples of the verify step.
pub const MC_SAMPLES: u64 = 20_000;
/// Graphs in the seed-chosen pool the workflows cycle through.
const POOL: usize = 8;
const WIDTH: usize = 8;

/// One graph of the pool with its search set-up.
pub struct Graph {
    pub name: &'static str,
    pub topo: Topology,
    pub candidates: Vec<Cell>,
    pub budget: Budget,
    /// The propagate acceptance bound on |predicted − measured SNR| (dB).
    pub bound_db: f64,
    /// Assignments the budget admits: the leaves the search scores.
    pub admitted: u64,
}

/// Summed adder power of an assignment, folded per chain width in stage
/// order like the search does.
fn admitted_assignments(widths: &[usize], powers: &[f64], cap: f64) -> u64 {
    fn walk(widths: &[usize], powers: &[f64], cap: f64, spent: f64) -> u64 {
        let Some((&w, rest)) = widths.split_first() else {
            return 1;
        };
        powers
            .iter()
            .map(|&p| {
                let mut chain = 0.0;
                for _ in 0..w {
                    chain += p;
                }
                let spent = spent + chain;
                if spent > cap {
                    0
                } else {
                    walk(rest, powers, cap, spent)
                }
            })
            .sum()
    }
    walk(widths, powers, cap, 0.0)
}

/// Weights a 3×3 kernel is drawn from (one seed-chosen arrangement each).
const CONV_WEIGHTS: [u64; 9] = [1, 1, 1, 2, 2, 2, 4, 4, 1];
/// Taps a 7-tap FIR is drawn from; two taps of popcount 2 give it eight
/// adders, like the kernel.
const FIR_TAPS: [u64; 7] = [1, 2, 4, 1, 3, 5, 2];

fn shuffled(rng: &mut Rng, values: &[u64]) -> Vec<u64> {
    let mut v = values.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// The seed-chosen pool: alternating 3×3 conv2d and 7-tap FIR graphs whose
/// seed picks the arrangement of a fixed weight multiset and the baseline
/// cell, so every seed's workflows cost about the same.
pub fn pool(seed: u64) -> Result<Vec<Graph>, String> {
    let mut rng = Rng::new(seed, 10);
    let candidates = vec![
        accurate_cell_with_proxy_costs(),
        StandardCell::Lpaa2.cell(),
        StandardCell::Lpaa5.cell(),
    ];
    let powers: Vec<f64> = candidates
        .iter()
        .map(|c| c.characteristics().map_or(0.0, |ch| ch.power_nw))
        .collect();
    (0..POOL)
        .map(|g| {
            let cell = [StandardCell::Lpaa2, StandardCell::Lpaa5][rng.below(2) as usize].cell();
            let (name, topo, bound_db) = if g % 2 == 0 {
                let w = shuffled(&mut rng, &CONV_WEIGHTS);
                let kernel: Vec<Vec<u64>> = w.chunks(3).map(<[u64]>::to_vec).collect();
                ("conv2d", topologies::conv2d(&cell, &kernel, WIDTH), 4.5)
            } else {
                let taps = shuffled(&mut rng, &FIR_TAPS);
                ("fir", topologies::fir(&cell, &taps, WIDTH), 3.5)
            };
            let topo = topo.map_err(|e| e.to_string())?;
            let widths: Vec<usize> = topo
                .datapath
                .signals()
                .filter_map(|s| match topo.datapath.kind(s) {
                    sealpaa_datapath::NodeKind::Add { chain, .. } => Some(chain.width()),
                    _ => None,
                })
                .collect();
            let all_accurate: f64 = widths.iter().map(|&w| w as f64 * powers[0]).sum();
            let cap = 0.4 * all_accurate;
            Ok(Graph {
                name,
                admitted: admitted_assignments(&widths, &powers, cap),
                topo,
                candidates: candidates.clone(),
                budget: Budget {
                    max_power_nw: Some(cap),
                    max_area_ge: None,
                },
                bound_db,
            })
        })
        .collect()
}

/// The stream family. Uniform: the propagate acceptance bounds are stated
/// for near-independent input bits, and bell-shaped `gaussian-sum` streams
/// break them on FIR graphs (gaps above 5 dB), so they would fail the
/// verify step by design rather than by regression.
const STREAM: SynthKind = SynthKind::Uniform;

/// Workflow `i` of a seed's sequence: its graph and seeds.
pub struct Job {
    pub graph: usize,
    pub stream_seed: u64,
    pub mc_seed: u64,
}

pub fn job(seed: u64, i: u64) -> Job {
    let mut rng = Rng::new(seed ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d), 11);
    Job {
        graph: (i % POOL as u64) as usize,
        stream_seed: rng.next_u64(),
        mc_seed: rng.next_u64(),
    }
}

/// What one workflow proved.
pub struct Verdict {
    /// `None` when every check passed.
    pub failure: Option<String>,
    /// Interpreter evaluations the workflow ran (approximate and exact).
    pub evaluations: u64,
}

/// Runs one workflow; each step is a span when `t` is on.
pub fn run(g: &Graph, job: &Job, t: &mut Tracer) -> Result<Verdict, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let (dp, out) = (&g.topo.datapath, g.topo.output);
    t.enter("bench.workflow");
    let records = t.span("trace.synth", || {
        sealpaa_trace::generate(STREAM, WIDTH, STREAM_RECORDS, job.stream_seed)
    });
    let values: Vec<u64> = records.map_err(|e| err(&e))?.iter().map(|r| r.a).collect();
    // fit_and_check, one public step at a time.
    let fits = t
        .span("propagate.fit", || fit_inputs(dp, &values))
        .map_err(|e| err(&e))?;
    let named: Vec<(&str, Vec<f64>)> = fits
        .iter()
        .map(|f| (f.name.as_str(), f.bits.clone()))
        .collect();
    let predicted = t
        .span("propagate.predict", || propagate_moments(dp, out, &named))
        .map_err(|e| err(&e))?;
    let baseline = t
        .span("datapath.replay", || replay(dp, out, &values))
        .map_err(|e| err(&e))?;
    let best = t
        .span("explore.optimize", || {
            best_datapath_assignment(dp, out, &named, &g.candidates, &g.budget, 1)
        })
        .map_err(|e| err(&e))?
        .ok_or("the budget admits no assignment")?;
    let tuned = dp.with_adder_cells(&best.cells).map_err(|e| err(&e))?;
    let verified = t
        .span("datapath.replay", || replay(&tuned, out, &values))
        .map_err(|e| err(&e))?;
    let sampled = t
        .span("datapath.monte_carlo", || {
            monte_carlo(&tuned, out, &named, MC_SAMPLES, job.mc_seed)
        })
        .map_err(|e| err(&e))?;
    t.exit();

    let mut failure = None;
    if best
        .cells
        .iter()
        .all(|c| c.truth_table() == g.candidates[0].truth_table())
    {
        failure = Some("the budget admitted the all-accurate assignment".to_owned());
    } else if verified.mse.is_nan() || verified.mse > baseline.mse {
        failure = Some(format!(
            "tuned replay MSE {} exceeds the all-LPAA baseline {}",
            verified.mse, baseline.mse
        ));
    } else if let (Some(p), Some(m)) = (best.snr_db(), verified.snr_db()) {
        if (p - m).abs() > g.bound_db {
            failure = Some(format!(
                "{}: predicted {p:.2} dB vs replayed {m:.2} dB exceeds {} dB",
                g.name, g.bound_db
            ));
        }
    } else if best.snr_db().is_some() != verified.snr_db().is_some() {
        failure = Some("prediction and replay disagree on whether the design errs".to_owned());
    }
    if failure.is_none() && predicted.error_second <= 0.0 {
        failure = Some("the all-LPAA baseline predicts no error".to_owned());
    }
    let windows = (values.len() + 1 - fits.len()) as u64;
    Ok(Verdict {
        failure,
        evaluations: 2 * (2 * windows + sampled.samples),
    })
}
