//! The compiled-datapath differential suite: the bitsliced graph engine
//! must reproduce the scalar interpreter bit for bit.
//!
//! * `CompiledDatapath` lane values equal `Datapath::evaluate` /
//!   `evaluate_exact` for every signal, on every word type and every
//!   backend this machine runs.
//! * `replay` / `monte_carlo` equal their `_scalar` oracles in every
//!   `ReplayQuality` field, compared through `f64::to_bits` — the f64 sums
//!   must round exactly as the per-sample loop rounds them.
//! * Every error path returns the oracle's error.
//!
//! `SEALPAA_SIMD` forces the backend `replay` and `monte_carlo` run on;
//! the CI gate runs this suite once per available backend.

use sealpaa_cells::simd::{W128, W256, W512};
use sealpaa_cells::{AdderChain, Backend, Cell, StandardCell};
use sealpaa_datapath::{CompiledDatapath, Datapath, DatapathError, Signal};
use sealpaa_propagate::{
    monte_carlo, monte_carlo_scalar, replay, replay_scalar, topologies, PropagateError,
    ReplayQuality,
};
use sealpaa_sim::SplitMix64;

/// A named graph with its output signal.
struct Graph {
    name: String,
    dp: Datapath,
    output: Signal,
}

impl Graph {
    fn from_topology(name: &str, topo: topologies::Topology) -> Graph {
        Graph {
            name: name.to_string(),
            dp: topo.datapath,
            output: topo.output,
        }
    }
}

/// `((x + 37) << 2 gated by c) + y`: a non-zero constant, a shift and a
/// gate downstream of an adder, so all three run on diverged planes.
fn const_shift_gate(cell: &Cell) -> Graph {
    let mut dp = Datapath::new();
    let x = dp.input("x", 6);
    let c = dp.input("c", 1);
    let y = dp.input("y", 9);
    let k = dp.constant(37, 6);
    let xk = dp
        .add(x, k, AdderChain::uniform(cell.clone(), 6))
        .expect("fits");
    let shifted = dp.shl(xk, 2).expect("fits");
    let gated = dp.gate(shifted, c).expect("1-bit control");
    let output = dp
        .add(gated, y, AdderChain::uniform(cell.clone(), 9))
        .expect("fits");
    Graph {
        name: "const_shift_gate".to_string(),
        dp,
        output,
    }
}

/// FIR, conv2d (3×3 Gaussian), the shift-add multiplier, a FIR with a
/// zero tap (a `Const` node) and the hand-built constant/shift/gate graph,
/// every adder `cell`.
fn graphs(cell: StandardCell) -> Vec<Graph> {
    let c = cell.cell();
    let gauss = vec![vec![1u64, 2, 1], vec![2, 4, 2], vec![1, 2, 1]];
    vec![
        Graph::from_topology("fir", topologies::fir(&c, &[1, 2, 1], 8).expect("fits")),
        Graph::from_topology(
            "fir_zero_tap",
            topologies::fir(&c, &[3, 0, 5, 1], 7).expect("fits"),
        ),
        Graph::from_topology("conv2d", topologies::conv2d(&c, &gauss, 8).expect("fits")),
        Graph::from_topology("multiplier", topologies::multiplier(&c, 5).expect("fits")),
        const_shift_gate(&c),
    ]
}

/// Random per-adder cell assignments of every graph shape.
fn hybrids(rng: &mut SplitMix64) -> Vec<Graph> {
    graphs(StandardCell::Lpaa1)
        .into_iter()
        .map(|g| {
            let cells: Vec<Cell> =
                g.dp.adders()
                    .iter()
                    .map(|_| StandardCell::ALL[(rng.next_u64() % 8) as usize].cell())
                    .collect();
            Graph {
                name: format!("{}_hybrid", g.name),
                dp: g.dp.with_adder_cells(&cells).expect("one cell per adder"),
                output: g.output,
            }
        })
        .collect()
}

fn every_graph() -> Vec<Graph> {
    let mut all: Vec<Graph> = StandardCell::ALL.into_iter().flat_map(graphs).collect();
    let mut rng = SplitMix64::new(0xD1FF);
    for _ in 0..3 {
        all.extend(hybrids(&mut rng));
    }
    all
}

fn input_count(dp: &Datapath) -> usize {
    dp.input_names().count()
}

/// Full 64-bit random values: every input sees bits above its width.
fn random_stream(rng: &mut SplitMix64, len: usize) -> Vec<u64> {
    (0..len).map(|_| rng.next_u64()).collect()
}

fn assert_bit_identical(fast: &ReplayQuality, oracle: &ReplayQuality, context: &str) {
    let fields = |q: &ReplayQuality| {
        [
            q.samples,
            q.error_rate.to_bits(),
            q.mean_error.to_bits(),
            q.mse.to_bits(),
            q.signal_power.to_bits(),
        ]
    };
    assert_eq!(
        fields(fast),
        fields(oracle),
        "{context}: {fast:?} vs {oracle:?}"
    );
}

/// Evaluates `samples` sliding windows of `values` through every signal of
/// the compiled kernel on word type `W` and checks each lane against the
/// interpreter.
fn check_every_signal<W: sealpaa_cells::SimdWord>(g: &Graph, values: &[u64], samples: usize) {
    let compiled = CompiledDatapath::compile(&g.dp);
    let names: Vec<&str> = g.dp.input_names().collect();
    let mut kernel = compiled.kernel::<W>();
    let mut lanes = vec![0u64; names.len() * W::LANES];
    let signals: Vec<Signal> = g.dp.signals().collect();
    let mut approx = vec![vec![0u64; W::LANES]; signals.len()];
    let mut exact = vec![vec![0u64; W::LANES]; signals.len()];
    for start in (0..samples).step_by(W::LANES) {
        let batch = (samples - start).min(W::LANES);
        for k in 0..names.len() {
            lanes[k * W::LANES..k * W::LANES + batch]
                .copy_from_slice(&values[start + k..start + k + batch]);
        }
        kernel.eval(&lanes);
        for (j, &signal) in signals.iter().enumerate() {
            kernel.values(signal, false, &mut approx[j][..batch]);
            kernel.values(signal, true, &mut exact[j][..batch]);
        }
        for l in 0..batch {
            let pairs: Vec<(&str, u64)> = names
                .iter()
                .enumerate()
                .map(|(k, &n)| (n, values[start + l + k]))
                .collect();
            let want = g.dp.evaluate(&pairs).expect("bound");
            let want_exact = g.dp.evaluate_exact(&pairs).expect("bound");
            for (j, &signal) in signals.iter().enumerate() {
                assert_eq!(
                    (approx[j][l], exact[j][l]),
                    (want.value(signal), want_exact.value(signal)),
                    "{} on {}-lane words: signal #{} sample {}",
                    g.name,
                    W::LANES,
                    signal.index(),
                    start + l
                );
            }
        }
    }
}

#[test]
fn every_signal_matches_the_interpreter_on_every_word_type() {
    let mut rng = SplitMix64::new(0x5EA1);
    for g in graphs(StandardCell::Lpaa5)
        .into_iter()
        .chain(hybrids(&mut rng))
    {
        let samples = 600;
        let values = random_stream(&mut rng, samples + input_count(&g.dp));
        check_every_signal::<u64>(&g, &values, samples);
        check_every_signal::<W128>(&g, &values, samples);
        check_every_signal::<W256>(&g, &values, samples);
        check_every_signal::<W512>(&g, &values, samples);
    }
}

#[test]
fn streamed_outputs_match_the_interpreter_on_every_backend() {
    let mut rng = SplitMix64::new(0xBAC4);
    let backends = Backend::available();
    for g in every_graph() {
        let samples = 130;
        let values = random_stream(&mut rng, samples + input_count(&g.dp));
        let names: Vec<&str> = g.dp.input_names().collect();
        let compiled = CompiledDatapath::compile(&g.dp);
        assert!(compiled.inputs().eq(names.iter().copied()));
        for &backend in &backends {
            let mut got = Vec::new();
            compiled
                .stream_with_backend(
                    backend,
                    g.output,
                    samples as u64,
                    |start, batch| {
                        let (start, lanes) = (start as usize, batch.lanes());
                        for k in 0..names.len() {
                            batch
                                .input(k)
                                .copy_from_slice(&values[start + k..start + k + lanes]);
                        }
                    },
                    |approx, exact| got.push((approx, exact)),
                )
                .expect("own output");
            assert_eq!(got.len(), samples, "{} on {backend}", g.name);
            for (w, &pair) in got.iter().enumerate() {
                let inputs: Vec<(&str, u64)> = names
                    .iter()
                    .enumerate()
                    .map(|(k, &n)| (n, values[w + k]))
                    .collect();
                let approx = g.dp.evaluate(&inputs).expect("bound").value(g.output);
                let exact = g.dp.evaluate_exact(&inputs).expect("bound").value(g.output);
                assert_eq!(pair, (approx, exact), "{} on {backend}, sample {w}", g.name);
            }
        }
    }
}

/// Window counts at every batch edge of the active backend.
fn edge_counts() -> Vec<usize> {
    let lanes = Backend::active().lanes();
    let mut counts = vec![1, 63, 64, 65, lanes - 1, lanes, lanes + 1, 2 * lanes + 3];
    counts.sort_unstable();
    counts.dedup();
    counts
}

#[test]
fn replay_matches_the_scalar_oracle_bit_for_bit() {
    let mut rng = SplitMix64::new(0x4E91);
    for g in every_graph() {
        let inputs = input_count(&g.dp);
        for windows in edge_counts() {
            let values = random_stream(&mut rng, windows + inputs - 1);
            let fast = replay(&g.dp, g.output, &values).expect("valid");
            let oracle = replay_scalar(&g.dp, g.output, &values).expect("valid");
            assert_eq!(fast.samples, windows as u64);
            assert_bit_identical(&fast, &oracle, &format!("{} x{windows}", g.name));
        }
    }
}

/// Per-bit probabilities for every input: skewed, with certain-0 and
/// certain-1 bits mixed in.
fn skewed_inputs(dp: &Datapath, rng: &mut SplitMix64) -> Vec<(String, Vec<f64>)> {
    dp.signals()
        .filter_map(|s| match dp.kind(s) {
            sealpaa_datapath::NodeKind::Input { name } => Some((
                name.to_string(),
                (0..dp.width(s))
                    .map(|_| match rng.next_u64() % 6 {
                        0 => 0.0,
                        1 => 1.0,
                        r => r as f64 / 6.0,
                    })
                    .collect(),
            )),
            _ => None,
        })
        .collect()
}

/// Named per-bit probabilities, as `monte_carlo` takes them.
type Inputs<'a> = Vec<(&'a str, Vec<f64>)>;

fn as_refs(inputs: &[(String, Vec<f64>)]) -> Inputs<'_> {
    inputs
        .iter()
        .map(|(n, bits)| (n.as_str(), bits.clone()))
        .collect()
}

#[test]
fn monte_carlo_matches_the_scalar_oracle_bit_for_bit() {
    let mut rng = SplitMix64::new(0x3C4A);
    for g in every_graph() {
        let owned = skewed_inputs(&g.dp, &mut rng);
        let inputs = as_refs(&owned);
        let mut counts = edge_counts();
        counts.insert(0, 0);
        for samples in counts {
            let seed = rng.next_u64();
            let fast = monte_carlo(&g.dp, g.output, &inputs, samples as u64, seed).expect("valid");
            let oracle =
                monte_carlo_scalar(&g.dp, g.output, &inputs, samples as u64, seed).expect("valid");
            assert_eq!(fast.samples, samples as u64);
            assert_bit_identical(&fast, &oracle, &format!("{} x{samples}", g.name));
        }
    }
}

#[test]
fn uniform_monte_carlo_matches_at_workflow_scale() {
    // The acceptance suite's sample count on its two main graphs.
    for g in graphs(StandardCell::Lpaa5).into_iter().take(3) {
        let owned: Vec<(String, Vec<f64>)> =
            g.dp.signals()
                .filter_map(|s| match g.dp.kind(s) {
                    sealpaa_datapath::NodeKind::Input { name } => {
                        Some((name.to_string(), vec![0.5; g.dp.width(s)]))
                    }
                    _ => None,
                })
                .collect();
        let inputs = as_refs(&owned);
        let fast = monte_carlo(&g.dp, g.output, &inputs, 20_000, 7).expect("valid");
        let oracle = monte_carlo_scalar(&g.dp, g.output, &inputs, 20_000, 7).expect("valid");
        assert_bit_identical(&fast, &oracle, &g.name);
    }
}

#[test]
fn error_paths_match_the_oracles() {
    let fir = graphs(StandardCell::Lpaa2).remove(0);
    let owned: Vec<(String, Vec<f64>)> = fir
        .dp
        .input_names()
        .map(|n| (n.to_string(), vec![0.5; 8]))
        .collect();
    let good = as_refs(&owned);

    // An output signal from a larger graph.
    let foreign = graphs(StandardCell::Lpaa2).remove(2).output;
    assert!(foreign.index() >= fir.dp.len());
    let unknown: PropagateError = DatapathError::UnknownSignal {
        index: foreign.index(),
    }
    .into();
    assert_eq!(replay(&fir.dp, foreign, &[1, 2, 3]), Err(unknown.clone()));
    assert_eq!(
        replay_scalar(&fir.dp, foreign, &[1, 2, 3]),
        Err(unknown.clone())
    );
    assert_eq!(
        monte_carlo(&fir.dp, foreign, &good, 10, 1),
        Err(unknown.clone())
    );
    assert_eq!(
        monte_carlo_scalar(&fir.dp, foreign, &good, 10, 1),
        Err(unknown)
    );
    // The signal check comes before the stream-length check.
    assert!(matches!(
        replay(&fir.dp, foreign, &[]),
        Err(PropagateError::Datapath(
            DatapathError::UnknownSignal { .. }
        ))
    ));

    let short = PropagateError::StreamTooShort { needed: 3, got: 2 };
    assert_eq!(replay(&fir.dp, fir.output, &[1, 2]), Err(short.clone()));
    assert_eq!(replay_scalar(&fir.dp, fir.output, &[1, 2]), Err(short));

    let bad_inputs: Vec<(Inputs, DatapathError)> = vec![
        (
            good[..2].to_vec(),
            DatapathError::MissingInput {
                name: "x2".to_string(),
            },
        ),
        (
            [good.clone(), vec![("bogus", vec![0.5])]].concat(),
            DatapathError::UnknownInput {
                name: "bogus".to_string(),
            },
        ),
        (
            vec![good[0].clone(), good[1].clone(), ("x2", vec![0.5; 7])],
            DatapathError::BadProbabilities {
                name: "x2".to_string(),
            },
        ),
        (
            vec![
                ("x0", [vec![1.5], vec![0.5; 7]].concat()),
                good[1].clone(),
                good[2].clone(),
            ],
            DatapathError::BadProbabilities {
                name: "x0".to_string(),
            },
        ),
        (
            vec![
                good[0].clone(),
                ("x1", [vec![f64::NAN], vec![0.5; 7]].concat()),
                good[2].clone(),
            ],
            DatapathError::BadProbabilities {
                name: "x1".to_string(),
            },
        ),
    ];
    for (inputs, want) in bad_inputs {
        let want: PropagateError = want.into();
        assert_eq!(
            monte_carlo(&fir.dp, fir.output, &inputs, 10, 1),
            Err(want.clone())
        );
        assert_eq!(
            monte_carlo_scalar(&fir.dp, fir.output, &inputs, 10, 1),
            Err(want)
        );
    }
}

#[test]
fn input_free_graphs_match_the_oracles() {
    // Constants only: every window and sample evaluates the same values,
    // and an empty stream still covers the zero inputs once.
    let mut dp = Datapath::new();
    let a = dp.constant(45, 6);
    let b = dp.constant(27, 6);
    let output = dp
        .add(a, b, AdderChain::uniform(StandardCell::Lpaa3.cell(), 6))
        .expect("fits");
    for values in [&[][..], &[7, 8, 9][..]] {
        let fast = replay(&dp, output, values).expect("valid");
        let oracle = replay_scalar(&dp, output, values).expect("valid");
        assert_eq!(fast.samples, values.len() as u64 + 1);
        assert_bit_identical(&fast, &oracle, "constants replay");
    }
    let fast = monte_carlo(&dp, output, &[], 100, 5).expect("valid");
    let oracle = monte_carlo_scalar(&dp, output, &[], 100, 5).expect("valid");
    assert_bit_identical(&fast, &oracle, "constants monte carlo");
}
