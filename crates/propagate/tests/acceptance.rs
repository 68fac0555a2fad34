//! Accuracy acceptance suite: the analytical prediction must stay within
//! documented bounds of ground truth on realistic topologies.
//!
//! The engine's one approximation is operand/bit independence at each
//! adder (exact on single adders, documented in DESIGN.md §10). These
//! tests quantify what that costs on the paper's motivating datapaths,
//! with fixed seeds so the bounds are deterministic:
//!
//! * FIR `[1, 2, 1]`, 8-bit uniform inputs: |SNR gap| ≤ 3.5 dB per cell,
//! * 3×3 Gaussian conv2d, 8-bit pixels: |SNR gap| ≤ 4.5 dB per cell,
//! * 6-bit array multiplier (strongly correlated partial products — the
//!   engine's worst case): |SNR gap| ≤ 7 dB,
//! * best and worst cell by *predicted* SNR match ground truth on FIR and
//!   conv2d — the ordering a design-space search actually consumes,
//! * the FIR and conv2d bounds again at 100k Monte-Carlo samples, where
//!   the measured SNR's own sampling noise is √5 smaller.

use sealpaa_cells::StandardCell;
use sealpaa_propagate::{
    check_against_monte_carlo, fit_and_check, predict, topologies, DatapathFidelity,
};

const APPROX_CELLS: [StandardCell; 7] = [
    StandardCell::Lpaa1,
    StandardCell::Lpaa2,
    StandardCell::Lpaa3,
    StandardCell::Lpaa4,
    StandardCell::Lpaa5,
    StandardCell::Lpaa6,
    StandardCell::Lpaa7,
];

fn uniform_inputs(names: &[String], width: usize) -> Vec<(&str, Vec<f64>)> {
    names
        .iter()
        .map(|n| (n.as_str(), vec![0.5; width]))
        .collect()
}

fn fir_fidelity(cell: StandardCell) -> DatapathFidelity {
    let topo = topologies::fir(&cell.cell(), &[1, 2, 1], 8).expect("fits");
    let inputs = uniform_inputs(&topo.inputs, 8);
    check_against_monte_carlo(&topo.datapath, topo.output, &inputs, 20_000, 7).expect("valid")
}

fn conv2d_fidelity(cell: StandardCell) -> DatapathFidelity {
    let kernel = vec![vec![1u64, 2, 1], vec![2, 4, 2], vec![1, 2, 1]];
    let topo = topologies::conv2d(&cell.cell(), &kernel, 8).expect("fits");
    let inputs = uniform_inputs(&topo.inputs, 8);
    check_against_monte_carlo(&topo.datapath, topo.output, &inputs, 20_000, 11).expect("valid")
}

#[test]
fn fir_snr_prediction_within_documented_bounds() {
    for cell in APPROX_CELLS {
        let f = fir_fidelity(cell);
        let gap = f.snr_gap_db().expect("approximate cells err");
        assert!(
            gap.abs() <= 3.5,
            "cell {}: predicted {:.2} dB, measured {:.2} dB, gap {gap:+.2}",
            cell.name(),
            f.predicted.snr_db().expect("errs"),
            f.measured.snr_db().expect("errs"),
        );
    }
}

#[test]
fn conv2d_snr_prediction_within_documented_bounds() {
    for cell in APPROX_CELLS {
        let f = conv2d_fidelity(cell);
        let gap = f.snr_gap_db().expect("approximate cells err");
        assert!(gap.abs() <= 4.5, "cell {}: gap {gap:+.2} dB", cell.name());
    }
}

#[test]
fn multiplier_snr_prediction_within_documented_bounds() {
    // Partial products all share `x`, the engine's documented worst case.
    for cell in [
        StandardCell::Lpaa2,
        StandardCell::Lpaa5,
        StandardCell::Lpaa7,
    ] {
        let topo = topologies::multiplier(&cell.cell(), 6).expect("fits");
        let mut inputs: Vec<(&str, Vec<f64>)> = vec![("x", vec![0.5; 6])];
        for name in &topo.inputs[1..] {
            inputs.push((name.as_str(), vec![0.5]));
        }
        let f = check_against_monte_carlo(&topo.datapath, topo.output, &inputs, 20_000, 13)
            .expect("valid");
        let gap = f.snr_gap_db().expect("approximate cells err");
        assert!(gap.abs() <= 7.0, "cell {}: gap {gap:+.2} dB", cell.name());
    }
}

#[test]
fn predicted_ranking_identifies_best_and_worst_cell() {
    for fidelity in [
        fir_fidelity as fn(StandardCell) -> DatapathFidelity,
        conv2d_fidelity,
    ] {
        let scored: Vec<(StandardCell, f64, f64)> = APPROX_CELLS
            .iter()
            .map(|&cell| {
                let f = fidelity(cell);
                (
                    cell,
                    f.predicted.snr_db().expect("errs"),
                    f.measured.snr_db().expect("errs"),
                )
            })
            .collect();
        let best = |key: fn(&(StandardCell, f64, f64)) -> f64| {
            scored
                .iter()
                .max_by(|a, b| key(a).total_cmp(&key(b)))
                .expect("non-empty")
                .0
        };
        assert_eq!(best(|s| s.1), best(|s| s.2), "best cell by prediction");
        let worst = |key: fn(&(StandardCell, f64, f64)) -> f64| {
            scored
                .iter()
                .min_by(|a, b| key(a).total_cmp(&key(b)))
                .expect("non-empty")
                .0
        };
        assert_eq!(worst(|s| s.1), worst(|s| s.2), "worst cell by prediction");
    }
}

#[test]
fn fit_and_replay_loop_stays_within_fir_bounds() {
    // Pseudo-random 8-bit stream: the fitted per-bit model then carries
    // both propagation and model-fit error; the bound still holds.
    let values: Vec<u64> = (0u64..30_000)
        .map(|i| {
            let mut z = i
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0x51f1_5eed);
            z ^= z >> 30;
            z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^= z >> 27;
            z & 0xff
        })
        .collect();
    for cell in [
        StandardCell::Lpaa1,
        StandardCell::Lpaa2,
        StandardCell::Lpaa6,
    ] {
        let topo = topologies::fir(&cell.cell(), &[1, 2, 1], 8).expect("fits");
        let (fits, f) = fit_and_check(&topo.datapath, topo.output, &values).expect("valid");
        assert_eq!(fits.len(), 3);
        assert!(
            fits.iter().all(|fit| fit.independence_violation < 0.02),
            "stream should be near-independent"
        );
        let gap = f.snr_gap_db().expect("approximate cells err");
        assert!(gap.abs() <= 3.5, "cell {}: gap {gap:+.2} dB", cell.name());
    }
}

#[test]
fn composed_pmf_agrees_with_moment_propagation() {
    let topo = topologies::fir(&StandardCell::Lpaa5.cell(), &[1, 2, 1], 8).expect("fits");
    let inputs = uniform_inputs(&topo.inputs, 8);
    let p = predict(&topo.datapath, topo.output, &inputs, true).expect("narrow adders");
    let pmf = p.pmf.expect("requested");
    assert!(pmf.truncated_mass() < 1e-9, "support fits untruncated");
    // Means agree exactly up to float noise (both are linear compositions
    // of the same per-adder laws); second moments differ only through the
    // cross terms, which the PMF convolution models identically.
    assert!(
        (pmf.mean() - p.moments.error_mean).abs() <= 1e-6 * p.moments.error_mean.abs().max(1.0),
        "pmf mean {} vs moments {}",
        pmf.mean(),
        p.moments.error_mean
    );
    assert!(
        (pmf.second_moment() - p.moments.error_second).abs()
            <= 1e-6 * p.moments.error_second.max(1.0),
        "pmf second {} vs moments {}",
        pmf.second_moment(),
        p.moments.error_second
    );
}

#[test]
fn accurate_datapath_predicts_and_measures_error_free() {
    let topo = topologies::fir(&StandardCell::Accurate.cell(), &[1, 2, 1], 8).expect("fits");
    let inputs = uniform_inputs(&topo.inputs, 8);
    let f =
        check_against_monte_carlo(&topo.datapath, topo.output, &inputs, 2_000, 3).expect("valid");
    assert_eq!(f.predicted.error_second, 0.0);
    assert_eq!(f.measured.mse, 0.0);
    assert_eq!(f.predicted.snr_db(), None);
    assert_eq!(f.measured.snr_db(), None);
    assert_eq!(f.snr_gap_db(), None);
}

/// The FIR and conv2d bound checks again at 100k Monte-Carlo samples (5x
/// the per-cell tests above, with fresh seeds): the measured SNR's own
/// sampling noise shrinks by √5, so a bound that only held by sampling
/// luck would show here.
#[test]
fn snr_bounds_hold_at_100k_samples() {
    let kernel = vec![vec![1u64, 2, 1], vec![2, 4, 2], vec![1, 2, 1]];
    for cell in APPROX_CELLS {
        let fir = topologies::fir(&cell.cell(), &[1, 2, 1], 8).expect("fits");
        let conv = topologies::conv2d(&cell.cell(), &kernel, 8).expect("fits");
        for (name, topo, bound, seed) in [("fir", fir, 3.5, 17), ("conv2d", conv, 4.5, 19)] {
            let inputs = uniform_inputs(&topo.inputs, 8);
            let f = check_against_monte_carlo(&topo.datapath, topo.output, &inputs, 100_000, seed)
                .expect("valid");
            let gap = f.snr_gap_db().expect("approximate cells err");
            assert!(
                gap.abs() <= bound,
                "{name} {}: gap {gap:+.2} dB",
                cell.name()
            );
        }
    }
}
