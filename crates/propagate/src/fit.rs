//! Model fitting from traces and fidelity reporting.
//!
//! The analytical engine consumes per-bit Bernoulli probabilities. This
//! module closes the loop with measured data: it fits those probabilities
//! from value streams (via [`sealpaa_trace::TraceStats`], reporting how
//! badly the bit-independence assumption is violated), replays the same
//! stream bit-true through the datapath for ground truth, and packages
//! prediction-vs-measurement gaps as a [`DatapathFidelity`] report.

use sealpaa_datapath::{CompiledDatapath, Datapath, DatapathError, NodeKind, Signal};
use sealpaa_sim::Xoshiro256pp;
use sealpaa_trace::{TraceRecord, TraceStats, VarId};

use crate::engine::{propagate_moments, validated_input_bits, MomentPrediction};
use crate::error::PropagateError;

/// A fitted per-bit Bernoulli model for one datapath input.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedInput {
    /// The input's name.
    pub name: String,
    /// Fitted `P(bit = 1)`, LSB first, one entry per input bit.
    pub bits: Vec<f64>,
    /// Samples the fit used.
    pub samples: u64,
    /// Worst absolute gap `|P(x ∧ y) − P(x)·P(y)|` over bit pairs — how
    /// badly the engine's bit-independence assumption is violated by this
    /// stream (0 = perfectly independent).
    pub independence_violation: f64,
}

/// Fits a per-bit model for one `width`-bit input from a value stream.
///
/// # Errors
///
/// [`PropagateError::EmptyTrace`] if `values` is empty.
pub fn fit_input(name: &str, width: usize, values: &[u64]) -> Result<FittedInput, PropagateError> {
    if values.is_empty() {
        return Err(PropagateError::EmptyTrace);
    }
    let records: Vec<TraceRecord> = values
        .iter()
        .map(|&v| TraceRecord::new(v, 0, false))
        .collect();
    let stats =
        TraceStats::from_records(width, &records).expect("datapath widths are within 1..=64");
    Ok(FittedInput {
        name: name.to_string(),
        bits: (0..width).map(|i| stats.p(VarId::A(i))).collect(),
        samples: stats.records(),
        independence_violation: stats.independence_violation(),
    })
}

/// The datapath's inputs in declaration order, as `(name, width)`.
fn declared_inputs(dp: &Datapath) -> Vec<(String, usize)> {
    dp.signals()
        .filter_map(|s| match dp.kind(s) {
            NodeKind::Input { name } => Some((name.to_string(), dp.width(s))),
            _ => None,
        })
        .collect()
}

/// Fits every datapath input from one value stream using a sliding window:
/// with `n` inputs, input `k` sees `values[k .. k + values.len() − n + 1]`
/// — the same alignment [`replay`] uses, so a fit and its ground truth
/// describe the same data.
///
/// # Errors
///
/// [`PropagateError::StreamTooShort`] if the stream cannot cover every
/// input once.
pub fn fit_inputs(dp: &Datapath, values: &[u64]) -> Result<Vec<FittedInput>, PropagateError> {
    let inputs = declared_inputs(dp);
    if values.len() < inputs.len() {
        return Err(PropagateError::StreamTooShort {
            needed: inputs.len(),
            got: values.len(),
        });
    }
    let window = values.len() - inputs.len() + 1;
    inputs
        .iter()
        .enumerate()
        .map(|(k, (name, width))| {
            let mask = if *width >= 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let slice: Vec<u64> = values[k..k + window].iter().map(|v| v & mask).collect();
            fit_input(name, *width, &slice)
        })
        .collect()
}

/// Measured output quality from a bit-true run against the exact
/// reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayQuality {
    /// Outputs compared.
    pub samples: u64,
    /// Fraction of outputs that differed from the exact reference.
    pub error_rate: f64,
    /// Mean signed error distance `E[D]`.
    pub mean_error: f64,
    /// Mean squared error distance `E[D²]`.
    pub mse: f64,
    /// Mean squared exact output `E[V²]`.
    pub signal_power: f64,
}

impl ReplayQuality {
    /// Measured `SNR = 10·log10(E[V²] / E[D²])` in dB; `None` for an
    /// error-free run or a zero-power signal (the
    /// [`Image::psnr_against`](sealpaa_datapath::Image::psnr_against)
    /// convention).
    pub fn snr_db(&self) -> Option<f64> {
        (self.mse > 0.0 && self.signal_power > 0.0)
            .then(|| 10.0 * (self.signal_power / self.mse).log10())
    }

    /// `√E[D²]`.
    pub fn rms_error(&self) -> f64 {
        self.mse.max(0.0).sqrt()
    }
}

/// Streams output samples through an accumulator shared by [`replay`] and
/// [`monte_carlo`].
struct QualityAccumulator {
    samples: u64,
    wrong: u64,
    sum_d: f64,
    sum_d2: f64,
    sum_v2: f64,
}

impl QualityAccumulator {
    fn new() -> Self {
        QualityAccumulator {
            samples: 0,
            wrong: 0,
            sum_d: 0.0,
            sum_d2: 0.0,
            sum_v2: 0.0,
        }
    }

    fn record(&mut self, approx: u64, exact: u64) {
        self.samples += 1;
        let d = approx as f64 - exact as f64;
        if approx != exact {
            self.wrong += 1;
        }
        self.sum_d += d;
        self.sum_d2 += d * d;
        self.sum_v2 += (exact as f64) * (exact as f64);
    }

    fn finish(self) -> ReplayQuality {
        let n = self.samples.max(1) as f64;
        ReplayQuality {
            samples: self.samples,
            error_rate: self.wrong as f64 / n,
            mean_error: self.sum_d / n,
            mse: self.sum_d2 / n,
            signal_power: self.sum_v2 / n,
        }
    }
}

/// Replays a value stream bit-true through the datapath (sliding-window
/// alignment, see [`fit_inputs`]) and measures the output against the
/// exact reference.
///
/// The windows run through a [`CompiledDatapath`], one SIMD word of windows
/// per pass on the active backend; the output values reach the accumulator
/// in window order, so the result is bit-identical to [`replay_scalar`].
///
/// # Errors
///
/// [`PropagateError::StreamTooShort`] if the stream cannot cover every
/// input once; [`DatapathError::UnknownSignal`] for a foreign output.
pub fn replay(
    dp: &Datapath,
    output: Signal,
    values: &[u64],
) -> Result<ReplayQuality, PropagateError> {
    let window = replay_windows(dp, output, values)?;
    let compiled = CompiledDatapath::compile(dp);
    let slots = compiled.inputs().count();
    let mut acc = QualityAccumulator::new();
    compiled.stream(
        output,
        window as u64,
        |start, batch| {
            let (start, lanes) = (start as usize, batch.lanes());
            for k in 0..slots {
                batch
                    .input(k)
                    .copy_from_slice(&values[k + start..k + start + lanes]);
            }
        },
        |approx, exact| acc.record(approx, exact),
    )?;
    Ok(acc.finish())
}

/// The scalar replay oracle: [`Datapath::evaluate`] and
/// [`Datapath::evaluate_exact`] once per window. Slow, obviously correct —
/// the differential baseline for [`replay`].
///
/// # Errors
///
/// As [`replay`].
pub fn replay_scalar(
    dp: &Datapath,
    output: Signal,
    values: &[u64],
) -> Result<ReplayQuality, PropagateError> {
    let window = replay_windows(dp, output, values)?;
    let inputs = declared_inputs(dp);
    let mut acc = QualityAccumulator::new();
    for w in 0..window {
        let pairs: Vec<(&str, u64)> = inputs
            .iter()
            .enumerate()
            .map(|(k, (name, width))| {
                let mask = if *width >= 64 {
                    u64::MAX
                } else {
                    (1u64 << width) - 1
                };
                (name.as_str(), values[k + w] & mask)
            })
            .collect();
        let approx = dp.evaluate(&pairs)?.value(output);
        let exact = dp.evaluate_exact(&pairs)?.value(output);
        acc.record(approx, exact);
    }
    Ok(acc.finish())
}

/// Validates a replay request and returns its window count.
fn replay_windows(dp: &Datapath, output: Signal, values: &[u64]) -> Result<usize, PropagateError> {
    if output.index() >= dp.len() {
        return Err(DatapathError::UnknownSignal {
            index: output.index(),
        }
        .into());
    }
    let inputs = dp.input_names().count();
    if values.len() < inputs {
        return Err(PropagateError::StreamTooShort {
            needed: inputs,
            got: values.len(),
        });
    }
    Ok(values.len() - inputs + 1)
}

/// Monte-Carlo ground truth: draws inputs bit-by-bit from the same
/// per-bit Bernoulli model the analytical engine consumes and measures the
/// output against the exact reference.
///
/// The samples run through a [`CompiledDatapath`], one SIMD word per pass
/// on the active backend. Each sample's inputs are drawn from one
/// [`Xoshiro256pp`] stream in sample → input → bit order and the outputs
/// reach the accumulator in sample order, so the result is bit-identical
/// to [`monte_carlo_scalar`].
///
/// # Errors
///
/// Wrapped [`DatapathError`] on input/signal mismatches.
pub fn monte_carlo(
    dp: &Datapath,
    output: Signal,
    inputs: &[(&str, Vec<f64>)],
    samples: u64,
    seed: u64,
) -> Result<ReplayQuality, PropagateError> {
    let bits = sampled_input_bits(dp, output, inputs)?;
    let compiled = CompiledDatapath::compile(dp);
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut acc = QualityAccumulator::new();
    compiled.stream(
        output,
        samples,
        |_, batch| {
            for lane in 0..batch.lanes() {
                for (k, bits) in bits.iter().enumerate() {
                    let mut value = 0u64;
                    for (i, &p) in bits.iter().enumerate() {
                        value |= u64::from(rng.next_bool(p)) << i;
                    }
                    batch.input(k)[lane] = value;
                }
            }
        },
        |approx, exact| acc.record(approx, exact),
    )?;
    Ok(acc.finish())
}

/// The scalar Monte-Carlo oracle: the same draws as [`monte_carlo`], one
/// [`Datapath::evaluate`] / [`Datapath::evaluate_exact`] pair per sample.
/// Slow, obviously correct — the differential baseline for
/// [`monte_carlo`].
///
/// # Errors
///
/// As [`monte_carlo`].
pub fn monte_carlo_scalar(
    dp: &Datapath,
    output: Signal,
    inputs: &[(&str, Vec<f64>)],
    samples: u64,
    seed: u64,
) -> Result<ReplayQuality, PropagateError> {
    let bits = sampled_input_bits(dp, output, inputs)?;
    let named: Vec<(String, Vec<f64>)> = dp.input_names().map(str::to_string).zip(bits).collect();
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut acc = QualityAccumulator::new();
    for _ in 0..samples {
        let pairs: Vec<(&str, u64)> = named
            .iter()
            .map(|(name, bits)| {
                let mut value = 0u64;
                for (i, &p) in bits.iter().enumerate() {
                    if rng.next_bool(p) {
                        value |= 1 << i;
                    }
                }
                (name.as_str(), value)
            })
            .collect();
        let approx = dp.evaluate(&pairs)?.value(output);
        let exact = dp.evaluate_exact(&pairs)?.value(output);
        acc.record(approx, exact);
    }
    Ok(acc.finish())
}

/// Validates a Monte-Carlo request and returns each input's per-bit
/// probabilities, in declaration order.
fn sampled_input_bits(
    dp: &Datapath,
    output: Signal,
    inputs: &[(&str, Vec<f64>)],
) -> Result<Vec<Vec<f64>>, PropagateError> {
    if output.index() >= dp.len() {
        return Err(DatapathError::UnknownSignal {
            index: output.index(),
        }
        .into());
    }
    let bits_by_node = validated_input_bits(dp, inputs)?;
    Ok(dp
        .signals()
        .filter(|s| matches!(dp.kind(*s), NodeKind::Input { .. }))
        .map(|s| bits_by_node[s.index()].clone().expect("validated above"))
        .collect())
}

/// An analytical prediction next to its measured ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct DatapathFidelity {
    /// The analytical prediction.
    pub predicted: MomentPrediction<f64>,
    /// The measured quality.
    pub measured: ReplayQuality,
}

impl DatapathFidelity {
    /// `predicted SNR − measured SNR` in dB; `None` if either side is
    /// undefined (error-free or zero-power).
    pub fn snr_gap_db(&self) -> Option<f64> {
        Some(self.predicted.snr_db()? - self.measured.snr_db()?)
    }

    /// `predicted MSE / measured MSE`; `None` for an error-free
    /// measurement.
    pub fn mse_ratio(&self) -> Option<f64> {
        (self.measured.mse > 0.0).then(|| self.predicted.error_second / self.measured.mse)
    }
}

/// Fits per-input models from a value stream, predicts analytically, and
/// replays the same stream for ground truth — the full
/// fit-predict-validate loop in one call.
///
/// # Errors
///
/// As [`fit_inputs`], [`propagate_moments`] and [`replay`].
pub fn fit_and_check(
    dp: &Datapath,
    output: Signal,
    values: &[u64],
) -> Result<(Vec<FittedInput>, DatapathFidelity), PropagateError> {
    let fits = fit_inputs(dp, values)?;
    let named: Vec<(&str, Vec<f64>)> = fits
        .iter()
        .map(|f| (f.name.as_str(), f.bits.clone()))
        .collect();
    let predicted = propagate_moments(dp, output, &named)?;
    let measured = replay(dp, output, values)?;
    Ok((
        fits,
        DatapathFidelity {
            predicted,
            measured,
        },
    ))
}

/// Predicts analytically and checks against Monte-Carlo sampling of the
/// *same* per-bit model — isolates the engine's propagation error from
/// model-fit error.
///
/// # Errors
///
/// As [`propagate_moments`] and [`monte_carlo`].
pub fn check_against_monte_carlo(
    dp: &Datapath,
    output: Signal,
    inputs: &[(&str, Vec<f64>)],
    samples: u64,
    seed: u64,
) -> Result<DatapathFidelity, PropagateError> {
    let predicted = propagate_moments(dp, output, inputs)?;
    let measured = monte_carlo(dp, output, inputs, samples, seed)?;
    Ok(DatapathFidelity {
        predicted,
        measured,
    })
}
