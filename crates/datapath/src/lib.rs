//! Accelerator datapaths built from approximate adders.
//!
//! The paper's introduction motivates the analysis with DSP-style
//! accelerators and closes Sec. 1.1 noting that "the analysis complexity
//! will further aggravate when these adders form an accelerator data path".
//! This crate provides that layer:
//!
//! * [`Datapath`] — a DAG of signals whose add nodes are concrete
//!   [`sealpaa_cells::AdderChain`]s (homogeneous, hybrid, accurate — anything the cell
//!   library expresses), evaluated bit-true and against an exact reference,
//! * [`CompiledDatapath`] — the same graph lowered onto the bitsliced
//!   `CompiledChain` kernels, evaluating one SIMD word of samples per pass
//!   bit-identically to the interpreter,
//! * [`estimate`] — the analytical composition: per-bit signal
//!   probabilities are propagated node by node (using the paper's machinery
//!   per adder) and every adder gets its analytical error probability plus a
//!   union-bound estimate for the whole datapath,
//! * [`CsaTree`] — multi-operand carry-save reduction through approximate
//!   3:2 compressors (the paper's CSA topology),
//! * [`ShiftAddMultiplier`] — an approximate array-style multiplier that
//!   accumulates partial products through approximate chains (the multiplier
//!   context of reference 16 of the paper), and
//! * [`FirFilter`] — a constant-coefficient FIR filter computed entirely
//!   with approximate additions, the paper's image/DSP motivation made
//!   concrete.
//!
//! # Examples
//!
//! ```
//! use sealpaa_cells::StandardCell;
//! use sealpaa_datapath::Datapath;
//!
//! // sum = (x + y) + z over 8-bit LPAA 6 adders.
//! let mut dp = Datapath::new();
//! let x = dp.input("x", 8);
//! let y = dp.input("y", 8);
//! let z = dp.input("z", 8);
//! let chain = |w| sealpaa_cells::AdderChain::uniform(StandardCell::Lpaa6.cell(), w);
//! let xy = dp.add(x, y, chain(8))?; // output is 9 bits (carry included)
//! let sum = dp.add(xy, z, chain(9))?;
//! let outputs = dp.evaluate(&[("x", 85), ("y", 34), ("z", 8)])?;
//! assert_eq!(outputs.value(sum), 127); // correct here: no error row was hit
//! # Ok::<(), sealpaa_datapath::DatapathError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
mod conv2d;
mod csa;
mod estimate;
mod fir;
mod graph;
mod multiplier;

pub use compiled::{CompiledDatapath, DatapathKernel, LaneBatch};
pub use conv2d::{Conv2d, Image};
pub use csa::CsaTree;
pub use estimate::{estimate, simulate, AdderEstimate, DatapathEstimate};
pub use fir::{FirFilter, FirQuality};
pub use graph::{Datapath, DatapathError, Evaluation, NodeKind, Signal};
pub use multiplier::{MultiplierQuality, ShiftAddMultiplier};
