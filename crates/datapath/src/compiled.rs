//! Bitsliced evaluation of a whole datapath; see [`CompiledDatapath`].

use sealpaa_cells::{
    accurate_eval, dispatch, splat_planes, transpose_lanes, Backend, CompiledChain, CompiledKernel,
    SimdKernel, SimdWord,
};

use crate::graph::{Datapath, DatapathError, Node, Signal};

/// One node lowered to plane operations; operands are node indices.
#[derive(Debug, Clone)]
enum Op {
    Input { slot: usize },
    Const { value: u64 },
    Add { a: usize, b: usize, chain: usize },
    Shl { a: usize, amount: usize },
    Gate { a: usize, bit: usize },
}

/// A [`Datapath`] lowered for bitsliced evaluation: every node of the graph
/// on one SIMD word of samples (64–512 lanes) per pass.
///
/// [`Datapath::evaluate`] interprets the graph one sample at a time:
/// string-keyed input lookup, a fresh value vector per call and a
/// truth-table walk per adder bit. A `CompiledDatapath` lowers the same
/// graph once onto the bitsliced kernels of `sealpaa-cells`, so a graph
/// and a single chain share one engine:
///
/// * every signal owns `width` consecutive **bit-planes** — bit `l` of
///   plane `i` is bit `i` of sample `l` (the [`SimdWord`] lane order);
/// * `Input` packs lane values with one wide [`transpose_lanes`] (bits at
///   or above the declared width are dropped, as the interpreter masks);
/// * `Const` splats its value once, when the kernel is built;
/// * `Add` zero-extends both operands to the chain width and runs the
///   chain's [`CompiledKernel::eval_into`]; the carry-out word becomes the
///   top plane;
/// * `Shl` copies its operand `amount` planes up over zero planes, `Gate`
///   ANDs every plane with the control's single plane.
///
/// Each signal has an *approximate* and an *exact* plane set. They only
/// diverge below an adder whose chain is not behaviourally exact: there the
/// exact planes come from [`accurate_eval`] over the operands' exact planes,
/// and every later node repeats its operation on the exact side. A node
/// whose cone holds no approximate stage has identical planes on both sides
/// and stores them once.
///
/// The engine is bit-identical to [`Datapath::evaluate`] /
/// [`Datapath::evaluate_exact`] for every lane on every backend; the scalar
/// interpreter stays as its oracle (`crates/propagate/tests/differential.rs`).
///
/// A `CompiledDatapath` is plain data, cheap to build once per call.
///
/// # Examples
///
/// ```
/// use sealpaa_cells::{AdderChain, StandardCell};
/// use sealpaa_datapath::{CompiledDatapath, Datapath};
///
/// let mut dp = Datapath::new();
/// let x = dp.input("x", 4);
/// let y = dp.input("y", 4);
/// let s = dp.add(x, y, AdderChain::uniform(StandardCell::Lpaa1.cell(), 4))?;
/// let compiled = CompiledDatapath::compile(&dp);
/// let (xs, ys) = ([0u64, 7, 15], [1u64, 8, 15]);
/// let mut outputs = Vec::new();
/// compiled.stream(
///     s,
///     3,
///     |start, batch| {
///         let (start, lanes) = (start as usize, batch.lanes());
///         batch.input(0).copy_from_slice(&xs[start..start + lanes]);
///         batch.input(1).copy_from_slice(&ys[start..start + lanes]);
///     },
///     |approx, exact| outputs.push((approx, exact)),
/// )?;
/// for (k, &(approx, exact)) in outputs.iter().enumerate() {
///     let inputs = [("x", xs[k]), ("y", ys[k])];
///     assert_eq!(approx, dp.evaluate(&inputs)?.value(s));
///     assert_eq!(exact, dp.evaluate_exact(&inputs)?.value(s));
/// }
/// # Ok::<(), sealpaa_datapath::DatapathError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledDatapath {
    ops: Vec<Op>,
    /// First plane of node `i`; the last entry is the total plane count.
    offsets: Vec<usize>,
    /// `true` if node `i`'s exact planes can differ from its approximate
    /// ones (an approximate stage sits in its cone).
    diverges: Vec<bool>,
    chains: Vec<CompiledChain>,
    inputs: Vec<String>,
}

impl CompiledDatapath {
    /// Lowers every node of `dp`, compiling each adder chain once.
    pub fn compile(dp: &Datapath) -> CompiledDatapath {
        let mut ops = Vec::with_capacity(dp.len());
        let mut offsets = vec![0];
        let mut diverges: Vec<bool> = Vec::with_capacity(dp.len());
        let mut chains = Vec::new();
        let mut inputs = Vec::new();
        for signal in dp.signals() {
            let width = dp.width(signal);
            let (op, diverging) = match dp.node(signal) {
                Node::Input { name } => {
                    inputs.push(name.clone());
                    (
                        Op::Input {
                            slot: inputs.len() - 1,
                        },
                        false,
                    )
                }
                Node::Const { value } => (Op::Const { value: *value }, false),
                Node::Add { a, b, chain } => {
                    let compiled = CompiledChain::compile(chain);
                    let diverging =
                        !compiled.is_accurate() || diverges[a.index()] || diverges[b.index()];
                    chains.push(compiled);
                    let op = Op::Add {
                        a: a.index(),
                        b: b.index(),
                        chain: chains.len() - 1,
                    };
                    (op, diverging)
                }
                Node::Shl { a, amount } => (
                    Op::Shl {
                        a: a.index(),
                        amount: *amount,
                    },
                    diverges[a.index()],
                ),
                Node::Gate { a, bit } => (
                    Op::Gate {
                        a: a.index(),
                        bit: bit.index(),
                    },
                    diverges[a.index()] || diverges[bit.index()],
                ),
            };
            ops.push(op);
            offsets.push(offsets.last().copied().unwrap_or(0) + width);
            diverges.push(diverging);
        }
        CompiledDatapath {
            ops,
            offsets,
            diverges,
            chains,
            inputs,
        }
    }

    /// The declared input names, in declaration order — the slot order of
    /// [`LaneBatch::input`].
    pub fn inputs(&self) -> impl Iterator<Item = &str> {
        self.inputs.iter().map(String::as_str)
    }

    /// Specializes the engine for word type `W`: per-adder kernels, plane
    /// storage and constant planes. Build once per run, outside the hot
    /// loop. Planes no node operation writes — constants and the low
    /// planes of shifts — are set here, once.
    pub fn kernel<W: SimdWord>(&self) -> DatapathKernel<'_, W> {
        let planes = self.offsets.last().copied().unwrap_or(0);
        let widest_chain = self.chains.iter().map(CompiledChain::width).max();
        let widest_chain = widest_chain.unwrap_or(0);
        let mut kernel = DatapathKernel {
            dp: self,
            adders: self.chains.iter().map(CompiledChain::kernel).collect(),
            approx: vec![W::zero(); planes],
            exact: vec![W::zero(); planes],
            a_buf: vec![W::zero(); widest_chain],
            b_buf: vec![W::zero(); widest_chain],
            staging: [W::zero(); 64],
        };
        for (i, op) in self.ops.iter().enumerate() {
            if let Op::Const { value } = op {
                splat_planes(*value, &mut kernel.approx[self.planes(i)]);
            }
        }
        kernel
    }

    /// Evaluates `samples` samples through the graph, one SIMD word of
    /// lanes at a time on [`Backend::active`], and hands `signal`'s
    /// approximate and exact values to `sink` in sample order.
    ///
    /// Before each batch, `fill(start, batch)` writes the input values of
    /// samples `start .. start + batch.lanes()` into `batch`.
    ///
    /// # Errors
    ///
    /// [`DatapathError::UnknownSignal`] if `signal` is foreign.
    pub fn stream<F, S>(
        &self,
        signal: Signal,
        samples: u64,
        fill: F,
        sink: S,
    ) -> Result<(), DatapathError>
    where
        F: FnMut(u64, &mut LaneBatch<'_>),
        S: FnMut(u64, u64),
    {
        self.stream_with_backend(Backend::active(), signal, samples, fill, sink)
    }

    /// [`stream`](Self::stream) on an explicit backend. The values do not
    /// depend on the backend; only the batch boundaries move.
    ///
    /// # Errors
    ///
    /// [`DatapathError::UnknownSignal`] if `signal` is foreign.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not available on this machine.
    pub fn stream_with_backend<F, S>(
        &self,
        backend: Backend,
        signal: Signal,
        samples: u64,
        fill: F,
        sink: S,
    ) -> Result<(), DatapathError>
    where
        F: FnMut(u64, &mut LaneBatch<'_>),
        S: FnMut(u64, u64),
    {
        if signal.index() >= self.ops.len() {
            return Err(DatapathError::UnknownSignal {
                index: signal.index(),
            });
        }
        dispatch(
            backend,
            Stream {
                dp: self,
                node: signal.index(),
                samples,
                fill,
                sink,
            },
        );
        Ok(())
    }

    fn planes(&self, node: usize) -> std::ops::Range<usize> {
        self.offsets[node]..self.offsets[node + 1]
    }

    /// A node's exact planes: its own if it diverges, else the shared
    /// approximate ones.
    #[inline(always)]
    fn exact_planes<'s, W>(&self, node: usize, approx: &'s [W], exact: &'s [W]) -> &'s [W] {
        let planes = self.planes(node);
        if self.diverges[node] {
            &exact[planes]
        } else {
            &approx[planes]
        }
    }
}

/// The input lanes of one batch: slot `k` (declaration order, see
/// [`CompiledDatapath::inputs`]) holds one value per lane.
#[derive(Debug)]
pub struct LaneBatch<'a> {
    values: &'a mut [u64],
    stride: usize,
    lanes: usize,
}

impl LaneBatch<'_> {
    /// Samples in this batch (the last batch may be partial).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Input slot `k`'s values, one per lane. Bits at or above the input's
    /// declared width are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not an input slot.
    pub fn input(&mut self, k: usize) -> &mut [u64] {
        &mut self.values[k * self.stride..k * self.stride + self.lanes]
    }
}

/// A [`CompiledDatapath`] specialized for word type `W`, with its plane
/// storage; obtained from [`CompiledDatapath::kernel`].
#[derive(Debug, Clone)]
pub struct DatapathKernel<'a, W> {
    dp: &'a CompiledDatapath,
    adders: Vec<CompiledKernel<W>>,
    approx: Vec<W>,
    exact: Vec<W>,
    a_buf: Vec<W>,
    b_buf: Vec<W>,
    staging: [W; 64],
}

impl<W: SimdWord> DatapathKernel<'_, W> {
    /// Evaluates one batch. `lanes[k * W::LANES + l]` is input slot `k`'s
    /// value in lane `l`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is shorter than `inputs × W::LANES`.
    #[inline(always)]
    pub fn eval(&mut self, lanes: &[u64]) {
        let dp = self.dp;
        for (i, op) in dp.ops.iter().enumerate() {
            let out = dp.planes(i);
            let diverges = dp.diverges[i];
            match *op {
                Op::Input { slot } => {
                    let values = &lanes[slot * W::LANES..(slot + 1) * W::LANES];
                    for (l, row) in self.staging.iter_mut().enumerate() {
                        *row = W::from_fn(|s| values[s * 64 + l]);
                    }
                    transpose_lanes(&mut self.staging);
                    self.approx[out.clone()].copy_from_slice(&self.staging[..out.len()]);
                }
                Op::Const { .. } => {}
                Op::Add { a, b, chain } => {
                    let width = out.len() - 1;
                    let (sum, cout) = (out.start..out.end - 1, out.end - 1);
                    zero_extend(&mut self.a_buf[..width], &self.approx[dp.planes(a)]);
                    zero_extend(&mut self.b_buf[..width], &self.approx[dp.planes(b)]);
                    self.approx[cout] = self.adders[chain].eval_into(
                        &self.a_buf[..width],
                        &self.b_buf[..width],
                        W::zero(),
                        &mut self.approx[sum.clone()],
                    );
                    if diverges {
                        let (approx, exact) = (&self.approx, &self.exact);
                        zero_extend(&mut self.a_buf[..width], dp.exact_planes(a, approx, exact));
                        zero_extend(&mut self.b_buf[..width], dp.exact_planes(b, approx, exact));
                        self.exact[cout] = accurate_eval(
                            &self.a_buf[..width],
                            &self.b_buf[..width],
                            W::zero(),
                            &mut self.exact[sum],
                        );
                    }
                }
                Op::Shl { a, amount } => {
                    // The `amount` low planes are never written: they keep
                    // the zeros the kernel was built with.
                    let src = dp.planes(a);
                    self.approx.copy_within(src.clone(), out.start + amount);
                    if diverges {
                        // A diverging shift has a diverging operand, whose
                        // exact planes live in `exact`.
                        self.exact.copy_within(src, out.start + amount);
                    }
                }
                Op::Gate { a, bit } => {
                    let src = dp.planes(a).start;
                    let control = self.approx[dp.planes(bit).start];
                    for (j, plane) in out.clone().enumerate() {
                        self.approx[plane] = self.approx[src + j] & control;
                    }
                    if diverges {
                        let control = dp.exact_planes(bit, &self.approx, &self.exact)[0];
                        for (j, plane) in out.enumerate() {
                            let value = dp.exact_planes(a, &self.approx, &self.exact)[j];
                            self.exact[plane] = value & control;
                        }
                    }
                }
            }
        }
    }

    /// Writes `signal`'s value in lanes `0 .. out.len()` of the last
    /// [`eval`](Self::eval) into `out` — the exact reference's value if
    /// `exact`, else the approximate one.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is foreign or `out` is longer than `W::LANES`.
    #[inline(always)]
    pub fn values(&self, signal: Signal, exact: bool, out: &mut [u64]) {
        assert!(out.len() <= W::LANES, "a word holds at most W::LANES lanes");
        let node = signal.index();
        let planes = if exact {
            self.dp.exact_planes(node, &self.approx, &self.exact)
        } else {
            &self.approx[self.dp.planes(node)]
        };
        let mut m = [W::zero(); 64];
        m[..planes.len()].copy_from_slice(planes);
        transpose_lanes(&mut m);
        for (l, value) in out.iter_mut().enumerate() {
            *value = m[l % 64].word(l / 64);
        }
    }
}

/// Copies `src` into the low planes of `dst` and zeroes the rest.
#[inline(always)]
fn zero_extend<W: SimdWord>(dst: &mut [W], src: &[W]) {
    dst[..src.len()].copy_from_slice(src);
    dst[src.len()..].fill(W::zero());
}

/// [`CompiledDatapath::stream`]'s batch loop, dispatched to the backend's
/// word type.
struct Stream<'a, F, S> {
    dp: &'a CompiledDatapath,
    node: usize,
    samples: u64,
    fill: F,
    sink: S,
}

impl<F, S> SimdKernel for Stream<'_, F, S>
where
    F: FnMut(u64, &mut LaneBatch<'_>),
    S: FnMut(u64, u64),
{
    type Out = ();

    #[inline(always)]
    fn run<W: SimdWord>(mut self) {
        let mut kernel = self.dp.kernel::<W>();
        let mut lanes = vec![0u64; self.dp.inputs.len() * W::LANES];
        let mut approx = vec![0u64; W::LANES];
        let mut exact = vec![0u64; W::LANES];
        let signal = Signal::new(self.node);
        let mut start = 0u64;
        while start < self.samples {
            let batch = (self.samples - start).min(W::LANES as u64) as usize;
            (self.fill)(
                start,
                &mut LaneBatch {
                    values: &mut lanes,
                    stride: W::LANES,
                    lanes: batch,
                },
            );
            kernel.eval(&lanes);
            kernel.values(signal, false, &mut approx[..batch]);
            kernel.values(signal, true, &mut exact[..batch]);
            for (&a, &e) in approx[..batch].iter().zip(&exact[..batch]) {
                (self.sink)(a, e);
            }
            start += batch as u64;
        }
    }
}
