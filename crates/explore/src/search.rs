//! Hybrid-adder search algorithms.
//!
//! # Prefix-sharing design-space exploration
//!
//! The M/K/L recursion is a left-fold over [`CarryState`], so two designs
//! that agree on their first *i* stages share the analysis state after
//! stage *i* exactly. The exhaustive searches below therefore walk the
//! `C^N` assignment space as a depth-first traversal of the per-stage cell
//! tree, carrying a [`PrefixStepper`]: one O(1) stage step per tree edge
//! (`Σ C^i ≈ C^N·C/(C−1)` steps total) instead of a full O(N) analysis per
//! leaf. Power and area accumulate along the same tree path with the same
//! left-fold f64 operation order as [`AdderChain::total_power_nw`], so every
//! reported [`Evaluation`] is bit-identical to the naive
//! re-analyze-per-design route (pinned by `exhaustive_best_reference` in
//! the differential tests).
//!
//! Both searches are one instance of the crate's search driver (a
//! one-candidate-per-stage tree, the same walker the datapath search
//! uses); enumeration is that walker under an unconstrained [`Budget`], so
//! it never prunes. The driver owns the threading and the determinism
//! contract: leaves carry their odometer index (stage 0 cycling fastest),
//! so the returned designs — order, best pick, Pareto front, every f64
//! bit — are identical for every thread count.
//!
//! [`CarryState`]: sealpaa_core::CarryState

use std::fmt;

use sealpaa_cells::{AdderChain, Cell, CellCharacteristics, InputProfile, StandardCell};
use sealpaa_core::{analyze, MklMatrices, PrefixStepper};

use crate::driver::{self, Levels};

/// Errors produced by the exploration functions.
#[derive(Debug, Clone, PartialEq)]
pub enum ExploreError {
    /// A candidate cell has no power/area characteristics, so budgeted
    /// search cannot score it.
    MissingCharacteristics {
        /// Name of the offending cell.
        cell: String,
    },
    /// No candidate cells were supplied.
    NoCandidates,
    /// The exhaustive enumeration would exceed the configured cap.
    SpaceTooLarge {
        /// Number of designs the request implies.
        designs: u128,
        /// Maximum the enumerator accepts.
        max: u128,
    },
    /// Bit-true verification of a design failed (e.g. the width exceeds
    /// what exhaustive simulation will enumerate).
    Simulation {
        /// The underlying simulator error.
        source: sealpaa_sim::SimError,
    },
    /// The block-based analytical engine rejected a configuration (width
    /// mismatch, stepper misuse, or error-distance support overflow).
    Blocks {
        /// The underlying block-engine error.
        source: sealpaa_blocks::BlockError,
    },
    /// The datapath propagation engine rejected a graph or its inputs
    /// (name mismatch, errorful gate control, …).
    Propagate {
        /// The underlying propagation error.
        source: sealpaa_propagate::PropagateError,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::MissingCharacteristics { cell } => {
                write!(f, "cell {cell:?} has no power/area characteristics")
            }
            ExploreError::NoCandidates => f.write_str("candidate cell list is empty"),
            ExploreError::SpaceTooLarge { designs, max } => {
                write!(
                    f,
                    "design space of {designs} points exceeds the cap of {max}"
                )
            }
            ExploreError::Simulation { source } => {
                write!(f, "bit-true verification failed: {source}")
            }
            ExploreError::Blocks { source } => {
                write!(f, "block analysis failed: {source}")
            }
            ExploreError::Propagate { source } => {
                write!(f, "datapath propagation failed: {source}")
            }
        }
    }
}

impl std::error::Error for ExploreError {}

/// Resource budget a design must respect. `None` means unconstrained.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Budget {
    /// Maximum total power in nanowatts.
    pub max_power_nw: Option<f64>,
    /// Maximum total area in gate equivalents.
    pub max_area_ge: Option<f64>,
}

impl Budget {
    /// `true` if an evaluation fits within the budget.
    pub fn admits(&self, eval: &Evaluation) -> bool {
        self.max_power_nw.is_none_or(|cap| eval.power_nw <= cap)
            && self.max_area_ge.is_none_or(|cap| eval.area_ge <= cap)
    }
}

/// The score of one concrete chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Analytical error probability (the proposed method).
    pub error_probability: f64,
    /// Summed cell power (paper Table 2 units: nW).
    pub power_nw: f64,
    /// Summed cell area (gate equivalents).
    pub area_ge: f64,
}

impl Evaluation {
    /// `true` if `self` is at least as good as `other` on every axis and
    /// strictly better on at least one (Pareto dominance).
    pub fn dominates(&self, other: &Evaluation) -> bool {
        let no_worse = self.error_probability <= other.error_probability
            && self.power_nw <= other.power_nw
            && self.area_ge <= other.area_ge;
        let better = self.error_probability < other.error_probability
            || self.power_nw < other.power_nw
            || self.area_ge < other.area_ge;
        no_worse && better
    }
}

/// A scored hybrid design.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridDesign {
    /// The chain itself (stage cells, LSB first).
    pub chain: AdderChain,
    /// Its score under the profile it was searched for.
    pub evaluation: Evaluation,
}

impl fmt::Display for HybridDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} → P(err)={:.6}, {:.0} nW, {:.2} GE",
            self.chain,
            self.evaluation.error_probability,
            self.evaluation.power_nw,
            self.evaluation.area_ge
        )
    }
}

/// An accurate full adder annotated with *estimated* power/area so it can
/// participate in budgeted search (the paper's Table 2 characterises only
/// LPAA 1–5).
///
/// The estimate extrapolates Table 2: LPAA 1 is the least-simplified
/// approximate mirror adder at 771 nW / 4.23 GE; a conventional (unsimplified)
/// mirror adder has roughly 1.4× its transistor count, giving ≈ 1080 nW and
/// ≈ 5.9 GE. The exact figures only shift where budget lines fall — every
/// qualitative conclusion in the examples is insensitive to them.
pub fn accurate_cell_with_proxy_costs() -> Cell {
    Cell::custom_with_characteristics(
        "AccuFA (est.)",
        StandardCell::Accurate.truth_table(),
        CellCharacteristics::new(1080.0, 5.9),
    )
}

/// Scores one chain under a profile: analytical error probability plus
/// summed power/area.
///
/// # Errors
///
/// Returns [`ExploreError::MissingCharacteristics`] if any stage lacks
/// power/area data.
///
/// # Panics
///
/// Panics if `profile.width() != chain.width()` (the chain is constructed by
/// this crate's own search entry points, which guarantee matching widths).
pub fn evaluate(
    chain: &AdderChain,
    profile: &InputProfile<f64>,
) -> Result<Evaluation, ExploreError> {
    for cell in chain {
        if cell.characteristics().is_none() {
            return Err(ExploreError::MissingCharacteristics {
                cell: cell.name().to_owned(),
            });
        }
    }
    let analysis = analyze(chain, profile).expect("widths are validated by callers");
    Ok(Evaluation {
        error_probability: analysis.error_probability(),
        power_nw: chain.total_power_nw().expect("checked above"),
        area_ge: chain.total_area_ge().expect("checked above"),
    })
}

/// Hard cap on the exhaustive enumeration size (designs are materialized).
pub const MAX_ENUMERATION: u128 = 2_000_000;

/// Hard cap on the non-materializing best-design search, which keeps only
/// the incumbent and therefore tolerates much larger spaces (N=8 over all
/// 8 cells is 16.7M designs).
pub const MAX_SEARCH: u128 = 100_000_000;

/// The chain design space as a one-candidate-per-stage tree for the
/// search driver, with the per-candidate data every tree edge needs derived
/// once: one [`PrefixStepper`] push per edge, and power/area folding as
/// `+ powers[c]` per stage — the f64 operation order of
/// [`AdderChain::total_power_nw`].
pub(crate) struct ChainTree<'a> {
    candidates: &'a [Cell],
    mkls: Vec<MklMatrices>,
    powers: Vec<f64>,
    areas: Vec<f64>,
    profile: &'a InputProfile<f64>,
    budget: Budget,
}

impl<'a> ChainTree<'a> {
    /// Validates every candidate up front (the DFS scores designs without
    /// materializing chains, so the per-chain characteristics check in
    /// [`evaluate`] never runs). The first candidate missing characteristics
    /// is reported — the same cell the odometer enumeration would have
    /// tripped over first.
    pub(crate) fn new(
        candidates: &'a [Cell],
        profile: &'a InputProfile<f64>,
        budget: Budget,
    ) -> Result<Self, ExploreError> {
        let mut mkls = Vec::with_capacity(candidates.len());
        let mut powers = Vec::with_capacity(candidates.len());
        let mut areas = Vec::with_capacity(candidates.len());
        for cell in candidates {
            let ch =
                cell.characteristics()
                    .ok_or_else(|| ExploreError::MissingCharacteristics {
                        cell: cell.name().to_owned(),
                    })?;
            mkls.push(MklMatrices::from_truth_table(cell.truth_table()));
            powers.push(ch.power_nw);
            areas.push(ch.area_ge);
        }
        Ok(ChainTree {
            candidates,
            mkls,
            powers,
            areas,
            profile,
            budget,
        })
    }

    fn chain_of(&self, assignment: &[usize]) -> AdderChain {
        AdderChain::from_stages(
            assignment
                .iter()
                .map(|&c| self.candidates[c].clone())
                .collect(),
        )
    }

    pub(crate) fn design(
        &self,
        (error_probability, power_nw, area_ge): (f64, f64, f64),
        assignment: &[usize],
    ) -> HybridDesign {
        HybridDesign {
            chain: self.chain_of(assignment),
            evaluation: Evaluation {
                error_probability,
                power_nw,
                area_ge,
            },
        }
    }
}

impl<'a> Levels for ChainTree<'a> {
    type Stepper = PrefixStepper<'a, f64>;

    fn candidates(&self) -> usize {
        self.candidates.len()
    }

    fn levels(&self) -> usize {
        self.profile.width()
    }

    fn budget(&self) -> &Budget {
        &self.budget
    }

    fn stepper(&self) -> Result<Self::Stepper, ExploreError> {
        Ok(PrefixStepper::new(self.profile))
    }

    fn depth(&self, stepper: &Self::Stepper) -> usize {
        stepper.depth()
    }

    fn truncate(&self, stepper: &mut Self::Stepper, depth: usize) {
        stepper.truncate(depth);
    }

    fn push(&self, stepper: &mut Self::Stepper, candidate: usize) -> Result<(), ExploreError> {
        stepper.push(&self.mkls[candidate]);
        Ok(())
    }

    fn cost(&self, _level: usize, candidate: usize) -> (f64, f64) {
        (self.powers[candidate], self.areas[candidate])
    }

    fn error(&self, stepper: &Self::Stepper) -> f64 {
        stepper.error_probability()
    }
}

/// Enumerates and scores every `candidates^width` design (small spaces
/// only) with `threads` workers, prefix-sharing the analysis across designs.
///
/// Results are in the same order as [`enumerate_designs`] (stage-0 cell
/// cycling fastest) and are byte-identical for every thread count: workers
/// own contiguous ranges of stage-0 subtrees and the merged designs are
/// sorted by odometer index.
///
/// # Errors
///
/// * [`ExploreError::NoCandidates`] for an empty candidate list.
/// * [`ExploreError::MissingCharacteristics`] if a candidate lacks data.
/// * [`ExploreError::SpaceTooLarge`] beyond [`MAX_ENUMERATION`] designs.
pub fn exhaustive_designs(
    candidates: &[Cell],
    profile: &InputProfile<f64>,
    threads: usize,
) -> Result<Vec<HybridDesign>, ExploreError> {
    if candidates.is_empty() {
        return Err(ExploreError::NoCandidates);
    }
    let width = profile.width();
    let designs = (candidates.len() as u128).saturating_pow(width as u32);
    if designs > MAX_ENUMERATION {
        return Err(ExploreError::SpaceTooLarge {
            designs,
            max: MAX_ENUMERATION,
        });
    }
    if width == 0 {
        let chain = AdderChain::from_stages(Vec::new());
        let evaluation = evaluate(&chain, profile)?;
        return Ok(vec![HybridDesign { chain, evaluation }]);
    }
    let tree = ChainTree::new(candidates, profile, Budget::default())?;
    driver::collect(&tree, threads, |score, assignment| {
        tree.design(score, assignment)
    })
}

/// Enumerates and scores every `candidates^width` design (small spaces
/// only), single-threaded. See [`exhaustive_designs`] for the parallel
/// variant; both return identical results.
///
/// # Errors
///
/// * [`ExploreError::NoCandidates`] for an empty candidate list.
/// * [`ExploreError::MissingCharacteristics`] if a candidate lacks data.
/// * [`ExploreError::SpaceTooLarge`] beyond [`MAX_ENUMERATION`] designs.
pub fn enumerate_designs(
    candidates: &[Cell],
    profile: &InputProfile<f64>,
) -> Result<Vec<HybridDesign>, ExploreError> {
    exhaustive_designs(candidates, profile, 1)
}

/// The provably best design under a budget, by exhaustive prefix-sharing
/// search over `threads` workers. Returns `None` if no design fits the
/// budget.
///
/// Ties on error probability are broken by lower power, then lower area,
/// then earliest odometer position — so the winner is identical for every
/// thread count. Designs are never materialized (only the incumbent's
/// assignment is kept), which is why the cap is [`MAX_SEARCH`] rather than
/// [`MAX_ENUMERATION`].
///
/// # Errors
///
/// * [`ExploreError::NoCandidates`] for an empty candidate list.
/// * [`ExploreError::MissingCharacteristics`] if a candidate lacks data.
/// * [`ExploreError::SpaceTooLarge`] beyond [`MAX_SEARCH`] designs.
pub fn exhaustive_best_with(
    candidates: &[Cell],
    profile: &InputProfile<f64>,
    budget: &Budget,
    threads: usize,
) -> Result<Option<HybridDesign>, ExploreError> {
    if candidates.is_empty() {
        return Err(ExploreError::NoCandidates);
    }
    let width = profile.width();
    let designs = (candidates.len() as u128).saturating_pow(width as u32);
    if designs > MAX_SEARCH {
        return Err(ExploreError::SpaceTooLarge {
            designs,
            max: MAX_SEARCH,
        });
    }
    if width == 0 {
        let chain = AdderChain::from_stages(Vec::new());
        let evaluation = evaluate(&chain, profile)?;
        return Ok(budget
            .admits(&evaluation)
            .then_some(HybridDesign { chain, evaluation }));
    }
    let tree = ChainTree::new(candidates, profile, *budget)?;
    let best = driver::best(&tree, threads, |&score| score)?;
    Ok(best.map(|incumbent| tree.design(incumbent.evaluation, &incumbent.path)))
}

/// The provably best design under a budget, single-threaded. See
/// [`exhaustive_best_with`]; both return identical results.
///
/// Ties on error probability are broken by lower power, then lower area.
///
/// # Errors
///
/// Same conditions as [`exhaustive_best_with`].
pub fn exhaustive_best(
    candidates: &[Cell],
    profile: &InputProfile<f64>,
    budget: &Budget,
) -> Result<Option<HybridDesign>, ExploreError> {
    exhaustive_best_with(candidates, profile, budget, 1)
}

/// The pre-stepper reference search: a fresh odometer enumeration with one
/// full [`evaluate`] (complete O(N) analysis) per design. Kept as the
/// differential-test oracle and the benchmark baseline for the
/// prefix-sharing engine; do not use it for real workloads.
///
/// # Errors
///
/// Same conditions as [`exhaustive_best_with`].
pub fn exhaustive_best_reference(
    candidates: &[Cell],
    profile: &InputProfile<f64>,
    budget: &Budget,
) -> Result<Option<HybridDesign>, ExploreError> {
    if candidates.is_empty() {
        return Err(ExploreError::NoCandidates);
    }
    let width = profile.width();
    let designs = (candidates.len() as u128).saturating_pow(width as u32);
    if designs > MAX_SEARCH {
        return Err(ExploreError::SpaceTooLarge {
            designs,
            max: MAX_SEARCH,
        });
    }
    let mut best: Option<HybridDesign> = None;
    let mut assignment = vec![0usize; width];
    loop {
        let chain =
            AdderChain::from_stages(assignment.iter().map(|&c| candidates[c].clone()).collect());
        let evaluation = evaluate(&chain, profile)?;
        if budget.admits(&evaluation) {
            let better = match &best {
                None => true,
                Some(b) => {
                    let (e, p, a) = (
                        evaluation.error_probability,
                        evaluation.power_nw,
                        evaluation.area_ge,
                    );
                    let (be, bp, ba) = (
                        b.evaluation.error_probability,
                        b.evaluation.power_nw,
                        b.evaluation.area_ge,
                    );
                    (e, p, a) < (be, bp, ba)
                }
            };
            if better {
                best = Some(HybridDesign { chain, evaluation });
            }
        }
        // Odometer increment over candidate indices.
        let mut i = 0;
        loop {
            if i == width {
                return Ok(best);
            }
            assignment[i] += 1;
            if assignment[i] < candidates.len() {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
}

/// Deterministic hill-climbing: start from the lowest-power feasible
/// homogeneous chain, then repeatedly apply the single-stage substitution
/// that most reduces the error probability while staying inside the budget,
/// until no substitution improves. Scales to widths where enumeration
/// cannot go; the tests cross-check it against [`exhaustive_best`] on small
/// spaces.
///
/// Returns `None` if not even the cheapest homogeneous chain fits the
/// budget.
///
/// # Errors
///
/// * [`ExploreError::NoCandidates`] for an empty candidate list.
/// * [`ExploreError::MissingCharacteristics`] if a candidate lacks data.
pub fn local_search_best(
    candidates: &[Cell],
    profile: &InputProfile<f64>,
    budget: &Budget,
) -> Result<Option<HybridDesign>, ExploreError> {
    if candidates.is_empty() {
        return Err(ExploreError::NoCandidates);
    }
    let width = profile.width();
    // Start from the cheapest (by power) homogeneous chain.
    let mut cheapest = 0usize;
    for (i, cell) in candidates.iter().enumerate() {
        let ch = cell
            .characteristics()
            .ok_or_else(|| ExploreError::MissingCharacteristics {
                cell: cell.name().to_owned(),
            })?;
        let cheapest_power = candidates[cheapest]
            .characteristics()
            .expect("validated in earlier iterations")
            .power_nw;
        if ch.power_nw < cheapest_power {
            cheapest = i;
        }
    }
    let ctx = ChainTree::new(candidates, profile, *budget)?;
    let mut assignment = vec![cheapest; width];
    let mut current = evaluate(&ctx.chain_of(&assignment), profile)?;
    if !budget.admits(&current) {
        return Ok(None);
    }
    // Each neighbor differs from the current chain in exactly one stage, so
    // only the suffix from the mutated stage needs re-analysis: rewind the
    // stepper to the mutated depth, push the substitute, replay the
    // original tail. Power/area are re-folded in plain stage order so every
    // f64 matches a fresh `evaluate` of the neighbor bit for bit.
    let mut stepper = PrefixStepper::new(profile);
    loop {
        let mut best_move: Option<(usize, usize, Evaluation)> = None;
        stepper.truncate(0); // the prefix is stale after an applied move
        for stage in 0..width {
            let original = assignment[stage];
            for cand in 0..candidates.len() {
                if cand == original {
                    continue;
                }
                stepper.truncate(stage);
                stepper.push(&ctx.mkls[cand]);
                for &cell in &assignment[stage + 1..width] {
                    stepper.push(&ctx.mkls[cell]);
                }
                let cost_of = |per_cell: &[f64]| {
                    (0..width).fold(0.0, |acc, t| {
                        acc + per_cell[if t == stage { cand } else { assignment[t] }]
                    })
                };
                let eval = Evaluation {
                    error_probability: stepper.error_probability(),
                    power_nw: cost_of(&ctx.powers),
                    area_ge: cost_of(&ctx.areas),
                };
                if !budget.admits(&eval) {
                    continue;
                }
                let improves = eval.error_probability < current.error_probability - 1e-15
                    || (eval.error_probability <= current.error_probability + 1e-15
                        && eval.power_nw < current.power_nw - 1e-12);
                if improves {
                    let better_than_best = match &best_move {
                        None => true,
                        Some((_, _, b)) => {
                            eval.error_probability < b.error_probability
                                || (eval.error_probability == b.error_probability
                                    && eval.power_nw < b.power_nw)
                        }
                    };
                    if better_than_best {
                        best_move = Some((stage, cand, eval));
                    }
                }
            }
            // Re-seat the original cell so deeper stages rewind onto the
            // current assignment's prefix, not the last neighbor's.
            stepper.truncate(stage);
            stepper.push(&ctx.mkls[original]);
        }
        match best_move {
            Some((stage, cand, eval)) => {
                assignment[stage] = cand;
                current = eval;
            }
            None => break,
        }
    }
    let chain = ctx.chain_of(&assignment);
    Ok(Some(HybridDesign {
        chain,
        evaluation: current,
    }))
}

/// Filters a design set down to its Pareto frontier over
/// (error probability, power, area), sorted by ascending error.
pub fn pareto_front(designs: Vec<HybridDesign>) -> Vec<HybridDesign> {
    pareto_by(
        designs,
        |d| (d.evaluation.error_probability, d.evaluation.power_nw),
        |a, b| a.evaluation.dominates(&b.evaluation),
    )
}

/// The Pareto filter behind [`pareto_front`] and
/// [`block_pareto_front`](crate::block_pareto_front): sorts by the
/// `(error, power)` pair `axes` reads, then keeps each design no kept one
/// `dominates`, dropping the kept ones it dominates.
pub(crate) fn pareto_by<T>(
    mut designs: Vec<T>,
    axes: impl Fn(&T) -> (f64, f64),
    dominates: impl Fn(&T, &T) -> bool,
) -> Vec<T> {
    designs.sort_by(|a, b| {
        let ((a_error, a_power), (b_error, b_power)) = (axes(a), axes(b));
        a_error
            .total_cmp(&b_error)
            .then(a_power.total_cmp(&b_power))
    });
    let mut front: Vec<T> = Vec::new();
    for design in designs {
        if !front.iter().any(|kept| dominates(kept, &design)) {
            front.retain(|kept| !dominates(&design, kept));
            front.push(design);
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lpaa_candidates() -> Vec<Cell> {
        vec![
            StandardCell::Lpaa1.cell(),
            StandardCell::Lpaa2.cell(),
            StandardCell::Lpaa5.cell(),
        ]
    }

    #[test]
    fn evaluate_requires_characteristics() {
        let chain = AdderChain::uniform(StandardCell::Accurate.cell(), 2);
        let profile = InputProfile::<f64>::uniform(2);
        assert!(matches!(
            evaluate(&chain, &profile),
            Err(ExploreError::MissingCharacteristics { .. })
        ));
    }

    #[test]
    fn evaluate_sums_costs() {
        let chain = AdderChain::uniform(StandardCell::Lpaa2.cell(), 3);
        let profile = InputProfile::constant(3, 0.1);
        let e = evaluate(&chain, &profile).expect("characteristics present");
        assert!((e.power_nw - 3.0 * 294.0).abs() < 1e-9);
        assert!((e.area_ge - 3.0 * 1.94).abs() < 1e-9);
        assert!(e.error_probability > 0.0);
    }

    #[test]
    fn enumeration_counts_candidates_pow_width() {
        let designs =
            enumerate_designs(&lpaa_candidates(), &InputProfile::constant(3, 0.2)).expect("small");
        assert_eq!(designs.len(), 27);
    }

    #[test]
    fn exhaustive_best_respects_budget() {
        let profile = InputProfile::constant(4, 0.1);
        let budget = Budget {
            max_power_nw: Some(900.0),
            max_area_ge: None,
        };
        let best = exhaustive_best(&lpaa_candidates(), &profile, &budget)
            .expect("small space")
            .expect("feasible");
        assert!(best.evaluation.power_nw <= 900.0);
        // And it must be at least as good as any feasible competitor.
        for d in enumerate_designs(&lpaa_candidates(), &profile).expect("small") {
            if budget.admits(&d.evaluation) {
                assert!(
                    best.evaluation.error_probability <= d.evaluation.error_probability + 1e-12
                );
            }
        }
    }

    #[test]
    fn infeasible_budget_yields_none() {
        let profile = InputProfile::constant(2, 0.1);
        let budget = Budget {
            max_power_nw: Some(-1.0),
            max_area_ge: None,
        };
        assert_eq!(
            exhaustive_best(&lpaa_candidates(), &profile, &budget).expect("small"),
            None
        );
    }

    #[test]
    fn local_search_matches_exhaustive_on_small_space() {
        let profile = InputProfile::constant(4, 0.15);
        let budget = Budget {
            max_power_nw: Some(1500.0),
            max_area_ge: None,
        };
        let exhaustive = exhaustive_best(&lpaa_candidates(), &profile, &budget)
            .expect("small")
            .expect("feasible");
        let local = local_search_best(&lpaa_candidates(), &profile, &budget)
            .expect("valid")
            .expect("feasible");
        // Hill climbing may tie rather than find the same chain, but on this
        // small space it should reach the optimal error.
        assert!(
            (local.evaluation.error_probability - exhaustive.evaluation.error_probability).abs()
                < 1e-9,
            "local {} vs exhaustive {}",
            local.evaluation.error_probability,
            exhaustive.evaluation.error_probability
        );
    }

    #[test]
    fn unconstrained_search_prefers_most_accurate_candidate() {
        // With no budget, the best design minimizes error outright.
        let profile = InputProfile::constant(3, 0.5);
        let best = exhaustive_best(&lpaa_candidates(), &profile, &Budget::default())
            .expect("small")
            .expect("feasible");
        let homogeneous_best = lpaa_candidates()
            .iter()
            .map(|c| {
                evaluate(&AdderChain::uniform(c.clone(), 3), &profile)
                    .expect("chars")
                    .error_probability
            })
            .fold(f64::INFINITY, f64::min);
        assert!(best.evaluation.error_probability <= homogeneous_best + 1e-12);
    }

    #[test]
    fn pareto_front_is_mutually_non_dominating() {
        let designs =
            enumerate_designs(&lpaa_candidates(), &InputProfile::constant(3, 0.1)).expect("small");
        let front = pareto_front(designs.clone());
        assert!(!front.is_empty());
        assert!(front.len() < designs.len());
        for a in &front {
            for b in &front {
                assert!(!a.evaluation.dominates(&b.evaluation) || a == b);
            }
        }
        // Every dropped design is dominated by someone on the front.
        for d in &designs {
            if !front.iter().any(|f| f.chain == d.chain) {
                assert!(
                    front.iter().any(|f| f.evaluation.dominates(&d.evaluation)),
                    "{d} should be dominated"
                );
            }
        }
    }

    #[test]
    fn proxy_accurate_cell_is_exact_and_costed() {
        let cell = accurate_cell_with_proxy_costs();
        assert!(cell.truth_table().is_accurate());
        assert!(cell.characteristics().is_some());
    }

    #[test]
    fn empty_candidates_rejected() {
        let profile = InputProfile::constant(2, 0.1);
        assert_eq!(
            enumerate_designs(&[], &profile),
            Err(ExploreError::NoCandidates)
        );
        assert!(local_search_best(&[], &profile, &Budget::default()).is_err());
    }

    #[test]
    fn oversized_space_rejected() {
        let candidates: Vec<Cell> = StandardCell::APPROXIMATE
            .iter()
            .filter_map(|c| c.characteristics().map(|_| c.cell()))
            .collect();
        let profile = InputProfile::constant(16, 0.1);
        assert!(matches!(
            enumerate_designs(&candidates, &profile),
            Err(ExploreError::SpaceTooLarge { .. })
        ));
    }
}
