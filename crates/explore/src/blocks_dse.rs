//! Design-space exploration over heterogeneous block-based adders.
//!
//! The search enumerates every way to tile the operand width with blocks
//! drawn from a [`BlockSearchSpace`] (allowed widths × prediction depths ×
//! cells), scores each configuration by an exact error-distance statistic
//! (mean |ED|, MSE, or error rate — the `sealpaa-blocks` analytical
//! engine), and keeps the best design under power/area/delay budgets or
//! the full Pareto frontier.
//!
//! # Prefix sharing
//!
//! The analytical ED recursion is a left-fold over bit positions, so two
//! configurations that agree on their leading blocks share the recursion's
//! state exactly. The search walks the tiling tree depth-first carrying a
//! [`BlockDistanceStepper`]: each tree edge pays one incremental `push`
//! (positions no later block can reach), each leaf one tail pass — instead
//! of a full O(N) analysis per configuration. The naive
//! re-analyze-per-config route is kept as
//! [`best_block_design_reference`], the differential oracle and benchmark
//! baseline.
//!
//! The search is an instance of the crate's search driver: its roots are
//! the first-block choices and a leaf's index is `(first-choice index,
//! within-subtree ordinal)`, so results — every f64 bit — are identical
//! for every thread count.

use std::fmt;
use std::ops::Range;

use sealpaa_blocks::{error_distance_distribution, BlockConfig, BlockDistanceStepper, BlockSpec};
use sealpaa_cells::{Cell, InputProfile};
use sealpaa_core::ErrorDistanceDistribution;

use crate::driver::{self, Search};
use crate::search::{pareto_by, ExploreError, MAX_SEARCH};

/// The per-position choices the block search may combine.
#[derive(Debug, Clone)]
pub struct BlockSearchSpace {
    /// Allowed block result widths (deduplicated, ascending).
    widths: Vec<usize>,
    /// Allowed carry-prediction depths (deduplicated, ascending). A depth
    /// is only usable where it does not reach below bit 0, so block 0
    /// always takes depth 0 — the space must therefore include 0 for any
    /// design to exist.
    predictions: Vec<usize>,
    /// Allowed cells, all with power/area characteristics.
    cells: Vec<Cell>,
}

impl BlockSearchSpace {
    /// Builds a search space.
    ///
    /// # Errors
    ///
    /// * [`ExploreError::NoCandidates`] if any axis is empty or no width is
    ///   non-zero.
    /// * [`ExploreError::MissingCharacteristics`] if a cell cannot be
    ///   costed.
    pub fn new(
        widths: &[usize],
        predictions: &[usize],
        cells: &[Cell],
    ) -> Result<Self, ExploreError> {
        let mut widths: Vec<usize> = widths.iter().copied().filter(|&w| w > 0).collect();
        widths.sort_unstable();
        widths.dedup();
        let mut predictions = predictions.to_vec();
        predictions.sort_unstable();
        predictions.dedup();
        if widths.is_empty() || predictions.is_empty() || cells.is_empty() {
            return Err(ExploreError::NoCandidates);
        }
        for cell in cells {
            if cell.characteristics().is_none() {
                return Err(ExploreError::MissingCharacteristics {
                    cell: cell.name().to_owned(),
                });
            }
        }
        Ok(BlockSearchSpace {
            widths,
            predictions,
            cells: cells.to_vec(),
        })
    }

    /// Allowed widths (ascending).
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// Allowed prediction depths (ascending).
    pub fn predictions(&self) -> &[usize] {
        &self.predictions
    }

    /// Allowed cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of prediction depths usable when `covered` bits are already
    /// tiled.
    fn predictions_at(&self, covered: usize) -> usize {
        self.predictions.partition_point(|&p| p <= covered)
    }

    /// Exact design count for `width` (no budget pruning), saturating.
    pub fn design_count(&self, width: usize) -> u128 {
        // ways[s] = completions of a prefix covering s bits.
        let mut ways = vec![0u128; width + 1];
        ways[width] = 1;
        for s in (0..width).rev() {
            let depths = self.predictions_at(s) as u128;
            let mut total = 0u128;
            for &w in &self.widths {
                if s + w <= width {
                    total = total.saturating_add(
                        ways[s + w]
                            .saturating_mul(depths)
                            .saturating_mul(self.cells.len() as u128),
                    );
                }
            }
            ways[s] = total;
        }
        ways[0]
    }
}

/// Budget a block design must respect. `None` means unconstrained.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BlockBudget {
    /// Maximum summed power (window bits × cell power, nW).
    pub max_power_nw: Option<f64>,
    /// Maximum summed area (window bits × cell area, GE).
    pub max_area_ge: Option<f64>,
    /// Maximum single-block window length — the ripple depth of the
    /// longest block, the standard delay proxy for block-based adders.
    pub max_window_len: Option<usize>,
}

impl BlockBudget {
    /// `true` if an evaluation fits.
    pub fn admits(&self, eval: &BlockEvaluation) -> bool {
        self.max_power_nw.is_none_or(|cap| eval.power_nw <= cap)
            && self.max_area_ge.is_none_or(|cap| eval.area_ge <= cap)
            && self
                .max_window_len
                .is_none_or(|cap| eval.max_window_len <= cap)
    }
}

/// The statistic a best-design search minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockObjective {
    /// `E[|D|]` — mean error distance.
    MeanAbsolute,
    /// `E[D²]` — mean squared error distance.
    MeanSquared,
    /// `P(D ≠ 0)` — error rate.
    ErrorRate,
}

impl BlockObjective {
    /// Reads the objective off an evaluation.
    pub fn of(self, eval: &BlockEvaluation) -> f64 {
        match self {
            BlockObjective::MeanAbsolute => eval.mean_absolute,
            BlockObjective::MeanSquared => eval.mean_squared,
            BlockObjective::ErrorRate => eval.error_rate,
        }
    }
}

/// The score of one block configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockEvaluation {
    /// `P(D ≠ 0)` under the profile.
    pub error_rate: f64,
    /// `E[|D|]`.
    pub mean_absolute: f64,
    /// `E[D²]`.
    pub mean_squared: f64,
    /// Summed power: window bits × cell power (nW).
    pub power_nw: f64,
    /// Summed area: window bits × cell area (GE).
    pub area_ge: f64,
    /// Longest block window (delay proxy).
    pub max_window_len: usize,
}

impl BlockEvaluation {
    fn from_distribution(
        dist: &ErrorDistanceDistribution<f64>,
        power_nw: f64,
        area_ge: f64,
        max_window_len: usize,
    ) -> Self {
        BlockEvaluation {
            error_rate: dist.error_rate(),
            mean_absolute: dist.mean_absolute(),
            mean_squared: dist.mean_squared(),
            power_nw,
            area_ge,
            max_window_len,
        }
    }

    /// Pareto dominance over (mean |ED|, power, area): at least as good
    /// everywhere, strictly better somewhere.
    pub fn dominates(&self, other: &BlockEvaluation) -> bool {
        let no_worse = self.mean_absolute <= other.mean_absolute
            && self.power_nw <= other.power_nw
            && self.area_ge <= other.area_ge;
        let better = self.mean_absolute < other.mean_absolute
            || self.power_nw < other.power_nw
            || self.area_ge < other.area_ge;
        no_worse && better
    }
}

/// A scored block design.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDesign {
    /// The configuration.
    pub config: BlockConfig,
    /// Its score under the profile it was searched for.
    pub evaluation: BlockEvaluation,
}

impl fmt::Display for BlockDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} → P(err)={:.6}, E|D|={:.4}, {:.0} nW, {:.2} GE",
            self.config,
            self.evaluation.error_rate,
            self.evaluation.mean_absolute,
            self.evaluation.power_nw,
            self.evaluation.area_ge
        )
    }
}

/// Scores one block configuration with a fresh analytical pass — the same
/// statistics, fold orders, and therefore f64 bits as the prefix-sharing
/// search produce for that configuration.
///
/// # Errors
///
/// * [`ExploreError::MissingCharacteristics`] if a cell cannot be costed.
/// * [`ExploreError::Blocks`] if the analytical engine rejects the
///   configuration (width mismatch, support overflow).
pub fn evaluate_block_config(
    config: &BlockConfig,
    profile: &InputProfile<f64>,
) -> Result<BlockEvaluation, ExploreError> {
    let mut power = 0.0f64;
    let mut area = 0.0f64;
    let mut max_window = 0usize;
    for block in config.blocks() {
        let ch =
            block
                .cell
                .characteristics()
                .ok_or_else(|| ExploreError::MissingCharacteristics {
                    cell: block.cell.name().to_owned(),
                })?;
        let wl = block.window_len();
        power += ch.power_nw * wl as f64;
        area += ch.area_ge * wl as f64;
        max_window = max_window.max(wl);
    }
    let dist = error_distance_distribution(config, profile)
        .map_err(|source| ExploreError::Blocks { source })?;
    Ok(BlockEvaluation::from_distribution(
        &dist, power, area, max_window,
    ))
}

/// One first-block choice: `(width index, cell index)` — block 0 always
/// takes prediction 0.
type FirstChoice = (usize, usize);

/// DFS state shared by the prefix-sharing searches and the reference scan.
struct BlocksDfs<'s> {
    space: &'s BlockSearchSpace,
    budget: &'s BlockBudget,
    width: usize,
    powers: Vec<f64>,
    areas: Vec<f64>,
}

/// A leaf's deterministic identity: the first-choice index and the
/// visitation ordinal inside that subtree.
type LeafIndex = (usize, u64);

/// The lexicographic key a best-design search minimizes: the objective,
/// then error rate, power and area.
fn block_key(objective: BlockObjective, eval: &BlockEvaluation) -> (f64, f64, f64, f64) {
    (
        objective.of(eval),
        eval.error_rate,
        eval.power_nw,
        eval.area_ge,
    )
}

impl<'s> BlocksDfs<'s> {
    fn new(space: &'s BlockSearchSpace, budget: &'s BlockBudget, width: usize) -> Self {
        let powers = space
            .cells
            .iter()
            .map(|c| {
                c.characteristics()
                    .expect("validated by the space")
                    .power_nw
            })
            .collect();
        let areas = space
            .cells
            .iter()
            .map(|c| c.characteristics().expect("validated by the space").area_ge)
            .collect();
        BlocksDfs {
            space,
            budget,
            width,
            powers,
            areas,
        }
    }

    fn first_choices(&self) -> Vec<FirstChoice> {
        if self.space.predictions[0] != 0 {
            return Vec::new(); // block 0 needs depth 0
        }
        let mut out = Vec::new();
        for (wi, &w) in self.space.widths.iter().enumerate() {
            if w > self.width {
                continue;
            }
            for ci in 0..self.space.cells.len() {
                out.push((wi, ci));
            }
        }
        out
    }

    /// `true` if a block of `window_len` is admissible under the delay cap
    /// and its cost increments keep the budget satisfiable.
    fn admits_block(&self, window_len: usize, power: f64, area: f64) -> bool {
        self.budget
            .max_window_len
            .is_none_or(|cap| window_len <= cap)
            // Sound pruning: costs are non-negative and f64 addition of
            // non-negative values is monotone.
            && self.budget.max_power_nw.is_none_or(|cap| power <= cap)
            && self.budget.max_area_ge.is_none_or(|cap| area <= cap)
    }

    /// Tries block `(w, p, cells[ci])` next: prunes it against the budget,
    /// or pushes it and walks every completion, calling `leaf` on each
    /// complete in-budget design. `index` holds the subtree's first choice
    /// and the ordinal of its next leaf.
    #[allow(clippy::too_many_arguments)] // recursive DFS state, deliberately unpacked
    fn descend<F: FnMut(LeafIndex, BlockEvaluation, &[BlockSpec])>(
        &self,
        stepper: &mut BlockDistanceStepper<f64>,
        blocks: &mut Vec<BlockSpec>,
        (power, area, max_window): (f64, f64, usize),
        (w, p, ci): (usize, usize, usize),
        index: &mut LeafIndex,
        leaf: &mut F,
    ) -> Result<(), ExploreError> {
        let wl = w + p;
        let power = power + self.powers[ci] * wl as f64;
        let area = area + self.areas[ci] * wl as f64;
        if !self.admits_block(wl, power, area) {
            return Ok(());
        }
        let cell = &self.space.cells[ci];
        let depth = stepper.depth();
        stepper
            .push(w, p, cell)
            .map_err(|source| ExploreError::Blocks { source })?;
        blocks.push(BlockSpec::new(w, p, cell.clone()));
        let max_window = max_window.max(wl);
        let covered = stepper.covered();
        if covered == self.width {
            let dist = stepper
                .distribution()
                .map_err(|source| ExploreError::Blocks { source })?;
            let evaluation = BlockEvaluation::from_distribution(&dist, power, area, max_window);
            let at = *index;
            index.1 += 1;
            if self.budget.admits(&evaluation) {
                leaf(at, evaluation, blocks);
            }
        } else {
            for &w in &self.space.widths {
                if covered + w > self.width {
                    break; // widths ascend
                }
                for &p in &self.space.predictions {
                    if p > covered {
                        break; // predictions ascend
                    }
                    for ci in 0..self.space.cells.len() {
                        self.descend(
                            stepper,
                            blocks,
                            (power, area, max_window),
                            (w, p, ci),
                            index,
                            leaf,
                        )?;
                    }
                }
            }
        }
        blocks.pop();
        stepper.truncate(depth);
        Ok(())
    }
}

/// The tiling tree for the search driver: the DFS tables, the profile
/// every worker's stepper starts from, and the first-block choices that
/// are its roots.
pub(crate) struct BlockTree<'s> {
    dfs: BlocksDfs<'s>,
    profile: &'s InputProfile<f64>,
    choices: Vec<FirstChoice>,
}

impl<'s> BlockTree<'s> {
    pub(crate) fn new(
        space: &'s BlockSearchSpace,
        profile: &'s InputProfile<f64>,
        budget: &'s BlockBudget,
    ) -> Self {
        let dfs = BlocksDfs::new(space, budget, profile.width());
        let choices = dfs.first_choices();
        BlockTree {
            dfs,
            profile,
            choices,
        }
    }
}

impl Search for BlockTree<'_> {
    type Eval = BlockEvaluation;
    type Index = LeafIndex;
    type Path = [BlockSpec];

    fn roots(&self) -> usize {
        self.choices.len()
    }

    fn walk<F: FnMut(LeafIndex, BlockEvaluation, &[BlockSpec])>(
        &self,
        roots: Range<usize>,
        leaf: &mut F,
    ) -> Result<(), ExploreError> {
        let max_depth = *self.dfs.space.predictions.last().expect("non-empty");
        let mut stepper = BlockDistanceStepper::new(self.profile.clone(), max_depth)
            .map_err(|source| ExploreError::Blocks { source })?;
        let mut blocks = Vec::new();
        for first in roots {
            let (wi, ci) = self.choices[first];
            // Block 0 always takes prediction 0. -0.0 is f64's exact
            // additive identity, so its cost is its own increment exactly.
            let block = (self.dfs.space.widths[wi], 0, ci);
            let mut index = (first, 0);
            let dfs = &self.dfs;
            dfs.descend(
                &mut stepper,
                &mut blocks,
                (-0.0, -0.0, 0),
                block,
                &mut index,
                leaf,
            )?;
        }
        Ok(())
    }
}

/// Checks the space size against [`MAX_SEARCH`].
fn check_size(space: &BlockSearchSpace, width: usize) -> Result<(), ExploreError> {
    let designs = space.design_count(width);
    if designs > MAX_SEARCH {
        return Err(ExploreError::SpaceTooLarge {
            designs,
            max: MAX_SEARCH,
        });
    }
    Ok(())
}

/// Enumerates and scores every in-budget tiling of `profile.width()` with
/// `threads` workers, prefix-sharing the analytical recursion across
/// configurations. Results are in deterministic leaf order (first-block
/// choice, then DFS order within its subtree) and are byte-identical for
/// every thread count.
///
/// # Errors
///
/// * [`ExploreError::SpaceTooLarge`] beyond [`MAX_SEARCH`] designs.
/// * [`ExploreError::Blocks`] if the analytical engine fails (support
///   overflow).
pub fn enumerate_block_designs(
    space: &BlockSearchSpace,
    profile: &InputProfile<f64>,
    budget: &BlockBudget,
    threads: usize,
) -> Result<Vec<BlockDesign>, ExploreError> {
    check_size(space, profile.width())?;
    let tree = BlockTree::new(space, profile, budget);
    driver::collect(&tree, threads, |evaluation, blocks| BlockDesign {
        config: BlockConfig::new(blocks.to_vec()).expect("DFS builds valid configs"),
        evaluation,
    })
}

/// The provably best in-budget design under `objective`, by exhaustive
/// prefix-sharing search over `threads` workers. Returns `None` if no
/// tiling fits the budget (or none exists).
///
/// Ties on the objective are broken by lower error rate, power, area, then
/// earliest deterministic leaf position — identical for every thread count.
///
/// # Errors
///
/// Same conditions as [`enumerate_block_designs`].
pub fn best_block_design(
    space: &BlockSearchSpace,
    profile: &InputProfile<f64>,
    budget: &BlockBudget,
    objective: BlockObjective,
    threads: usize,
) -> Result<Option<BlockDesign>, ExploreError> {
    check_size(space, profile.width())?;
    let tree = BlockTree::new(space, profile, budget);
    let best = driver::best(&tree, threads, |evaluation| {
        block_key(objective, evaluation)
    })?;
    Ok(best.map(|incumbent| BlockDesign {
        config: BlockConfig::new(incumbent.path).expect("DFS builds valid configs"),
        evaluation: incumbent.evaluation,
    }))
}

/// The naive reference search: enumerates the same tilings in the same
/// deterministic order but re-runs the full analytical pass
/// ([`evaluate_block_config`]) from scratch for every configuration. Kept
/// as the differential-test oracle and the benchmark baseline for the
/// prefix-sharing engine; do not use it for real workloads.
///
/// # Errors
///
/// Same conditions as [`best_block_design`].
pub fn best_block_design_reference(
    space: &BlockSearchSpace,
    profile: &InputProfile<f64>,
    budget: &BlockBudget,
    objective: BlockObjective,
) -> Result<Option<BlockDesign>, ExploreError> {
    let width = profile.width();
    check_size(space, width)?;
    let dfs = BlocksDfs::new(space, budget, width);
    let mut best: Option<BlockIncumbent> = None;
    let mut stack: Vec<BlockSpec> = Vec::new();
    let choices = dfs.first_choices();
    for (first, &(wi, ci)) in choices.iter().enumerate() {
        let mut ordinal = 0u64;
        reference_walk(
            &dfs,
            profile,
            objective,
            &mut stack,
            self_choice(space, wi, ci),
            first,
            &mut ordinal,
            &mut best,
        )?;
    }
    Ok(best.map(|incumbent| BlockDesign {
        config: BlockConfig::new(incumbent.blocks).expect("walk builds valid configs"),
        evaluation: incumbent.evaluation,
    }))
}

fn self_choice(space: &BlockSearchSpace, wi: usize, ci: usize) -> BlockSpec {
    BlockSpec::new(space.widths[wi], 0, space.cells[ci].clone())
}

/// The reference scan's best-so-far. The scan visits leaves one at a time
/// in leaf order, so only a strictly smaller key replaces it (the first
/// seen wins ties) — the oracle shares no keep-best code with the search
/// driver it checks.
struct BlockIncumbent {
    evaluation: BlockEvaluation,
    blocks: Vec<BlockSpec>,
}

/// Recursive helper of [`best_block_design_reference`]: same tree, same
/// admissibility checks, but each leaf is scored with a fresh full pass.
/// `_first` and `_ordinal` name the leaf index the driver breaks ties on;
/// visiting leaves in that order, this scan needs no tie-break.
#[allow(clippy::too_many_arguments)] // recursive DFS state, deliberately unpacked
fn reference_walk(
    dfs: &BlocksDfs<'_>,
    profile: &InputProfile<f64>,
    objective: BlockObjective,
    stack: &mut Vec<BlockSpec>,
    next: BlockSpec,
    _first: usize,
    _ordinal: &mut u64,
    best: &mut Option<BlockIncumbent>,
) -> Result<(), ExploreError> {
    let wl = next.window_len();
    let (power, area, max_window) = {
        let ch = next.cell.characteristics().expect("validated by the space");
        let (mut power, mut area, mut max_window) = (0.0f64, 0.0f64, 0usize);
        for spec in stack.iter() {
            let c = spec.cell.characteristics().expect("validated by the space");
            power += c.power_nw * spec.window_len() as f64;
            area += c.area_ge * spec.window_len() as f64;
            max_window = max_window.max(spec.window_len());
        }
        (
            power + ch.power_nw * wl as f64,
            area + ch.area_ge * wl as f64,
            max_window.max(wl),
        )
    };
    if !dfs.admits_block(wl, power, area) {
        return Ok(());
    }
    stack.push(next);
    let covered: usize = stack.iter().map(|s| s.width).sum();
    if covered == dfs.width {
        let config = BlockConfig::new(stack.clone()).expect("walk builds valid configs");
        let evaluation = evaluate_block_config(&config, profile)?;
        debug_assert_eq!(evaluation.max_window_len, max_window);
        if dfs.budget.admits(&evaluation) {
            let key = block_key(objective, &evaluation);
            if best
                .as_ref()
                .is_none_or(|b| key < block_key(objective, &b.evaluation))
            {
                *best = Some(BlockIncumbent {
                    evaluation,
                    blocks: stack.clone(),
                });
            }
        }
    } else {
        for &w in &dfs.space.widths {
            if covered + w > dfs.width {
                break;
            }
            for &p in &dfs.space.predictions {
                if p > covered {
                    break;
                }
                for cell in dfs.space.cells.iter() {
                    reference_walk(
                        dfs,
                        profile,
                        objective,
                        stack,
                        BlockSpec::new(w, p, cell.clone()),
                        _first,
                        _ordinal,
                        best,
                    )?;
                }
            }
        }
    }
    stack.pop();
    Ok(())
}

/// Filters block designs down to their Pareto frontier over
/// (mean |ED|, power, area), sorted by ascending mean |ED|.
pub fn block_pareto_front(designs: Vec<BlockDesign>) -> Vec<BlockDesign> {
    pareto_by(
        designs,
        |d| (d.evaluation.mean_absolute, d.evaluation.power_nw),
        |a, b| a.evaluation.dominates(&b.evaluation),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::accurate_cell_with_proxy_costs;
    use sealpaa_cells::StandardCell;

    fn small_space() -> BlockSearchSpace {
        BlockSearchSpace::new(
            &[2, 3],
            &[0, 1, 2],
            &[accurate_cell_with_proxy_costs(), StandardCell::Lpaa1.cell()],
        )
        .expect("valid space")
    }

    #[test]
    fn space_validates_inputs() {
        assert!(matches!(
            BlockSearchSpace::new(&[], &[0], &[StandardCell::Lpaa1.cell()]),
            Err(ExploreError::NoCandidates)
        ));
        assert!(matches!(
            BlockSearchSpace::new(&[2], &[0], &[StandardCell::Accurate.cell()]),
            Err(ExploreError::MissingCharacteristics { .. })
        ));
    }

    #[test]
    fn design_count_matches_enumeration() {
        let space = small_space();
        let profile = InputProfile::<f64>::uniform(6);
        let designs =
            enumerate_block_designs(&space, &profile, &BlockBudget::default(), 1).expect("small");
        assert_eq!(space.design_count(6), designs.len() as u128);
    }

    #[test]
    fn enumeration_is_thread_count_invariant() {
        let space = small_space();
        let profile = InputProfile::constant(6, 0.3);
        let one =
            enumerate_block_designs(&space, &profile, &BlockBudget::default(), 1).expect("small");
        for threads in [2, 3, 8] {
            let many = enumerate_block_designs(&space, &profile, &BlockBudget::default(), threads)
                .expect("small");
            assert_eq!(one, many, "threads={threads}");
        }
    }

    #[test]
    fn best_matches_naive_reference_bit_for_bit() {
        let space = small_space();
        let profile = InputProfile::constant(6, 0.25);
        let budget = BlockBudget {
            max_power_nw: Some(9000.0),
            max_area_ge: None,
            max_window_len: Some(5),
        };
        for objective in [
            BlockObjective::MeanAbsolute,
            BlockObjective::MeanSquared,
            BlockObjective::ErrorRate,
        ] {
            let reference =
                best_block_design_reference(&space, &profile, &budget, objective).expect("small");
            for threads in [1, 4] {
                let fast = best_block_design(&space, &profile, &budget, objective, threads)
                    .expect("small");
                assert_eq!(fast, reference, "objective {objective:?} threads {threads}");
            }
        }
    }

    #[test]
    fn best_is_no_worse_than_every_enumerated_design() {
        let space = small_space();
        let profile = InputProfile::<f64>::uniform(6);
        let budget = BlockBudget {
            max_power_nw: None,
            max_area_ge: Some(60.0),
            max_window_len: None,
        };
        let best = best_block_design(&space, &profile, &budget, BlockObjective::MeanAbsolute, 2)
            .expect("small")
            .expect("feasible");
        for d in enumerate_block_designs(&space, &profile, &budget, 2).expect("small") {
            assert!(best.evaluation.mean_absolute <= d.evaluation.mean_absolute + 1e-15);
        }
    }

    #[test]
    fn delay_cap_bounds_every_window() {
        let space = small_space();
        let profile = InputProfile::<f64>::uniform(6);
        let budget = BlockBudget {
            max_power_nw: None,
            max_area_ge: None,
            max_window_len: Some(3),
        };
        let designs = enumerate_block_designs(&space, &profile, &budget, 1).expect("small");
        assert!(!designs.is_empty());
        for d in &designs {
            assert!(d.evaluation.max_window_len <= 3);
            for (j, b) in d.config.blocks().iter().enumerate() {
                assert!(d.config.window(j).len() <= 3, "{} block {j}", d.config);
                assert_eq!(b.window_len(), d.config.window(j).len());
            }
        }
    }

    #[test]
    fn pareto_front_is_mutually_non_dominating() {
        let space = small_space();
        let profile = InputProfile::constant(6, 0.2);
        let designs =
            enumerate_block_designs(&space, &profile, &BlockBudget::default(), 2).expect("small");
        let front = block_pareto_front(designs.clone());
        assert!(!front.is_empty());
        assert!(front.len() < designs.len());
        for a in &front {
            for b in &front {
                assert!(!a.evaluation.dominates(&b.evaluation) || a == b);
            }
        }
        for d in &designs {
            if !front.iter().any(|f| f.config == d.config) {
                assert!(
                    front.iter().any(|f| f.evaluation.dominates(&d.evaluation)),
                    "{d} should be dominated"
                );
            }
        }
    }

    #[test]
    fn infeasible_budget_yields_none() {
        let space = small_space();
        let profile = InputProfile::<f64>::uniform(4);
        let budget = BlockBudget {
            max_power_nw: Some(-1.0),
            max_area_ge: None,
            max_window_len: None,
        };
        assert_eq!(
            best_block_design(&space, &profile, &budget, BlockObjective::ErrorRate, 1)
                .expect("small"),
            None
        );
    }

    #[test]
    fn space_without_depth_zero_has_no_designs() {
        let space = BlockSearchSpace::new(&[2], &[1], &[accurate_cell_with_proxy_costs()])
            .expect("constructible");
        let profile = InputProfile::<f64>::uniform(4);
        assert_eq!(space.design_count(4), 0);
        assert!(
            enumerate_block_designs(&space, &profile, &BlockBudget::default(), 1)
                .expect("small")
                .is_empty()
        );
    }

    #[test]
    fn evaluate_block_config_matches_search_scores() {
        let space = small_space();
        let profile = InputProfile::constant(6, 0.35);
        for d in
            enumerate_block_designs(&space, &profile, &BlockBudget::default(), 1).expect("small")
        {
            let fresh = evaluate_block_config(&d.config, &profile).expect("valid");
            assert_eq!(fresh, d.evaluation, "{}", d.config);
        }
    }
}
