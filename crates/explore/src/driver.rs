//! The one prefix-sharing search driver behind the exhaustive searches
//! over chain stages, block tilings and per-adder datapath assignments.
//!
//! A search supplies a [`Search`]: its root count and a walk over a range
//! of roots that pushes, truncates, scores and prunes on its own stepper,
//! reporting each in-budget leaf with a unique leaf index. Chain and
//! datapath searches share the one-candidate-per-level walker of
//! [`Levels`]. The driver owns the rest: [`workers`] clamps the thread
//! count to the host's cores once, [`split_ranges`] partitions the roots,
//! each range runs on a scoped thread (a single range on the calling
//! thread), [`Incumbent`] keeps the minimum key with ties broken on the
//! leaf index, enumerations are sorted by leaf index, and the first error
//! in range order is returned. A range's walk is the same code whichever
//! worker runs it, so every result — winner, order and every f64 bit — is
//! identical for every thread count.

use std::ops::Range;

use crate::search::{Budget, ExploreError};

/// One exhaustive search: a choice tree whose roots can be walked in any
/// contiguous range.
pub(crate) trait Search: Sync {
    /// The score of one leaf.
    type Eval: Send;
    /// A leaf's position in the search's deterministic order (unique).
    type Index: Ord + Copy + Send;
    /// The choices along a path: borrowed at the leaf, owned when kept.
    type Path: ?Sized + ToOwned<Owned: Send>;

    fn roots(&self) -> usize;

    /// Walks every completion of the roots in `roots` on a fresh stepper,
    /// calling `leaf` on each in-budget leaf.
    fn walk<F: FnMut(Self::Index, Self::Eval, &Self::Path)>(
        &self,
        roots: Range<usize>,
        leaf: &mut F,
    ) -> Result<(), ExploreError>;
}

/// Workers for a requested thread count: at least one, at most the host's
/// available parallelism (results are partition-invariant, so more workers
/// than cores could only add scheduling overhead).
fn workers(threads: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    threads.clamp(1, cores)
}

/// Splits `0..n` into at most `parts` contiguous non-empty ranges (one
/// empty range when `n` is 0, so the walk still reports stepper errors).
fn split_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let (base, extra) = (n / parts, n % parts);
    let mut start = 0;
    (0..parts)
        .map(|i| {
            let len = base + usize::from(i < extra);
            start += len;
            start - len..start
        })
        .collect()
}

/// Runs `job` once per range of the `threads`-worker partition, returning
/// the results in range order; a single range runs on the calling thread.
fn fan_out<S: Search, T: Send>(
    search: &S,
    threads: usize,
    job: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    let ranges = split_ranges(search.roots(), workers(threads));
    if let [only] = &ranges[..] {
        return vec![job(only.clone())];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                let job = &job;
                scope.spawn(move || job(range))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("search worker panicked"))
            .collect()
    })
}

/// The best leaf seen so far: its score, leaf index and owned path.
pub(crate) struct Incumbent<S: Search> {
    pub(crate) evaluation: S::Eval,
    index: S::Index,
    pub(crate) path: <S::Path as ToOwned>::Owned,
}

/// `true` if a leaf scored `evaluation` at `index` replaces `best`: it is
/// strictly smaller on the key, or equal and earlier in leaf order — so
/// the winner does not depend on which worker saw which leaf first.
fn beats<S: Search, K: PartialOrd>(
    key: impl Fn(&S::Eval) -> K,
    evaluation: &S::Eval,
    index: S::Index,
    best: &Option<Incumbent<S>>,
) -> bool {
    best.as_ref().is_none_or(|held| {
        let (challenger, incumbent) = (key(evaluation), key(&held.evaluation));
        challenger < incumbent || (challenger == incumbent && index < held.index)
    })
}

/// The in-budget leaf minimizing `key`, over `threads` workers.
pub(crate) fn best<S: Search, K: PartialOrd>(
    search: &S,
    threads: usize,
    key: impl Fn(&S::Eval) -> K + Sync,
) -> Result<Option<Incumbent<S>>, ExploreError> {
    merge_best(
        fan_out(search, threads, |roots| best_in(search, roots, &key)),
        &key,
    )
}

fn best_in<S: Search, K: PartialOrd>(
    search: &S,
    roots: Range<usize>,
    key: impl Fn(&S::Eval) -> K,
) -> Result<Option<Incumbent<S>>, ExploreError> {
    let mut best = None;
    search.walk(roots, &mut |index, evaluation, path| {
        if beats(&key, &evaluation, index, &best) {
            let path = path.to_owned();
            best = Some(Incumbent {
                evaluation,
                index,
                path,
            });
        }
    })?;
    Ok(best)
}

fn merge_best<S: Search, K: PartialOrd>(
    partials: Vec<Result<Option<Incumbent<S>>, ExploreError>>,
    key: impl Fn(&S::Eval) -> K,
) -> Result<Option<Incumbent<S>>, ExploreError> {
    let mut best = None;
    for challenger in partials {
        if let Some(challenger) = challenger? {
            if beats(&key, &challenger.evaluation, challenger.index, &best) {
                best = Some(challenger);
            }
        }
    }
    Ok(best)
}

/// Every in-budget leaf, built by `build`, in leaf-index order, over
/// `threads` workers.
pub(crate) fn collect<S: Search, T: Send>(
    search: &S,
    threads: usize,
    build: impl Fn(S::Eval, &S::Path) -> T + Sync,
) -> Result<Vec<T>, ExploreError> {
    merge_collected(fan_out(search, threads, |roots| {
        collect_in(search, roots, &build)
    }))
}

fn collect_in<S: Search, T>(
    search: &S,
    roots: Range<usize>,
    build: impl Fn(S::Eval, &S::Path) -> T,
) -> Result<Vec<(S::Index, T)>, ExploreError> {
    let mut leaves = Vec::new();
    search.walk(roots, &mut |index, evaluation, path| {
        leaves.push((index, build(evaluation, path)));
    })?;
    Ok(leaves)
}

fn merge_collected<I: Ord + Copy, T>(
    partials: Vec<Result<Vec<(I, T)>, ExploreError>>,
) -> Result<Vec<T>, ExploreError> {
    let mut leaves = Vec::new();
    for partial in partials {
        leaves.extend(partial?);
    }
    leaves.sort_by_key(|&(index, _)| index);
    Ok(leaves.into_iter().map(|(_, leaf)| leaf).collect())
}

/// A tree with one candidate per level — chain stages or datapath adder
/// nodes — whose leaves are scored `(error, power, area)` (the key the
/// best search minimizes) and indexed in odometer order, level 0 cycling
/// fastest.
pub(crate) trait Levels: Sync {
    type Stepper;

    /// Candidates per level (the odometer radix).
    fn candidates(&self) -> usize;
    fn levels(&self) -> usize;
    fn budget(&self) -> &Budget;
    /// A fresh stepper, positioned before the first choice.
    fn stepper(&self) -> Result<Self::Stepper, ExploreError>;
    fn depth(&self, stepper: &Self::Stepper) -> usize;
    fn truncate(&self, stepper: &mut Self::Stepper, depth: usize);
    /// Chooses `candidate` at the next level.
    fn push(&self, stepper: &mut Self::Stepper, candidate: usize) -> Result<(), ExploreError>;
    /// `(power, area)` of `candidate` at `level`.
    fn cost(&self, level: usize, candidate: usize) -> (f64, f64);
    /// The error metric of a complete path.
    fn error(&self, stepper: &Self::Stepper) -> f64;
}

impl<L: Levels> Search for L {
    type Eval = (f64, f64, f64);
    type Index = u128;
    type Path = [usize];

    fn roots(&self) -> usize {
        self.candidates()
    }

    fn walk<F: FnMut(u128, (f64, f64, f64), &[usize])>(
        &self,
        roots: Range<usize>,
        leaf: &mut F,
    ) -> Result<(), ExploreError> {
        let mut path = Vec::with_capacity(self.levels());
        // -0.0 is f64's exact additive identity (-0 + x = x, +0 included),
        // so each path folds its costs in plain level order, bit for bit.
        let start = ((-0.0, -0.0), (0, 1));
        walk_levels(self, &mut self.stepper()?, &mut path, roots, start, leaf)
    }
}

/// Walks the `choices` subtrees of the current prefix, whose `(power, area)`
/// fold and `(odometer index, weight of the next digit)` are `at`.
fn walk_levels<L: Levels, F: FnMut(u128, (f64, f64, f64), &[usize])>(
    tree: &L,
    stepper: &mut L::Stepper,
    path: &mut Vec<usize>,
    choices: Range<usize>,
    ((power, area), (index, weight)): ((f64, f64), (u128, u128)),
    leaf: &mut F,
) -> Result<(), ExploreError> {
    let depth = tree.depth(stepper);
    let budget = tree.budget();
    for c in choices {
        let (dp, da) = tree.cost(path.len(), c);
        let (power, area) = (power + dp, area + da);
        // Sound pruning: costs are non-negative and f64 addition of
        // non-negative values is monotone, so a prefix already over a cap
        // means every completion is over the cap.
        if budget.max_power_nw.is_some_and(|cap| power > cap)
            || budget.max_area_ge.is_some_and(|cap| area > cap)
        {
            continue;
        }
        tree.push(stepper, c)?;
        path.push(c);
        let index = index + c as u128 * weight;
        if path.len() < tree.levels() {
            let next = ((power, area), (index, weight * tree.candidates() as u128));
            walk_levels(tree, stepper, path, 0..tree.candidates(), next, leaf)?;
        } else if budget.max_power_nw.is_none_or(|cap| power <= cap)
            && budget.max_area_ge.is_none_or(|cap| area <= cap)
        {
            leaf(index, (tree.error(stepper), power, area), path);
        }
        path.pop();
        tree.truncate(stepper, depth);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Partition invariance that does not depend on the host's cores: for
    //! every k from 1 to the root count, the roots are split into k ranges
    //! that run one after another on the calling thread, then merge.

    use std::borrow::Borrow;
    use std::fmt::Debug;

    use super::*;
    use crate::blocks_dse::BlockTree;
    use crate::datapath_dse::DatapathTree;
    use crate::search::ChainTree;
    use crate::*;
    use sealpaa_blocks::BlockConfig;
    use sealpaa_cells::{Cell, InputProfile, StandardCell};

    /// The best leaf and every leaf, each built by `build`, after checking
    /// that every k-way partition merges to the k = 1 result.
    fn every_partition<S: Search, K: PartialOrd, T: PartialEq + Debug>(
        search: &S,
        key: impl Fn(&S::Eval) -> K,
        build: impl Fn(S::Eval, &S::Path) -> T,
    ) -> (Option<T>, Vec<T>) {
        let run = |k| {
            let ranges = split_ranges(search.roots(), k);
            let best = ranges.iter().map(|r| best_in(search, r.clone(), &key));
            let best = merge_best(best.collect(), &key).expect("valid search");
            let all = ranges.iter().map(|r| collect_in(search, r.clone(), &build));
            let all = merge_collected(all.collect()).expect("valid search");
            (best.map(|b| build(b.evaluation, b.path.borrow())), all)
        };
        let one = run(1);
        for k in 2..=search.roots() {
            assert_eq!(run(k), one, "k={k}");
        }
        one
    }

    fn odometer(path: &[usize]) -> usize {
        path.iter()
            .rev()
            .fold(0, |index, &c| index * cells().len() + c)
    }

    /// Three cells and a renamed twin of each: every design using a twin
    /// ties one using the original exactly, so the winner is decided by
    /// the leaf-index tie-break.
    fn cells() -> Vec<Cell> {
        let cells = [
            StandardCell::Lpaa1,
            StandardCell::Lpaa2,
            StandardCell::Lpaa5,
        ];
        let twins = cells.iter().map(|c| {
            let table = c.truth_table();
            let costs = c.characteristics().expect("costed");
            Cell::custom_with_characteristics(format!("{c:?} twin"), table, costs)
        });
        cells.iter().map(|c| c.cell()).chain(twins).collect()
    }

    fn power(cap: f64) -> Budget {
        Budget {
            max_power_nw: Some(cap),
            max_area_ge: None,
        }
    }

    #[test]
    fn chain_search_is_partition_invariant() {
        let (candidates, profile) = (cells(), InputProfile::constant(4, 0.3));
        // LPAA 1 alone (771 nW) is over 700 nW: a whole root is pruned.
        for budget in [Budget::default(), power(700.0), power(1500.0)] {
            let tree = ChainTree::new(&candidates, &profile, budget).expect("costed");
            let (best, all) = every_partition(
                &tree,
                |&score| score,
                |score, path| (tree.design(score, path), odometer(path)),
            );
            let reference = exhaustive_best_reference(&candidates, &profile, &budget);
            assert_eq!(best.map(|(design, _)| design), reference.expect("small"));
            assert!(all.windows(2).all(|w| w[0].1 < w[1].1), "odometer order");
            for (design, _) in &all {
                assert_eq!(evaluate(&design.chain, &profile), Ok(design.evaluation));
            }
        }
    }

    #[test]
    fn datapath_search_is_partition_invariant() {
        let topo = sealpaa_propagate::topologies::fir(&StandardCell::Lpaa5.cell(), &[1, 2, 1], 6)
            .expect("fits");
        let inputs: Vec<(&str, Vec<f64>)> = topo
            .inputs
            .iter()
            .map(|n| (n.as_str(), vec![0.5; 6]))
            .collect();
        let (dp, output, candidates) = (&topo.datapath, topo.output, cells());
        for budget in [Budget::default(), power(6_000.0)] {
            let tree = DatapathTree::new(dp, output, &inputs, &candidates, budget).expect("costed");
            let (best, all) =
                every_partition(&tree, |&score| score, |score, path| (score, path.to_vec()));
            let reference =
                best_datapath_assignment_reference(dp, output, &inputs, &candidates, &budget)
                    .expect("valid")
                    .expect("feasible");
            let (score, path) = best.expect("feasible");
            assert_eq!(tree.design(score, &path, reference.signal_power), reference);
            assert!(all
                .windows(2)
                .all(|w| odometer(&w[0].1) < odometer(&w[1].1)));
            for ((mse, ..), path) in &all {
                let cells: Vec<Cell> = path.iter().map(|&c| candidates[c].clone()).collect();
                let rebuilt = dp.with_adder_cells(&cells).expect("one cell per adder");
                let fresh = sealpaa_propagate::propagate_moments(&rebuilt, output, &inputs);
                assert_eq!(mse.to_bits(), fresh.expect("valid").error_second.to_bits());
            }
        }
    }

    #[test]
    fn block_search_is_partition_invariant() {
        let cells = [accurate_cell_with_proxy_costs(), StandardCell::Lpaa1.cell()];
        let space = BlockSearchSpace::new(&[2, 3], &[0, 1, 2], &cells).expect("valid");
        let profile = InputProfile::constant(6, 0.25);
        let capped = BlockBudget {
            max_power_nw: Some(9000.0),
            max_area_ge: None,
            max_window_len: Some(5),
        };
        for budget in [BlockBudget::default(), capped] {
            let tree = BlockTree::new(&space, &profile, &budget);
            assert_eq!(tree.roots(), 4);
            for objective in [
                BlockObjective::MeanAbsolute,
                BlockObjective::MeanSquared,
                BlockObjective::ErrorRate,
            ] {
                let key =
                    |e: &BlockEvaluation| (objective.of(e), e.error_rate, e.power_nw, e.area_ge);
                let (best, all) = every_partition(&tree, key, |evaluation, blocks| BlockDesign {
                    config: BlockConfig::new(blocks.to_vec()).expect("valid"),
                    evaluation,
                });
                let reference = best_block_design_reference(&space, &profile, &budget, objective);
                assert_eq!(best, reference.expect("small"), "{objective:?}");
                for design in &all {
                    let fresh = evaluate_block_config(&design.config, &profile);
                    assert_eq!(fresh, Ok(design.evaluation), "{}", design.config);
                }
            }
        }
    }
}
