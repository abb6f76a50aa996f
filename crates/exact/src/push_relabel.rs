//! Auction / push-relabel style maximum bipartite matching.
//!
//! The paper's related work ([9], [21] — Kaya, Langguth, Manne, Uçar,
//! *Push-relabel based algorithms for the maximum transversal problem*)
//! evaluates push-relabel matching as the main alternative to
//! augmenting-path solvers, so the workspace ships one as a third exact
//! engine and cross-validation oracle.
//!
//! The implementation is the integer auction with unit bids, which is the
//! push-relabel algorithm specialized to unweighted bipartite matching:
//! every column carries a label (price) `ψ[c]`; a free row claims its
//! cheapest adjacent column, evicting the previous owner, and raises the
//! column's label to `second_cheapest + 1`. A row whose cheapest reachable
//! column has label ≥ `n` can have no augmenting path left, so it retires.
//! Worst-case `O(n·τ)`; typically far faster because evictions are local.
//!
//! **Global relabeling.** A bid raises one label by the runner-up margin,
//! so on long-path instances (meshes) labels climb one bid at a time.
//! Kaya–Langguth–Manne–Uçar (C&OR 2013) name periodic *global relabeling*
//! as what makes push-relabel competitive across families: once the bid
//! loop has scanned `2·(nnz + ncols)` adjacency entries (the constant
//! `GLOBAL_RELABEL_WORK`), one BFS from every free column over the CSC
//! (column → adjacent row → that row's mate) sets each label to its exact
//! alternating distance to a free column, and every column the BFS cannot
//! reach to the retirement limit, so rows that can only bid on such
//! columns retire at their next pop. The budget amortizes each
//! `O(nnz + ncols)` BFS against twice its cost in bidding.
//!
//! **Labels never decrease.** Every bid keeps `ψ[c] ≤ 1 + ψ[c']` for each
//! other column `c'` adjacent to `c`'s mate, and free columns keep
//! `ψ = 0` (columns never become free again), so by induction along any
//! alternating path `ψ[c]` is a lower bound on `c`'s alternating distance.
//! The BFS computes exactly that distance, so a global relabel can only
//! raise a label, and the exact distances satisfy the same bid invariant.

use dsmatch_graph::{BipartiteGraph, CancelToken, Cancelled, Matching, VertexId, NIL};

/// Work counters of a push-relabel run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PushRelabelStats {
    /// Total bids (matches + evictions) performed.
    pub pushes: usize,
    /// Label increases by bids (global relabels are counted separately).
    pub relabels: usize,
    /// Rows retired as unmatchable.
    pub retired: usize,
    /// Global relabeling BFS sweeps run.
    pub global_relabels: usize,
}

/// Maximum-cardinality matching via the auction / push-relabel scheme.
pub fn push_relabel(g: &BipartiteGraph) -> Matching {
    push_relabel_from(g, Matching::new(g.nrows(), g.ncols())).0
}

/// Warm-startable variant with statistics.
///
/// # Panics
/// If `initial` is not a valid matching of `g`.
pub fn push_relabel_from(g: &BipartiteGraph, initial: Matching) -> (Matching, PushRelabelStats) {
    push_relabel_cancel(g, initial, &CancelToken::unbounded())
        .expect("unbounded token never cancels")
}

/// How many queue pops between cancellation polls: push-relabel has no
/// phase structure, so the "phase boundary" is a fixed slice of bids —
/// small enough that cancellation latency stays well under a millisecond,
/// large enough that the poll never shows up in a profile.
const CANCEL_POLL_INTERVAL: usize = 4096;

/// Bid work between two global relabels, in units of one BFS sweep
/// (`nnz + ncols` adjacency entries): the bid loop scans this many sweeps'
/// worth of row adjacency before the next global relabel runs.
const GLOBAL_RELABEL_WORK: usize = 2;

/// [`push_relabel_from`] with cooperative cancellation: the token is
/// polled once up front and then every `CANCEL_POLL_INTERVAL` queue
/// pops (push-relabel has no phases, so a bid-slice stands in for one).
///
/// # Panics
/// If `initial` is not a valid matching of `g`.
pub fn push_relabel_cancel(
    g: &BipartiteGraph,
    initial: Matching,
    token: &CancelToken,
) -> Result<(Matching, PushRelabelStats), Cancelled> {
    initial.verify(g).expect("warm-start matching must be valid");
    let n_r = g.nrows();
    let n_c = g.ncols();
    let mut rmate = initial.rmates().to_vec();
    let mut cmate = initial.cmates().to_vec();
    let mut psi = vec![0u32; n_c];
    let mut stats = PushRelabelStats::default();

    // Any alternating path visits each column at most once, so a label of
    // `n_c + 1` certifies unreachability of every free column.
    let limit = (n_c + 1) as u32;

    let mut queue: std::collections::VecDeque<u32> = (0..n_r as u32)
        .filter(|&i| rmate[i as usize] == NIL && g.row_degree(i as usize) > 0)
        .collect();

    let budget = GLOBAL_RELABEL_WORK * (g.nnz() + n_c);
    let mut work = 0usize;
    let mut frontier: Vec<u32> = Vec::new();

    // One up-front poll so an already-expired deadline refuses the run
    // deterministically, even on instances smaller than the poll interval.
    token.check()?;
    let mut since_poll = 0usize;
    while let Some(r) = queue.pop_front() {
        since_poll += 1;
        if since_poll >= CANCEL_POLL_INTERVAL {
            since_poll = 0;
            token.check()?;
        }
        let r = r as usize;
        if rmate[r] != NIL {
            continue;
        }
        if work >= budget {
            work = 0;
            global_relabel(g, &rmate, &cmate, &mut psi, limit, &mut frontier);
            stats.global_relabels += 1;
        }
        let adj = g.row_adj(r);
        work += adj.len();
        // Find cheapest and second-cheapest adjacent columns.
        let mut best = NIL;
        let mut best_psi = u32::MAX;
        let mut second_psi = u32::MAX;
        for &c in adj {
            let p = psi[c as usize];
            if p < best_psi {
                second_psi = best_psi;
                best_psi = p;
                best = c;
            } else if p < second_psi {
                second_psi = p;
            }
        }
        if best == NIL || best_psi >= limit {
            stats.retired += 1;
            continue; // no augmenting path can exist for r
        }
        // Claim `best`, evicting the previous owner.
        let prev = cmate[best as usize];
        cmate[best as usize] = r as VertexId;
        rmate[r] = best;
        stats.pushes += 1;
        if prev != NIL {
            rmate[prev as usize] = NIL;
            queue.push_back(prev);
        }
        // Relabel: the next bidder for `best` must outbid the runner-up.
        let new_psi = second_psi.saturating_add(1).min(limit);
        if new_psi > psi[best as usize] {
            psi[best as usize] = new_psi;
            stats.relabels += 1;
        }
    }
    Ok((Matching::from_mates(rmate, cmate), stats))
}

/// Set every label to its exact alternating distance to a free column, by
/// one BFS from all free columns (column → adjacent row → the row's mate);
/// columns the BFS cannot reach get `limit`. `frontier` is reused scratch.
fn global_relabel(
    g: &BipartiteGraph,
    rmate: &[VertexId],
    cmate: &[VertexId],
    psi: &mut [u32],
    limit: u32,
    frontier: &mut Vec<u32>,
) {
    #[cfg(debug_assertions)]
    let before = psi.to_vec();
    psi.fill(limit);
    frontier.clear();
    frontier.extend((0..cmate.len() as u32).filter(|&c| cmate[c as usize] == NIL));
    for &c in frontier.iter() {
        psi[c as usize] = 0;
    }
    let mut head = 0;
    while let Some(&c) = frontier.get(head) {
        head += 1;
        let next = psi[c as usize] + 1;
        for &r in g.col_adj(c as usize) {
            let m = rmate[r as usize];
            if m != NIL && psi[m as usize] == limit {
                psi[m as usize] = next;
                frontier.push(m);
            }
        }
    }
    #[cfg(debug_assertions)]
    debug_assert!(before.iter().zip(psi.iter()).all(|(b, p)| b <= p), "a label decreased");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hopcroft_karp::hopcroft_karp;
    use dsmatch_graph::{Csr, SplitMix64, TripletMatrix};

    fn graph(rows: &[&[u8]]) -> BipartiteGraph {
        BipartiteGraph::from_csr(Csr::from_dense(rows))
    }

    #[test]
    fn perfect_on_identity() {
        let g = graph(&[&[1, 0], &[0, 1]]);
        assert!(push_relabel(&g).is_perfect());
    }

    #[test]
    fn eviction_chain_resolves() {
        // r0 and r1 fight over c0; r0 must move to c1.
        let g = graph(&[&[1, 1], &[1, 0]]);
        let m = push_relabel(&g);
        assert_eq!(m.cardinality(), 2);
        assert_eq!(m.rmate(1), 0);
    }

    #[test]
    fn deficient_rows_retire() {
        let g = graph(&[&[1, 0], &[1, 0], &[1, 0]]);
        let (m, stats) = push_relabel_from(&g, Matching::new(3, 2));
        assert_eq!(m.cardinality(), 1);
        assert_eq!(stats.retired, 2);
    }

    #[test]
    fn cancel_variant_errors_on_dead_token_and_matches_on_live() {
        let g = graph(&[&[1, 1, 0], &[1, 0, 1], &[0, 1, 1]]);
        let dead = CancelToken::unbounded();
        dead.cancel();
        assert!(push_relabel_cancel(&g, Matching::new(3, 3), &dead).is_err());
        let live = CancelToken::unbounded();
        let (m, _) = push_relabel_cancel(&g, Matching::new(3, 3), &live).expect("live token");
        let plain = push_relabel(&g);
        assert_eq!(m.rmates(), plain.rmates());
        assert_eq!(m.cmates(), plain.cmates());
    }

    #[test]
    fn agrees_with_hopcroft_karp_on_random_instances() {
        let mut rng = SplitMix64::new(3);
        for n in [2usize, 5, 10, 25, 60] {
            for trial in 0..40 {
                let mut t = TripletMatrix::new(n, n);
                for i in 0..n {
                    for j in 0..n {
                        if rng.next_below(4) == 0 {
                            t.push(i, j);
                        }
                    }
                }
                let g = BipartiteGraph::from_csr(t.into_csr());
                let pr = push_relabel(&g);
                pr.verify(&g).unwrap();
                assert_eq!(
                    pr.cardinality(),
                    hopcroft_karp(&g).cardinality(),
                    "n = {n}, trial = {trial}"
                );
            }
        }
    }

    #[test]
    fn warm_start_is_preserved_where_possible() {
        let g = graph(&[&[1, 1, 0], &[0, 1, 1], &[1, 0, 1]]);
        let mut init = Matching::new(3, 3);
        init.set(0, 0);
        init.set(1, 1);
        let (m, stats) = push_relabel_from(&g, init);
        assert_eq!(m.cardinality(), 3);
        // Only the single free row needed processing.
        assert!(stats.pushes <= 3, "{stats:?}");
    }

    #[test]
    fn rectangular_and_empty() {
        let g = graph(&[&[1, 1, 1, 1]]);
        assert_eq!(push_relabel(&g).cardinality(), 1);
        let g = BipartiteGraph::from_csr(Csr::empty(3, 3));
        assert_eq!(push_relabel(&g).cardinality(), 0);
        let g = graph(&[&[1], &[1], &[1], &[1]]);
        assert_eq!(push_relabel(&g).cardinality(), 1);
    }

    #[test]
    fn adversarial_instance_solved_exactly() {
        let g = dsmatch_gen::adversarial_ks(200, 4);
        let m = push_relabel(&g);
        assert_eq!(m.cardinality(), 200);
    }
}
