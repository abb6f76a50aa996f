//! Push-relabel with work-amortized global relabeling, warm-started the
//! way the §4 protocol feeds an exact finisher (`scale:sk:5,two`, computed
//! on a 1-thread pool so the warm start — and with it every counter below —
//! is the same on every host).
//!
//! The `pushes` bounds are calibrated so that the bid loop *without* global
//! relabeling fails them: on the meshes it needs 30 129 and 40 413 pushes
//! where the bounds allow 23 040 and 24 576, and on the deficient ER
//! instance it needs 6 041 582 where the bound allows 16 000.

use dsmatch::engine::{Pipeline, Solver, Workspace};
use dsmatch::exact::{hopcroft_karp, push_relabel_from, sprank};
use dsmatch::graph::{BipartiteGraph, Matching};

fn warm_start(g: &BipartiteGraph) -> Matching {
    let pipeline: Pipeline = "scale:sk:5,two".parse().unwrap();
    pipeline.with_seed(1).solve(g, &mut Workspace::with_threads(1)).matching
}

fn suite(name: &str, n: usize) -> BipartiteGraph {
    let entries = dsmatch::gen::suite::instances();
    entries.iter().find(|e| e.name == name).expect("suite family exists").build(n, 1)
}

fn isolated_rows(g: &BipartiteGraph) -> usize {
    (0..g.nrows()).filter(|&i| g.row_degree(i) == 0).count()
}

/// Meshes are where bids alone climb labels one step at a time: the global
/// relabel must fire, and it must cut the bids below what the bid loop
/// alone needs.
#[test]
fn global_relabeling_fires_and_bounds_pushes_on_meshes() {
    for (name, g) in [
        ("grid_mesh", dsmatch::gen::grid_mesh(48, 80)),
        ("venturiLevel3", suite("venturiLevel3", 4096)),
    ] {
        let (m, stats) = push_relabel_from(&g, warm_start(&g));
        m.verify(&g).unwrap();
        assert_eq!(m.cardinality(), hopcroft_karp(&g).cardinality(), "{name}");
        assert!(stats.global_relabels >= 1, "{name}: {stats:?}");
        assert!(stats.pushes <= 6 * g.nrows(), "{name}: {stats:?}");
    }
}

/// On a sprank-deficient instance every free row that has an edge must
/// retire, and the rows that retire are exactly the unmatchable ones;
/// isolated rows are never queued, so they are not counted as retired.
#[test]
fn deficient_road_surrogate_retires_exactly_the_unmatchable_rows() {
    let g = suite("road_usa", 4000);
    let opt = sprank(&g);
    assert!(opt < g.nrows(), "the road surrogate must be sprank-deficient");
    let (m, stats) = push_relabel_from(&g, warm_start(&g));
    m.verify(&g).unwrap();
    assert_eq!(m.cardinality(), opt);
    assert_eq!(stats.retired, g.nrows() - opt - isolated_rows(&g), "{stats:?}");
}

/// Without global relabeling, a deficient instance retires a row only once
/// bids have pushed its columns' labels up to `ncols + 1`, one bid at a
/// time. The BFS labels every column that cannot reach a free column with
/// the limit at once.
#[test]
fn global_relabel_retires_deficient_rows_without_a_bidding_war() {
    let g = dsmatch::gen::erdos_renyi_square(4000, 4.0, 2);
    let opt = sprank(&g);
    assert!(opt < g.nrows(), "the ER instance must be sprank-deficient");
    let (m, stats) = push_relabel_from(&g, warm_start(&g));
    m.verify(&g).unwrap();
    assert_eq!(m.cardinality(), opt);
    assert_eq!(stats.retired, g.nrows() - opt - isolated_rows(&g), "{stats:?}");
    assert!(stats.global_relabels >= 1, "{stats:?}");
    assert!(stats.pushes <= 4 * g.nrows(), "{stats:?}");
}

/// The engine reports `pr`'s counters — cardinality gained as
/// `augmentations`, global relabels as `phases` — directly and through
/// `auto`, and `pr` is sequential, so both are identical at pools 1/2/4
/// (the `cheap` warm start is sequential too).
#[test]
fn pr_counters_are_reported_and_identical_across_pools() {
    let g = dsmatch::gen::grid_mesh(48, 80);
    for spec in ["cheap,pr", "cheap,auto"] {
        let pipeline: Pipeline = spec.parse().unwrap();
        let counters: Vec<_> = [1usize, 2, 4]
            .into_iter()
            .map(|t| {
                let report = pipeline.solve(&g, &mut Workspace::with_threads(t));
                let warm = report.stages[0].cardinality.unwrap();
                let stage = report.stages.last().unwrap();
                assert_eq!(
                    stage.augmentations,
                    Some(report.cardinality() - warm),
                    "{spec} at {t} threads"
                );
                (stage.augmentations, stage.phases, report.matching.rmates().to_vec())
            })
            .collect();
        assert!(counters[0].1 >= Some(1), "{spec}: the mesh needs a global relabel");
        assert!(counters.iter().all(|c| *c == counters[0]), "{spec}: counters differ across pools");
    }
}
