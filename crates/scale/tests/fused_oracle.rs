//! The fused scaling kernels against their unfused sequential oracles.
//!
//! `sinkhorn_knopp_cancel_into` and `ruiz_cancel_into` skip the sweeps
//! whose values already exist (the first gather, which only recounts
//! degrees, and the error sweep, which the next gather repeats). That is
//! only sound if every result is bit-identical to `sinkhorn_knopp_seq` /
//! `ruiz_seq`: factors, per-iteration error history, final error and
//! iteration count, at every pool size and in both stopping modes.

use dsmatch_gen::erdos_renyi_square;
use dsmatch_graph::{BipartiteGraph, CancelToken, Csr};
use dsmatch_scale::{
    ruiz, ruiz_cancel_into, ruiz_into, ruiz_seq, sinkhorn_knopp, sinkhorn_knopp_cancel_into,
    sinkhorn_knopp_seq, ScalingConfig, ScalingResult,
};

const POOLS: [usize; 3] = [1, 2, 4];

fn configs() -> [ScalingConfig; 5] {
    [
        ScalingConfig::iterations(0),
        ScalingConfig::iterations(1),
        ScalingConfig::iterations(5),
        ScalingConfig::until(1e-3, 500),
        ScalingConfig::until(1e-6, 500),
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_bit_equal(what: &str, got: &ScalingResult, want: &ScalingResult) {
    assert_eq!(got.iterations, want.iterations, "{what}: iterations");
    assert_eq!(bits(&got.history), bits(&want.history), "{what}: history");
    assert_eq!(got.error.to_bits(), want.error.to_bits(), "{what}: error");
    assert_eq!(bits(&got.dr), bits(&want.dr), "{what}: dr");
    assert_eq!(bits(&got.dc), bits(&want.dc), "{what}: dc");
}

/// Runs both kernels at every pool size against their oracles, and
/// returns the iteration counts SK took under each config.
fn check_instance(name: &str, g: &BipartiteGraph) -> Vec<usize> {
    let mut sk_iterations = Vec::new();
    for cfg in configs() {
        let sk_oracle = sinkhorn_knopp_seq(g, &cfg);
        let ruiz_oracle = ruiz_seq(g, &cfg);
        for threads in POOLS {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let (sk, rz) = pool.install(|| (sinkhorn_knopp(g, &cfg), ruiz(g, &cfg)));
            assert_bit_equal(&format!("{name} sk {cfg:?} @{threads}"), &sk, &sk_oracle);
            assert_bit_equal(&format!("{name} ruiz {cfg:?} @{threads}"), &rz, &ruiz_oracle);
        }
        sk_iterations.push(sk_oracle.iterations);
    }
    sk_iterations
}

#[test]
#[cfg_attr(miri, ignore = "tens of millions of gathers: too slow to interpret")]
fn er_50k_without_total_support() {
    let g = erdos_renyi_square(50_000, 8.0, 7);
    let iterations = check_instance("er50k", &g);
    // Sparse ER leaves some columns empty, so the error never drops below
    // one and both tolerance configs run to the cap.
    assert!(!g.has_no_isolated_vertices());
    assert_eq!(iterations[3..], [500, 500]);
}

#[test]
#[cfg_attr(miri, ignore = "tens of millions of gathers: too slow to interpret")]
fn dense_er_exits_early_on_tolerance() {
    for (n, d, seed) in [(2_000, 40.0, 11), (1_000, 60.0, 12)] {
        let g = erdos_renyi_square(n, d, seed);
        let iterations = check_instance(&format!("er{n}"), &g);
        // The tolerance configs stop after a few iterations, well before
        // the cap: the restore-on-exit path is what is being compared.
        for &k in &iterations[3..] {
            assert!((2..500).contains(&k), "er{n}: {iterations:?}");
        }
    }
}

#[test]
fn empty_rows_and_columns() {
    let g = BipartiteGraph::from_csr(Csr::from_dense(&[
        &[1, 1, 0, 0, 1],
        &[0, 0, 0, 0, 0],
        &[1, 0, 0, 1, 1],
        &[0, 1, 0, 1, 0],
        &[1, 0, 0, 0, 0],
    ]));
    check_instance("empty", &g);
}

#[test]
fn ruiz_factor_buffers_are_stable_across_solves() {
    let g = erdos_renyi_square(300, 6.0, 3);
    let cfg = ScalingConfig::iterations(5);
    let mut out = ScalingResult::empty();
    ruiz_into(&g, &cfg, &mut out);
    let footprint = |r: &ScalingResult| {
        [
            (r.dr.as_ptr() as usize, r.dr.capacity()),
            (r.dc.as_ptr() as usize, r.dc.capacity()),
            (r.history.as_ptr() as usize, r.history.capacity()),
        ]
    };
    let warm = footprint(&out);
    for _ in 0..3 {
        ruiz_into(&g, &cfg, &mut out);
        assert_eq!(footprint(&out), warm);
    }
    assert_bit_equal("ruiz reuse", &out, &ruiz_seq(&g, &cfg));
}

#[test]
fn dead_token_refuses_without_poisoning_the_slot() {
    let g = erdos_renyi_square(300, 6.0, 4);
    let cfg = ScalingConfig::until(1e-6, 50);
    let dead = CancelToken::unbounded();
    dead.cancel();
    let live = CancelToken::unbounded();

    let mut out = ScalingResult::empty();
    assert!(sinkhorn_knopp_cancel_into(&g, &cfg, &mut out, &dead).is_err());
    sinkhorn_knopp_cancel_into(&g, &cfg, &mut out, &live).expect("live token");
    assert_bit_equal("sk after refusal", &out, &sinkhorn_knopp_seq(&g, &cfg));

    let mut out = ScalingResult::empty();
    assert!(ruiz_cancel_into(&g, &cfg, &mut out, &dead).is_err());
    ruiz_cancel_into(&g, &cfg, &mut out, &live).expect("live token");
    assert_bit_equal("ruiz after refusal", &out, &ruiz_seq(&g, &cfg));
}
