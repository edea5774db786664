//! Counting-allocator proof that the substitution hot path is
//! allocation-free: after warm-up, [`IntervalTerms::recompute`] must
//! perform **zero** heap allocations per invocation, on the column sums
//! and on the per-window residual solves alike; and a Krylov basis build
//! allocates nothing per Arnoldi step or operator application.
//!
//! The counter is thread-local so the test is immune to other test
//! threads allocating concurrently.

use matex_circuit::{MnaSystem, Netlist};
use matex_core::{IntervalTerms, Recorder, SolveStats, TransientSpec};
use matex_krylov::{
    Arnoldi, ArnoldiSpace, BasisBuilder, ExpmParams, KrylovOp, RationalOp, SnapshotEvaluator,
};
use matex_sparse::{CsrMatrix, LuOptions, SparseLu};
use matex_waveform::{Pulse, Pwl, TimingClasses, Waveform};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` keeps TLS teardown from panicking inside the
        // allocator.
        let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_so_far() -> u64 {
    ALLOC_COUNT.with(|c| c.get())
}

/// A two-node RC with one load of waveform `load`.
fn rc_with(load: Waveform) -> MnaSystem {
    let mut nl = Netlist::new();
    let a = nl.node("a");
    let b = nl.node("b");
    nl.add_isource("i", Netlist::ground(), a, load).unwrap();
    nl.add_resistor("r1", a, b, 500.0).unwrap();
    nl.add_resistor("r2", b, Netlist::ground(), 500.0).unwrap();
    nl.add_capacitor("ca", a, Netlist::ground(), 1e-13).unwrap();
    nl.add_capacitor("cb", b, Netlist::ground(), 2e-13).unwrap();
    MnaSystem::assemble(&nl).unwrap()
}

/// The RC with one pulse load: its terms come from one class's columns.
fn pulsed_rc() -> MnaSystem {
    let p = Pulse::new(0.0, 1e-3, 1e-10, 5e-11, 2e-10, 5e-11).unwrap();
    rc_with(Waveform::Pulse(p))
}

/// The same load as a PWL source: the per-window residual path, sloped
/// (3-pair) and flat (1-pair).
fn pwl_rc() -> MnaSystem {
    let points = vec![(1e-10, 0.0), (1.5e-10, 1e-3), (3.5e-10, 1e-3), (4e-10, 0.0)];
    rc_with(Waveform::Pwl(Pwl::new(points).unwrap()))
}

/// 100 warm recomputes alternating a sloped interval (inside the
/// 1.0–1.5e-10 rise ramp) and a flat one (post-pulse), each followed by
/// `F` and `P`: returns the allocations they made, the substitution
/// pairs the run's columns cost and the pairs the 100 windows spent.
fn warm_recomputes(sys: &MnaSystem) -> (u64, usize, usize) {
    let lu_g = SparseLu::factor(sys.g(), &LuOptions::default()).unwrap();
    let classes = TimingClasses::new(sys.sources().iter().map(|s| &s.waveform).enumerate(), 1e-9);
    let mut stats = SolveStats::default();
    let mut terms = IntervalTerms::new(sys, &classes, &lu_g, (0.0, 1e-9), &mut stats);
    let columns = stats.substitution_pairs;
    let mut out = vec![0.0; sys.dim()];

    // Warm-up: touch every path once (sloped interval, flat interval,
    // f_into/p_into) so lazy TLS and buffer setup are behind us.
    terms.recompute(1.1e-10, 1.4e-10, &mut stats);
    terms.recompute(5e-10, 6e-10, &mut stats);
    terms.f_into(&mut out);
    terms.p_into(2e-11, &mut out);

    let pairs = stats.substitution_pairs;
    let before = allocations_so_far();
    for k in 0..100 {
        let (t0, t1) = if k % 2 == 0 {
            (1.05e-10, 1.45e-10)
        } else {
            (6e-10, 8e-10)
        };
        terms.recompute(t0, t1, &mut stats);
        terms.f_into(&mut out);
        terms.p_into(1e-11, &mut out);
    }
    (
        allocations_so_far() - before,
        columns,
        stats.substitution_pairs - pairs,
    )
}

#[test]
fn interval_terms_recompute_is_allocation_free_after_warmup() {
    let (allocated, columns, pairs) = warm_recomputes(&pulsed_rc());
    assert_eq!(
        allocated, 0,
        "input-term hot path allocated {allocated} times in 100 warm recomputes"
    );
    // The pulse's class is solved once per run (2 pairs; b₀ is zero, so
    // no g₀): the windows only sum columns.
    assert_eq!((columns, pairs), (2, 0));
}

#[test]
fn residual_recompute_is_allocation_free_after_warmup() {
    let (allocated, columns, pairs) = warm_recomputes(&pwl_rc());
    assert_eq!(
        allocated, 0,
        "residual substitution path allocated {allocated} times in 100 warm recomputes"
    );
    // No columns; every window solves, 50 sloped and 50 flat.
    assert_eq!((columns, pairs), (0, 50 * 3 + 50));
}

#[test]
fn snapshot_evaluation_hot_path_is_allocation_free_after_warmup() {
    // The ISSUE 4 criterion: the whole snapshot-evaluation path —
    // batched weights (`T_H`), the sub-step squaring ladder, pooled and
    // serial combination (`T_e`), and output recording — performs zero
    // heap allocations once warm.
    let sys = pulsed_rc();
    let gamma = 1e-10;
    let shifted = CsrMatrix::linear_combination(1.0, sys.c(), gamma, sys.g()).unwrap();
    let lu = SparseLu::factor(&shifted, &LuOptions::default()).unwrap();
    let op = RationalOp::new(&lu, sys.c(), gamma);
    let n = sys.dim();
    let v: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
    let hs = [2e-11, 5e-11, 1e-10, 2e-10];
    let basis = BasisBuilder::new()
        .build(&op, &v, &hs, &ExpmParams::with_tol(1e-10))
        .unwrap()
        .basis;

    let mut ev = SnapshotEvaluator::new();
    let pool = matex_par::ParPool::new(2);
    let mut batch = vec![0.0; n * hs.len()];
    let mut one = vec![0.0; n];
    let spec = TransientSpec::new(0.0, 1.0, 1.0 / 256.0).unwrap();
    let mut rec = Recorder::new(&spec, n).unwrap();

    // Warm-up: touch every path once (batch weights, serial + pooled
    // combination, ladder, rung combination, recording).
    ev.eval_many_into(&basis, &hs, None, &mut batch).unwrap();
    ev.eval_many_into(&basis, &hs, Some(&pool), &mut batch)
        .unwrap();
    ev.eval_ladder(&basis, 2e-10, 6, f64::INFINITY).unwrap();
    ev.combine_rung(&basis, 1, Some(&pool), &mut one);
    rec.record(0, &one);

    let before = allocations_so_far();
    for k in 0..100 {
        ev.weights_many(&basis, &hs).unwrap();
        ev.combine_into(&basis, hs.len(), None, &mut batch);
        ev.combine_into(&basis, hs.len(), Some(&pool), &mut batch);
        ev.eval_ladder(&basis, 2e-10, 6, f64::INFINITY).unwrap();
        ev.combine_rung(&basis, 1, Some(&pool), &mut one);
        rec.record(k + 1, &one);
    }
    let allocated = allocations_so_far() - before;
    assert_eq!(
        allocated, 0,
        "snapshot-evaluation hot path allocated {allocated} times in 100 warm rounds"
    );
}

/// The rational operator of a 60-node RC chain whose values all differ
/// (an irreducible tridiagonal pencil: distinct eigenvalues, so the
/// subspace keeps growing) and a start vector.
fn chain_operator_parts() -> (MnaSystem, SparseLu, Vec<f64>) {
    let mut nl = Netlist::new();
    let nodes: Vec<_> = (0..60).map(|i| nl.node(&format!("n{i}"))).collect();
    nl.add_resistor("rg", nodes[0], Netlist::ground(), 40.0)
        .unwrap();
    for (i, pair) in nodes.windows(2).enumerate() {
        let ohms = 50.0 * (1.0 + ((i * 13) % 7) as f64 + 0.01 * i as f64);
        nl.add_resistor(&format!("r{i}"), pair[0], pair[1], ohms)
            .unwrap();
    }
    for (i, &node) in nodes.iter().enumerate() {
        let farads = 1e-13 * (1.0 + ((i * 37) % 11) as f64 + 0.003 * i as f64);
        nl.add_capacitor(&format!("c{i}"), node, Netlist::ground(), farads)
            .unwrap();
    }
    let sys = MnaSystem::assemble(&nl).unwrap();
    let shifted = CsrMatrix::linear_combination(1.0, sys.c(), 1e-10, sys.g()).unwrap();
    let lu = SparseLu::factor(&shifted, &LuOptions::default()).unwrap();
    let v = (0..sys.dim()).map(|i| 1.0 + (i % 7) as f64).collect();
    (sys, lu, v)
}

#[test]
fn arnoldi_steps_and_operator_applications_are_allocation_free_after_warmup() {
    let (sys, lu, v) = chain_operator_parts();
    let op = RationalOp::new(&lu, sys.c(), 1e-10);
    let n = sys.dim();
    assert!(n > 40);
    let mut space = ArnoldiSpace::new();
    let run = |space: &mut ArnoldiSpace| {
        let mut ar = Arnoldi::new(&op, &v, space).unwrap();
        for _ in 0..24 {
            ar.step().unwrap();
        }
        assert_eq!(ar.m(), 24);
        let basis = ar.into_basis(24);
        space.recycle(basis);
    };
    run(&mut space);
    let before = allocations_so_far();
    run(&mut space);
    let allocated = allocations_so_far() - before;
    assert_eq!(
        allocated, 0,
        "a warm 24-step Arnoldi run allocated {allocated} times"
    );

    let (mut out, mut scratch) = (vec![0.0; n], vec![0.0; 2 * n]);
    let before = allocations_so_far();
    for _ in 0..100 {
        op.apply(&v, &mut out, &mut scratch);
    }
    assert_eq!(allocations_so_far() - before, 0);
}

#[test]
fn basis_builds_allocate_nothing_per_step_after_warmup() {
    // Builds capped at m = 33 and m = 36 make the same 32 convergence
    // checks (every m ≤ 32, then the cap), so any difference in their
    // allocation counts would come from the three extra Arnoldi steps.
    // A tolerance of 0 never converges, so both run to their cap.
    let (sys, lu, v) = chain_operator_parts();
    let op = RationalOp::new(&lu, sys.c(), 1e-10);
    let hs = [2e-11, 1e-10];
    let params = |m_max| ExpmParams { tol: 0.0, m_max };
    let mut builder = BasisBuilder::new();
    let build = |builder: &mut BasisBuilder, m_max: usize| {
        let before = allocations_so_far();
        let out = builder.build(&op, &v, &hs, &params(m_max)).unwrap();
        let allocated = allocations_so_far() - before;
        assert!(!out.converged, "converged at m = {}", out.basis.m());
        assert_eq!(out.substitutions, m_max);
        // Bitwise a one-off build.
        let fresh = BasisBuilder::new()
            .build(&op, &v, &hs, &params(m_max))
            .unwrap();
        assert_eq!(out.basis.vectors(), fresh.basis.vectors());
        assert_eq!(out.basis.hm(), fresh.basis.hm());
        builder.recycle(out.basis);
        allocated
    };
    build(&mut builder, 36);
    let short = build(&mut builder, 33);
    let long = build(&mut builder, 36);
    assert_eq!(
        long,
        short,
        "three more Arnoldi steps allocated {} times",
        long as i64 - short as i64
    );
}

#[test]
fn masked_recompute_is_also_allocation_free() {
    let sys = pulsed_rc();
    let lu_g = SparseLu::factor(sys.g(), &LuOptions::default()).unwrap();
    let classes = TimingClasses::new([(0, &sys.sources()[0].waveform)], 1e-9);
    let mut stats = SolveStats::default();
    let mut terms = IntervalTerms::new(&sys, &classes, &lu_g, (0.0, 1e-9), &mut stats);
    terms.recompute(1.1e-10, 1.4e-10, &mut stats);

    let before = allocations_so_far();
    for _ in 0..50 {
        terms.recompute(1.05e-10, 1.45e-10, &mut stats);
    }
    assert_eq!(allocations_so_far() - before, 0);
}

#[test]
fn disabled_obs_emission_is_allocation_free() {
    // The observability contract (ISSUE 10): a disabled `Obs` handle
    // costs one branch per event and zero heap traffic, so threading it
    // through solver hot paths cannot regress the allocation-free
    // guarantees above.
    use std::time::{Duration, Instant};
    let obs = matex_obs::Obs::disabled();
    // Warm-up (nothing to warm, but keep the shape of the other tests).
    obs.add("warm", 1);

    let before = allocations_so_far();
    for k in 0..1000u64 {
        let span = obs.span("solver.arnoldi");
        drop(span);
        let mut labeled = obs.span_for("solver.dc", k);
        labeled.label("phase", "T_H");
        drop(labeled);
        obs.record_span(
            "solver.expm_ladder",
            k,
            Instant::now(),
            Duration::from_nanos(k),
            &[],
        );
        obs.add("solver_runs_total", 1);
        obs.add_labeled("dist_nodes_total", &[("outcome", "ok")], 1);
        obs.gauge("engine_queue_depth", k as i64);
        obs.observe("solver_transient_seconds", Duration::from_nanos(k));
        obs.observe_labeled(
            "engine_job_seconds",
            &[("path", "cold")],
            Duration::from_nanos(k),
        );
    }
    let allocated = allocations_so_far() - before;
    assert_eq!(
        allocated, 0,
        "disabled-obs emission allocated {allocated} times in 1000 rounds"
    );
    // A tagged clone of a disabled handle is itself free of heap use.
    let before = allocations_so_far();
    for k in 0..1000u64 {
        let tagged = obs.tagged(k);
        drop(tagged);
    }
    assert_eq!(allocations_so_far() - before, 0);
}
