//! Property test: any job run through the [`ScenarioEngine`] — cold or
//! cache-hit, monolithic or distributed, any worker count — yields
//! **bitwise-identical** waveforms to a standalone `MatexSolver` /
//! `run_distributed` call.
//!
//! This is the engine's whole contract: caching and admission are
//! performance machinery, never numerics. Cold paths build exactly what
//! a standalone run builds; hit paths replay the identical factors (the
//! two-phase LU replay re-verifies its pinned pivot order, so a replay
//! that survives *is* the fresh factorization).

use matex_circuit::PdnBuilder;
use matex_core::{MatexSolver, TransientEngine, TransientSpec};
use matex_dist::{run_distributed, DistributedOptions};
use matex_serve::{EngineOptions, ExecutionMode, JobSpec, ScenarioEngine};
use matex_waveform::GroupingStrategy;
use proptest::prelude::*;
use std::sync::Arc;

/// Runs the job standalone — no engine, no cache.
fn standalone(job: &JobSpec) -> (Vec<Vec<f64>>, Vec<f64>) {
    let sys = job.effective_circuit().expect("circuit");
    let opts = job.effective_options();
    match &job.mode {
        ExecutionMode::Monolithic => {
            let r = MatexSolver::new(opts)
                .run(&sys, &job.spec)
                .expect("standalone mono run");
            (r.series().to_vec(), r.final_state().to_vec())
        }
        ExecutionMode::Distributed { strategy, workers } => {
            let dist = DistributedOptions {
                matex: opts,
                strategy: *strategy,
                workers: Some(workers.unwrap_or(2).max(1)),
                ..DistributedOptions::default()
            };
            let r = run_distributed(&sys, &job.spec, &dist).expect("standalone dist run");
            (r.result.series().to_vec(), r.result.final_state().to_vec())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn engine_jobs_match_standalone_bitwise(
        nx in 4usize..7,
        ny in 4usize..7,
        loads in 3usize..8,
        features in 1usize..4,
        seed in 0usize..1000,
        gamma_mul in 0.3..8.0_f64,
        scale in 0.5..2.0_f64,
        workers in 1usize..3,
        flags in (0usize..2, 0usize..2, 0usize..2),
    ) {
        let (use_gamma, use_scale, use_dist) = flags;
        let circuit = Arc::new(
            PdnBuilder::new(nx, ny)
                .num_loads(loads)
                .num_features(features)
                .window(1e-9)
                .seed(seed as u64)
                .build()
                .expect("grid builds"),
        );
        let spec = TransientSpec::new(0.0, 1e-9, 2.5e-11).expect("spec");
        let engine = ScenarioEngine::new(EngineOptions {
            threads: Some(4),
            ..EngineOptions::default()
        });

        // The fleet: a base job (plants the anchors), then a scenario
        // variation, then the variation again (the pure cache-hit path).
        let base = JobSpec::new(circuit.clone(), spec.clone());
        let mut varied = JobSpec::new(circuit, spec);
        if use_gamma == 1 {
            // Same or neighbouring γ decade of the 1e-10 default:
            // exercises exact-anchor and nearest-anchor replays.
            varied = varied.gamma(1e-10 * gamma_mul);
        }
        if use_scale == 1 {
            varied = varied.source_scale(scale);
        }
        if use_dist == 1 {
            varied = varied.mode(ExecutionMode::Distributed {
                strategy: GroupingStrategy::ByBumpFeature,
                workers: Some(workers),
            });
        }

        for job in [&base, &varied] {
            let (want_series, want_final) = standalone(job);
            let cold = engine.run(job).expect("engine run");
            prop_assert_eq!(
                cold.result.series(),
                &want_series[..],
                "engine deviated from standalone"
            );
            prop_assert_eq!(cold.result.final_state(), &want_final[..]);
            let hit = engine.run(job).expect("engine re-run");
            prop_assert!(
                hit.cache.setup.is_hit() || hit.cache.is_warm(),
                "second identical run missed the setup cache: {:?}",
                hit.cache
            );
            prop_assert_eq!(hit.result.series(), &want_series[..]);
            prop_assert_eq!(hit.result.final_state(), &want_final[..]);
        }
    }
}
