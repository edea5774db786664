//! Overload-robust admission: one queue for every job, priority
//! ordering, EDF within a class, bounded-queue rejection, cancellation
//! of queued and running jobs — and the contract that none of it ever
//! changes an admitted job's bits.
//!
//! The scheduler may only decide *when* a job runs. These tests pin
//! the observable consequences: no class is starved, tighter deadlines
//! run first among equals, synchronous runs rank beside submitted jobs,
//! a job waiting for threads is still queued, shed load is rejected
//! with a back-off hint instead of queued unboundedly, cancellation
//! returns the job's threads promptly and leaves the engine's counters
//! and artifact cache consistent, and admitted waveforms are
//! bitwise-invariant to queue pressure, priorities, and concurrent
//! cancellations of other jobs.

use matex_circuit::PdnBuilder;
use matex_core::TransientSpec;
use matex_serve::{EngineOptions, JobSpec, JobStatus, Priority, ScenarioEngine, ServeError};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small PDN job: `dim`×`dim` grid, distinct `seed` per distinct
/// circuit, ~41 output points.
fn job(dim: usize, seed: u64) -> JobSpec {
    let grid = Arc::new(
        PdnBuilder::new(dim, dim)
            .num_loads(dim)
            .num_features(2)
            .window(1e-9)
            .seed(seed)
            .build()
            .expect("grid builds"),
    );
    let spec = TransientSpec::new(0.0, 1e-9, 2.5e-11).expect("spec");
    JobSpec::new(grid, spec)
}

/// Polls until the job leaves `Queued` (i.e. an executor picked it
/// up), so later submissions are guaranteed to queue behind it.
fn wait_until_running(engine: &ScenarioEngine, id: u64) {
    let t0 = Instant::now();
    loop {
        match engine.status(id) {
            Some(JobStatus::Queued) => {}
            Some(_) => return,
            None => panic!("job {id} unknown"),
        }
        assert!(t0.elapsed() < Duration::from_secs(30), "job {id} never ran");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Occupies one executor with a march that outlasts any test by orders
/// of magnitude (100k steps) and returns its id once it is running:
/// whatever is submitted next stays queued until the caller cancels it —
/// however fast a small job factors.
fn hold_executor(engine: &ScenarioEngine) -> u64 {
    let grid = Arc::new(
        PdnBuilder::new(12, 12)
            .num_loads(18)
            .num_features(3)
            .window(1e-6)
            .seed(1)
            .build()
            .expect("grid builds"),
    );
    let spec = TransientSpec::new(0.0, 1e-6, 1e-11)
        .expect("spec")
        .observing(vec![0]);
    let blocker = engine.submit(JobSpec::new(grid, spec)).expect("blocker");
    wait_until_running(engine, blocker);
    blocker
}

#[test]
fn no_priority_class_is_starved() {
    // One executor, an interleaved mix of classes. Strict priority
    // reorders the queue but never drops anyone: every job completes.
    let engine = ScenarioEngine::new(EngineOptions {
        executors: 1,
        threads: Some(2),
        ..EngineOptions::default()
    });
    let mut ids = Vec::new();
    for i in 0..12u64 {
        let p = match i % 3 {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        };
        ids.push(engine.submit(job(5, 7).priority(p)).expect("submit"));
    }
    for id in ids {
        engine.wait(id).expect("every class completes");
    }
    let s = engine.stats();
    assert_eq!(s.completed, 12);
    assert_eq!(s.failed, 0);
    assert_eq!(s.cancelled, 0);
    assert_eq!(s.queue_depth, 0);
}

/// The order in which the engine started its queued jobs: one
/// `engine.queue_wait` span per job, recorded by the executor as it pops
/// the job and tagged with the job's id.
fn start_order(engine: &ScenarioEngine) -> Vec<u64> {
    engine
        .obs()
        .chrome_trace_events()
        .split("{\"name\":\"")
        .filter(|ev| ev.starts_with("engine.queue_wait\""))
        .map(|ev| {
            let id = &ev[ev.find("\"job\":").expect("span carries its job") + 6..];
            let digits = id.find(|c: char| !c.is_ascii_digit()).unwrap_or(id.len());
            id[..digits].parse().expect("job id")
        })
        .collect()
}

#[test]
fn edf_runs_the_tighter_deadline_first_within_a_class() {
    let engine = ScenarioEngine::new(EngineOptions {
        executors: 1,
        threads: Some(2),
        obs: matex_obs::Obs::enabled(),
        ..EngineOptions::default()
    });
    // The blocker is cancelled only once both contenders are queued, so
    // the executor's next pop chooses between them — never between one
    // of them and an empty queue.
    let blocker = hold_executor(&engine);
    // Far deadline submitted first, near deadline second: EDF must run
    // the near one first even though FIFO would not.
    let far = engine
        .submit(job(5, 2).deadline(Duration::from_secs(60)))
        .expect("far submit");
    let near = engine
        .submit(job(5, 3).deadline(Duration::from_secs(30)))
        .expect("near submit");
    engine.cancel(blocker);
    engine.wait(near).expect("near-deadline job completes");
    engine.wait(far).expect("far-deadline job completes too");
    // Asserted on the engine's own start sequence, not on what a poll
    // happens to see at some instant.
    assert_eq!(start_order(&engine), vec![blocker, near, far]);
}

#[test]
fn strict_classes_then_edf_then_fifo_set_the_start_order() {
    let engine = ScenarioEngine::new(EngineOptions {
        executors: 1,
        threads: Some(2),
        obs: matex_obs::Obs::enabled(),
        ..EngineOptions::default()
    });
    let blocker = hold_executor(&engine);
    // Arrival order is the reverse of the start order.
    let low = engine
        .submit(job(5, 40).priority(Priority::Low))
        .expect("low");
    let normal = engine.submit(job(5, 41)).expect("normal");
    let normal_deadline = engine
        .submit(job(5, 42).deadline(Duration::from_secs(60)))
        .expect("normal with a deadline");
    let high = engine
        .submit(job(5, 43).priority(Priority::High))
        .expect("high");
    engine.cancel(blocker);
    for id in [low, normal, normal_deadline, high] {
        engine.wait(id).expect("every job completes");
    }
    assert_eq!(
        start_order(&engine),
        vec![blocker, high, normal_deadline, normal, low]
    );
}

#[test]
fn a_run_ranks_in_the_same_queue_as_submitted_jobs() {
    let engine = ScenarioEngine::new(EngineOptions {
        executors: 1,
        threads: Some(1),
        obs: matex_obs::Obs::enabled(),
        ..EngineOptions::default()
    });
    let blocker = hold_executor(&engine);
    let queued = engine.submit(job(5, 44)).expect("normal submit");
    std::thread::scope(|s| {
        let urgent = s.spawn(|| engine.run(&job(5, 45).priority(Priority::High)));
        while engine.stats().queue_depth < 2 {
            std::thread::yield_now();
        }
        engine.cancel(blocker);
        urgent.join().expect("caller").expect("high run completes");
    });
    engine
        .wait(queued)
        .expect("the submitted job completes after it");
    // The run drew the id after the submitted job's, yet started first.
    assert_eq!(start_order(&engine), vec![blocker, queued + 1, queued]);
}

#[test]
fn jobs_waiting_for_threads_are_queued_not_running() {
    // Three executors but one thread: the two jobs behind the blocker
    // wait in the queue, where `queue_depth`, `max_queue` and the
    // drain estimate all see them.
    let engine = ScenarioEngine::new(EngineOptions {
        executors: 3,
        threads: Some(1),
        max_queue: 2,
        ..EngineOptions::default()
    });
    let blocker = hold_executor(&engine);
    let a = engine.submit(job(5, 46)).expect("fits");
    let b = engine.submit(job(5, 47)).expect("fits");
    std::thread::sleep(Duration::from_millis(20));
    for id in [a, b] {
        assert!(matches!(engine.status(id), Some(JobStatus::Queued)));
    }
    assert_eq!(engine.stats().queue_depth, 2);
    match engine.submit(job(5, 48)) {
        Err(ServeError::Rejected { reason, .. }) => {
            assert!(reason.contains("queue full"), "reason: {reason}");
        }
        other => panic!("expected queue-full rejection, got {other:?}"),
    }
    engine.cancel(blocker);
    for id in [a, b] {
        engine.wait(id).expect("queued jobs complete");
    }
}

#[test]
fn a_head_past_its_deadline_is_dropped_while_threads_are_busy() {
    let engine = ScenarioEngine::new(EngineOptions {
        executors: 2,
        threads: Some(1),
        ..EngineOptions::default()
    });
    let blocker = hold_executor(&engine);
    let late = engine
        .submit(job(5, 49).deadline(Duration::from_secs(1)))
        .expect("meetable on an idle executor");
    let err = engine.wait(late).expect_err("dropped at its deadline");
    assert!(
        err.to_string().contains("deadline passed while queued"),
        "{err}"
    );
    // Dropped at its deadline, not when the blocker let go.
    assert!(matches!(engine.status(blocker), Some(JobStatus::Running)));
    let s = engine.stats();
    assert_eq!(s.deadline_misses, 1);
    assert_eq!(s.queue_depth, 0);
    engine.cancel(blocker);
}

#[test]
fn full_queue_and_unmeetable_deadlines_are_rejected_with_retry_hints() {
    let engine = ScenarioEngine::new(EngineOptions {
        executors: 1,
        threads: Some(2),
        max_queue: 2,
        ..EngineOptions::default()
    });
    let blocker = hold_executor(&engine);
    // A deadline no schedule can meet is refused at submit, not queued
    // and dropped later: even an empty queue predicts more than a
    // nanosecond of service time.
    match engine.submit(job(5, 12).deadline(Duration::from_nanos(1))) {
        Err(ServeError::Rejected { reason, .. }) => {
            assert!(reason.contains("unmeetable"), "reason: {reason}");
        }
        other => panic!("expected deadline rejection, got {other:?}"),
    }
    let a = engine.submit(job(5, 12)).expect("fits");
    let b = engine.submit(job(5, 13)).expect("fits");
    // Queue is at max_queue: the next offer is shed at the door.
    match engine.submit(job(5, 14)) {
        Err(ServeError::Rejected {
            reason,
            retry_after,
        }) => {
            assert!(reason.contains("queue full"), "reason: {reason}");
            assert!(retry_after > Duration::ZERO);
        }
        other => panic!("expected queue-full rejection, got {other:?}"),
    }
    let s = engine.stats();
    assert_eq!(s.rejected, 2);
    engine.cancel(blocker);
    for id in [a, b] {
        engine.wait(id).expect("admitted jobs still complete");
    }
    assert_eq!(engine.stats().failed, 0);
}

#[test]
fn retry_after_hints_are_clamped_to_the_configured_cap() {
    // A deep backlog predicts a long drain, but the hint handed to shed
    // clients never exceeds the configured ceiling — a polite client
    // must not be told to go away for minutes.
    let engine = ScenarioEngine::new(EngineOptions {
        executors: 1,
        threads: Some(2),
        max_queue: 1,
        retry_after_cap: Duration::from_millis(5),
        ..EngineOptions::default()
    });
    let blocker = hold_executor(&engine);
    let queued = engine.submit(job(7, 32)).expect("fits the queue");
    match engine.submit(job(7, 33)) {
        Err(ServeError::Rejected { retry_after, .. }) => {
            assert!(
                retry_after <= Duration::from_millis(5),
                "hint {retry_after:?} exceeds the 5ms cap"
            );
            assert!(
                retry_after >= Duration::from_millis(1),
                "hint stays nonzero"
            );
        }
        other => panic!("expected queue-full rejection, got {other:?}"),
    }
    engine.cancel(blocker);
    engine.wait(queued).expect("the admitted job completes");
}

#[test]
fn cancelling_a_queued_job_resolves_it_and_leaves_the_engine_consistent() {
    let engine = ScenarioEngine::new(EngineOptions {
        executors: 1,
        threads: Some(2),
        ..EngineOptions::default()
    });
    let blocker = hold_executor(&engine);
    let victim = engine.submit(job(6, 22)).expect("victim queues");
    let survivor = engine.submit(job(6, 23)).expect("survivor queues");
    assert!(matches!(engine.cancel(victim), Some(JobStatus::Cancelled)));
    match engine.wait(victim) {
        Err(e) => assert!(e.is_cancelled(), "unexpected error: {e}"),
        Ok(_) => panic!("cancelled job produced an outcome"),
    }
    // Everyone else is untouched.
    engine.cancel(blocker);
    let survived = engine.wait(survivor).expect("survivor completes");
    let s = engine.stats();
    assert_eq!(s.cancelled, 2);
    assert_eq!(s.completed, 1);
    assert_eq!(s.failed, 0);
    assert_eq!(s.queue_depth, 0);
    // The cache the cancelled job never touched still serves the same
    // bits a pristine engine computes.
    let pristine = ScenarioEngine::new(EngineOptions {
        executors: 1,
        ..EngineOptions::default()
    });
    let fresh = pristine.run(&job(6, 23)).expect("pristine run");
    assert_eq!(survived.result.series(), fresh.result.series());
    // Resubmitting the cancelled job's spec runs it normally.
    let retry = engine.submit(job(6, 22)).expect("resubmit");
    let out = engine.wait(retry).expect("resubmitted job completes");
    let fresh = pristine.run(&job(6, 22)).expect("pristine run");
    assert_eq!(out.result.series(), fresh.result.series());
}

#[test]
fn cancelling_a_running_job_frees_the_budget_within_a_step_boundary() {
    // threads = 1: the job table's only thread belongs to the running
    // job, so the follow-up run() below can only succeed if
    // cancellation returned it.
    let engine = ScenarioEngine::new(EngineOptions {
        executors: 1,
        threads: Some(1),
        ..EngineOptions::default()
    });
    let long = hold_executor(&engine);
    assert!(matches!(engine.cancel(long), Some(JobStatus::Running)));
    let t0 = Instant::now();
    match engine.wait(long) {
        Err(e) => assert!(e.is_cancelled(), "unexpected error: {e}"),
        Ok(_) => panic!("cancelled running job produced an outcome"),
    }
    // Cooperative, but prompt: the solver polls between transient
    // steps, each far shorter than this bound.
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "cancellation took {:?}",
        t0.elapsed()
    );
    let s = engine.stats();
    assert_eq!(s.cancelled, 1);
    assert_eq!(s.failed, 0);
    // The thread came back: a fresh job can take it and run to
    // completion, with bits matching a pristine
    // engine (the aborted march poisoned nothing).
    let out = engine.run(&job(5, 32)).expect("engine still serves");
    let pristine = ScenarioEngine::new(EngineOptions {
        executors: 1,
        threads: Some(1),
        ..EngineOptions::default()
    });
    let fresh = pristine.run(&job(5, 32)).expect("pristine run");
    assert_eq!(out.result.series(), fresh.result.series());
    assert_eq!(out.result.final_state(), fresh.result.final_state());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Admitted jobs are bitwise-invariant to everything the scheduler
    /// does: queue pressure, their own priority class, deadlines, and
    /// concurrent cancellations of unrelated jobs. (The what-if fast
    /// path is disabled — it is an approximate correction, excluded
    /// from the bitwise contract by design.)
    #[test]
    fn admitted_waveforms_ignore_pressure_priority_and_cancellations(
        dim in 4usize..6,
        seed in 0usize..500,
        scale in 0.5..2.0_f64,
        prio in 0usize..3,
        crowd in 3usize..6,
        with_deadline in 0usize..2,
    ) {
        let target = job(dim, seed as u64).source_scale(scale);
        let quiet = ScenarioEngine::new(EngineOptions {
            executors: 1,
            whatif_max_rank: 0,
            whatif_bases: 0,
            ..EngineOptions::default()
        });
        let baseline = quiet.run(&target).expect("uncontended run");

        let busy = ScenarioEngine::new(EngineOptions {
            executors: 2,
            threads: Some(2),
            whatif_max_rank: 0,
            whatif_bases: 0,
            ..EngineOptions::default()
        });
        // A crowd of unrelated jobs around the target, some of which
        // get cancelled while the queue drains.
        let mut crowd_ids = Vec::new();
        for c in 0..crowd {
            let crowd_job = job(4 + (c % 2), 1000 + c as u64).source_scale(0.8 + 0.1 * c as f64);
            crowd_ids.push(busy.submit(crowd_job).expect("crowd submit"));
        }
        let mut pressured = target.clone().priority(match prio {
            0 => matex_serve::Priority::High,
            1 => matex_serve::Priority::Normal,
            _ => matex_serve::Priority::Low,
        });
        if with_deadline == 1 {
            pressured = pressured.deadline(Duration::from_secs(120));
        }
        let id = busy.submit(pressured).expect("target submit");
        for &c in crowd_ids.iter().skip(1).step_by(2) {
            busy.cancel(c);
        }
        let out = busy.wait(id).expect("target completes under pressure");
        prop_assert_eq!(out.result.series(), baseline.result.series());
        prop_assert_eq!(out.result.final_state(), baseline.result.final_state());
        // The crowd resolves too — completed or cleanly cancelled,
        // never wedged or failed.
        for c in crowd_ids {
            match busy.wait(c) {
                Ok(_) => {}
                Err(e) => prop_assert!(e.is_cancelled(), "crowd job failed: {}", e),
            }
        }
        prop_assert_eq!(busy.stats().failed, 0);
    }
}
