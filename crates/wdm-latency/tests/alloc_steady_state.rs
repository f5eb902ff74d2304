//! Steady-state allocation audit for the measurement fast path.
//!
//! Companion to `wdm-sim/tests/alloc_steady_state.rs`, which pins the
//! kernel's step loops; this binary pins the *measurement* side of the
//! cycle-domain fast path (DESIGN.md §12): once a [`LatencySeries`] has
//! built its integer bin edges and grown its block-maxima vector to
//! steady capacity, a record-heavy window — compiled sampler draws feeding
//! `record_cycles` — must perform **zero** heap operations, sample for
//! sample. A second window pins the batched path (DESIGN.md §14):
//! `draw_batch` into a fixed buffer, 200k samples staged through a
//! [`SampleStage`] and flushed (partition + fold + reset), also at zero
//! heap operations. A third test pins the heap operations of one grid
//! job's set-up, which every shard job pays again.
//!
//! The counter is per thread: the measured code runs on the test's own
//! thread, while the test harness's threads allocate on their own schedule
//! and would otherwise bleed into a measured window.

use std::{
    alloc::{GlobalAlloc, Layout, System},
    cell::Cell,
};

use rand::{rngs::StdRng, SeedableRng};
use wdm_latency::worstcase::LatencySeries;
use wdm_latency::SampleStage;
use wdm_osmodel::dist::{Dist, SamplerMode};
use wdm_sim::time::{Cycles, Instant};

struct CountingAlloc;

thread_local! {
    /// Heap operations (alloc, realloc, free) made by this thread.
    static HEAP_OPS: Cell<u64> = const { Cell::new(0) };
}

fn count_op() {
    HEAP_OPS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_op();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_op();
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_op();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn heap_ops() -> u64 {
    HEAP_OPS.with(Cell::get)
}

const CPU_HZ: u64 = 300_000_000;
/// One block-maxima block (one simulated minute) in cycles.
const BLOCK: u64 = 60 * CPU_HZ;

#[test]
fn record_heavy_window_is_allocation_free() {
    // A heavy-tailed mixture like the scenario distributions; its compiled
    // draws must be allocation-free.
    let dist = Dist::Mixture(vec![
        (
            0.9,
            Dist::LogNormal {
                median: 0.02,
                sigma: 0.8,
                cap: 1.5,
            },
        ),
        (
            0.1,
            Dist::LogNormal {
                median: 0.35,
                sigma: 0.95,
                cap: 30.0,
            },
        ),
    ]);
    let exact = dist.compile(CPU_HZ, SamplerMode::Exact);
    let mut series = LatencySeries::new("audit", CPU_HZ);
    let mut rng = StdRng::seed_from_u64(7);

    // Warm-up: build the integer bin edges and close ~100 blocks so the
    // maxima vector reaches steady capacity (the measured window closes
    // far fewer blocks than the headroom doubling growth leaves behind).
    let warm_samples = 1_600u64;
    for i in 0..warm_samples {
        let now = Instant(i * (100 * BLOCK / warm_samples));
        series.record_cycles(now, exact.draw(&mut rng));
    }
    let warm_end = 100 * BLOCK;
    assert!(
        series.blocks.maxima().len() >= 90,
        "warm-up must close ~100 blocks: {}",
        series.blocks.maxima().len()
    );

    // Measured window: 200k draw+record pairs spanning ~20 more blocks.
    let samples = 200_000u64;
    let before = heap_ops();
    for i in 0..samples {
        let now = Instant(warm_end + i * (20 * BLOCK / samples));
        series.record_cycles(now, exact.draw(&mut rng));
    }
    let ops = heap_ops() - before;
    assert_eq!(
        ops, 0,
        "measurement steady state must not touch the heap ({ops} ops over {samples} records)"
    );
    assert_eq!(series.hist.count(), warm_samples + samples);

    // Staged pipeline (DESIGN.md §14): batch draws into a fixed buffer,
    // stage raw triples, and run the full partition/fold/reset flush loop.
    // Once the stage's columns, the series' bin edges, and the maxima
    // vector are at steady capacity, 200k staged+flushed samples must also
    // be allocation-free.
    let mut staged_series = LatencySeries::new("staged", CPU_HZ);
    let mut stage = SampleStage::new(BLOCK);
    let sid = stage.register_series(1);
    let mut buf = vec![Cycles(0); 256];
    let flush = |stage: &mut SampleStage, s: &mut LatencySeries| {
        stage.partition();
        stage.fold_into(sid, s);
        stage.reset();
    };

    // Warm-up: close ~100 blocks through the staged path so every piece
    // of state reaches steady capacity before the measured window.
    for i in 0..warm_samples {
        let now = Instant(i * (100 * BLOCK / warm_samples));
        exact.draw_batch(&mut rng, &mut buf[..2]);
        for k in [buf[0], buf[1]] {
            if stage.push(sid, now, k) {
                flush(&mut stage, &mut staged_series);
            }
        }
    }
    if !stage.is_empty() {
        flush(&mut stage, &mut staged_series);
    }
    assert!(
        staged_series.blocks.maxima().len() >= 90,
        "staged warm-up must close ~100 blocks: {}",
        staged_series.blocks.maxima().len()
    );

    // Measured window: 782 batches of 256 draws (200k+ samples) staged,
    // flushed at capacity and block boundaries, spanning ~20 more blocks.
    let batches = 782u64;
    let before = heap_ops();
    for b in 0..batches {
        let now = Instant(warm_end + b * (20 * BLOCK / batches));
        exact.draw_batch(&mut rng, &mut buf);
        for &c in buf.iter() {
            if stage.push(sid, now, c) {
                flush(&mut stage, &mut staged_series);
            }
        }
    }
    if !stage.is_empty() {
        flush(&mut stage, &mut staged_series); // Partial final flush.
    }
    let ops = heap_ops() - before;
    let staged_window = batches * buf.len() as u64;
    assert_eq!(
        ops, 0,
        "staged recording steady state must not touch the heap \
         ({ops} ops over {staged_window} staged samples)"
    );
    assert_eq!(
        stage.staged_samples(),
        2 * warm_samples + staged_window,
        "every sample passes through the stage"
    );
    assert!(
        stage.batch_flushes() >= staged_window / 1024,
        "capacity flushes must occur: {}",
        stage.batch_flushes()
    );
    assert_eq!(staged_series.hist.count(), 2 * warm_samples + staged_window);
}

/// Heap operations (allocations, reallocations and frees) one grid job
/// makes before its first simulated event: `build_scenario` plus
/// `MeasurementSession::install`, per cell at seed 4242. A sharded run
/// pays them once per job, so each cell's count is pinned here with a
/// small margin for the standard library's growth policy.
///
/// Before symbols were interned by a scan, routes became bitmasks, the
/// histogram axis was borrowed and object names became `Cow`s, the same
/// set-up took, per cell (build + install):
///
/// | cell | NT4 | Win98 |
/// |---|---|---|
/// | Business | 133 + 119 | 121 + 120 |
/// | Workstation | 133 + 119 | 121 + 120 |
/// | Games | 160 + 122 | 148 + 123 |
/// | Web | 143 + 119 | 131 + 120 |
///
/// Before each thread and each timer was one record, when the thread
/// table's nine columns and the timer table's three each grew by doubling
/// on their own, it took:
///
/// | cell | NT4 | Win98 |
/// |---|---|---|
/// | Business | 91 + 91 | 80 + 92 |
/// | Workstation | 91 + 91 | 80 + 92 |
/// | Games | 104 + 94 | 93 + 95 |
/// | Web | 95 + 91 | 84 + 92 |
#[test]
fn cell_setup_heap_ops_are_pinned() {
    use wdm_latency::MeasurementSession;
    use wdm_osmodel::personality::OsKind;
    use wdm_workloads::{build_scenario, ScenarioOptions, WorkloadKind};

    /// (build, install) heap operations per cell, grid order.
    const PINNED: [(OsKind, WorkloadKind, u64, u64); 8] = [
        (OsKind::Nt4, WorkloadKind::Business, 83, 84),
        (OsKind::Nt4, WorkloadKind::Workstation, 83, 84),
        (OsKind::Nt4, WorkloadKind::Games, 96, 87),
        (OsKind::Nt4, WorkloadKind::Web, 87, 84),
        (OsKind::Win98, WorkloadKind::Business, 72, 85),
        (OsKind::Win98, WorkloadKind::Workstation, 72, 85),
        (OsKind::Win98, WorkloadKind::Games, 85, 88),
        (OsKind::Win98, WorkloadKind::Web, 76, 85),
    ];
    const MARGIN: u64 = 4;
    for (os, w, build_pin, install_pin) in PINNED {
        let before = heap_ops();
        let mut sc = build_scenario(os, w, 4242, &ScenarioOptions::default());
        let built = heap_ops() - before;
        let before = heap_ops();
        let session = MeasurementSession::install(&mut sc.kernel, 1.0);
        let installed = heap_ops() - before;
        assert!(
            built <= build_pin + MARGIN && installed <= install_pin + MARGIN,
            "{os:?} {w:?}: build_scenario made {built} heap ops (pinned {build_pin}), \
             install made {installed} (pinned {install_pin})"
        );

        // Re-interning a pair the scenario already holds only scans the
        // table.
        let (labels, before) = (sc.kernel.symbols().len(), heap_ops());
        let pit = sc.kernel.intern("HAL", "_HalpClockInterrupt");
        let idle = sc.kernel.intern("HAL", "_IdleLoop");
        let ops = heap_ops() - before;
        assert_eq!(ops, 0, "{os:?} {w:?}: re-interning made {ops} heap ops");
        assert_eq!(sc.kernel.symbols().len(), labels);
        assert_eq!(sc.kernel.symbols().render(pit), "HAL!_HalpClockInterrupt");
        assert_eq!(idle, wdm_sim::labels::Label::IDLE);
        drop(session);
    }
}
