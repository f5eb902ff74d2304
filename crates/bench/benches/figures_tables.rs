//! Criterion benches that exercise every table/figure harness end to end
//! (at reduced durations). `cargo bench` therefore regenerates a miniature
//! of each artifact; the `repro` binary produces the full versions.

use criterion::{criterion_group, criterion_main, Criterion};
use wdm_bench::{
    cells::{measure_all, Duration, RunConfig},
    extras, figures, tables,
};

fn quick() -> RunConfig {
    RunConfig {
        duration: Duration::Minutes(0.05),
        seed: 1999,
        threads: 0,
        shards: 1,
        trace: false,
        compile: true,
        batch_record: true,
        blame: None,
        flame_hz: None,
    }
}

fn bench_table1(c: &mut Criterion) {
    c.bench_function("artifact/table1", |b| {
        b.iter(|| std::hint::black_box(tables::table1()))
    });
}

fn bench_table2(c: &mut Criterion) {
    c.bench_function("artifact/table2", |b| {
        b.iter(|| std::hint::black_box(tables::table2()))
    });
}

fn bench_table3(c: &mut Criterion) {
    let cells = measure_all(&quick());
    c.bench_function("artifact/table3_render", |b| {
        b.iter(|| std::hint::black_box(tables::table3(&cells)))
    });
}

fn bench_table4(c: &mut Criterion) {
    c.bench_function("artifact/table4", |b| {
        b.iter(|| std::hint::black_box(tables::table4(&quick())))
    });
}

fn bench_figure4(c: &mut Criterion) {
    let cells = measure_all(&quick());
    c.bench_function("artifact/figure4_render", |b| {
        b.iter(|| std::hint::black_box(figures::figure4(&cells)))
    });
}

fn bench_figure5(c: &mut Criterion) {
    c.bench_function("artifact/figure5", |b| {
        b.iter(|| {
            let f = figures::figure5(&quick());
            std::hint::black_box(figures::render_figure5(&f))
        })
    });
}

fn bench_figures_6_7(c: &mut Criterion) {
    let cells = measure_all(&quick());
    c.bench_function("artifact/figures_6_7_render", |b| {
        b.iter(|| std::hint::black_box(figures::figures_6_7(&cells)))
    });
}

fn bench_cell_measurement(c: &mut Criterion) {
    c.bench_function("artifact/measure_8_cells_3s_each", |b| {
        b.iter(|| std::hint::black_box(measure_all(&quick())))
    });
}

fn bench_throughput_sched(c: &mut Criterion) {
    let cells = measure_all(&quick());
    c.bench_function("artifact/throughput_and_sched_render", |b| {
        b.iter(|| {
            std::hint::black_box(extras::throughput(&cells));
            std::hint::black_box(extras::sched(&cells))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_table1, bench_table2, bench_table3, bench_table4,
              bench_figure4, bench_figure5, bench_figures_6_7,
              bench_cell_measurement, bench_throughput_sched
}
criterion_main!(benches);
