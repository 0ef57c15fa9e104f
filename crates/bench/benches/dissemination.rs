//! Wall-clock benchmark of one full epidemic per scheme at a small scale,
//! on the virtual-time driver. This is a smoke-level benchmark that keeps
//! the Figure 7 harness honest (a regression here makes the figure
//! binaries unusably slow at paper scale).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ltnc_bench::epidemic;
use ltnc_scheme::SchemeKind;
use ltnc_topo::run_topology_virtual;

fn bench_dissemination(c: &mut Criterion) {
    let mut group = c.benchmark_group("dissemination_run");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(5));
    for scheme in SchemeKind::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(scheme.label()),
            &scheme,
            |bench, &scheme| {
                let config = epidemic(scheme, 40, 24, 8, 42);
                bench.iter(|| {
                    let report = run_topology_virtual(&config).swarm;
                    assert!(report.converged && report.bit_exact);
                    std::hint::black_box(report.peers_complete)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dissemination);
criterion_main!(benches);
