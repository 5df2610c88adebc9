//! Parallel-sweep determinism: the contract that `--jobs N` is purely a
//! wall-clock optimization. Every grid point is an independent simulation
//! whose seed derives only from its grid coordinates, and the pool returns
//! results in grid order, so a sweep must produce *bit-identical* results
//! for every worker count.

use bench::{defaults, sweep};
use bench::{patronoc_uniform_scenario, synthetic_scenario, utilization_point};
use scenario::Scenario;
use traffic::SyntheticPattern;

const QUICK_WINDOW: u64 = 8_000;
const QUICK_WARMUP: u64 = 2_000;

/// A reduced-budget Fig. 4 PATRONoC curve at one burst cap, built as
/// `fig4` builds it: one scenario per load, seeded by its coordinates.
fn fig4_curve(max_transfer: u64, loads: &[f64]) -> Vec<Scenario> {
    loads
        .iter()
        .enumerate()
        .map(|(i, &load)| {
            patronoc_uniform_scenario(
                32,
                load,
                max_transfer,
                QUICK_WINDOW,
                QUICK_WARMUP,
                defaults::fig4_patronoc_seed(max_transfer, i),
            )
        })
        .collect()
}

/// Runs a grid at `jobs` workers and returns each point's throughput bits.
fn throughput_bits(jobs: usize, grid: &[Scenario]) -> Vec<u64> {
    sweep::run_points(jobs, grid, |sc| {
        sc.run().expect("valid scenario").throughput_gib_s.to_bits()
    })
}

#[test]
fn fig4_sweep_bit_identical_across_jobs() {
    // A reduced-budget Fig. 4 curve: same loads, same burst cap, same
    // seeds — only the worker count differs.
    let grid = fig4_curve(1_000, &[0.001, 0.01, 0.1, 0.5, 1.0]);
    let serial = throughput_bits(1, &grid);
    let parallel = throughput_bits(4, &grid);
    assert_eq!(serial.len(), grid.len());
    assert_eq!(serial, parallel);
}

#[test]
fn fig6_grid_bit_identical_across_jobs() {
    // A reduced-budget slice of the Fig. 6 grid through the point-runner
    // the binary uses.
    let cells: Vec<(u64, Scenario)> = [
        (SyntheticPattern::AllGlobal, 100u64),
        (SyntheticPattern::MaxTwoHop, 1_000),
        (SyntheticPattern::MaxSingleHop, 10_000),
    ]
    .into_iter()
    .map(|(pattern, cap)| {
        let sc = synthetic_scenario(32, pattern, cap, QUICK_WINDOW, QUICK_WARMUP);
        (cap, sc)
    })
    .collect();
    let run =
        |jobs: usize| sweep::run_points(jobs, &cells, |(cap, sc)| utilization_point(sc, *cap));
    let serial = run(1);
    let parallel = run(3);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.burst_cap, p.burst_cap);
        assert_eq!(s.gib_s.to_bits(), p.gib_s.to_bits());
        assert_eq!(s.utilization_pct.to_bits(), p.utilization_pct.to_bits());
    }
}

#[test]
fn scenario_grid_bit_identical_across_jobs() {
    // The redesign's contract restated at the builder level: a grid of
    // Scenario values — mixed engines, traffic classes and seeds — must
    // produce bit-identical reports for every worker count.
    let grid: Vec<Scenario> = vec![
        patronoc_uniform_scenario(
            32,
            1.0,
            1_000,
            QUICK_WINDOW,
            QUICK_WARMUP,
            defaults::fig4_patronoc_seed(1_000, 4),
        ),
        bench::noxim_uniform_scenario(
            scenario::PacketProfile::Compact,
            1.0,
            100,
            QUICK_WINDOW,
            QUICK_WARMUP,
            defaults::fig4_noxim_seed(0, 4),
        ),
        synthetic_scenario(
            32,
            SyntheticPattern::MaxTwoHop,
            1_000,
            QUICK_WINDOW,
            QUICK_WARMUP,
        ),
        bench::dnn_scenario(512, traffic::DnnWorkload::PipelinedConv, 1),
    ];
    let run = |jobs: usize| sweep::run_points(jobs, &grid, |sc| sc.run().expect("valid scenario"));
    let serial = run(1);
    let parallel = run(4);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.cycles, p.cycles);
        assert_eq!(s.payload_bytes, p.payload_bytes);
        assert_eq!(s.stop_reason, p.stop_reason);
        assert_eq!(s.throughput_gib_s.to_bits(), p.throughput_gib_s.to_bits());
        assert_eq!(s.mean_latency.to_bits(), p.mean_latency.to_bits());
    }
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Beyond serial-vs-parallel: two parallel runs with the same options
    // must agree with each other (no hidden global state in the engines).
    let grid = fig4_curve(100, &[0.01, 1.0]);
    assert_eq!(throughput_bits(4, &grid), throughput_bits(4, &grid));
}
