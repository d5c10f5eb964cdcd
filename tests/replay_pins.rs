//! Fixed digests of suite replays under the scheduler and SIMD
//! configurations the golden manifests do not reach.
//!
//! The study goldens (`golden_manifests.rs`) replay only round-robin
//! scheduling without lane compaction. This test pins
//! `KernelStats::to_json()` for all 12 Rodinia benchmarks at `tiny`
//! under greedy-then-oldest scheduling, a 16-wide SIMD with lane
//! compaction, an 8-SM GTO part, and the GTX 480 L1-bias part with and
//! without GTO, each at one and three replay shards. A change to the
//! warp scheduler or the epoch loop that moves any statistic under
//! these configurations fails here even when the goldens stay put.

use rodinia_repro::datasets::Scale;
use rodinia_repro::rodinia_gpu::suite::all_benchmarks;
use rodinia_repro::simt::{set_sim_threads, Gpu, GpuConfig, SchedPolicy};
use rodinia_repro::store::fnv1a64;

fn gto(cfg: GpuConfig) -> GpuConfig {
    GpuConfig {
        sched_policy: SchedPolicy::GreedyThenOldest,
        ..cfg
    }
}

/// FNV-1a digest of every benchmark's stats under `cfg`, in suite order.
fn digests(cfg: &GpuConfig) -> Vec<(&'static str, u64)> {
    all_benchmarks(Scale::Tiny)
        .iter()
        .map(|b| {
            let stats = b.run_on(&mut Gpu::new(cfg.clone()));
            (b.abbrev(), fnv1a64(stats.to_json().to_string().as_bytes()))
        })
        .collect()
}

/// Committed digests, one row per configuration, columns in suite
/// order (BP, BFS, CFD, HW, HS, KM, LC, LUD, MUM, NW, SRAD, SC).
const PINS: &[(&str, [u64; 12])] = &[
    (
        "gto",
        [
            0xa9ea35697f7fd24e,
            0x06c44deb0b41d406,
            0x7a2fb366de176e8d,
            0xc41076420bd456d8,
            0x8aeb47bea7ab1f49,
            0x0479c9262a3b6848,
            0x15a66c14e5bdb115,
            0x2b1939deed6dd44b,
            0xf21b952eeeb79ae6,
            0x2ebc901fa07d8dd5,
            0xf673d67d87500498,
            0xd1ec6e0415f061eb,
        ],
    ),
    (
        "simd16-compaction",
        [
            0x76e171a20c8854b1,
            0x13850c78e846225a,
            0x062e8ef042ef077c,
            0x8b3748893d534542,
            0xbb5d4bf4de3d426b,
            0x37e7210fedab3807,
            0x782f05d90c5dac27,
            0x9704e3bbfa79f67c,
            0x7014b8ccbf655c53,
            0x2ebc901fa07d8dd5,
            0xf02c009d455ddc8f,
            0xb128b69be5fd3b7a,
        ],
    ),
    (
        "8sm-gto",
        [
            0x1cdc05e89b724ae2,
            0xb3c54760e53b8482,
            0xe8dcc76510e99209,
            0x1a2d8bb76893308c,
            0x725277ce692915ab,
            0x85c8703514bb53c7,
            0x7076ce20e97bc20c,
            0xb09b8f5072c4ec3b,
            0x6fcf636365b2bd55,
            0x0970bc17d96f35e4,
            0xa800b7d741951114,
            0x0aae53c7f68bb5e9,
        ],
    ),
    (
        "gtx480-l1",
        [
            0x23b9a3dad6c1f731,
            0x0d365518f929550a,
            0x63821e412deed615,
            0x6c517c0375a6e0f5,
            0xdb2e31fb837f1147,
            0xf1699fc8840ab08e,
            0xcd1a451bae78d29c,
            0xacb9dcb6ad60dd1d,
            0xfd957c08527a9814,
            0x534bcfd22bff1f47,
            0x1d33e20f1d220700,
            0x2cc6c5921ba11faf,
        ],
    ),
    (
        "gtx480-l1-gto",
        [
            0x3e4e28a680edf4c3,
            0x13e616b7e48b0b6b,
            0x4869dc17d96df2fd,
            0xccf4799feec2e247,
            0xbd7da72930107adc,
            0x80e8f060d9c2b8c3,
            0x624f7e50a480157f,
            0x3cc75e9d89142081,
            0x85655722294b25ae,
            0x534bcfd22bff1f47,
            0x79578b5e06151d1e,
            0xbcc613b43d7b211d,
        ],
    ),
];

fn configs() -> Vec<(&'static str, GpuConfig)> {
    vec![
        ("gto", gto(GpuConfig::gpgpusim_default())),
        (
            "simd16-compaction",
            GpuConfig {
                simd_width: 16,
                lane_compaction: true,
                ..GpuConfig::gpgpusim_default()
            },
        ),
        ("8sm-gto", gto(GpuConfig::gpgpusim_8sm())),
        ("gtx480-l1", GpuConfig::gtx480_l1_bias()),
        ("gtx480-l1-gto", gto(GpuConfig::gtx480_l1_bias())),
    ]
}

/// One test, so the process-global shard count is never raced by a
/// sibling test in this binary.
#[test]
fn suite_replays_match_pinned_digests_at_one_and_three_shards() {
    let mut failures = Vec::new();
    for (name, cfg) in configs() {
        let want = PINS.iter().find(|(n, _)| *n == name).map(|(_, d)| d);
        for threads in [1, 3] {
            set_sim_threads(threads);
            let got = digests(&cfg);
            let row: Vec<u64> = got.iter().map(|&(_, d)| d).collect();
            if want.is_some_and(|w| w.as_slice() == row.as_slice()) {
                continue;
            }
            let moved: Vec<&str> = got
                .iter()
                .enumerate()
                .filter(|&(i, _)| want.is_none_or(|w| w[i] != row[i]))
                .map(|(_, &(abbrev, _))| abbrev)
                .collect();
            let hex: Vec<String> = row.iter().map(|d| format!("0x{d:016x}")).collect();
            failures.push(format!(
                "{name} at {threads} shard(s): {moved:?} moved; got\n    (\"{name}\", [{}]),",
                hex.join(", ")
            ));
        }
    }
    set_sim_threads(1);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
