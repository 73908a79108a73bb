//! Golden analytic rankings: `rank_all_at` on every modeled machine at
//! n ∈ {16, 32, 64, 128} and threads ∈ {1, cores, hw_threads}, each
//! variant recorded by name and the exact bits of its predicted seconds,
//! in rank order. The time model's shape inputs (wavefront ramp, barrier
//! count, overlapped-tile redundancy) are closed forms; this pins their
//! predictions bit for bit to the tile-enumerating model that preceded
//! them.
//!
//! A deliberate model change regenerates the file with
//! `PDESCHED_BLESS=1 cargo test --test prediction_golden`.

use pdesched::machine::sweep::rank_all_at;
use pdesched::prelude::*;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = "tests/golden/rank_all_at.txt";

fn render() -> String {
    let machines = [
        MachineSpec::magny_cours(),
        MachineSpec::ivy_bridge_node(),
        MachineSpec::sandy_bridge_node(),
        MachineSpec::i5_desktop(),
    ];
    let mut out = String::new();
    for spec in &machines {
        let mut threads = vec![1, spec.cores(), spec.hw_threads()];
        threads.dedup();
        for n in [16, 32, 64, 128] {
            for &t in &threads {
                writeln!(out, "# {} n={n} threads={t}", spec.name).unwrap();
                for r in rank_all_at(spec, n, t) {
                    writeln!(out, "{}\t{:016x}", r.variant, r.prediction.seconds.to_bits())
                        .unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn rank_all_at_matches_golden() {
    let got = render();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("PDESCHED_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{GOLDEN_PATH}:{} differs", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{GOLDEN_PATH}: line count differs");
}
