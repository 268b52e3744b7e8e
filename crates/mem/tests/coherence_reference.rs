//! Differential test: cross-pair coherence on the drain path invalidates
//! exactly the lines a probe of every other pair's L1 finds, however the
//! L1s were filled (demand misses, prefetch installs, bulk clone-copies)
//! or emptied (earlier drains).

use unsync_isa::exec::splitmix64;
use unsync_mem::{HierarchyConfig, MemSystem, WritePolicy};

const CORES: usize = 8;
/// Every core draws from the same small window of lines, so the L1s
/// share addresses and drains find real victims.
const LINES: u64 = 96;
const BASE: u64 = 0x10_0000;

#[test]
fn drains_invalidate_exactly_the_probed_copies_in_other_pairs() {
    let line_bytes = HierarchyConfig::table1().l1d.line_bytes as u64;
    let (mut drains, mut victims) = (0u64, 0u64);
    for seed in 0..8u64 {
        let mut m = MemSystem::new(HierarchyConfig::table1(), CORES, WritePolicy::WriteThrough);
        let mut x = seed;
        let mut cycle = 0u64;
        for step in 0..3_000 {
            x = splitmix64(x);
            let core = (x % CORES as u64) as usize;
            // Demand traffic stays inside the window; drains may also hit
            // the line just past it, which only a prefetch (of the
            // window's top line) ever allocates.
            let line = (x >> 8) % (LINES + 1);
            let addr = BASE + (line % LINES) * line_bytes + (x >> 40) % line_bytes;
            cycle += 1 + (x >> 56) % 4;
            match (x >> 4) % 16 {
                // Demand traffic; every L1 miss also prefetches the next
                // line into the same L1.
                0..=4 => _ = m.load(core, addr, cycle),
                5..=7 => _ = m.store(core, addr, cycle),
                9 => {
                    let from = ((x >> 12) % CORES as u64) as usize;
                    let copy = m.l1d(from).clone();
                    *m.l1d_mut(core) = copy;
                }
                _ => {
                    let line_addr = BASE / line_bytes + line;
                    let probe = |m: &MemSystem, c: usize| m.l1d(c).probe(line_addr * line_bytes);
                    let before: Vec<(bool, u64)> = (0..CORES)
                        .map(|c| (probe(&m, c), m.invalidations(c)))
                        .collect();
                    m.drain_write(core, line_addr, cycle);
                    drains += 1;
                    for (c, &(held, count)) in before.iter().enumerate() {
                        let own_pair = c / 2 == core / 2;
                        let victim = held && !own_pair;
                        victims += u64::from(victim);
                        let ctx = format!("seed {seed} step {step}: core {c}, writer {core}");
                        assert_eq!(m.invalidations(c) - count, u64::from(victim), "{ctx}");
                        assert_eq!(probe(&m, c), held && own_pair, "{ctx}");
                    }
                }
            }
        }
    }
    // The mix must exercise the path it checks: many drains, and a
    // good share of them with victims to invalidate.
    assert!(drains > 5_000, "{drains} drains");
    assert!(
        victims > drains / 4,
        "{victims} victims over {drains} drains"
    );
}
