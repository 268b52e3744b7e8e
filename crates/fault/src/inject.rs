//! Fault-injection planning and region-of-error-coverage accounting.
//!
//! §VI-D of the paper compares the *region of error coverage* (ROEC) of
//! the two architectures: Reunion's fingerprint only observes the
//! pipeline before the commit stage, while UnSync's per-element hardware
//! detection covers **every** sequential block in the core plus the L1.
//! This module defines the vulnerable structures, their bit capacities
//! (strike probability is proportional to stored bits — the paper notes
//! sequential elements are the most vulnerable blocks), which mechanism
//! protects each structure under each architecture, and a deterministic
//! planner that turns an error arrival into a concrete
//! (structure, entry, bit) fault site.

use serde::{Deserialize, Serialize};
use unsync_isa::exec::splitmix64;

/// A sequential structure a particle can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultTarget {
    /// Architectural register file (64 × 64 bits).
    RegisterFile,
    /// Program counter (64 bits, read/written every cycle).
    Pc,
    /// Pipeline latches between stages (read/written every cycle).
    PipelineRegs,
    /// Re-order buffer payload.
    Rob,
    /// Issue queue payload.
    IssueQueue,
    /// Load/store queue payload.
    Lsq,
    /// TLB entries (I+D).
    Tlb,
    /// L1 cache data arrays (I+D).
    L1Data,
    /// L1 cache tag arrays.
    L1Tag,
}

/// All fault targets in a fixed order.
pub const ALL_TARGETS: [FaultTarget; 9] = [
    FaultTarget::RegisterFile,
    FaultTarget::Pc,
    FaultTarget::PipelineRegs,
    FaultTarget::Rob,
    FaultTarget::IssueQueue,
    FaultTarget::Lsq,
    FaultTarget::Tlb,
    FaultTarget::L1Data,
    FaultTarget::L1Tag,
];

impl FaultTarget {
    /// Bit capacity of the structure under the Table I configuration —
    /// the strike-probability weight.
    pub fn bits(self) -> u64 {
        match self {
            // 64 architectural registers × 64 bits.
            FaultTarget::RegisterFile => 64 * 64,
            FaultTarget::Pc => 64,
            // 5 pipeline stages × 4-wide × ~128 bits of latch per slot.
            FaultTarget::PipelineRegs => 5 * 4 * 128,
            // 128-entry ROB × ~76 bits of payload.
            FaultTarget::Rob => 128 * 76,
            // 64-entry issue queue × ~64 bits.
            FaultTarget::IssueQueue => 64 * 64,
            // 32 loads + 32 stores × ~140 bits (address + data + flags).
            FaultTarget::Lsq => 64 * 140,
            // 48 I-TLB + 64 D-TLB entries × ~96 bits.
            FaultTarget::Tlb => (48 + 64) * 96,
            // 32 KB I + 32 KB D data arrays.
            FaultTarget::L1Data => 2 * 32 * 1024 * 8,
            // 1024 lines/cache × ~25 tag bits × 2 caches.
            FaultTarget::L1Tag => 2 * 1024 * 25,
        }
    }
}

/// The hardware mechanism that detects (or corrects) an error in a
/// structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DetectionMechanism {
    /// 1-bit even parity, verified on read.
    Parity,
    /// Dual-modular redundancy compare.
    Dmr,
    /// SECDED ECC (detects and corrects in place).
    Secded,
    /// Reunion's CRC-16 fingerprint comparison between cores.
    Fingerprint,
}

/// Which mechanism (if any) covers each structure under one architecture.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Coverage {
    map: Vec<(FaultTarget, Option<DetectionMechanism>)>,
}

impl Coverage {
    /// UnSync's placement (§III-B1): parity on storage with ≥1-cycle
    /// write→read separation (register file, queues, LSQ, TLB, L1), DMR on
    /// every-cycle elements (PC, pipeline registers). Everything is
    /// covered.
    pub fn unsync() -> Self {
        use DetectionMechanism::*;
        use FaultTarget::*;
        Coverage {
            map: vec![
                (RegisterFile, Some(Parity)),
                (Pc, Some(Dmr)),
                (PipelineRegs, Some(Dmr)),
                (Rob, Some(Parity)),
                (IssueQueue, Some(Parity)),
                (Lsq, Some(Parity)),
                (Tlb, Some(Parity)),
                (L1Data, Some(Parity)),
                (L1Tag, Some(Parity)),
            ],
        }
    }

    /// Reunion's coverage (§VI-D): the fingerprint observes the pipeline
    /// before commit; the L1 is assumed SECDED-protected (and hence "not
    /// included in the ROEC" proper); the architectural register file and
    /// TLB are outside any detection mechanism.
    pub fn reunion() -> Self {
        use DetectionMechanism::*;
        use FaultTarget::*;
        Coverage {
            map: vec![
                (RegisterFile, None),
                (Pc, Some(Fingerprint)),
                (PipelineRegs, Some(Fingerprint)),
                (Rob, Some(Fingerprint)),
                (IssueQueue, Some(Fingerprint)),
                (Lsq, Some(Fingerprint)),
                (Tlb, None),
                (L1Data, Some(Secded)),
                (L1Tag, Some(Secded)),
            ],
        }
    }

    /// The mechanism covering `target`, if any.
    pub(crate) fn mechanism(&self, target: FaultTarget) -> Option<DetectionMechanism> {
        self.map
            .iter()
            .find(|(t, _)| *t == target)
            .and_then(|&(_, m)| m)
    }

    /// Whether a strike on `target` is detected (or corrected).
    pub(crate) fn covers(&self, target: FaultTarget) -> bool {
        self.mechanism(target).is_some()
    }

    /// Fraction of vulnerable bits covered by some mechanism — the
    /// quantitative ROEC.
    pub fn roec_fraction(&self) -> f64 {
        let total: u64 = ALL_TARGETS.iter().map(|t| t.bits()).sum();
        let covered: u64 = ALL_TARGETS
            .iter()
            .filter(|&&t| self.covers(t))
            .map(|t| t.bits())
            .sum();
        covered as f64 / total as f64
    }
}

/// The multiplicity of a particle strike.
///
/// Scaling makes multi-bit upsets (MBUs) — one particle flipping
/// *adjacent* cells — increasingly common. A single-bit parity code
/// misses an even number of flips in its coverage domain, which is
/// exactly the hole the paper's §VIII future work ("multi-bit correction
/// for cache blocks") would close.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum FaultKind {
    /// Classic single-event upset: one bit.
    #[default]
    Single,
    /// Adjacent double-bit upset: two neighbouring bits of the same
    /// word/line — invisible to 1-bit parity, corrected-or-detected by
    /// SECDED.
    AdjacentDouble,
}

/// A concrete fault: one bit of one entry of one structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultSite {
    /// Struck structure.
    pub target: FaultTarget,
    /// Bit offset within the structure (`0..target.bits()`).
    pub bit_offset: u64,
}

impl FaultSite {
    /// Deterministically maps an error arrival (identified by a nonce,
    /// e.g. the striking instruction index) to a fault site, with strike
    /// probability proportional to each structure's bit capacity.
    pub(crate) fn plan(seed: u64, nonce: u64) -> FaultSite {
        let total: u64 = ALL_TARGETS.iter().map(|t| t.bits()).sum();
        let h = splitmix64(seed ^ splitmix64(nonce.wrapping_add(0xf00d)));
        let mut point = h % total;
        for &t in &ALL_TARGETS {
            if point < t.bits() {
                return FaultSite {
                    target: t,
                    bit_offset: point,
                };
            }
            point -= t.bits();
        }
        unreachable!("point < total by construction")
    }
}

/// A planned fault against one core of a redundant pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairFault {
    /// Dynamic instruction index at which the fault strikes.
    pub at: u64,
    /// Which core of the pair is struck (0 or 1).
    pub core: usize,
    /// Where the particle lands.
    pub site: FaultSite,
    /// Strike multiplicity (single-event vs adjacent multi-bit upset).
    pub kind: FaultKind,
}

impl PairFault {
    /// Deterministically plans a pair fault for an arrival at instruction
    /// `at`: the struck core and site derive from `(seed, at)`.
    pub fn plan(seed: u64, at: u64) -> PairFault {
        let core = (splitmix64(seed ^ at.wrapping_mul(0x2545_f491_4f6c_dd1d)) & 1) as usize;
        PairFault {
            at,
            core,
            site: FaultSite::plan(seed, at),
            kind: FaultKind::Single,
        }
    }

    /// Plans the fault set a given soft-error rate produces over a
    /// `horizon`-instruction run: arrival times from the geometric
    /// [`crate::ser::ErrorArrivals`] process, sites capacity-weighted via
    /// `FaultSite::plan`. This is the end-to-end counterpart of the
    /// paper's §VI-C extrapolation — inject the *actual* expected error
    /// pattern instead of projecting per-event costs.
    pub fn plan_for_rate(rate: crate::ser::SerRate, seed: u64, horizon: u64) -> Vec<PairFault> {
        crate::ser::ErrorArrivals::new(rate, seed)
            .take_while(|&at| at < horizon)
            .map(|at| PairFault::plan(seed, at))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unsync_covers_everything() {
        let c = Coverage::unsync();
        for t in ALL_TARGETS {
            assert!(c.covers(t), "{t:?} must be covered in UnSync");
        }
        assert!((c.roec_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reunion_misses_arch_state() {
        let c = Coverage::reunion();
        assert!(!c.covers(FaultTarget::RegisterFile));
        assert!(!c.covers(FaultTarget::Tlb));
        assert!(c.covers(FaultTarget::Rob));
        assert!(c.roec_fraction() < 1.0);
    }

    #[test]
    fn unsync_roec_strictly_larger_than_reunion() {
        // The §VI-D claim, quantitatively.
        assert!(Coverage::unsync().roec_fraction() > Coverage::reunion().roec_fraction());
    }

    #[test]
    fn unsync_mechanism_placement_matches_paper() {
        let c = Coverage::unsync();
        // Parity where write→read has a cycle of slack…
        for t in [
            FaultTarget::RegisterFile,
            FaultTarget::Lsq,
            FaultTarget::Tlb,
            FaultTarget::L1Data,
        ] {
            assert_eq!(c.mechanism(t), Some(DetectionMechanism::Parity), "{t:?}");
        }
        // …DMR on every-cycle elements.
        for t in [FaultTarget::Pc, FaultTarget::PipelineRegs] {
            assert_eq!(c.mechanism(t), Some(DetectionMechanism::Dmr), "{t:?}");
        }
    }

    #[test]
    fn site_planning_is_deterministic_and_in_range() {
        for nonce in 0..2000u64 {
            let a = FaultSite::plan(42, nonce);
            let b = FaultSite::plan(42, nonce);
            assert_eq!(a, b);
            assert!(a.bit_offset < a.target.bits());
        }
    }

    #[test]
    fn site_distribution_tracks_bit_capacity() {
        // L1 data dwarfs everything else, so most strikes should land there.
        let n = 20_000u64;
        let l1_hits = (0..n)
            .filter(|&i| FaultSite::plan(7, i).target == FaultTarget::L1Data)
            .count() as f64;
        let total_bits: u64 = ALL_TARGETS.iter().map(|t| t.bits()).sum();
        let expect = FaultTarget::L1Data.bits() as f64 / total_bits as f64;
        let observed = l1_hits / n as f64;
        assert!(
            (observed - expect).abs() < 0.02,
            "observed {observed:.3}, expected {expect:.3}"
        );
    }

    proptest! {
        #[test]
        fn prop_planned_sites_always_in_range(seed: u64, nonce: u64) {
            let s = FaultSite::plan(seed, nonce);
            prop_assert!(s.bit_offset < s.target.bits());
        }
    }
}
