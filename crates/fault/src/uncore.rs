//! Uncore fault targets and deterministic strike scheduling (ROEC 2.0).
//!
//! The paper's §VI-D coverage argument stops at the core boundary: its
//! region of error coverage is built from core-side strikes
//! ([`crate::inject`]), and the shared uncore — the banked L2 arrays,
//! their tag stores, the miss machinery, the bank port arbiters, and
//! the Communication Buffer itself — is assumed protected by fiat
//! ("the protected L2"). Cho et al. (arXiv 1504.01381) measured the
//! opposite in real many-cores: uncore structures dominate the SDC
//! budget once core pipelines carry parity. This module supplies the
//! missing half of the fault model:
//!
//! * [`UncoreTarget`] — the injectable uncore structures, each with a
//!   Table I-derived bit capacity (`UncoreTarget::bits`) used as its
//!   strike-probability weight, mirroring [`crate::FaultTarget`];
//! * [`UncoreSite`] / [`UncoreStrike`] — a struck bit within a
//!   structure, and a cycle-stamped strike against one lane, both
//!   planned deterministically off SplitMix64 streams so campaigns are
//!   reproducible across reruns and worker counts;
//! * [`UncoreProtection`] — which [`DetectionMechanism`] (if any)
//!   guards each structure under a given scheme, with the three
//!   profiles the vulnerability campaign compares: UnSync's full
//!   placement, an L2-SECDED-only baseline, and bare SRAM.
//!
//! Strikes are *delivered* by `unsync_exec`'s driver (a lane's
//! uncore schedule, by cycle, into scheduler ticks) and *classified* by [`crate::roec`]; this module is pure
//! planning and never touches execution state.

use serde::{Deserialize, Serialize};
use unsync_isa::exec::splitmix64;

use crate::inject::{DetectionMechanism, FaultKind};

/// An injectable uncore structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UncoreTarget {
    /// Shared-L2 data arrays (the banked lines of
    /// `unsync_mem::L2Contention`'s cache).
    L2Data,
    /// Shared-L2 tag store.
    L2Tag,
    /// Shared-L2 MSHR file entries (outstanding-miss bookkeeping).
    MshrEntry,
    /// L2 bank port arbiter latches (grant/occupancy state of one bank
    /// port in the contention model).
    BankArbiter,
    /// Communication Buffer data words (§III-A store values in flight
    /// between commit and the protected L2).
    CbData,
    /// Communication Buffer tags (sequence number + line address of an
    /// entry — the pairing metadata).
    CbTag,
}

/// All uncore targets in a fixed order.
pub const ALL_UNCORE_TARGETS: [UncoreTarget; 6] = [
    UncoreTarget::L2Data,
    UncoreTarget::L2Tag,
    UncoreTarget::MshrEntry,
    UncoreTarget::BankArbiter,
    UncoreTarget::CbData,
    UncoreTarget::CbTag,
];

impl UncoreTarget {
    /// Entries the structure holds under Table I (lines, MSHR slots,
    /// ports, CB slots) — the liveness model maps a struck bit to an
    /// entry index modulo this count.
    pub(crate) fn entries(self) -> u64 {
        match self {
            // 4 MB / 64 B lines.
            UncoreTarget::L2Data | UncoreTarget::L2Tag => 65_536,
            // Table I: 20 outstanding misses.
            UncoreTarget::MshrEntry => 20,
            // The many-core default: 8 banks, one port arbiter each.
            UncoreTarget::BankArbiter => 8,
            // Paper default: 64 CB entries per side, two sides.
            UncoreTarget::CbData | UncoreTarget::CbTag => 128,
        }
    }

    /// Bits per entry — the payload a strike can land in.
    pub(crate) fn entry_bits(self) -> u64 {
        match self {
            // 64-byte line.
            UncoreTarget::L2Data => 64 * 8,
            // ~20 tag bits + valid/dirty state.
            UncoreTarget::L2Tag => 22,
            // Line address + fill state + requester bookkeeping.
            UncoreTarget::MshrEntry => 80,
            // Grant FIFO + occupancy counter latches.
            UncoreTarget::BankArbiter => 32,
            // One store word.
            UncoreTarget::CbData => 64,
            // Sequence number + line address.
            UncoreTarget::CbTag => 58,
        }
    }

    /// Bit capacity of the structure — the strike-probability weight,
    /// mirroring [`crate::FaultTarget::bits`].
    pub(crate) fn bits(self) -> u64 {
        self.entries() * self.entry_bits()
    }

    /// Stable lower-case label used in run logs, the vulnerability
    /// table, and `BENCH_roec.json`.
    pub fn label(self) -> &'static str {
        match self {
            UncoreTarget::L2Data => "l2_data",
            UncoreTarget::L2Tag => "l2_tag",
            UncoreTarget::MshrEntry => "mshr_entry",
            UncoreTarget::BankArbiter => "bank_arbiter",
            UncoreTarget::CbData => "cb_data",
            UncoreTarget::CbTag => "cb_tag",
        }
    }
}

/// A struck bit within an uncore structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct UncoreSite {
    /// The struck structure.
    pub target: UncoreTarget,
    /// Bit position within the structure (`< target.bits()`).
    pub bit_offset: u64,
}

impl UncoreSite {
    /// Plans a site *within* one structure (per-structure vulnerability
    /// campaigns strike each structure separately and reweight by
    /// `UncoreTarget::bits` afterwards).
    pub fn plan_in(target: UncoreTarget, seed: u64, nonce: u64) -> UncoreSite {
        let h = splitmix64(seed ^ splitmix64(nonce.wrapping_add(0xfeed)));
        UncoreSite {
            target,
            bit_offset: h % target.bits(),
        }
    }

    /// The struck entry index (line, MSHR slot, bank, CB slot).
    pub fn entry_index(self) -> u64 {
        self.bit_offset / self.target.entry_bits()
    }
}

/// One cycle-stamped uncore strike against one lane of a system run.
///
/// Unlike [`crate::PairFault`] — whose strike point `at` is an
/// *instruction sequence number* delivered through the per-instruction
/// policy callbacks — an uncore strike is scheduled in *cycles*: the
/// struck state is shared machinery whose liveness (a valid L2 line, an
/// outstanding miss, a busy bank port, an occupied CB slot) is a
/// function of wall-clock time, not of any one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UncoreStrike {
    /// Wall-clock cycle of the strike (delivered at the first scheduler
    /// tick of the lane at or after this cycle).
    pub cycle: u64,
    /// The struck lane (pair index in a system run).
    pub lane: usize,
    /// Where the particle landed.
    pub site: UncoreSite,
    /// Single-bit or adjacent double-bit upset.
    pub kind: FaultKind,
    /// Importance-sampled strike: the delivery-side liveness probe
    /// conditions the strike on hitting *live* state (the entry index
    /// wraps into the occupied region of the structure) instead of
    /// sampling the full array uniformly. Uniform strikes measure the
    /// AVF-style live fraction; directed strikes measure detection
    /// coverage and SDC rate *given* a live hit — low-occupancy
    /// structures would otherwise need thousands of uniform strikes per
    /// cell to see a single live one.
    pub directed: bool,
}

impl UncoreStrike {
    /// Plans one strike on `target` against `lane`, landing at a cycle
    /// drawn from the middle half of `[0, horizon)` — early enough that
    /// the struck state is live, late enough that the machine has
    /// warmed up. Deterministic in `(seed, nonce)`.
    pub fn plan_in(
        target: UncoreTarget,
        seed: u64,
        nonce: u64,
        lane: usize,
        horizon: u64,
    ) -> UncoreStrike {
        assert!(horizon >= 4, "horizon too short to place a strike");
        let site = UncoreSite::plan_in(target, seed, nonce);
        let h = splitmix64(seed ^ splitmix64(nonce ^ 0x5eed_c0de));
        let lo = horizon / 4;
        let cycle = lo + h % (horizon / 2).max(1);
        let kind = if splitmix64(h ^ 0xd0b1e) & 7 == 0 {
            // 1-in-8 adjacent double-bit upsets, matching the §VIII
            // multi-bit discussion's order of magnitude.
            FaultKind::AdjacentDouble
        } else {
            FaultKind::Single
        };
        UncoreStrike {
            cycle,
            lane,
            site,
            kind,
            directed: false,
        }
    }

    /// Returns `self` flagged as an importance-sampled (directed)
    /// strike — see the `directed` field.
    pub fn directed(mut self) -> UncoreStrike {
        self.directed = true;
        self
    }
}

/// A deterministic strike-plan expansion: the fault half of a campaign
/// grid. Crossing `targets × strikes_per_cell` yields the cells of a
/// per-structure vulnerability campaign; [`StrikePlan::strike`] plans
/// the concrete [`UncoreStrike`] of one cell index from a caller-chosen
/// seed, byte-identically to calling [`UncoreStrike::plan_in`] (plus
/// the uniform/directed alternation) directly — the ROEC campaign and
/// the batched campaign engine share this one expansion so their grids
/// can never drift apart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrikePlan {
    /// The structures the plan strikes, in cell order.
    pub targets: Vec<UncoreTarget>,
    /// Strikes per (structure, scheme) cell.
    pub strikes_per_cell: u64,
    /// Cycle horizon handed to [`UncoreStrike::plan_in`] (strikes land
    /// in the middle half of `[0, horizon)`).
    pub horizon: u64,
    /// Alternate uniform / importance-sampled strikes: odd cell indices
    /// are [`UncoreStrike::directed`], so low-occupancy structures
    /// still resolve coverage while even indices measure the AVF-style
    /// live fraction.
    pub alternate_directed: bool,
}

impl StrikePlan {
    /// The full-uncore plan over [`ALL_UNCORE_TARGETS`] with the
    /// uniform/directed alternation the ROEC campaign uses.
    pub fn all_uncore(strikes_per_cell: u64, horizon: u64) -> StrikePlan {
        StrikePlan {
            targets: ALL_UNCORE_TARGETS.to_vec(),
            strikes_per_cell,
            horizon,
            alternate_directed: true,
        }
    }

    /// Expands the plan into its `(target, strike index)` cells, in
    /// grid order (target-major, then index).
    pub fn cells(&self) -> Vec<(UncoreTarget, u64)> {
        self.targets
            .iter()
            .flat_map(|&t| (0..self.strikes_per_cell).map(move |i| (t, i)))
            .collect()
    }

    /// Number of cells the plan expands to.
    pub fn len(&self) -> usize {
        self.targets.len() * self.strikes_per_cell as usize
    }

    /// Whether the plan expands to no cells at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Plans the concrete strike of cell `(target, index)` against
    /// `lane` from `seed` — [`UncoreStrike::plan_in`] plus the
    /// alternation flag. Deterministic in every argument.
    pub fn strike(&self, target: UncoreTarget, index: u64, seed: u64, lane: usize) -> UncoreStrike {
        let strike = UncoreStrike::plan_in(target, seed, index, lane, self.horizon);
        if self.alternate_directed && index % 2 == 1 {
            strike.directed()
        } else {
            strike
        }
    }
}

/// Which detection mechanism guards each uncore structure under one
/// scheme — the uncore analogue of [`crate::Coverage`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UncoreProtection {
    map: Vec<(UncoreTarget, Option<DetectionMechanism>)>,
}

impl UncoreProtection {
    /// No structure carries any mechanism (bare SRAM — the TMR voter
    /// protects core results only, so this is also TMR's uncore
    /// profile).
    pub fn unprotected() -> Self {
        UncoreProtection {
            map: ALL_UNCORE_TARGETS.iter().map(|&t| (t, None)).collect(),
        }
    }

    /// UnSync's placement: the "protected L2" of §III-A is SECDED on
    /// data *and* tags, the miss machinery carries parity, bank
    /// arbiters are duplicated (every-cycle latches, like the PC), and
    /// CB entries carry the CRC-16 fingerprint of `crate::crc`.
    pub fn unsync() -> Self {
        Self::unprotected()
            .with(UncoreTarget::L2Data, Some(DetectionMechanism::Secded))
            .with(UncoreTarget::L2Tag, Some(DetectionMechanism::Secded))
            .with(UncoreTarget::MshrEntry, Some(DetectionMechanism::Parity))
            .with(UncoreTarget::BankArbiter, Some(DetectionMechanism::Dmr))
            .with(UncoreTarget::CbData, Some(DetectionMechanism::Fingerprint))
            .with(UncoreTarget::CbTag, Some(DetectionMechanism::Fingerprint))
    }

    /// ECC on the shared L2 arrays and nothing else — the commodity
    /// baseline every server part ships (SECDED-only core pairs with
    /// it).
    pub fn l2_secded_only() -> Self {
        Self::unprotected()
            .with(UncoreTarget::L2Data, Some(DetectionMechanism::Secded))
            .with(UncoreTarget::L2Tag, Some(DetectionMechanism::Secded))
    }

    /// Returns `self` with `target`'s mechanism replaced.
    pub fn with(mut self, target: UncoreTarget, mech: Option<DetectionMechanism>) -> Self {
        for slot in &mut self.map {
            if slot.0 == target {
                slot.1 = mech;
            }
        }
        self
    }

    /// The mechanism guarding `target` (`None` = bare).
    pub fn mechanism(&self, target: UncoreTarget) -> Option<DetectionMechanism> {
        self.map
            .iter()
            .find(|(t, _)| *t == target)
            .and_then(|(_, m)| *m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_weights_are_positive_and_l2_dominates() {
        for t in ALL_UNCORE_TARGETS {
            assert!(t.bits() > 0, "{t:?}");
            assert_eq!(t.bits(), t.entries() * t.entry_bits());
        }
        let total: u64 = ALL_UNCORE_TARGETS.iter().map(|t| t.bits()).sum();
        assert!(
            UncoreTarget::L2Data.bits() * 2 > total,
            "the L2 data array holds most uncore bits"
        );
    }

    #[test]
    fn per_structure_planning_covers_every_entry_class() {
        for target in ALL_UNCORE_TARGETS {
            let s = UncoreSite::plan_in(target, 3, 17);
            assert_eq!(s.target, target);
            assert!(s.bit_offset < target.bits());
            assert!(s.entry_index() < target.entries());
        }
    }

    #[test]
    fn strikes_land_in_the_middle_half_of_the_horizon() {
        for nonce in 0..500 {
            let s = UncoreStrike::plan_in(UncoreTarget::MshrEntry, 9, nonce, 0, 1_000);
            assert!((250..750).contains(&s.cycle), "{s:?}");
            assert_eq!(
                s,
                UncoreStrike::plan_in(UncoreTarget::MshrEntry, 9, nonce, 0, 1_000)
            );
        }
        let kinds: std::collections::HashSet<_> = (0..500)
            .map(|n| UncoreStrike::plan_in(UncoreTarget::L2Data, 9, n, 0, 1_000).kind)
            .collect();
        assert_eq!(kinds.len(), 2, "both upset kinds must occur");
    }

    #[test]
    fn strike_plan_expands_in_grid_order_and_matches_plan_in() {
        let plan = StrikePlan::all_uncore(3, 1_000);
        let cells = plan.cells();
        assert_eq!(cells.len(), plan.len());
        assert!(!plan.is_empty());
        assert_eq!(cells[0], (UncoreTarget::L2Data, 0));
        assert_eq!(cells[3], (UncoreTarget::L2Tag, 0));
        for (target, index) in cells {
            let s = plan.strike(target, index, 42, 0);
            let mut direct = UncoreStrike::plan_in(target, 42, index, 0, 1_000);
            if index % 2 == 1 {
                direct = direct.directed();
            }
            assert_eq!(s, direct, "plan must reproduce plan_in byte-for-byte");
            assert_eq!(s.directed, index % 2 == 1, "odd indices run directed");
        }
        let uniform = StrikePlan {
            alternate_directed: false,
            ..plan
        };
        assert!(!uniform.strike(UncoreTarget::CbTag, 1, 42, 0).directed);
    }

    #[test]
    fn protection_profiles_order_by_coverage() {
        let none = UncoreProtection::unprotected();
        let ecc = UncoreProtection::l2_secded_only();
        let full = UncoreProtection::unsync();
        for t in ALL_UNCORE_TARGETS {
            let l2 = matches!(t, UncoreTarget::L2Data | UncoreTarget::L2Tag);
            assert_eq!(none.mechanism(t), None, "{t:?}");
            assert_eq!(ecc.mechanism(t).is_some(), l2, "{t:?}");
            assert!(full.mechanism(t).is_some(), "{t:?}");
        }
        assert_eq!(
            full.mechanism(UncoreTarget::CbData),
            Some(DetectionMechanism::Fingerprint)
        );
    }
}
