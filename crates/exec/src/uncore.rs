//! Generic uncore strike delivery.
//!
//! [`deliver`] is the default implementation behind
//! [`RedundancyPolicy::uncore_strike`]: it decides whether a strike hit
//! *live* state (occupied L2 line, outstanding MSHR, busy bank arbiter,
//! in-flight CB traffic), looks up the scheme's protection profile
//! ([`UncoreProtection`]), and plays out the mechanism-vs-fault-kind
//! table, emitting the same trace events the core-side fault paths use
//! so the ROEC classifier reads one vocabulary:
//!
//! | live? | mechanism | kind | events | state | verdict |
//! |-------|-----------|------|--------|-------|---------|
//! | no    | —         | —    | `BenignFault` | untouched | `Neutral` |
//! | yes   | none      | any  | `SilentFault` | committed word flipped | `Perturbed` (`Neutral` with no word to flip) |
//! | yes   | parity    | single | `Detection` + `CorrectedInPlace` | repaired (refetch) | `Neutral` |
//! | yes   | parity    | adjacent double | `SilentFault` | flipped (even flips are parity-invisible) | as unprotected |
//! | yes   | SECDED    | single | `Detection` + `CorrectedInPlace` | corrected | `Neutral` |
//! | yes   | SECDED    | adjacent double | `Detection` + `Unrecoverable` | flipped (DED, no correction), lane stalled | `Perturbed` |
//! | yes   | DMR / fingerprint | any | `Detection` + `CorrectedInPlace` | repaired from the clean copy | `Neutral` |
//!
//! The verdict ([`StrikeVerdict`]) says whether anything but the event
//! stream changed; the liveness probes only read.
//!
//! Schemes with real recovery machinery override the CB rows: UnSync's
//! policy routes CB strikes through its §III-A recovery procedure
//! instead of the generic corrected-in-place shortcut.
//!
//! "Committed word flipped" models the consumer-visible effect of the
//! corruption deterministically: the strike's SplitMix64 stream picks
//! one already-written word of the lane's committed image and flips the
//! struck bit(s) in it. A lane with no committed writes yet has no
//! consumer to corrupt — the strike is architecturally masked.
//!
//! [`RedundancyPolicy::uncore_strike`]: crate::policy::RedundancyPolicy::uncore_strike
//! [`StrikeVerdict`]: crate::policy::StrikeVerdict

use unsync_fault::uncore::{UncoreProtection, UncoreStrike, UncoreTarget};
use unsync_fault::{DetectionMechanism, FaultKind};
use unsync_isa::exec::splitmix64;
use unsync_mem::MemSystem;

use crate::driver::LaneState;
use crate::event::TraceEventKind;
use crate::policy::StrikeVerdict;

/// Detected-unrecoverable strikes stall the lane while the machine
/// raises the error (same cost the SECDED-only scheme charges).
const UNRECOVERABLE_STALL: u64 = 8;

/// Whether `strike` hit live (occupied, in-use) state, per the
/// structure-specific occupancy probes. A [`UncoreStrike::directed`]
/// strike wraps its entry index into the occupied region, so it is live
/// whenever the structure holds *any* live state at the strike cycle.
/// Every probe only reads, so a strike on dead state changes nothing.
pub(crate) fn strike_is_live(mem: &MemSystem, lane: &LaneState, strike: &UncoreStrike) -> bool {
    let site = strike.site;
    let entry = site.entry_index() as usize;
    match site.target {
        // Valid lines fill the L2 from index 0 in this occupancy model:
        // a strike is live iff its entry index falls inside the
        // currently valid fraction.
        UncoreTarget::L2Data | UncoreTarget::L2Tag => {
            let valid = mem.l2_valid_lines();
            if strike.directed {
                valid > 0
            } else {
                entry < valid
            }
        }
        UncoreTarget::MshrEntry => {
            let outstanding = mem.l2_mshr_outstanding(lane.now());
            if strike.directed {
                return outstanding > 0;
            }
            let cap = mem.l2_mshr_capacity().max(1);
            entry % cap < outstanding
        }
        // An arbiter strike only matters while the arbiter is actually
        // granting (its bank busy); with the contention model off there
        // is no arbiter state at all.
        UncoreTarget::BankArbiter => match mem.l2_contention() {
            Some(c) => {
                let banks = c.config().banks as usize;
                if strike.directed {
                    (0..banks).any(|b| !c.bank(b).is_free(lane.now()))
                } else {
                    !c.bank(entry % banks).is_free(lane.now())
                }
            }
            None => false,
        },
        // Generic CB liveness: the lane has store traffic in flight.
        // Schemes that own a real CB override delivery and probe true
        // occupancy instead.
        UncoreTarget::CbData | UncoreTarget::CbTag => lane.committed_mem.footprint_words() > 0,
    }
}

/// Flips the struck bit(s) in one deterministically chosen word of the
/// lane's committed memory — the consumer-visible corruption of an
/// undetected (or uncorrectable) uncore strike. Returns `false` when
/// the image holds no written words yet (nothing to corrupt: masked).
pub(crate) fn corrupt_memory(lane: &mut LaneState, strike: &UncoreStrike) -> bool {
    let count = lane.committed_mem.iter().count();
    if count == 0 {
        return false;
    }
    let h = splitmix64(strike.site.bit_offset ^ splitmix64(strike.cycle ^ 0x5eed));
    let (addr, value) = lane
        .committed_mem
        .iter()
        .nth((h % count as u64) as usize)
        .expect("index in range");
    let mask: u64 = match strike.kind {
        FaultKind::Single => 1 << (strike.site.bit_offset % 63),
        FaultKind::AdjacentDouble => 0b11 << (strike.site.bit_offset % 63),
    };
    lane.committed_mem.write(addr, value ^ mask);
    true
}

/// The generic mechanism-table delivery (see the [module docs](self)).
pub fn deliver(
    protection: &UncoreProtection,
    mem: &mut MemSystem,
    lane: &mut LaneState,
    strike: &UncoreStrike,
) -> StrikeVerdict {
    let now = lane.now();
    if !strike_is_live(mem, lane, strike) {
        lane.events
            .emit_at(TraceEventKind::BenignFault, strike.site.bit_offset, now);
        return StrikeVerdict::Neutral;
    }
    match (protection.mechanism(strike.site.target), strike.kind) {
        (None, _) | (Some(DetectionMechanism::Parity), FaultKind::AdjacentDouble) => {
            // Unprotected, or an even flip under parity: nothing fires.
            lane.events
                .emit_at(TraceEventKind::SilentFault, strike.site.bit_offset, now);
            // When the image holds no written word yet the strike dies
            // unseen (architecturally masked in spite of the event).
            if corrupt_memory(lane, strike) {
                StrikeVerdict::Perturbed
            } else {
                StrikeVerdict::Neutral
            }
        }
        (Some(DetectionMechanism::Secded), FaultKind::AdjacentDouble) => {
            // DED without correction: the machine knows, the data is gone.
            lane.events
                .emit_at(TraceEventKind::Detection, strike.site.bit_offset, now);
            lane.events
                .emit_at(TraceEventKind::Unrecoverable, strike.site.bit_offset, now);
            corrupt_memory(lane, strike);
            for e in &mut lane.engines {
                e.stall_until(now + UNRECOVERABLE_STALL);
            }
            lane.bump_clock(now + UNRECOVERABLE_STALL);
            StrikeVerdict::Perturbed
        }
        (Some(_), _) => {
            // Parity-single (refetch), SECDED-single (correct), DMR or
            // fingerprint (repair from the clean copy): detected and
            // repaired before any consumer sees the flip.
            lane.events
                .emit_at(TraceEventKind::Detection, strike.site.bit_offset, now);
            lane.events.emit_at(
                TraceEventKind::CorrectedInPlace,
                strike.site.bit_offset,
                now,
            );
            StrikeVerdict::Neutral
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsync_fault::uncore::UncoreSite;
    use unsync_isa::ArchMemory;
    use unsync_mem::{HierarchyConfig, WritePolicy};
    use unsync_sim::CoreConfig;

    /// A word the lane has committed, so a flip has somewhere to land.
    const WORD: (u64, u64) = (0x40, 7);

    fn mem() -> MemSystem {
        MemSystem::new(HierarchyConfig::table1(), 2, WritePolicy::WriteThrough)
    }

    fn lane(committed: bool) -> LaneState {
        let mut lane = LaneState::new(CoreConfig::table1(), 2, 0);
        if committed {
            lane.committed_mem.write(WORD.0, WORD.1);
        }
        lane
    }

    /// A directed CB strike: live whenever the lane has committed a
    /// word (the generic CB liveness probe).
    fn cb_strike(kind: FaultKind) -> UncoreStrike {
        UncoreStrike {
            cycle: 0,
            lane: 0,
            site: UncoreSite {
                target: UncoreTarget::CbData,
                bit_offset: 3,
            },
            kind,
            directed: true,
        }
    }

    fn guarded(mech: Option<DetectionMechanism>) -> UncoreProtection {
        UncoreProtection::unprotected().with(UncoreTarget::CbData, mech)
    }

    /// Delivers `strike` and returns the verdict, the event kinds it
    /// emitted, the committed image after it and the lane clock after it.
    fn deliver_to(
        protection: &UncoreProtection,
        mem: &mut MemSystem,
        mut lane: LaneState,
        strike: UncoreStrike,
    ) -> (StrikeVerdict, Vec<TraceEventKind>, ArchMemory, u64) {
        let verdict = deliver(protection, mem, &mut lane, &strike);
        let kinds = lane.events.recent().map(|e| e.kind).collect();
        let clock = lane.engines.iter().map(|e| e.now()).max().unwrap_or(0);
        (verdict, kinds, lane.committed_mem, clock)
    }

    /// The rows whose delivery leaves the image and the clock untouched.
    fn assert_neutral(
        (verdict, kinds, image, clock): (StrikeVerdict, Vec<TraceEventKind>, ArchMemory, u64),
        committed: bool,
        events: &[TraceEventKind],
    ) {
        assert_eq!(verdict, StrikeVerdict::Neutral);
        assert_eq!(kinds, events);
        assert_eq!(image, lane(committed).committed_mem);
        assert_eq!(clock, 0);
    }

    #[test]
    fn dead_state_is_benign_and_neutral() {
        // A fresh L2 holds no valid line: even a directed strike misses.
        let strike = UncoreStrike {
            site: UncoreSite {
                target: UncoreTarget::L2Data,
                bit_offset: 3,
            },
            ..cb_strike(FaultKind::Single)
        };
        let out = deliver_to(&guarded(None), &mut mem(), lane(true), strike);
        assert_neutral(out, true, &[TraceEventKind::BenignFault]);
    }

    #[test]
    fn unprotected_live_strike_flips_a_word_and_perturbs() {
        let (verdict, kinds, image, _) = deliver_to(
            &guarded(None),
            &mut mem(),
            lane(true),
            cb_strike(FaultKind::Single),
        );
        assert_eq!(verdict, StrikeVerdict::Perturbed);
        assert_eq!(kinds, [TraceEventKind::SilentFault]);
        assert_ne!(image.read(WORD.0), WORD.1);
    }

    #[test]
    fn unprotected_strike_with_no_word_to_flip_is_neutral() {
        // A live L2 line, but the lane has committed nothing yet.
        let mut mem = mem();
        mem.load(0, 0x1000, 0);
        let strike = UncoreStrike {
            site: UncoreSite {
                target: UncoreTarget::L2Data,
                bit_offset: 3,
            },
            ..cb_strike(FaultKind::Single)
        };
        let out = deliver_to(&guarded(None), &mut mem, lane(false), strike);
        assert_neutral(out, false, &[TraceEventKind::SilentFault]);
    }

    #[test]
    fn parity_single_is_corrected_in_place_and_neutral() {
        let out = deliver_to(
            &guarded(Some(DetectionMechanism::Parity)),
            &mut mem(),
            lane(true),
            cb_strike(FaultKind::Single),
        );
        let events = [TraceEventKind::Detection, TraceEventKind::CorrectedInPlace];
        assert_neutral(out, true, &events);
    }

    #[test]
    fn parity_double_is_silent_and_perturbs() {
        let (verdict, kinds, image, _) = deliver_to(
            &guarded(Some(DetectionMechanism::Parity)),
            &mut mem(),
            lane(true),
            cb_strike(FaultKind::AdjacentDouble),
        );
        assert_eq!(verdict, StrikeVerdict::Perturbed);
        assert_eq!(kinds, [TraceEventKind::SilentFault]);
        assert_ne!(image.read(WORD.0), WORD.1);
    }

    #[test]
    fn secded_single_is_corrected_in_place_and_neutral() {
        let out = deliver_to(
            &guarded(Some(DetectionMechanism::Secded)),
            &mut mem(),
            lane(true),
            cb_strike(FaultKind::Single),
        );
        let events = [TraceEventKind::Detection, TraceEventKind::CorrectedInPlace];
        assert_neutral(out, true, &events);
    }

    #[test]
    fn secded_double_stalls_and_perturbs() {
        let (verdict, kinds, image, clock) = deliver_to(
            &guarded(Some(DetectionMechanism::Secded)),
            &mut mem(),
            lane(true),
            cb_strike(FaultKind::AdjacentDouble),
        );
        assert_eq!(verdict, StrikeVerdict::Perturbed);
        let events = [TraceEventKind::Detection, TraceEventKind::Unrecoverable];
        assert_eq!(kinds, events);
        assert_ne!(image.read(WORD.0), WORD.1);
        assert_eq!(clock, UNRECOVERABLE_STALL);
    }

    #[test]
    fn dmr_and_fingerprint_repairs_are_neutral() {
        for mech in [DetectionMechanism::Dmr, DetectionMechanism::Fingerprint] {
            for kind in [FaultKind::Single, FaultKind::AdjacentDouble] {
                let out = deliver_to(
                    &guarded(Some(mech)),
                    &mut mem(),
                    lane(true),
                    cb_strike(kind),
                );
                let events = [TraceEventKind::Detection, TraceEventKind::CorrectedInPlace];
                assert_neutral(out, true, &events);
            }
        }
    }
}
