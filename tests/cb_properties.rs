//! Property tests over the Communication Buffer pair (§III-A,
//! `crates/core/src/cb.rs`): under *any* interleaving of the vocal and
//! mute cores' store streams, no entry is released to the protected L2
//! before both copies agree; and the always-forward recovery (step 5)
//! leaves the CB pair convergent no matter how far the cores had
//! drifted apart.

use proptest::prelude::*;
use unsync::prelude::*;

/// Large enough that no interleaving below ever fills a side — the pair
/// runner's "cores fed in step" contract is about stalls, not ordering,
/// and these properties target ordering.
const CAP: usize = 64;

fn mem() -> MemSystem {
    MemSystem::new(HierarchyConfig::table1(), 2, WritePolicy::WriteThrough)
}

/// Replays `picks` as an interleaving of two in-order streams of `n`
/// stores each: `true` advances the vocal core (0), `false` the mute
/// core (1); an exhausted side falls through to the other. Returns
/// `(cb, mem, ready_cycles)` where `ready_cycles[seq] = [vocal, mute]`
/// commit cycles.
#[allow(clippy::type_complexity)]
fn interleave(n: u64, picks: &[bool]) -> (PairedCb, MemSystem, Vec<[u64; 2]>) {
    let mut cb = PairedCb::new(CAP);
    let mut m = mem();
    let mut next = [0u64; 2];
    let mut cyc = [10u64, 10];
    let mut ready = vec![[0u64; 2]; n as usize];
    for step in 0..2 * n as usize {
        let vocal_first = picks.get(step).copied().unwrap_or(step % 2 == 0);
        let side = if vocal_first && next[0] < n {
            0
        } else if next[1] < n {
            1
        } else {
            0
        };
        let seq = next[side];
        cb.push(side, seq, 0x40 + seq, cyc[side], &mut m);
        ready[seq as usize][side] = cyc[side];
        next[side] += 1;
        // Uneven but deterministic commit pacing per side.
        cyc[side] += 1 + (seq * 7 + side as u64 * 3) % 9;
    }
    (cb, m, ready)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// §III-A: "the latest entry that has completed execution on both"
    /// drains — at every point of every interleaving, the number of
    /// entries released to L2 equals the number of *matched* store
    /// pairs, never more.
    #[test]
    fn entry_never_released_before_both_copies_agree(
        n in 1u64..32,
        picks in prop::collection::vec(any::<bool>(), 0..64),
    ) {
        let mut cb = PairedCb::new(CAP);
        let mut m = mem();
        let mut next = [0u64; 2];
        let mut cyc = [10u64, 10];
        let mut ready = vec![[0u64; 2]; n as usize];
        for step in 0..2 * n as usize {
            let vocal_first = picks.get(step).copied().unwrap_or(step % 2 == 0);
            let side = if vocal_first && next[0] < n {
                0
            } else if next[1] < n {
                1
            } else {
                0
            };
            let seq = next[side];
            let done = cb.push(side, seq, 0x40 + seq, cyc[side], &mut m);
            prop_assert_eq!(done, cyc[side], "no stalls below capacity");
            ready[seq as usize][side] = cyc[side];
            next[side] += 1;

            let matched = next[0].min(next[1]);
            prop_assert_eq!(
                cb.drained, matched,
                "L2 saw {} entries but only {} store pairs agree",
                cb.drained, matched
            );
            if next[side] <= matched {
                // This push completed a pair: its drain is gated by the
                // slower copy, so the pair must still occupy the CB at
                // the later of the two commit cycles.
                let gate = ready[seq as usize][0].max(ready[seq as usize][1]);
                prop_assert!(!cb.is_empty(gate), "seq {seq} left before cycle {gate}");
            }
            cyc[side] += 1 + (seq * 7 + side as u64 * 3) % 9;
        }
        prop_assert_eq!(cb.drained, n);
        prop_assert!(cb.is_empty(10_000_000), "all matched entries eventually drain");
    }

    /// RECOVERY step 5: after the error-free core's CB overwrites its
    /// partner's, both sides are identical (convergent), every surviving
    /// entry is matched, and exactly the good core's stores — no more,
    /// no fewer — reach the L2.
    #[test]
    fn always_forward_recovery_leaves_pair_convergent(
        n in 1u64..32,
        picks in prop::collection::vec(any::<bool>(), 0..64),
        good in 0usize..2,
    ) {
        let (mut cb, mut m, _) = interleave(n, &picks);
        cb.overwrite_from(good, 1_000_000, &mut m);
        // Both sides pushed all n stores in `interleave`, so recovery
        // must leave exactly n entries released — no duplicates.
        prop_assert_eq!(cb.drained, n);
        prop_assert_eq!(
            cb.occupancy(0, 1_000_000),
            cb.occupancy(1, 1_000_000),
            "sides diverge right after recovery"
        );
        prop_assert!(cb.is_empty(100_000_000), "recovered pair must drain dry");
    }

    /// Uncore strike on a resident CB entry (data array): a flipped
    /// line bit breaks the stored fingerprint, so when the partner's
    /// copy arrives the pair comparison *must* miscompare —
    /// `fingerprint_mismatches` fires and the corrupted pair is never
    /// silently drained to the L2.
    #[test]
    fn struck_cb_entry_is_detected_not_silently_drained(
        n in 1u64..16,
        victim in 0u64..16,
        side in 0usize..2,
        bit in 0u64..64,
    ) {
        let victim = victim % n;
        let mut cb = PairedCb::new(CAP);
        let mut m = mem();
        // The vocal core commits its whole stream first, so every
        // entry sits unmatched on side 0 when the strike lands.
        for seq in 0..n {
            cb.push(0, seq, 0x40 + seq, 10 + 3 * seq, &mut m);
        }
        let slot = if side == 0 { victim as usize } else { 0 };
        let drained_before = cb.drained;
        if side == 0 {
            prop_assert!(
                cb.corrupt_entry(0, slot, bit, 20),
                "strike on an occupied slot must hit"
            );
        } else {
            // Side 1 is empty pre-push: the strike lands between the
            // mute core's own pushes instead.
            prop_assert!(!cb.corrupt_entry(1, 0, bit, 20), "empty side masks");
        }
        for seq in 0..n {
            cb.push(1, seq, 0x40 + seq, 12 + 5 * seq, &mut m);
            if side == 1 && seq == victim {
                // Strike the mute core's freshest entry. It may already
                // be matched (drain scheduled but not complete) — the
                // residency rule says it is still strikeable.
                let occ = cb.occupancy(1, 12 + 5 * seq);
                if occ > 0 {
                    prop_assert!(cb.corrupt_fingerprint(1, occ - 1, bit, 12 + 5 * seq));
                }
            }
        }
        if side == 0 {
            // The victim pair miscompared instead of draining.
            prop_assert!(cb.fingerprint_mismatches >= 1, "flip must be caught");
            prop_assert_eq!(cb.drained, drained_before + n - 1);
            prop_assert!(
                !cb.is_empty(100_000_000),
                "corrupted pair must pend for recovery, not vanish"
            );
        } else {
            // A post-match fingerprint flip never un-drains the pair,
            // and a pre-match flip is caught; either way nothing
            // corrupted reaches the L2 silently (drains only ever
            // carry compare-verified lines).
            prop_assert!(cb.drained <= n);
            prop_assert!(cb.fingerprint_mismatches + cb.drained >= n);
        }
        // Recovery from the clean side still converges (§III step 5).
        cb.overwrite_from(side ^ 1, 1_000_000, &mut m);
        prop_assert_eq!(cb.drained, n, "recovery drains the clean stream");
        prop_assert!(cb.is_empty(100_000_000));
    }

    /// Same recovery property under maximal drift: the good core ran
    /// `lead` stores ahead of the (erroneous) mute core when recovery
    /// struck. The bad side's state is discarded, the good side's
    /// unmatched tail drains, and the pair converges.
    #[test]
    fn recovery_converges_under_drift(
        n_good in 1u64..32,
        lead in 0u64..16,
        good in 0usize..2,
    ) {
        let bad = good ^ 1;
        let n_bad = n_good.saturating_sub(lead);
        let mut cb = PairedCb::new(CAP);
        let mut m = mem();
        for seq in 0..n_good {
            cb.push(good, seq, 0x40 + seq, 10 + 3 * seq, &mut m);
        }
        for seq in 0..n_bad {
            cb.push(bad, seq, 0x40 + seq, 12 + 5 * seq, &mut m);
        }
        prop_assert_eq!(cb.drained, n_bad, "only matched pairs drained pre-recovery");
        cb.overwrite_from(good, 1_000_000, &mut m);
        prop_assert_eq!(
            cb.drained, n_good,
            "recovery drains exactly the good core's stores"
        );
        prop_assert_eq!(cb.occupancy(good, 1_000_000), cb.occupancy(bad, 1_000_000));
        prop_assert!(cb.is_empty(100_000_000));
    }
}
