//! Core-level compositions: baseline MIPS, Reunion, UnSync.
//!
//! Every aggregate the paper reports is reproduced by *composition*: the
//! baseline core is decomposed into stages (Execute ≈ 61 % of core area,
//! consistent with §IV-1's "CHECK … occupies 75 % of [Execute's]
//! chip-area" given CHECK = 46 % of core area); Reunion adds the CSB
//! array (published cell size), the CRC generator (published gate count),
//! the fingerprint registers, and the forwarding datapath (residual —
//! §IV-4 attributes it to +34 % metal wiring); UnSync adds DMR shadow
//! latches + comparators, parity trees and the EIH interface.

use serde::Serialize;

use crate::cacti::{CacheModel, CacheProtection};
use crate::components::{
    Component, CRC16_GATES, CSB_CELL_UM2, DMR_LATCH_UM2, GATE_AREA_UM2, RF_CELL_UM2,
};

/// Communication-Buffer area per entry, µm² (Table II: 3 870 µm² at 10
/// entries ⇒ 387 µm²/entry with register-class cells).
pub(crate) const CB_ENTRY_AREA_UM2: f64 = 387.0;
/// Communication-Buffer power per entry, mW (Table II: 0.77258 mW at 10
/// entries).
pub(crate) const CB_ENTRY_POWER_MW: f64 = 0.077_258;

/// CB fixed control overhead, µm² (head/tail pointers, match logic).
const CB_CONTROL_UM2: f64 = 400.0;
/// Dense 6T-SRAM cell (with array overheads) for large CBs, µm²/bit.
const CB_SRAM_CELL_UM2: f64 = 1.10;

/// CB area as a function of entry count: small CBs are flop/register
/// arrays calibrated to Table II's 10-entry point; beyond 64 entries a
/// real implementation switches to an SRAM macro (the Fig. 6 2–4 KB
/// points), which is far denser per bit.
pub fn cb_area_um2(entries: u32) -> f64 {
    if entries <= 64 {
        entries as f64 * CB_ENTRY_AREA_UM2
    } else {
        CB_CONTROL_UM2 + entries as f64 * 66.0 * CB_SRAM_CELL_UM2
    }
}

/// A fully composed core configuration.
///
/// # Examples
///
/// ```
/// use unsync_hwcost::CoreModel;
///
/// let base = CoreModel::mips_baseline();
/// let unsync = CoreModel::unsync();
/// // Table II's headline: UnSync costs +7.45 % total area.
/// let overhead = unsync.area_overhead_vs(&base) * 100.0;
/// assert!((overhead - 7.45).abs() < 0.2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CoreModel {
    /// Configuration name ("Basic MIPS", "Reunion", "UnSync").
    pub name: &'static str,
    /// Core-internal blocks.
    pub components: Vec<Component>,
    /// The L1 cache macro.
    pub(crate) l1: CacheModel,
    /// The Communication Buffer, if the configuration has one.
    pub(crate) cb: Option<Component>,
}

/// The baseline MIPS stage decomposition (areas µm², power mW), summing
/// to the paper's 98 558 µm² / 1 153 mW.
fn mips_stages() -> Vec<Component> {
    vec![
        Component::new("fetch+decode+control", 15_149.0, 173.0),
        Component::new("register file (32×32b)", 32.0 * 32.0 * RF_CELL_UM2, 92.0),
        Component::new("execute (ALU/MUL/shift)", 60_422.0, 519.0),
        Component::new("memory stage (LSQ, TLB ports)", 10_000.0, 219.0),
        Component::new("writeback", 5_000.0, 150.0),
    ]
}

impl CoreModel {
    /// The unprotected baseline MIPS core with an unprotected L1.
    pub fn mips_baseline() -> Self {
        CoreModel {
            name: "Basic MIPS",
            components: mips_stages(),
            l1: CacheModel::l1(CacheProtection::None),
            cb: None,
        }
    }

    /// The Reunion core at the paper's synthesis point (FI = 10 ⇒
    /// 17-entry CSB) with a SECDED L1.
    pub fn reunion() -> Self {
        Self::reunion_with_fi(10)
    }

    /// A Reunion core for an arbitrary fingerprint interval. CSB entries
    /// scale as `FI + 7`; the forwarding datapath scales with the buffer
    /// it serves (§IV-4: more CSB ⇒ more datapaths ⇒ more wiring).
    pub fn reunion_with_fi(fi: u32) -> Self {
        assert!(fi >= 1);
        let entries = (fi + 7) as f64;
        let baseline_entries = 17.0;
        let mut components = mips_stages();
        components.push(Component::sram_array(
            "CHECK-stage buffer (66b entries, 3R1W)",
            (entries as u64) * 66,
            CSB_CELL_UM2,
            entries * 11.2,
        ));
        components.push(Component::new(
            "fingerprint registers (2×16b)",
            2.0 * 16.0 * CSB_CELL_UM2,
            5.0,
        ));
        components.push(Component::new(
            "CRC-16 generator (238 gates)",
            CRC16_GATES as f64 * GATE_AREA_UM2,
            25.0,
        ));
        // Residual calibrated so the FI = 10 core hits the paper's
        // 144 005 µm² / 2 038 mW; grows with the buffer it feeds.
        let scale = entries / baseline_entries;
        components.push(Component::new(
            "register forwarding datapath + wiring",
            32_950.2 * scale,
            664.6 * scale,
        ));
        CoreModel {
            name: "Reunion",
            components,
            l1: CacheModel::l1(CacheProtection::Secded),
            cb: None,
        }
    }

    /// The UnSync core at the paper's synthesis point (10 CB entries)
    /// with a parity-protected write-through L1.
    pub fn unsync() -> Self {
        Self::unsync_with_cb(10)
    }

    /// An UnSync core with an arbitrary CB size (the Fig. 6 sweep's
    /// hardware side).
    pub(crate) fn unsync_with_cb(cb_entries: u32) -> Self {
        assert!(cb_entries >= 1);
        let mut components = mips_stages();
        // Every-cycle sequential elements duplicated for DMR: 5 stages ×
        // 4-wide × 128 b of pipeline latch + the 64 b PC.
        let dmr_bits = (5 * 4 * 128 + 64) as f64;
        components.push(Component::new(
            "DMR shadow latches (pipeline regs + PC)",
            dmr_bits * DMR_LATCH_UM2,
            310.0,
        ));
        components.push(Component::new(
            "DMR comparators",
            dmr_bits * 0.5 * GATE_AREA_UM2,
            80.0,
        ));
        components.push(Component::new(
            "parity bits + trees (RF/LSQ/TLB/queues)",
            3_000.0,
            70.0,
        ));
        components.push(Component::new("EIH interface", 637.2, 22.0));
        CoreModel {
            name: "UnSync",
            components,
            l1: CacheModel::l1(CacheProtection::parity_per_256()),
            cb: Some(Component::new(
                "Communication Buffer",
                cb_area_um2(cb_entries),
                cb_entries as f64 * CB_ENTRY_POWER_MW,
            )),
        }
    }

    /// Core-internal area (excluding L1 and CB), µm².
    pub fn core_area_um2(&self) -> f64 {
        self.components.iter().map(|c| c.area_um2).sum()
    }

    /// Core-internal power, mW.
    pub fn core_power_mw(&self) -> f64 {
        self.components.iter().map(|c| c.power_mw).sum()
    }

    /// CB area, µm² (0 when absent).
    pub(crate) fn cb_area_um2(&self) -> f64 {
        self.cb.as_ref().map_or(0.0, |c| c.area_um2)
    }

    /// CB power, mW (0 when absent).
    pub(crate) fn cb_power_mw(&self) -> f64 {
        self.cb.as_ref().map_or(0.0, |c| c.power_mw)
    }

    /// Total area (core + L1 + CB), µm².
    pub(crate) fn total_area_um2(&self) -> f64 {
        self.core_area_um2() + self.l1.area_mm2() * 1e6 + self.cb_area_um2()
    }

    /// Total power (core + L1 + CB), W.
    pub(crate) fn total_power_w(&self) -> f64 {
        (self.core_power_mw() + self.l1.power_mw() + self.cb_power_mw()) / 1_000.0
    }

    /// Total-area overhead relative to `base` (fraction).
    pub fn area_overhead_vs(&self, base: &CoreModel) -> f64 {
        self.total_area_um2() / base.total_area_um2() - 1.0
    }

    /// Total-power overhead relative to `base` (fraction).
    pub(crate) fn power_overhead_vs(&self, base: &CoreModel) -> f64 {
        self.total_power_w() / base.total_power_w() - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_core_matches_table2() {
        let m = CoreModel::mips_baseline();
        assert!(
            (m.core_area_um2() - 98_558.0).abs() < 1.0,
            "{}",
            m.core_area_um2()
        );
        assert!((m.core_power_mw() - 1_153.0).abs() < 1.0);
        assert!(
            (m.total_area_um2() - 291_958.0).abs() < 100.0,
            "{}",
            m.total_area_um2()
        );
        assert!((m.total_power_w() - 1.19).abs() < 0.005);
    }

    #[test]
    fn reunion_core_matches_table2() {
        let m = CoreModel::reunion();
        assert!(
            (m.core_area_um2() - 144_005.0).abs() < 10.0,
            "{}",
            m.core_area_um2()
        );
        assert!(
            (m.core_power_mw() - 2_038.0).abs() < 2.0,
            "{}",
            m.core_power_mw()
        );
        assert!(
            (m.total_area_um2() - 352_605.0).abs() < 600.0,
            "{}",
            m.total_area_um2()
        );
        assert!((m.total_power_w() - 2.08).abs() < 0.01);
    }

    #[test]
    fn unsync_core_matches_table2() {
        let m = CoreModel::unsync();
        assert!(
            (m.core_area_um2() - 115_945.0).abs() < 10.0,
            "{}",
            m.core_area_um2()
        );
        assert!((m.core_power_mw() - 1_635.0).abs() < 2.0);
        assert!((m.cb_area_um2() - 3_870.0).abs() < 1.0);
        assert!((m.cb_power_mw() - 0.772_58).abs() < 1e-6);
        assert!(
            (m.total_area_um2() - 313_715.0).abs() < 300.0,
            "{}",
            m.total_area_um2()
        );
        assert!((m.total_power_w() - 1.67).abs() < 0.01);
    }

    #[test]
    fn paper_headline_overheads() {
        let base = CoreModel::mips_baseline();
        let reunion = CoreModel::reunion();
        let unsync = CoreModel::unsync();
        // Table II: Reunion +20.77 % area, +74.79 % power; UnSync +7.45 %
        // area, +40.34 % power.
        assert!((reunion.area_overhead_vs(&base) * 100.0 - 20.77).abs() < 0.3);
        assert!((reunion.power_overhead_vs(&base) * 100.0 - 74.79).abs() < 1.0);
        assert!((unsync.area_overhead_vs(&base) * 100.0 - 7.45).abs() < 0.2);
        assert!((unsync.power_overhead_vs(&base) * 100.0 - 40.34).abs() < 1.0);
        // Headline: UnSync is ~13.3 % smaller and ~34.5 % lower-power
        // than Reunion… power claim ⇒ (2.08 − 1.67)/… ≈ relative to the
        // *overheads*; check total ratios directly.
        let area_saving = 1.0 - unsync.total_area_um2() / reunion.total_area_um2();
        assert!(
            (area_saving * 100.0 - 11.0).abs() < 1.5,
            "saving {area_saving}"
        );
        let power_saving = 1.0 - unsync.total_power_w() / reunion.total_power_w();
        assert!(power_saving > 0.15, "saving {power_saving}");
    }

    #[test]
    fn check_stage_dominates_reunion_overhead() {
        // §VI-A1: the CHECK stage is ≈46 % of (baseline) core area.
        let base = CoreModel::mips_baseline().core_area_um2();
        let check: f64 = CoreModel::reunion()
            .components
            .iter()
            .filter(|c| {
                !CoreModel::mips_baseline()
                    .components
                    .iter()
                    .any(|b| b.name == c.name)
            })
            .map(|c| c.area_um2)
            .sum();
        assert!(
            (check / base - 0.46).abs() < 0.01,
            "check/base = {}",
            check / base
        );
        // And ≈75 % of the Execute stage's area (§IV-1).
        let execute = CoreModel::mips_baseline()
            .components
            .iter()
            .find(|c| c.name.starts_with("execute"))
            .unwrap()
            .area_um2;
        assert!(
            (check / execute - 0.75).abs() < 0.01,
            "check/execute = {}",
            check / execute
        );
    }

    #[test]
    fn reunion_fi50_csb_is_91_percent_of_logic_core() {
        // §IV-3: at FI = 50 the CSB alone is 39 125 µm² — "91 % the size
        // of the whole MIPS core (42 818 µm²) excluding only the cache"
        // (the paper's pre-PNR logic-only core figure).
        let m = CoreModel::reunion_with_fi(50);
        let csb = m
            .components
            .iter()
            .find(|c| c.name.starts_with("CHECK-stage buffer"))
            .unwrap();
        assert!((csb.area_um2 - 39_125.0).abs() < 1.0, "{}", csb.area_um2);
    }

    #[test]
    fn larger_fi_grows_reunion_larger_cb_grows_unsync() {
        assert!(
            CoreModel::reunion_with_fi(50).core_area_um2()
                > CoreModel::reunion_with_fi(10).core_area_um2()
        );
        assert!(
            CoreModel::unsync_with_cb(512).total_area_um2()
                > CoreModel::unsync_with_cb(10).total_area_um2()
        );
        // Even a 4 KB CB (512 entries) keeps UnSync well under Reunion.
        assert!(
            CoreModel::unsync_with_cb(512).total_area_um2() < CoreModel::reunion().total_area_um2()
        );
    }
}
