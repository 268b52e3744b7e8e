//! The 65 nm component library.

use serde::Serialize;

/// Area of one 2-input-gate equivalent at 65 nm, µm² (standard-cell
/// NAND2-equivalent with routing share, nominal density 0.49 per §V).
pub(crate) const GATE_AREA_UM2: f64 = 2.08;

/// Register-file SRAM cell (2R1W), µm²/bit — §IV-3.
pub(crate) const RF_CELL_UM2: f64 = 7.80;

/// CHECK-stage-buffer cell (3R1W — the extra read port), µm²/bit — §IV-3.
pub(crate) const CSB_CELL_UM2: f64 = 10.40;

/// Shadow latch for DMR duplication, µm²/bit.
pub(crate) const DMR_LATCH_UM2: f64 = 4.20;

/// Gate count of the parallel CRC-16 generator (Albertengo & Sisto).
pub(crate) const CRC16_GATES: u32 = 238;

/// One named hardware block with its synthesized area and power.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Component {
    /// Block name.
    pub(crate) name: &'static str,
    /// Post-PNR area in µm².
    pub area_um2: f64,
    /// Average power at 300 MHz in mW.
    pub power_mw: f64,
}

impl Component {
    /// A block built from an explicit area/power pair.
    pub(crate) fn new(name: &'static str, area_um2: f64, power_mw: f64) -> Self {
        assert!(area_um2 >= 0.0 && power_mw >= 0.0, "{name}: negative cost");
        Component {
            name,
            area_um2,
            power_mw,
        }
    }

    /// An SRAM array of `bits` with the given cell size and a per-access
    /// energy proportional to the row width (modelled as a power figure
    /// for one access per cycle at 300 MHz).
    pub(crate) fn sram_array(name: &'static str, bits: u64, cell_um2: f64, power_mw: f64) -> Self {
        Component {
            name,
            area_um2: bits as f64 * cell_um2,
            power_mw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csb_cell_is_one_third_larger_than_rf_cell() {
        // §IV-3: "10.40 µm² which is 1.3× the size of a register file
        // cell (7.80 µm²)".
        let ratio = CSB_CELL_UM2 / RF_CELL_UM2;
        assert!((ratio - 10.40 / 7.80).abs() < 1e-12);
        assert!((ratio - 1.333).abs() < 0.01);
    }

    #[test]
    fn fi50_csb_matches_papers_39125_um2() {
        // §IV-3: FI = 50 ⇒ 57 entries × 66 bits × 10.40 µm² = 39 125 µm².
        let csb = Component::sram_array("csb", 57 * 66, CSB_CELL_UM2, 0.0);
        assert!((csb.area_um2 - 39_124.8).abs() < 0.1);
        assert!(
            (csb.area_um2 - 39_125.0).abs() < 1.0,
            "paper rounds to 39125"
        );
    }

    #[test]
    fn crc_generator_is_tiny_in_area() {
        let area_um2 = CRC16_GATES as f64 * GATE_AREA_UM2;
        assert!(area_um2 < 1_000.0);
        assert!(area_um2 > 100.0);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_cost_rejected() {
        let _ = Component::new("bad", -1.0, 0.0);
    }
}
