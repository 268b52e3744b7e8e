//! Runtime-integrated energy accounting.
//!
//! Table II gives *power* at the synthesis clock; combining it with the
//! simulator's cycle counts yields the quantity a deployment actually
//! pays: energy per workload, and the energy-delay product. This is the
//! natural runtime extension of the paper's "34.5 % lower power
//! overhead" claim — a redundant scheme that is both slower *and*
//! hungrier compounds its cost in EDP.

use serde::Serialize;

use crate::cores::CoreModel;

/// Synthesis clock the Table II power numbers were characterized at, Hz.
pub const SYNTHESIS_CLOCK_HZ: f64 = 300e6;

/// Energy accounting for one configuration running one workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EnergyReport {
    /// Configuration name.
    pub name: &'static str,
    /// Number of cores simultaneously burning power (1 for the baseline,
    /// 2 per redundant pair, N per group).
    pub cores: u32,
    /// Workload runtime in seconds at the given clock.
    pub runtime_s: f64,
    /// Total power drawn by all cores, W (dynamic power scaled linearly
    /// from the synthesis clock to the operating clock).
    pub power_w: f64,
    /// Energy for the whole run, joules.
    pub energy_j: f64,
    /// Energy per committed instruction, nanojoules.
    pub energy_per_inst_nj: f64,
    /// Energy-delay product, J·s.
    pub edp: f64,
}

impl EnergyReport {
    /// Builds the report for `model` replicated over `cores` cores that
    /// took `cycles` cycles to commit `insts` instructions at `clock_hz`.
    pub fn new(model: &CoreModel, cores: u32, cycles: u64, insts: u64, clock_hz: f64) -> Self {
        assert!(cores > 0 && clock_hz > 0.0 && insts > 0);
        let runtime_s = cycles as f64 / clock_hz;
        // Dynamic power scales ~linearly with frequency at fixed voltage.
        let per_core_w = model.total_power_w() * (clock_hz / SYNTHESIS_CLOCK_HZ);
        let power_w = per_core_w * cores as f64;
        let energy_j = power_w * runtime_s;
        EnergyReport {
            name: model.name,
            cores,
            runtime_s,
            power_w,
            energy_j,
            energy_per_inst_nj: energy_j / insts as f64 * 1e9,
            edp: energy_j * runtime_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_single_core_energy_is_sane() {
        let m = CoreModel::mips_baseline();
        // 1 M instructions at IPC 1 on a 2 GHz core: 0.5 ms.
        let r = EnergyReport::new(&m, 1, 1_000_000, 1_000_000, 2e9);
        assert!((r.runtime_s - 5e-4).abs() < 1e-12);
        // 1.19 W at 300 MHz → ~7.9 W at 2 GHz.
        assert!((r.power_w - 1.19 * 2e9 / 300e6).abs() < 0.05);
        assert!(r.energy_j > 0.0);
        assert!((r.energy_per_inst_nj - r.energy_j / 1e6 * 1e9).abs() < 1e-9);
    }

    #[test]
    fn redundancy_doubles_power_but_not_necessarily_edp_ordering() {
        let base = EnergyReport::new(&CoreModel::mips_baseline(), 1, 1_000_000, 1_000_000, 2e9);
        let unsync = EnergyReport::new(&CoreModel::unsync(), 2, 1_000_000, 1_000_000, 2e9);
        let reunion = EnergyReport::new(&CoreModel::reunion(), 2, 1_100_000, 1_000_000, 2e9);
        // Redundancy costs energy — but UnSync's pair costs less than
        // Reunion's even before the runtime penalty:
        assert!(unsync.energy_j > base.energy_j);
        assert!(unsync.energy_j < reunion.energy_j);
        // …and the runtime penalty compounds in EDP.
        assert!(reunion.edp / unsync.edp > reunion.energy_j / unsync.energy_j);
    }

    #[test]
    fn energy_scales_linearly_with_cycles() {
        let m = CoreModel::unsync();
        let a = EnergyReport::new(&m, 2, 1_000_000, 1_000_000, 2e9);
        let b = EnergyReport::new(&m, 2, 2_000_000, 1_000_000, 2e9);
        assert!((b.energy_j / a.energy_j - 2.0).abs() < 1e-12);
        assert!((b.edp / a.edp - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_instructions_rejected() {
        let _ = EnergyReport::new(&CoreModel::unsync(), 2, 100, 0, 2e9);
    }
}
