//! Many-core die-size projections (Table III).
//!
//! §VI-A2: per-core area overheads (CAO) from Table II are scaled onto
//! published many-core processors: `DA = n × CA × CAO + DA_orig`.

use serde::Serialize;

use crate::cores::CoreModel;

/// A published many-core processor used as a projection target.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ManyCoreChip {
    /// Product name.
    pub name: &'static str,
    /// Technology node, nm.
    pub node_nm: u32,
    /// Number of cores.
    pub cores: u32,
    /// Per-core area, mm².
    pub core_area_mm2: f64,
    /// Original die area, mm².
    pub die_area_mm2: f64,
}

/// The three chips of Table III.
pub(crate) const TABLE3_CHIPS: [ManyCoreChip; 3] = [
    ManyCoreChip {
        name: "Intel Polaris",
        node_nm: 65,
        cores: 80,
        core_area_mm2: 2.5,
        die_area_mm2: 275.0,
    },
    ManyCoreChip {
        name: "Tilera Tile64",
        node_nm: 90,
        cores: 64,
        core_area_mm2: 3.6,
        die_area_mm2: 330.0,
    },
    ManyCoreChip {
        name: "NVIDIA GeForce",
        node_nm: 90,
        cores: 128,
        core_area_mm2: 3.0,
        die_area_mm2: 470.0,
    },
];

/// A projected die size for one chip under one error-resilient scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DieProjection {
    /// The target chip.
    pub chip: ManyCoreChip,
    /// Projected Reunion die area, mm².
    pub reunion_mm2: f64,
    /// Projected UnSync die area, mm².
    pub unsync_mm2: f64,
}

impl DieProjection {
    /// Projects `chip` using the per-core area overheads of the given
    /// core models.
    pub fn project(
        chip: ManyCoreChip,
        base: &CoreModel,
        reunion: &CoreModel,
        unsync: &CoreModel,
    ) -> Self {
        let project_one =
            |cao: f64| chip.cores as f64 * chip.core_area_mm2 * cao + chip.die_area_mm2;
        DieProjection {
            chip,
            reunion_mm2: project_one(reunion.area_overhead_vs(base)),
            unsync_mm2: project_one(unsync.area_overhead_vs(base)),
        }
    }

    /// The Table III decision metric: `DA_Reunion − DA_UnSync`, mm².
    pub fn difference_mm2(&self) -> f64 {
        self.reunion_mm2 - self.unsync_mm2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn projections() -> Vec<DieProjection> {
        let base = CoreModel::mips_baseline();
        let reunion = CoreModel::reunion();
        let unsync = CoreModel::unsync();
        TABLE3_CHIPS
            .iter()
            .map(|&chip| DieProjection::project(chip, &base, &reunion, &unsync))
            .collect()
    }

    #[test]
    fn table3_reunion_die_areas() {
        let p = projections();
        // Paper: 316.54 / 377.85 / 549.76 mm².
        assert!(
            (p[0].reunion_mm2 - 316.54).abs() < 0.7,
            "{}",
            p[0].reunion_mm2
        );
        assert!(
            (p[1].reunion_mm2 - 377.85).abs() < 0.7,
            "{}",
            p[1].reunion_mm2
        );
        assert!(
            (p[2].reunion_mm2 - 549.76).abs() < 1.2,
            "{}",
            p[2].reunion_mm2
        );
    }

    #[test]
    fn table3_unsync_die_areas() {
        let p = projections();
        // Paper: 289.9 / 347.16 / 498.61 mm².
        assert!((p[0].unsync_mm2 - 289.9).abs() < 0.7, "{}", p[0].unsync_mm2);
        assert!(
            (p[1].unsync_mm2 - 347.16).abs() < 0.7,
            "{}",
            p[1].unsync_mm2
        );
        assert!(
            (p[2].unsync_mm2 - 498.61).abs() < 1.2,
            "{}",
            p[2].unsync_mm2
        );
    }

    #[test]
    fn table3_differences() {
        let p = projections();
        // Paper: 26.64 / 30.69 / 51.15 mm².
        for (proj, want) in p.iter().zip([26.64, 30.69, 51.15]) {
            assert!(
                (proj.difference_mm2() - want).abs() < 1.5,
                "{}: {} vs {}",
                proj.chip.name,
                proj.difference_mm2(),
                want
            );
        }
    }

    #[test]
    fn difference_grows_nonlinearly_with_core_count() {
        // §VI-A2 observation 1: Polaris (80 cores) → GeForce (128 cores):
        // ~50 % more cores ⇒ ~2× larger difference.
        let p = projections();
        let polaris = p[0].difference_mm2();
        let geforce = p[2].difference_mm2();
        assert!(geforce / polaris > 1.8, "ratio {}", geforce / polaris);
    }

    #[test]
    fn unsync_always_projects_smaller() {
        for proj in projections() {
            assert!(proj.unsync_mm2 < proj.reunion_mm2, "{}", proj.chip.name);
            assert!(proj.unsync_mm2 > proj.chip.die_area_mm2);
        }
    }
}
