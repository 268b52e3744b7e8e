//! Property tests over the hardware cost model: monotonicity and
//! composition invariants that must hold for any configuration, not just
//! the calibrated Table II points.

use proptest::prelude::*;
use unsync_hwcost::{
    cb_area_um2, CacheModel, CacheProtection, CoreModel, DieProjection, ManyCoreChip,
};

proptest! {
    #[test]
    fn cache_area_monotone_in_size(size_kb in 1u64..512) {
        let small = CacheModel::new(size_kb * 1024, CacheProtection::None);
        let bigger = CacheModel::new((size_kb + 1) * 1024, CacheProtection::None);
        prop_assert!(bigger.area_mm2() > small.area_mm2());
        prop_assert!(bigger.power_mw() > small.power_mw());
    }

    #[test]
    fn protection_never_shrinks_a_cache(size_kb in 1u64..512) {
        let none = CacheModel::new(size_kb * 1024, CacheProtection::None);
        for prot in [CacheProtection::parity_per_256(), CacheProtection::Secded] {
            let p = CacheModel::new(size_kb * 1024, prot);
            prop_assert!(p.area_mm2() >= none.area_mm2());
            prop_assert!(p.power_mw() >= none.power_mw());
        }
    }

    #[test]
    fn coarser_parity_costs_less(bits_a in 1u32..9, bits_b in 1u32..9) {
        prop_assume!(bits_a < bits_b);
        // More data bits per parity bit ⇒ less storage overhead.
        let fine = CacheModel::l1(CacheProtection::Parity { bits_per_parity: 1 << bits_a });
        let coarse = CacheModel::l1(CacheProtection::Parity { bits_per_parity: 1 << bits_b });
        prop_assert!(coarse.area_mm2() <= fine.area_mm2());
    }

    #[test]
    fn reunion_core_grows_with_fi(fi in 1u32..100) {
        let a = CoreModel::reunion_with_fi(fi);
        let b = CoreModel::reunion_with_fi(fi + 1);
        prop_assert!(b.core_area_um2() > a.core_area_um2());
        prop_assert!(b.core_power_mw() > a.core_power_mw());
        // And Reunion never gets cheaper than UnSync at the synthesis point.
        prop_assert!(a.core_area_um2() > CoreModel::unsync().core_area_um2() * 0.95);
    }

    #[test]
    fn cb_area_monotone_across_the_cell_switch(entries in 1u32..1024) {
        // The flop-array → SRAM-macro transition at 64 entries must not
        // make a bigger CB cheaper than a smaller one.
        prop_assert!(cb_area_um2(entries + 1) >= cb_area_um2(entries) * 0.999
            || entries == 64,
            "{} -> {}", cb_area_um2(entries), cb_area_um2(entries + 1));
    }

    #[test]
    fn die_projection_is_affine_in_core_count(n in 1u32..512) {
        let chip = ManyCoreChip {
            name: "synthetic",
            node_nm: 65,
            cores: n,
            core_area_mm2: 2.0,
            die_area_mm2: 100.0,
        };
        let base = CoreModel::mips_baseline();
        let reunion = CoreModel::reunion();
        let unsync = CoreModel::unsync();
        let p = DieProjection::project(chip, &base, &reunion, &unsync);
        // Difference per core is a constant.
        let per_core = p.difference_mm2() / n as f64;
        let chip2 = ManyCoreChip { cores: 2 * n, ..chip };
        let p2 = DieProjection::project(chip2, &base, &reunion, &unsync);
        prop_assert!((p2.difference_mm2() / (2.0 * n as f64) - per_core).abs() < 1e-9);
    }

}

#[test]
fn component_breakdown_sums_to_core_totals() {
    for model in [
        CoreModel::mips_baseline(),
        CoreModel::reunion(),
        CoreModel::unsync(),
    ] {
        let sum_area: f64 = model.components.iter().map(|c| c.area_um2).sum();
        let sum_power: f64 = model.components.iter().map(|c| c.power_mw).sum();
        assert!(
            (sum_area - model.core_area_um2()).abs() < 1e-6,
            "{}",
            model.name
        );
        assert!(
            (sum_power - model.core_power_mw()).abs() < 1e-6,
            "{}",
            model.name
        );
    }
}
