//! Property-based tests of the physical model across the whole Table I
//! parameter space: positivity, monotonicity in every parameter, and
//! consistency of the bisection conventions.

use axi::AxiParams;
use patronoc::Topology;
use physical::{bisection_bandwidth_gbps, AreaModel, BisectionCounting, EspNoc};
use proptest::prelude::*;

fn axi_params() -> impl Strategy<Value = AxiParams> {
    (
        prop::sample::select(vec![32u32, 64]),
        prop::sample::select(vec![8u32, 16, 32, 64, 128, 256, 512, 1024]),
        1u32..=16,
        1u32..=128,
    )
        .prop_map(|(aw, dw, iw, mot)| {
            AxiParams::new(aw, dw, iw, mot).expect("strategy yields valid params")
        })
}

fn meshes() -> impl Strategy<Value = Topology> {
    (1usize..=8, 1usize..=8)
        .prop_filter("≥ 2 nodes", |&(c, r)| c * r >= 2)
        .prop_map(|(c, r)| Topology { cols: c, rows: r })
}

proptest! {
    /// Area is positive and finite over the whole legal space.
    #[test]
    fn area_is_positive_and_finite(axi in axi_params(), topo in meshes()) {
        let a = AreaModel::calibrated().mesh_area_kge(topo, axi);
        prop_assert!(a.is_finite() && a > 0.0);
    }

    /// Increasing any single Table I parameter never decreases area.
    #[test]
    fn area_is_monotone(axi in axi_params(), topo in meshes()) {
        let m = AreaModel::calibrated();
        let base = m.mesh_area_kge(topo, axi);
        if axi.data_width() < 1024 {
            let wider = AxiParams::new(
                axi.addr_width(),
                axi.data_width() * 2,
                axi.id_width(),
                axi.max_outstanding(),
            ).expect("doubled width stays legal");
            prop_assert!(m.mesh_area_kge(topo, wider) > base);
        }
        if axi.id_width() < 16 {
            let more_ids = AxiParams::new(
                axi.addr_width(),
                axi.data_width(),
                axi.id_width() + 1,
                axi.max_outstanding(),
            ).expect("legal");
            prop_assert!(m.mesh_area_kge(topo, more_ids) > base);
        }
        if axi.max_outstanding() < 128 {
            let more_mot = axi.with_max_outstanding(axi.max_outstanding() + 1)
                .expect("legal");
            prop_assert!(m.mesh_area_kge(topo, more_mot) > base);
        }
    }

    /// Bisection bandwidth: both-ways is exactly double one-way, and both
    /// scale linearly in DW.
    #[test]
    fn bisection_conventions_consistent(topo in meshes(), dw in prop::sample::select(vec![8u32, 32, 64, 512])) {
        let one = bisection_bandwidth_gbps(topo, dw, BisectionCounting::OneWay);
        let two = bisection_bandwidth_gbps(topo, dw, BisectionCounting::BothWays);
        prop_assert_eq!(two, 2.0 * one);
        let one_2dw = bisection_bandwidth_gbps(topo, dw * 2, BisectionCounting::OneWay);
        prop_assert!((one_2dw - 2.0 * one).abs() < 1e-9);
    }

    /// The ESP comparison stays anchored under coefficient perturbation of
    /// unrelated terms: scaling k_mot (which the MOT=1 reference doesn't
    /// use beyond zero) never changes the +68 % area ratio.
    #[test]
    fn esp_anchor_immune_to_mot_coefficient(k_mot in 0.0f64..1.0) {
        let mut model = AreaModel::calibrated();
        model.k_mot = k_mot;
        let esp = EspNoc::flit32();
        let axi_ref = AxiParams::new(32, 64, 2, 1).expect("reference");
        let ratio = esp.area_kge_2x2(&model)
            / model.mesh_area_kge(Topology::mesh2x2(), axi_ref);
        prop_assert!((ratio - 1.68).abs() < 1e-9);
    }
}
