//! # physical — analytical implementation model for PATRONoC
//!
//! The paper's §III reports synthesis results in GlobalFoundries 22FDX
//! (Synopsys DC, eight-track SLVT/LVT cells, SS/0.72 V/125 °C, 1 GHz with a
//! register slice on every channel). That flow is proprietary, so this crate
//! substitutes a **structural area model**: each crosspoint's area is the
//! sum of per-block contributions (data crossbar, per-port channel buffers,
//! address path, ID-remap tables, outstanding-transaction tracking), with
//! coefficients **calibrated to the paper's disclosed anchor points**:
//!
//! | anchor | paper value |
//! |---|---|
//! | 2×2 mesh, `AXI_32_32_2`, MOT 1 | 174 kGE |
//! | 2×2 mesh, `AXI_32_512_2`, MOT 1 | 830 kGE |
//! | 4×4 mesh, DW 64, IW 4: MOT 1 → 128 | ≈1.0–1.2 MGE → ≈2.2 MGE (Fig. 3 right) |
//! | ESP-NoC (32-bit flits) | +68 % area vs `AXI_32_64_2` for +25 % bandwidth |
//!
//! The model then *predicts* every other configuration in Fig. 2 and
//! Fig. 3. The headline claim — PATRONoC has ≈34 % higher area efficiency
//! than the classical ESP-NoC — follows directly from the ESP anchor:
//! (160 Gb/s / 1.68·A) ÷ (128 Gb/s / A) ≈ 0.74, i.e. PATRONoC is ≈1.34×
//! more area-efficient.
//!
//! ```
//! use physical::{AreaModel, BisectionCounting, bisection_bandwidth_gbps};
//! use patronoc::Topology;
//! use axi::AxiParams;
//!
//! let model = AreaModel::calibrated();
//! let axi = AxiParams::new(32, 64, 2, 1)?;
//! let area = model.mesh_area_kge(Topology::mesh2x2(), axi);
//! let bw = bisection_bandwidth_gbps(Topology::mesh2x2(), 64, BisectionCounting::OneWay);
//! assert!((bw - 128.0).abs() < 1e-9);
//! assert!(area > 150.0 && area < 300.0);
//! # Ok::<(), axi::ConfigError>(())
//! ```

pub mod area;
pub mod bisection;
pub mod espnoc;
pub mod power;

pub use area::AreaModel;
pub use bisection::{
    area_efficiency, bisection_bandwidth_gbps, bisection_data_capacity_gib_s,
    fig3_mesh_scaling_efficiency_change, BisectionCounting,
};
pub use espnoc::EspNoc;
pub use power::power_mw;
