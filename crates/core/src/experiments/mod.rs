//! One module per research question; one function per table/figure.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table 3 | [`summary::dataset_summary`] |
//! | Table 8 | [`summary::domain_volume`] |
//! | Figures 1–2 | [`summary::overlap_full`], [`summary::overlap_active`] |
//! | Figure 3 / Table 4 / Figure 4 / Tables 9–12 | [`grid::master_grid`] + [`rq1`] |
//! | Figure 5 | [`rq2::port_specific_ratios`] |
//! | Table 5 / Table 6 / Tables 13–15 | [`rq3`] |
//! | Figure 6 | [`rq4::combination_hits`] / [`rq4::combination_ases`] |
//! | Figure 7 (Appendix D) | [`appendix_d::cross_port_matrix`] |
//! | RQ5 recommendations | [`recommend::recommendations`] |
//! | extension: AS-category slices (Steger-style) | [`as_kind::run_by_kind`] |
//! | extension: budget saturation curves | [`budget::budget_sweep`] |
//! | §5.3 collection pass as a resumable, fault-tolerant campaign | [`campaign::run`] |

pub mod appendix_d;
pub mod as_kind;
pub mod budget;
pub mod campaign;
pub mod grid;
pub mod recommend;
pub mod rq1;
pub mod rq2;
pub mod rq3;
pub mod rq4;
pub mod stability;
pub mod summary;

pub use grid::{master_grid, Grid};
