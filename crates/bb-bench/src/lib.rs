//! The evaluation harness: everything needed to regenerate the paper's
//! tables and figures (Section 4 and Appendices B/C), behind the `figures`
//! binary.
//!
//! [`Scale`] collapses the paper's testbed dimensions to laptop scale
//! (documented per experiment in EXPERIMENTS.md); [`Platform`] builds the
//! three chains with consistent per-experiment configs; the `exp_*` modules
//! each regenerate one group of figures and return printable tables — the
//! closed-loop Figures 5–8, 13c, 14 and 16–19 as views of one
//! [`exp_macro::MacroCells`], keyed by servers × clients, so a `figures` run
//! runs each distinct cell once in one scatter; and [`claims`] checks the
//! paper's findings over those tables, freshly built or read back from the
//! committed CSVs.

pub mod claims;
pub mod exp_ablation;
pub mod exp_chaos;
pub mod exp_fault;
pub mod exp_macro;
pub mod exp_micro;
pub mod exp_saturation;
pub mod parallel;
pub mod platforms;
pub mod table;

pub use platforms::{Platform, Scale, ALL_PLATFORMS};
pub use table::Table;
