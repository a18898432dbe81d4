//! The experiment harness: one module per table/figure of the paper.
//!
//! Every experiment exposes `run(fast: bool) -> String`, returning the
//! rendered report for that table or figure. `fast` shrinks workloads for
//! CI; the full configuration matches the paper's scale (87 MSD jobs on the
//! 16-node fleet).
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`tables`] | Table I (machine types), Table III (MSD characteristics) |
//! | [`fig1`] | Fig. 1(a–d): motivation study |
//! | [`fig4`] | Fig. 4: energy-model estimation accuracy (NRMSE) |
//! | [`fig6`] | Fig. 6: impact of data locality on completion time |
//! | [`fig7`] | Fig. 7: per-task energy under system noise |
//! | [`fig8`] | Fig. 8(a–c): E-Ant vs Fair vs Tarazu on MSD |
//! | [`fig9`] | Fig. 9(a–b): assignment adaptiveness |
//! | [`fig10`] | Fig. 10: exchange-strategy ablation over time |
//! | [`fig11`] | Fig. 11(a–b): convergence vs homogeneity |
//! | [`fig12`] | Fig. 12(a–b): β and control-interval sensitivity |
//! | [`ablations`] | design-choice ablation table (DESIGN.md §7) |
//! | [`bound`] | Appendix A / Table II offline bound vs the online system |
//! | [`extensions`] | §VIII future-work: E-Ant + idle power-down |
//! | [`faults`] | fault-injection sweep: scheduler degradation under crashes/retries |
//! | [`scenario`] | data-driven scenario files, run database, regression gate |
//! | [`slo`] | monitored runs: telemetry sampling, SLO watchdog, postmortem bundles |
//! | [`explain`] | `explain`: critical-path + energy/wait attribution, tail blame |
//! | [`timeline`] | cluster load over time (saturation diagnostic) + `--trace`/`--replay` |
//! | [`tracediff`] | `trace-diff`: first divergence + per-type deltas between two traces |
//! | [`watch`] | `watch`: text dashboard replayed from a trace file |
//! | [`view`] | the trace tools' shared trace loader and `ClusterView` fold |

#![warn(missing_docs)]

pub mod ablations;
pub mod bound;
pub mod common;
pub mod explain;
pub mod extensions;
pub mod faults;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod scenario;
pub mod serve;
pub mod slo;
pub mod tables;
pub mod timeline;
pub mod tracediff;
pub mod view;
pub mod watch;

/// All experiment ids: the paper's tables/figures in paper order, then the
/// repository's own ablation and extension studies.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table1",
    "intro",
    "fig1a",
    "fig1b",
    "fig1c",
    "fig1d",
    "fig4",
    "fig6",
    "fig7",
    "table3",
    "fig8a",
    "fig8b",
    "fig8c",
    "fig9a",
    "fig9b",
    "fig10",
    "fig11a",
    "fig11b",
    "fig12a",
    "fig12b",
    "ablations",
    "bound",
    "ext_powerdown",
    "ext_speculation",
    "ext_dvfs",
    "faults",
    "timeline",
];

/// Runs one experiment by id, returning its report.
///
/// # Errors
///
/// Returns an error message for unknown ids.
pub fn run_experiment(id: &str, fast: bool) -> Result<String, String> {
    match id {
        "table1" => Ok(tables::table1()),
        "intro" => Ok(tables::intro_anecdote(fast)),
        "table3" => Ok(tables::table3(fast)),
        "fig1a" => Ok(fig1::fig1a(fast)),
        "fig1b" => Ok(fig1::fig1b(fast)),
        "fig1c" => Ok(fig1::fig1c(fast)),
        "fig1d" => Ok(fig1::fig1d(fast)),
        "fig4" => Ok(fig4::run(fast)),
        "fig6" => Ok(fig6::run(fast)),
        "fig7" => Ok(fig7::run(fast)),
        "fig8a" => Ok(fig8::fig8a(fast)),
        "fig8b" => Ok(fig8::fig8b(fast)),
        "fig8c" => Ok(fig8::fig8c(fast)),
        "fig9a" => Ok(fig9::fig9a(fast)),
        "fig9b" => Ok(fig9::fig9b(fast)),
        "fig10" => Ok(fig10::run(fast)),
        "fig11a" => Ok(fig11::fig11a(fast)),
        "fig11b" => Ok(fig11::fig11b(fast)),
        "fig12a" => Ok(fig12::fig12a(fast)),
        "fig12b" => Ok(fig12::fig12b(fast)),
        "ablations" => Ok(ablations::run(fast)),
        "bound" => Ok(bound::run(fast)),
        "ext_powerdown" => Ok(extensions::powerdown(fast)),
        "ext_speculation" => Ok(extensions::speculation(fast)),
        "ext_dvfs" => Ok(extensions::dvfs(fast)),
        "faults" => Ok(faults::run(fast)),
        "timeline" => Ok(timeline::run(fast)),
        other => Err(format!(
            "unknown experiment '{other}'; known: {}",
            ALL_EXPERIMENTS.join(", ")
        )),
    }
}
