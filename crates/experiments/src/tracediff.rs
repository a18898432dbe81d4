//! Cross-run trace diffing: align two JSONL traces, pinpoint the first
//! divergent event and summarize per-event-type count/timing deltas.
//!
//! Two runs of the same scenario and seed produce byte-identical traces, so
//! the first divergence *is* the first behavioral difference — this is how
//! a faulted run is localized against its clean twin (the first
//! `machine_failed` line), or a refactor is checked for semantic drift
//! (traces identical ⇒ behavior identical, by the golden-digest argument).

use std::collections::BTreeMap;
use std::path::Path;

use metrics::trace::trace_line;
use simcore::SimTime;

use crate::view::{load_trace, TraceLine};

/// Per-event-type aggregate of one trace: occurrence count and the
/// timestamp of the last occurrence.
#[derive(Debug, Clone, Copy, Default)]
struct KindStats {
    count: u64,
    last_at: SimTime,
}

fn kind_stats(events: &[TraceLine]) -> BTreeMap<&'static str, KindStats> {
    let mut out: BTreeMap<&'static str, KindStats> = BTreeMap::new();
    for (_, at, event) in events {
        let s = out.entry(event.kind()).or_default();
        s.count += 1;
        s.last_at = *at;
    }
    out
}

/// Diffs two JSONL traces: reports the first pair of aligned events whose
/// canonical encodings differ (with both source line numbers and lines),
/// then a per-event-type table of count and last-occurrence-time deltas.
/// `kind_filter` restricts the alignment to one event type (e.g.
/// `machine_failed`), which is how a fault is located against a clean run
/// whose lifecycle stream has long since diverged.
///
/// # Errors
///
/// Returns [`load_trace`] errors from either trace.
pub fn run(path_a: &Path, path_b: &Path, kind_filter: Option<&str>) -> Result<String, String> {
    let mut a = load_trace(path_a)?;
    let mut b = load_trace(path_b)?;
    if let Some(kind) = kind_filter {
        a.retain(|(_, _, e)| e.kind() == kind);
        b.retain(|(_, _, e)| e.kind() == kind);
    }
    let scope = kind_filter.map_or(String::new(), |k| format!(" (type={k})"));
    let mut out = format!(
        "trace diff{scope}: {} ({} events) vs {} ({} events)\n",
        path_a.display(),
        a.len(),
        path_b.display(),
        b.len(),
    );

    // First divergence under index-wise alignment of canonical encodings.
    let mut divergence = None;
    for (i, ((la, ta, ea), (lb, tb, eb))) in a.iter().zip(&b).enumerate() {
        let line_a = trace_line(*ta, ea);
        let line_b = trace_line(*tb, eb);
        if line_a != line_b {
            divergence = Some((i, *la, line_a, *lb, line_b));
            break;
        }
    }
    match &divergence {
        Some((i, la, line_a, lb, line_b)) => {
            out.push_str(&format!(
                "first divergence at aligned event {} (1-based):\n  a line {la}: {line_a}\n  b line {lb}: {line_b}\n",
                i + 1,
            ));
        }
        None if a.len() == b.len() => {
            out.push_str("traces are identical\n");
            return Ok(out);
        }
        None => {
            let (longer, extra, first_extra) = if a.len() > b.len() {
                ("a", a.len() - b.len(), &a[b.len()])
            } else {
                ("b", b.len() - a.len(), &b[a.len()])
            };
            out.push_str(&format!(
                "common prefix is identical; {longer} has {extra} extra trailing event(s), \
                 first at line {}: {}\n",
                first_extra.0,
                trace_line(first_extra.1, &first_extra.2),
            ));
        }
    }

    // Per-event-type count and last-occurrence-time deltas.
    let stats_a = kind_stats(&a);
    let stats_b = kind_stats(&b);
    out.push_str("\nper-event-type deltas (a -> b):\n");
    out.push_str(&format!(
        "  {:<24} {:>8} {:>8} {:>7}  {:>12}\n",
        "type", "count a", "count b", "delta", "last-at delta"
    ));
    let kinds: std::collections::BTreeSet<_> =
        stats_a.keys().chain(stats_b.keys()).copied().collect();
    for kind in kinds {
        let sa = stats_a.get(kind).copied().unwrap_or_default();
        let sb = stats_b.get(kind).copied().unwrap_or_default();
        let count_delta = sb.count as i64 - sa.count as i64;
        let at_delta = sb.last_at.as_secs_f64() - sa.last_at.as_secs_f64();
        out.push_str(&format!(
            "  {:<24} {:>8} {:>8} {:>+7}  {:>+11.1} s\n",
            kind, sa.count, sb.count, count_delta, at_delta,
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{write_trace, write_trace_with, TraceOptions};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("eant-tracediff-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn identical_traces_diff_clean() {
        let pa = tmp("same-a");
        let pb = tmp("same-b");
        write_trace(true, &pa).unwrap();
        write_trace(true, &pb).unwrap();
        let report = run(&pa, &pb, None).unwrap();
        assert!(report.contains("traces are identical"), "{report}");
        for p in [pa, pb] {
            std::fs::remove_file(crate::timeline::registry_snapshot_path(&p)).ok();
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn different_seeds_diverge_with_deltas() {
        let pa = tmp("seed-a");
        let pb = tmp("seed-b");
        write_trace(true, &pa).unwrap();
        write_trace_with(
            TraceOptions {
                fast: true,
                seed: 7,
                decisions: false,
            },
            &pb,
        )
        .unwrap();
        let report = run(&pa, &pb, None).unwrap();
        assert!(report.contains("first divergence"), "{report}");
        assert!(report.contains("per-event-type deltas"), "{report}");
        // Scoped to a single kind, alignment still works.
        let scoped = run(&pa, &pb, Some("run_finished")).unwrap();
        assert!(scoped.contains("(type=run_finished)"), "{scoped}");
        for p in [pa, pb] {
            std::fs::remove_file(crate::timeline::registry_snapshot_path(&p)).ok();
            std::fs::remove_file(p).ok();
        }
    }
}
