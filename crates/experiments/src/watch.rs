//! `experiments watch`: fold a JSONL trace into a periodically-refreshed
//! text dashboard — per-machine slot occupancy, power/fault state, queue
//! depth and fleet energy rate.
//!
//! The consumer is a pure fold over the typed event stream: the same code
//! could sit on a live engine observer, but driving it from a trace file
//! keeps the renderer deterministic and testable (and a simulated hour
//! replays in milliseconds anyway).

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;

use hadoop_sim::{PowerState, SimEvent};
use metrics::registry::SeriesSnapshot;
use simcore::SimTime;

use crate::timeline::telemetry_series_path;
use crate::view::{load_trace, ClusterView, Health, MachineRow};

/// The dashboard: a [`ClusterView`] plus the rolling windows behind the
/// arrival-rate and sojourn readouts.
///
/// Per-machine energy is not part of the event vocabulary (the trace
/// carries only the fleet-cumulative meter on `control_interval_fired`),
/// so the energy panel shows the *fleet* rate — the derivative of that
/// meter across the last control interval.
#[derive(Debug)]
pub struct Dashboard {
    view: ClusterView,
    /// Arrival timestamps within the rolling window (front = oldest).
    arrivals: VecDeque<SimTime>,
    /// (completed_at, sojourn_secs) within the rolling window.
    sojourns: VecDeque<(SimTime, f64)>,
}

impl Dashboard {
    /// Width of the rolling window behind the arrivals/min and p95
    /// sojourn readouts. Long-running (open-stream) traces need a recency
    /// horizon or the readout degenerates into an all-time average.
    const ROLLING_WINDOW_S: f64 = 900.0;

    /// A dashboard over `view`; its machines are the frame's rows.
    pub fn new(view: ClusterView) -> Self {
        Dashboard {
            view,
            arrivals: VecDeque::new(),
            sojourns: VecDeque::new(),
        }
    }

    /// Drops rolling-window entries older than `at - ROLLING_WINDOW_S`.
    fn prune_window(&mut self, at: SimTime) {
        let horizon = at.as_secs_f64() - Self::ROLLING_WINDOW_S;
        while self
            .arrivals
            .front()
            .is_some_and(|t| t.as_secs_f64() < horizon)
        {
            self.arrivals.pop_front();
        }
        while self
            .sojourns
            .front()
            .is_some_and(|(t, _)| t.as_secs_f64() < horizon)
        {
            self.sojourns.pop_front();
        }
    }

    /// Folds one event into the dashboard state.
    pub fn apply(&mut self, at: SimTime, event: &SimEvent) {
        self.prune_window(at);
        if let SimEvent::JobSubmitted { .. } = event {
            self.arrivals.push_back(at);
        }
        if let Some(sojourn) = self.view.apply(at, event) {
            self.sojourns.push_back((at, sojourn));
        }
    }

    /// Job arrivals per minute over the rolling window ending at `at`.
    pub fn arrival_rate_per_min(&self, at: SimTime) -> f64 {
        let span = Self::ROLLING_WINDOW_S.min(at.as_secs_f64());
        if span <= 0.0 {
            return 0.0;
        }
        let horizon = at.as_secs_f64() - Self::ROLLING_WINDOW_S;
        let n = self
            .arrivals
            .iter()
            .filter(|t| t.as_secs_f64() >= horizon)
            .count();
        n as f64 * 60.0 / span
    }

    /// Rolling p95 job sojourn (nearest-rank, seconds) over completions in
    /// the window ending at `at`; 0 when no job completed in the window.
    pub fn rolling_p95_sojourn_s(&self, at: SimTime) -> f64 {
        let horizon = at.as_secs_f64() - Self::ROLLING_WINDOW_S;
        let mut xs: Vec<f64> = self
            .sojourns
            .iter()
            .filter(|(t, _)| t.as_secs_f64() >= horizon)
            .map(|&(_, s)| s)
            .collect();
        if xs.is_empty() {
            return 0.0;
        }
        xs.sort_by(f64::total_cmp);
        xs[(95 * xs.len()).div_ceil(100).max(1) - 1]
    }

    /// Above this fleet size, [`Dashboard::render`] collapses per-machine
    /// rows into one aggregate row per contiguous same-capacity group: a
    /// 1000-machine frame is unreadable (and unrenderable in a terminal)
    /// machine-by-machine, but the paper-style fleet of a few hardware
    /// groups compresses losslessly into a handful of rows.
    const GROUP_THRESHOLD: usize = 64;

    /// Renders one dashboard frame at simulated time `at`.
    pub fn render(&self, at: SimTime) -> String {
        let (cap_map, cap_reduce) = capacities(self.view.machines.values());
        let mut out = format!(
            "== t={:>7.1} s | jobs {:>3} | arr {:>5.2}/min | p95 {:>6.0} s | queue {:>5} | \
             maps {:>3}/{:<3} | reduces {:>2}/{:<2} | fleet {:>6.0} W ==\n",
            at.as_secs_f64(),
            self.view.active_jobs,
            self.arrival_rate_per_min(at),
            self.rolling_p95_sojourn_s(at),
            self.view.queue_depth,
            self.view.busy_map,
            cap_map,
            self.view.busy_reduce,
            cap_reduce,
            self.view.energy_rate_watts(),
        );
        if self.view.machines.len() > Self::GROUP_THRESHOLD {
            self.render_groups(&mut out);
        } else {
            for (machine, row) in &self.view.machines {
                let state = match (row.health, row.power) {
                    (Health::Dead, _) => "DEAD",
                    (Health::Blacklisted, _) => "BLACKLISTED",
                    (Health::Up, PowerState::Standby) => "standby",
                    (Health::Up, PowerState::Waking) => "waking",
                    (Health::Up, PowerState::Eco) => "eco",
                    (Health::Up, PowerState::Nominal) => "up",
                };
                out.push_str(&format!(
                    "  m{:02}  map {} {:>2}/{:<2}  red {} {:>2}/{:<2}  {}\n",
                    machine.index(),
                    bar(row.map.used.into(), row.map.capacity.into()),
                    row.map.used,
                    row.map.capacity,
                    bar(row.reduce.used.into(), row.reduce.capacity.into()),
                    row.reduce.used,
                    row.reduce.capacity,
                    state,
                ));
            }
        }
        out
    }

    /// One aggregate row per contiguous run of machines sharing a
    /// `(map, reduce)` slot capacity — the fleet builder lays hardware
    /// groups out contiguously, so these runs are exactly the machine
    /// groups. Bars show summed occupancy; the trailing status counts any
    /// machines that are not nominally up.
    fn render_groups(&self, out: &mut String) {
        let machines: Vec<_> = self.view.machines.iter().collect();
        let signature = |row: &MachineRow| (row.map.capacity, row.reduce.capacity);
        for run in machines.chunk_by(|(_, a), (_, b)| signature(a) == signature(b)) {
            let rows = || run.iter().map(|&(_, row)| row);
            let used_map: u64 = rows().map(|m| u64::from(m.map.used)).sum();
            let used_reduce: u64 = rows().map(|m| u64::from(m.reduce.used)).sum();
            let (cap_map, cap_reduce) = capacities(rows());
            let dead = rows().filter(|m| m.health == Health::Dead).count();
            let blacklisted = rows().filter(|m| m.health == Health::Blacklisted).count();
            let low_power = rows()
                .filter(|m| m.health == Health::Up && m.power != PowerState::Nominal)
                .count();
            let mut state = format!("{} up", run.len() - dead - blacklisted);
            for (n, label) in [
                (dead, "DEAD"),
                (blacklisted, "BLACKLISTED"),
                (low_power, "low-power"),
            ] {
                if n > 0 {
                    state.push_str(&format!(", {n} {label}"));
                }
            }
            out.push_str(&format!(
                "  m{:04}-m{:04} ({:>4}x)  map {} {:>5}/{:<5}  red {} {:>4}/{:<4}  {}\n",
                run[0].0.index(),
                run[run.len() - 1].0.index(),
                run.len(),
                bar(used_map, cap_map),
                used_map,
                cap_map,
                bar(used_reduce, cap_reduce),
                used_reduce,
                cap_reduce,
                state,
            ));
        }
    }
}

/// Summed `(map, reduce)` slot capacities of `rows`.
fn capacities<'a>(rows: impl Iterator<Item = &'a MachineRow>) -> (u64, u64) {
    rows.fold((0, 0), |(m, r), row| {
        (
            m + u64::from(row.map.capacity),
            r + u64::from(row.reduce.capacity),
        )
    })
}

/// Series the telemetry panel plots first, in this order, when the
/// sampled snapshot carries them. Everything else is summarized by count.
const FEATURED_SERIES: &[&str] = &[
    "cumulative_energy_joules",
    "queue_depth:p95",
    "task_duration_seconds{kind=map}:p95",
    "task_duration_seconds{kind=reduce}:p95",
    "events_total{type=task_started}",
    "events_total{type=job_completed}",
];

/// An ASCII sparkline of `values`, downsampled by bucket means to at most
/// `width` columns and scaled to the series' own min..max range.
fn sparkline(values: &[f64], width: usize) -> String {
    const LEVELS: &[u8] = b"_.:-=+*#";
    if values.is_empty() {
        return String::new();
    }
    let buckets: Vec<f64> = (0..width.min(values.len()))
        .map(|b| {
            let lo = b * values.len() / width.min(values.len());
            let hi = ((b + 1) * values.len() / width.min(values.len())).max(lo + 1);
            values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect();
    let (min, max) = buckets
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    buckets
        .iter()
        .map(|&v| {
            let t = if max > min {
                (v - min) / (max - min)
            } else {
                0.0
            };
            let idx = ((t * (LEVELS.len() - 1) as f64).round() as usize).min(LEVELS.len() - 1);
            LEVELS[idx] as char
        })
        .collect()
}

/// The telemetry panel: real sampled series (per control interval) from
/// the `<trace>.series.json` the trace run wrote, plotted as sparklines —
/// not re-derived from the events.
fn render_series(snapshot: &SeriesSnapshot) -> String {
    let mut out = String::new();
    let mut shown = 0usize;
    for name in FEATURED_SERIES {
        let Some(series) = snapshot.get(name) else {
            continue;
        };
        let values: Vec<f64> = series.iter().map(|(_, v)| v).collect();
        if values.is_empty() {
            continue;
        }
        out.push_str(&format!(
            "  {:<38} {:<40} last {:>10.1}\n",
            name,
            sparkline(&values, 40),
            values[values.len() - 1],
        ));
        shown += 1;
    }
    let total = snapshot.series.len();
    let header = format!(
        "telemetry — {} sampled series ({} plotted, {} more){}:\n",
        total,
        shown,
        total.saturating_sub(shown),
        if snapshot.dropped > 0 {
            format!("; {} series dropped at the cap", snapshot.dropped)
        } else {
            String::new()
        },
    );
    header + &out
}

/// Fixed-width occupancy bar, e.g. `[####----]`.
fn bar(used: u64, capacity: u64) -> String {
    const WIDTH: u64 = 8;
    let filled = if capacity == 0 {
        0
    } else {
        used.saturating_mul(WIDTH).div_ceil(capacity).min(WIDTH)
    };
    format!(
        "[{}{}]",
        "#".repeat(filled as usize),
        "-".repeat((WIDTH - filled) as usize)
    )
}

/// Replays the trace at `path` through a [`Dashboard`], emitting one frame
/// every `every_secs` of simulated time plus a final frame and footer at
/// the end of the run. With `every_secs <= 0` a sensible default of 12
/// frames across the run is used.
///
/// # Errors
///
/// Returns I/O or parse errors (with line numbers) from the trace.
pub fn run(path: &Path, every_secs: f64) -> Result<String, String> {
    let events = load_trace(path)?;
    let end = events[events.len() - 1].1;
    let every = if every_secs > 0.0 {
        every_secs
    } else {
        (end.as_secs_f64() / 12.0).max(1.0)
    };

    let mut dash = Dashboard::new(ClusterView::with_machines(
        events.iter().filter_map(|(_, _, event)| event.machine()),
    ));
    let mut out = format!(
        "watching {} — {} events, {} machines, one frame per {:.0} s simulated\n\n",
        path.display(),
        events.len(),
        dash.view.machines.len(),
        every,
    );
    let mut next_frame = every;
    let mut frames = 0usize;
    let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (_, at, event) in &events {
        // Frame boundaries are crossed *before* applying the event, so each
        // frame shows the state as of its timestamp, not one event later.
        while at.as_secs_f64() >= next_frame {
            out.push_str(&dash.render(SimTime::from_millis((next_frame * 1e3) as u64)));
            out.push('\n');
            frames += 1;
            next_frame += every;
        }
        *kinds.entry(event.kind()).or_default() += 1;
        dash.apply(*at, event);
    }
    out.push_str(&dash.render(end));
    frames += 1;
    out.push_str(&format!(
        "\n{} frames rendered; event mix: {}\n",
        frames,
        kinds
            .iter()
            .map(|(k, n)| format!("{k} x{n}"))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    // Plot the real sampled series when the trace run left them next to
    // the trace (best-effort: older traces have no series file).
    let series_path = telemetry_series_path(path);
    if let Ok(text) = std::fs::read_to_string(&series_path) {
        let snapshot =
            SeriesSnapshot::parse(&text).map_err(|e| format!("{}: {e}", series_path.display()))?;
        out.push('\n');
        out.push_str(&render_series(&snapshot));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::write_trace;

    #[test]
    fn occupancy_bar_shapes() {
        assert_eq!(bar(0, 8), "[--------]");
        assert_eq!(bar(8, 8), "[########]");
        assert_eq!(bar(1, 8), "[#-------]");
        assert_eq!(bar(0, 0), "[--------]");
    }

    #[test]
    fn dashboard_renders_frames_from_trace() {
        let dir = std::env::temp_dir().join("eant-watch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("watch-{}.jsonl", std::process::id()));
        write_trace(true, &path).unwrap();
        let out = run(&path, 0.0).unwrap();
        assert!(out.contains("frames rendered"), "{out}");
        assert!(out.contains("m00"), "{out}");
        assert!(out.contains("fleet"), "{out}");
        // The moderate-fault trace kills at least one machine at some point.
        assert!(
            out.contains("DEAD") || out.contains("machine_failed"),
            "{out}"
        );
        // The trace run wrote sampled series next to the trace; the
        // dashboard plots them instead of re-deriving.
        assert!(out.contains("telemetry — "), "{out}");
        assert!(out.contains("cumulative_energy_joules"), "{out}");
        std::fs::remove_file(crate::timeline::registry_snapshot_path(&path)).ok();
        std::fs::remove_file(crate::timeline::telemetry_series_path(&path)).ok();
        std::fs::remove_file(path).ok();
    }

    /// Folds canonical trace lines into `dash`.
    fn feed(dash: &mut Dashboard, lines: impl IntoIterator<Item = String>) {
        for line in lines {
            let (at, event) = metrics::trace::parse_trace_line(&line).unwrap();
            dash.apply(at, &event);
        }
    }

    fn occupancy(machine: usize, kind: &str, occupied: u32, capacity: u32) -> String {
        format!(
            r#"{{"at":0,"type":"slot_occupancy_changed","machine":{machine},"kind":"{kind}","occupied":{occupied},"capacity":{capacity}}}"#
        )
    }

    #[test]
    fn large_fleets_aggregate_rows_by_capacity_group() {
        // Two contiguous capacity groups: 80 machines with 2 map / 1 reduce
        // slots, then 20 with 4 / 2 — past the per-machine threshold.
        let mut dash = Dashboard::new(ClusterView::default());
        feed(
            &mut dash,
            (0..100usize).flat_map(|i| {
                let (cap_map, cap_reduce) = if i < 80 { (2, 1) } else { (4, 2) };
                [
                    occupancy(i, "map", u32::from(i % 2 == 0), cap_map),
                    occupancy(i, "reduce", 0, cap_reduce),
                ]
            }),
        );
        feed(
            &mut dash,
            [r#"{"at":0,"type":"machine_failed","machine":2,"attempts_lost":1}"#.to_owned()],
        );
        let out = dash.render(SimTime::from_secs(60));
        assert!(out.contains("m0000-m0079 (  80x)"), "{out}");
        assert!(out.contains("m0080-m0099 (  20x)"), "{out}");
        // 40 even-indexed machines held a map task; the dead one's count
        // was cleared on failure.
        assert!(out.contains("39/160"), "{out}");
        assert!(out.contains("79 up, 1 DEAD"), "{out}");
        // No per-machine rows at this scale.
        assert!(!out.contains("m00  map"), "{out}");
    }

    #[test]
    fn arrival_rate_and_rolling_p95_track_the_window() {
        use workload::JobId;

        let mut dash = Dashboard::new(ClusterView::default());
        // One arrival per minute; each job takes exactly 120 s, so the
        // completion of job i-2 lands at the same instant as arrival i.
        for i in 0..10u64 {
            let at = SimTime::from_secs(i * 60);
            if i >= 2 {
                dash.apply(at, &SimEvent::JobCompleted { job: JobId(i - 2) });
            }
            dash.apply(
                at,
                &SimEvent::JobSubmitted {
                    job: JobId(i),
                    tasks: 4,
                },
            );
        }
        let now = SimTime::from_secs(540);
        let rate = dash.arrival_rate_per_min(now);
        assert!((rate - 10.0 * 60.0 / 540.0).abs() < 1e-9, "{rate}");
        assert!(
            (dash.rolling_p95_sojourn_s(now) - 120.0).abs() < 1e-9,
            "{}",
            dash.rolling_p95_sojourn_s(now)
        );
        // The header surfaces both readouts.
        let frame = dash.render(now);
        assert!(frame.contains("arr "), "{frame}");
        assert!(frame.contains("p95 "), "{frame}");

        // Far beyond the window everything ages out: one fresh arrival in
        // a full window is 1/15 per minute, and no completions remain.
        dash.apply(
            SimTime::from_secs(10_000),
            &SimEvent::JobSubmitted {
                job: JobId(99),
                tasks: 4,
            },
        );
        let later = SimTime::from_secs(10_000);
        assert!(
            (dash.arrival_rate_per_min(later) - 60.0 / 900.0).abs() < 1e-9,
            "{}",
            dash.arrival_rate_per_min(later)
        );
        assert_eq!(dash.rolling_p95_sojourn_s(later), 0.0);
    }

    #[test]
    fn small_fleets_keep_per_machine_rows() {
        use cluster::MachineId;

        let mut dash = Dashboard::new(ClusterView::with_machines((0..3).map(MachineId)));
        feed(&mut dash, [occupancy(1, "map", 2, 4)]);
        let out = dash.render(SimTime::from_secs(5));
        assert!(out.contains("m00"), "{out}");
        assert!(out.contains("m01"), "{out}");
        assert!(out.contains("m02"), "{out}");
    }

    #[test]
    fn rejects_garbage_inputs() {
        let dir = std::env::temp_dir().join(format!("eant-watch-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        std::fs::write(&path, "").unwrap();
        assert!(run(&path, 0.0).is_err());
        // A machine id far past any fleet costs one row, not one per id.
        std::fs::write(
            &path,
            format!("{}\n", occupancy(1_000_000_000_000, "map", 1, 2)),
        )
        .unwrap();
        let out = run(&path, 0.0).unwrap();
        assert!(out.contains("1 machines"), "{out}");
        assert!(out.contains("m1000000000000"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
