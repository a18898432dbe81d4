//! The trace tools' shared reader and fold. `--replay`, `watch`, `explain`
//! and `trace-diff` read files through [`load_trace`]; `timeline`, `watch`
//! and `explain` render the cluster state one [`ClusterView`] folds from the
//! event stream, and keep only what they alone read.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::Path;

use cluster::{MachineId, SlotKind};
use hadoop_sim::trace::Observer;
use hadoop_sim::{PowerState, SimEvent};
use metrics::trace::read_trace_lines;
use simcore::SimTime;
use workload::JobId;

/// One parsed trace line: its 1-based line number, timestamp and event.
pub type TraceLine = (usize, SimTime, SimEvent);

/// Reads the JSONL trace at `path`.
///
/// # Errors
///
/// Every error names `path`: the file cannot be opened, a line does not
/// parse (with its line number and snippet), the trace holds no event, or
/// a timestamp moves backwards.
pub fn load_trace(path: &Path) -> Result<Vec<TraceLine>, String> {
    let file =
        std::fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let events =
        read_trace_lines(BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))?;
    if events.is_empty() {
        return Err(format!("{}: trace is empty", path.display()));
    }
    if let Some(pair) = events.windows(2).find(|pair| pair[1].1 < pair[0].1) {
        return Err(format!(
            "{}: line {}: timestamp moved backwards",
            path.display(),
            pair[1].0
        ));
    }
    Ok(events)
}

/// Machine availability as the fault events report it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Accepting work.
    Up,
    /// Declared dead by heartbeat expiry, until it recovers.
    Dead,
    /// Excluded from assignment for repeated task failures.
    Blacklisted,
}

/// One slot pool (map or reduce) of a machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pool {
    /// Occupied slots.
    pub used: u32,
    /// Total slots, as the last occupancy event reported them.
    pub capacity: u32,
    /// When `used` last changed.
    since: SimTime,
}

/// The folded state of one machine.
#[derive(Debug)]
pub struct MachineRow {
    /// The map slot pool.
    pub map: Pool,
    /// The reduce slot pool.
    pub reduce: Pool,
    /// Power or frequency state.
    pub power: PowerState,
    /// Availability.
    pub health: Health,
    /// Whether an occupancy event has reported this machine's capacities.
    pub slots_reported: bool,
    /// Occupied slot-seconds of both pools, up to each pool's `since`.
    busy_slot_s: f64,
}

impl MachineRow {
    fn new() -> Self {
        MachineRow {
            map: Pool::default(),
            reduce: Pool::default(),
            power: PowerState::Nominal,
            health: Health::Up,
            slots_reported: false,
            busy_slot_s: 0.0,
        }
    }

    /// Occupied slot-seconds of both pools from the start of the stream
    /// to `end`.
    pub fn busy_slot_seconds(&self, end: SimTime) -> f64 {
        self.busy_slot_s
            + f64::from(self.reduce.used) * (end - self.reduce.since).as_secs_f64()
            + f64::from(self.map.used) * (end - self.map.since).as_secs_f64()
    }

    /// Whether the machine is suspended or booting back up.
    fn standby(&self) -> bool {
        matches!(self.power, PowerState::Standby | PowerState::Waking)
    }
}

/// Cluster state folded from the event stream by [`ClusterView::apply`].
/// Its fields are the fold's output; only `apply` writes them.
#[derive(Debug, Default)]
pub struct ClusterView {
    /// A row per machine whose slots, power or health an event reported
    /// (or that [`ClusterView::with_machines`] listed), so no event can make
    /// the view allocate by machine id.
    pub machines: BTreeMap<MachineId, MachineRow>,
    /// Fleet-wide occupied map slots.
    pub busy_map: u64,
    /// Fleet-wide occupied reduce slots.
    pub busy_reduce: u64,
    /// Machines suspended or booting back up.
    pub standby: u64,
    /// Cluster-wide pending tasks at the last heartbeat.
    pub queue_depth: u64,
    /// Jobs submitted and not yet completed.
    pub active_jobs: u64,
    /// Submission time of every in-flight job.
    pub submits: BTreeMap<JobId, SimTime>,
    /// The latest fleet energy meter reading in joules: the run footer's
    /// total, else the last control tick's.
    pub metered_joules: Option<f64>,
    /// `(at, joules)` of the last two control-interval meter readings.
    energy_marks: [(SimTime, f64); 2],
}

impl ClusterView {
    /// A view with a row for each of `machines` from the start, so a
    /// renderer shows them before their first event.
    pub fn with_machines(machines: impl IntoIterator<Item = MachineId>) -> Self {
        ClusterView {
            machines: machines
                .into_iter()
                .map(|m| (m, MachineRow::new()))
                .collect(),
            ..ClusterView::default()
        }
    }

    fn row_mut(&mut self, machine: MachineId) -> &mut MachineRow {
        self.machines.entry(machine).or_insert_with(MachineRow::new)
    }

    /// Sets one pool's occupied slots at `at`, integrating the busy time
    /// of the previous count and moving the fleet-wide total.
    fn occupy(
        &mut self,
        machine: MachineId,
        kind: SlotKind,
        used: u32,
        at: SimTime,
    ) -> &mut MachineRow {
        let row = self.machines.entry(machine).or_insert_with(MachineRow::new);
        let (pool, total) = match kind {
            SlotKind::Map => (&mut row.map, &mut self.busy_map),
            SlotKind::Reduce => (&mut row.reduce, &mut self.busy_reduce),
        };
        row.busy_slot_s += f64::from(pool.used) * (at - pool.since).as_secs_f64();
        *total = *total + u64::from(used) - u64::from(pool.used);
        pool.used = used;
        pool.since = at;
        row
    }

    /// Folds one event into the view. Returns the sojourn in seconds of
    /// the job a `job_completed` event finished, when its submission is in
    /// the stream.
    pub fn apply(&mut self, at: SimTime, event: &SimEvent) -> Option<f64> {
        match event {
            SimEvent::JobSubmitted { job, .. } => {
                self.active_jobs += 1;
                self.submits.insert(*job, at);
            }
            SimEvent::JobCompleted { job } => {
                self.active_jobs = self.active_jobs.saturating_sub(1);
                let submitted = self.submits.remove(job)?;
                return Some((at - submitted).as_secs_f64());
            }
            SimEvent::SlotOccupancyChanged {
                machine,
                kind,
                occupied,
                capacity,
            } => {
                let row = self.occupy(*machine, *kind, *occupied, at);
                row.slots_reported = true;
                match kind {
                    SlotKind::Map => row.map.capacity = *capacity,
                    SlotKind::Reduce => row.reduce.capacity = *capacity,
                }
            }
            SimEvent::PowerStateChanged { machine, state } => {
                let row = self.row_mut(*machine);
                let was = row.standby();
                row.power = *state;
                let now = row.standby();
                self.standby = self.standby + u64::from(now) - u64::from(was);
            }
            SimEvent::MachineFailed { machine, .. } => {
                self.occupy(*machine, SlotKind::Map, 0, at);
                self.occupy(*machine, SlotKind::Reduce, 0, at).health = Health::Dead;
            }
            SimEvent::MachineRecovered { machine } => self.row_mut(*machine).health = Health::Up,
            SimEvent::MachineBlacklisted { machine, .. } => {
                self.row_mut(*machine).health = Health::Blacklisted;
            }
            SimEvent::HeartbeatDrained { pending_total, .. } => self.queue_depth = *pending_total,
            SimEvent::ControlIntervalFired {
                cumulative_energy_joules,
                ..
            } => {
                self.energy_marks = [self.energy_marks[1], (at, *cumulative_energy_joules)];
                self.metered_joules = Some(*cumulative_energy_joules);
            }
            SimEvent::RunFinished {
                total_energy_joules,
                ..
            } => self.metered_joules = Some(*total_energy_joules),
            _ => {}
        }
        None
    }

    /// Fleet power draw over the last completed control interval, in
    /// watts; 0 before the first interval.
    pub fn energy_rate_watts(&self) -> f64 {
        let [(t0, e0), (t1, e1)] = self.energy_marks;
        let dt = (t1 - t0).as_secs_f64();
        if dt <= 0.0 {
            return 0.0;
        }
        (e1 - e0) / dt
    }
}

impl Observer<SimEvent> for ClusterView {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        self.apply(at, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_slots_power_health_jobs_and_energy() {
        let mut view = ClusterView::default();
        let sojourns: Vec<_> = [
            r#"{"at":0,"type":"job_submitted","job":4,"tasks":2}"#,
            r#"{"at":0,"type":"slot_occupancy_changed","machine":3,"kind":"map","occupied":2,"capacity":4}"#,
            r#"{"at":1000,"type":"slot_occupancy_changed","machine":7,"kind":"reduce","occupied":1,"capacity":2}"#,
            r#"{"at":2000,"type":"power_state_changed","machine":9,"state":"standby"}"#,
            r#"{"at":3000,"type":"power_state_changed","machine":9,"state":"waking"}"#,
            r#"{"at":4000,"type":"machine_failed","machine":3,"attempts_lost":2}"#,
            r#"{"at":5000,"type":"machine_blacklisted","machine":7,"failures":3}"#,
            r#"{"at":6000,"type":"job_completed","job":4}"#,
            r#"{"at":6000,"type":"job_completed","job":5}"#,
            r#"{"at":60000,"type":"control_interval_fired","index":0,"cumulative_energy_joules":6000.0}"#,
            r#"{"at":120000,"type":"control_interval_fired","index":1,"cumulative_energy_joules":18000.0}"#,
            r#"{"at":130000,"type":"run_finished","drained":true,"total_energy_joules":19000.0,"total_tasks":0}"#,
        ]
        .iter()
        .map(|line| {
            let (at, event) = metrics::trace::parse_trace_line(line).unwrap();
            view.apply(at, &event)
        })
        .collect();
        assert_eq!(sojourns.iter().flatten().collect::<Vec<_>>(), [&6.0]);
        assert_eq!(
            view.machines.keys().map(|m| m.index()).collect::<Vec<_>>(),
            [3, 7, 9]
        );
        // The dead machine's two map slots were released with it.
        assert_eq!((view.busy_map, view.busy_reduce, view.standby), (0, 1, 1));
        assert_eq!(view.active_jobs, 0);
        let dead = &view.machines[&MachineId(3)];
        assert_eq!(
            (dead.health, dead.map.used, dead.map.capacity),
            (Health::Dead, 0, 4)
        );
        // Two map slots for the 4 s before the failure.
        assert_eq!(dead.busy_slot_seconds(SimTime::from_secs(10)), 8.0);
        let listed = &view.machines[&MachineId(7)];
        assert_eq!(listed.health, Health::Blacklisted);
        assert_eq!(listed.busy_slot_seconds(SimTime::from_secs(10)), 9.0);
        assert!(!view.machines[&MachineId(9)].slots_reported);
        // The footer is the meter, but the rate stays the last interval's.
        assert_eq!(view.energy_rate_watts(), 200.0);
        assert_eq!(view.metered_joules, Some(19000.0));
    }
}
