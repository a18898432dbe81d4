//! Property-based tests over the core data structures and cross-crate
//! invariants, driven by in-repo [`SimRng`] generators.
//!
//! The workspace builds hermetically (no registry access), so instead of
//! `proptest` each property runs a fixed number of generated cases from a
//! deterministic seed tree: case `i` of property `p` draws from
//! `SimRng::seed_from(PROPERTY_SEED).fork_index(p, i)`. Failures therefore
//! reproduce exactly — the panic message names the property and case index,
//! and re-running the test replays the identical inputs.

use std::collections::BTreeMap;

use cluster::hdfs::{locality, BlockPlacer, Locality};
use cluster::{profiles, Fleet, MachineId};
use eant::{
    heuristic, EnergyModel, ExchangeStrategy, PheromoneTable, TaskAnalyzer, TaskEnergyRecord,
};
use hadoop_sim::{
    Engine, EngineConfig, GreedyScheduler, NoiseConfig, PendingMaps, PowerDownConfig,
    SpeculationPolicy,
};
use simcore::{EventQueue, SimRng, SimTime};
use workload::{Benchmark, BenchmarkKind, GroupId, JobId, JobSpec};

/// Root seed of every property's case tree. Changing it reshuffles all
/// generated inputs at once.
const PROPERTY_SEED: u64 = 0xE0A7;

/// Runs `cases` generated cases of a property, replaying deterministically
/// and naming the failing case.
fn check(name: &str, cases: usize, case: impl Fn(&mut SimRng)) {
    for i in 0..cases {
        let mut rng = SimRng::seed_from(PROPERTY_SEED).fork_index(name, i);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng)));
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            panic!("property `{name}` failed on case {i}/{cases}: {msg}");
        }
    }
}

fn f64_vec(rng: &mut SimRng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.uniform_range(lo, hi)).collect()
}

/// Pheromone values stay within [tau_min, tau_max] for any deposit
/// pattern, with or without negative feedback.
#[test]
fn pheromone_bounds_hold() {
    check("pheromone_bounds_hold", 256, |rng| {
        let jobs = rng.uniform_u64(1, 5) as usize;
        let deposits: Vec<Vec<f64>> = (0..jobs).map(|_| f64_vec(rng, 4, -1.0e6, 1.0e6)).collect();
        let rho = rng.uniform_range(0.01, 1.0);
        let negative = rng.chance(0.5);
        let mut table = PheromoneTable::new(4, 1.0, 0.05, 100.0);
        let map: BTreeMap<JobId, Vec<f64>> = deposits
            .into_iter()
            .enumerate()
            .map(|(i, d)| (JobId(i as u64), d))
            .collect();
        table.apply_deposits(&map, rho, negative);
        for &job in map.keys() {
            for m in 0..4 {
                let tau = table.get(job, MachineId(m));
                assert!((0.05..=100.0).contains(&tau), "tau = {tau}");
            }
        }
    });
}

/// Eq. 3 probabilities always form a distribution.
#[test]
fn pheromone_probabilities_sum_to_one() {
    check("pheromone_probabilities_sum_to_one", 256, |rng| {
        let deposits = f64_vec(rng, 8, 0.0, 1.0e4);
        let rho = rng.uniform_range(0.01, 1.0);
        let mut table = PheromoneTable::new(8, 1.0, 0.05, 1.0e4);
        let mut map = BTreeMap::new();
        map.insert(JobId(0), deposits);
        table.apply_deposits(&map, rho, true);
        let p = table.probabilities(JobId(0));
        let total: f64 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
        assert!(p.iter().all(|&x| x > 0.0));
    });
}

/// Events always pop in nondecreasing time order.
#[test]
fn event_queue_is_monotone() {
    check("event_queue_is_monotone", 256, |rng| {
        let n = rng.uniform_u64(1, 99) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.uniform_u64(0, 999_999)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last);
            last = at;
        }
    });
}

/// The calendar-wheel [`EventQueue`] pops the exact sequence the reference
/// `BinaryHeap` future-event list would, for random interleavings of
/// schedules and pops — including same-timestamp ties (FIFO stability),
/// schedule-at-now reactions, and far-future events that cross the wheel's
/// overflow horizon in both directions.
#[test]
fn calendar_queue_matches_heap_oracle() {
    /// The pre-calendar implementation, kept as the ordering oracle:
    /// a min-heap on (timestamp, global insertion sequence).
    #[derive(Default)]
    struct HeapOracle {
        heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64, usize)>>,
        seq: u64,
    }
    impl HeapOracle {
        fn schedule(&mut self, at: SimTime, event: usize) {
            self.heap.push(std::cmp::Reverse((at, self.seq, event)));
            self.seq += 1;
        }
        fn pop(&mut self) -> Option<(SimTime, usize)> {
            let std::cmp::Reverse((at, _, event)) = self.heap.pop()?;
            Some((at, event))
        }
    }

    check("calendar_queue_matches_heap_oracle", 128, |rng| {
        let mut q = EventQueue::new();
        let mut oracle = HeapOracle::default();
        let mut now = SimTime::ZERO;
        let ops = rng.uniform_u64(1, 400) as usize;
        for i in 0..ops {
            if rng.chance(0.6) || q.is_empty() {
                // Mix near-future (wheel), same-instant (fires now) and
                // far-future (overflow heap) timestamps; never earlier
                // than `now`, which the queue's contract forbids.
                let offset = if rng.chance(0.05) {
                    0
                } else if rng.chance(0.15) {
                    rng.uniform_u64(600_000, 7_200_000) // beyond the wheel horizon
                } else {
                    rng.uniform_u64(0, 30_000)
                };
                let at = now + simcore::SimDuration::from_millis(offset);
                q.schedule(at, i);
                oracle.schedule(at, i);
            } else {
                let got = q.pop();
                let want = oracle.pop();
                assert_eq!(got, want, "pop {i} diverged from the heap oracle");
                if let Some((at, _)) = got {
                    now = at;
                }
            }
            assert_eq!(q.len(), oracle.heap.len());
        }
        let mut drained = 0u32;
        loop {
            let got = q.pop();
            let want = oracle.pop();
            assert_eq!(got, want, "drain pop {drained} diverged from the oracle");
            if got.is_none() {
                break;
            }
            drained += 1;
        }
    });
}

/// [`TaskArena`] behaves exactly like a per-task `BTreeMap` attempt
/// registry plus a failure-count map — attempt slices in launch order,
/// liveness, failure counters and the in-flight listing — under random
/// interleavings of attempt starts, single completions, failure bumps and
/// crash-style bulk removals of every attempt on one machine (the
/// `declare_dead` path).
#[test]
fn arena_task_state_matches_per_task_oracle() {
    use cluster::SlotKind;
    use hadoop_sim::{TaskArena, MAX_ATTEMPTS};
    use workload::{TaskId, TaskIndex};

    check("arena_task_state_matches_per_task_oracle", 128, |rng| {
        let jobs = rng.uniform_u64(1, 6) as usize;
        let mut arena = TaskArena::default();
        let mut tasks: Vec<TaskId> = Vec::new();
        for j in 0..jobs {
            let maps = rng.uniform_u64(1, 8) as u32;
            let reduces = rng.uniform_u64(0, 4) as u32;
            for index in 0..maps {
                tasks.push(TaskId {
                    job: JobId(j as u64),
                    task: TaskIndex {
                        kind: SlotKind::Map,
                        index,
                    },
                });
            }
            for index in 0..reduces {
                tasks.push(TaskId {
                    job: JobId(j as u64),
                    task: TaskIndex {
                        kind: SlotKind::Reduce,
                        index,
                    },
                });
            }
        }
        let machines = 8u64;
        // The oracle: an attempt registry keyed by task with machine-match
        // removal, and a separate failed-attempt counter map.
        let mut attempts: BTreeMap<TaskId, Vec<(MachineId, SimTime)>> = BTreeMap::new();
        let mut failures: BTreeMap<TaskId, u32> = BTreeMap::new();
        let mut now = SimTime::ZERO;
        let ops = rng.uniform_u64(1, 200) as usize;
        for _ in 0..ops {
            now += simcore::SimDuration::from_millis(rng.uniform_u64(0, 5_000));
            let t = tasks[rng.uniform_u64(0, tasks.len() as u64 - 1) as usize];
            let draw = rng.uniform_u64(0, 99);
            if draw < 45 {
                // Attempt start. The engine launches at most MAX_ATTEMPTS
                // concurrent copies and never two on one machine
                // (speculation skips the original's host).
                let m = MachineId(rng.uniform_u64(0, machines - 1) as usize);
                let list = attempts.entry(t).or_default();
                if list.len() < MAX_ATTEMPTS && list.iter().all(|&(held, _)| held != m) {
                    list.push((m, now));
                    arena.push_attempt(t, m, now);
                }
                if list.is_empty() {
                    attempts.remove(&t);
                }
            } else if draw < 75 {
                // Completion or single failure: removal by machine match,
                // tolerating machines that run nothing of this task.
                let m = MachineId(rng.uniform_u64(0, machines - 1) as usize);
                arena.remove_attempt(t, m);
                if let Some(list) = attempts.get_mut(&t) {
                    list.retain(|&(held, _)| held != m);
                    if list.is_empty() {
                        attempts.remove(&t);
                    }
                }
            } else if draw < 90 {
                arena.record_failure(t);
                *failures.entry(t).or_insert(0) += 1;
            } else {
                // Crash: every attempt on one machine dies at once, like
                // `declare_dead` draining a machine's in-flight registry.
                let m = MachineId(rng.uniform_u64(0, machines - 1) as usize);
                let doomed: Vec<TaskId> = attempts
                    .iter()
                    .filter(|(_, list)| list.iter().any(|&(held, _)| held == m))
                    .map(|(&t, _)| t)
                    .collect();
                for t in doomed {
                    arena.remove_attempt(t, m);
                    arena.record_failure(t);
                    *failures.entry(t).or_insert(0) += 1;
                    let list = attempts.get_mut(&t).expect("doomed task tracked");
                    list.retain(|&(held, _)| held != m);
                    if list.is_empty() {
                        attempts.remove(&t);
                    }
                }
            }
            // Full-state comparison after every op.
            for &t in &tasks {
                let want: &[(MachineId, SimTime)] =
                    attempts.get(&t).map_or(&[], |list| list.as_slice());
                assert_eq!(arena.attempts(t), want, "attempts of {t} diverged");
                assert_eq!(arena.has_live_attempt(t), !want.is_empty());
                assert_eq!(arena.failures(t), failures.get(&t).copied().unwrap_or(0));
            }
            let want_inflight: Vec<(TaskId, &[(MachineId, SimTime)])> = attempts
                .iter()
                .map(|(&t, list)| (t, list.as_slice()))
                .collect();
            let mut listed: Vec<(TaskId, &[(MachineId, SimTime)])> = arena.inflight().collect();
            listed.sort();
            assert_eq!(listed, want_inflight, "in-flight listing diverged");
        }
    });
}

/// [`hadoop_sim::fold_starts`] keeps exactly the nonzero cells of the dense
/// per-job, per-machine count rows the engine used to accumulate, in
/// ascending job and machine order, packed at 8 bytes a cell into boxed
/// arrays of exact length; `iter`, `values` and `get` read them back, and
/// a result built from the packed rows renders byte for byte as the dense
/// rows did. Random fleets and start logs cover repeated pairs, the first
/// and last machine, many jobs, job and machine ids at the top of the
/// 32-bit range, a log reused across intervals and intervals with no start
/// at all.
#[test]
fn interval_rows_match_dense_oracle() {
    use std::mem::size_of;

    use hadoop_sim::{
        fold_starts, Assignments, IntervalSnapshot, MachineOutcome, RunResult, StartCell, StartLog,
    };
    use metrics::emit::{run_result_json, JsonValue, ToJson};
    use simcore::series::TimeSeries;
    use simcore::SimDuration;

    assert_eq!(
        size_of::<StartCell>(),
        8,
        "a cell is a packed machine and count"
    );
    // Two boxed slices and no spare capacity: each array is exactly as
    // long as its rows or cells.
    assert_eq!(size_of::<Assignments>(), 4 * size_of::<usize>());

    check("interval_rows_match_dense_oracle", 128, |rng| {
        let machines = rng.uniform_u64(1, 40) as usize;
        let jobs = rng.uniform_u64(1, 60);
        // Half the cases use the top of the 32-bit job range the log
        // packs, and half, independently, the top of the machine range.
        let first_job = if rng.chance(0.5) {
            0
        } else {
            u64::from(u32::MAX) + 1 - jobs
        };
        let first_machine = if rng.chance(0.5) {
            0
        } else {
            u32::MAX as usize + 1 - machines
        };
        let mut log = StartLog::default();
        let mut intervals = Vec::new();
        let mut rendered = Vec::new();
        for i in 0..rng.uniform_u64(1, 6) {
            let starts = if rng.chance(0.2) {
                0
            } else {
                rng.uniform_u64(1, 300)
            };
            // The oracle: the dense row accumulation the engine replaced,
            // indexed by machine offset from `first_machine`.
            let mut dense: BTreeMap<JobId, Vec<u64>> = BTreeMap::new();
            for _ in 0..starts {
                let job = JobId(first_job + rng.uniform_u64(0, jobs - 1));
                let offset = match rng.uniform_u64(0, 3) {
                    0 => 0,
                    1 => machines - 1,
                    _ => rng.uniform_u64(0, machines as u64 - 1) as usize,
                };
                log.push(job, MachineId(first_machine + offset))
                    .expect("32-bit ids fit the log");
                dense.entry(job).or_insert_with(|| vec![0; machines])[offset] += 1;
            }
            // An id beyond 32 bits is refused and logs nothing.
            let logged = log.len();
            assert!(log.push(JobId(1 << 32), MachineId(0)).is_err());
            assert!(log.push(JobId(0), MachineId(1 << 32)).is_err());
            assert_eq!(log.len(), logged);
            let rows = fold_starts(&mut log);
            assert!(log.is_empty(), "the fold must empty the start log");

            let want: Vec<(JobId, Vec<StartCell>)> = dense
                .iter()
                .map(|(&job, row)| {
                    let cells = row.iter().enumerate().filter(|&(_, &n)| n > 0);
                    let cells = cells.map(|(offset, &n)| StartCell {
                        machine: (first_machine + offset) as u32,
                        starts: n as u32,
                    });
                    (job, cells.collect())
                })
                .collect();
            let got: Vec<(JobId, Vec<StartCell>)> =
                rows.iter().map(|(job, row)| (job, row.to_vec())).collect();
            assert_eq!(got, want, "interval {i}");
            assert_eq!(rows.len(), want.len(), "interval {i}");
            assert_eq!(rows.is_empty(), want.is_empty(), "interval {i}");
            let values: Vec<&[StartCell]> = rows.values().collect();
            let want_values: Vec<&[StartCell]> = want.iter().map(|(_, row)| &row[..]).collect();
            assert_eq!(values, want_values, "interval {i}");
            for (job, row) in &want {
                assert_eq!(rows.get(*job), Some(&row[..]), "interval {i}, {job}");
            }
            for job in [first_job + jobs, 1 << 32, u64::MAX] {
                if !dense.contains_key(&JobId(job)) {
                    assert_eq!(rows.get(JobId(job)), None, "interval {i}, job {job}");
                }
            }
            let collected: Assignments = dense
                .iter()
                .map(|(&job, row)| {
                    let cells = row.iter().enumerate().filter(|&(_, &n)| n > 0);
                    (
                        job,
                        cells.map(|(offset, &n)| (MachineId(first_machine + offset), n)),
                    )
                })
                .collect();
            assert_eq!(collected, rows, "interval {i}: collect and fold disagree");

            let at = SimTime::from_secs(300 * (i + 1));
            let energy = rng.uniform_range(0.0, 1.0e9);
            let dense_rows: Vec<String> = dense
                .iter()
                .map(|(job, row)| {
                    let counts: Vec<String> = row.iter().map(u64::to_string).collect();
                    format!(r#""{}":[{}]"#, job.0, counts.join(","))
                })
                .collect();
            rendered.push(format!(
                r#"{{"at":{},"cumulative_energy_joules":{},"assignments":{{{}}}}}"#,
                at.to_json().render(),
                JsonValue::Num(energy).render(),
                dense_rows.join(",")
            ));
            intervals.push(IntervalSnapshot {
                at,
                cumulative_energy_joules: energy,
                assignments: rows,
            });
        }
        // A dense row has one count per machine of the fleet, so only a
        // fleet that starts at machine 0 renders.
        if first_machine != 0 {
            return;
        }
        let run = RunResult {
            scheduler: "oracle".into(),
            makespan: SimDuration::from_secs(1),
            drained: true,
            groups: Vec::new(),
            jobs: Vec::new(),
            machines: (0..machines)
                .map(|m| MachineOutcome {
                    machine: MachineId(m),
                    profile: "Atom".into(),
                    energy_joules: 0.0,
                    idle_joules: 0.0,
                    workload_joules: 0.0,
                    mean_utilization: 0.0,
                    map_tasks: 0,
                    reduce_tasks: 0,
                    tasks_by_benchmark: BTreeMap::new(),
                })
                .collect(),
            intervals,
            energy_series: TimeSeries::new("energy"),
            total_tasks: 0,
            speculative_attempts: 0,
            wasted_attempts: 0,
            task_failures: 0,
            machine_failures: 0,
            map_outputs_lost: 0,
            machines_blacklisted: 0,
            service: None,
        };
        let json = run_result_json(&run);
        let want = format!(r#""intervals":[{}],"energy_series""#, rendered.join(","));
        assert!(
            json.contains(&want),
            "sparse rows render differently from the dense rows:\n{json}\nwant {want}"
        );
    });
}

/// The fairness heuristic is finite, positive, and monotone in the
/// deficit.
#[test]
fn fairness_heuristic_is_sane() {
    check("fairness_heuristic_is_sane", 256, |rng| {
        let min_share = rng.uniform_range(0.0, 200.0);
        let occupied = rng.uniform_u64(0, 499) as u32;
        let pool = rng.uniform_u64(1, 499) as usize;
        let eta = heuristic::fairness(min_share, occupied, pool);
        assert!(eta.is_finite() && eta > 0.0, "eta = {eta}");
        // One more occupied slot can never raise the priority.
        let eta_more = heuristic::fairness(min_share, occupied + 1, pool);
        assert!(eta_more <= eta + 1e-12);
    });
}

/// Eq. 2 estimates are non-negative and monotone in utilization.
#[test]
fn energy_model_is_monotone() {
    check("energy_model_is_monotone", 256, |rng| {
        let idle = rng.uniform_range(0.0, 200.0);
        let alpha = rng.uniform_range(0.0, 200.0);
        let slots = rng.uniform_u64(1, 11) as usize;
        let u1 = rng.uniform_f64();
        let u2 = rng.uniform_f64();
        let dur = rng.uniform_range(0.0, 10_000.0);
        let model = EnergyModel::new(idle, alpha, slots);
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        let e_lo = model.estimate_mean(lo, dur);
        let e_hi = model.estimate_mean(hi, dur);
        assert!(e_lo >= 0.0);
        assert!(e_hi >= e_lo - 1e-9);
    });
}

/// Block placement never duplicates replicas and never exceeds the
/// fleet.
#[test]
fn block_placement_is_valid() {
    check("block_placement_is_valid", 128, |rng| {
        let seed = rng.next_u64();
        let count = rng.uniform_u64(1, 49) as usize;
        let fleet = Fleet::paper_evaluation();
        let mut placer = BlockPlacer::new(3);
        let mut block_rng = SimRng::seed_from(seed);
        for block in placer.place(&fleet, count, &mut block_rng) {
            assert!(!block.replicas.is_empty());
            assert!(block.replicas.len() <= 3);
            let mut seen = block.replicas.clone();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), block.replicas.len());
            assert!(block.replicas.iter().all(|m| m.index() < fleet.len()));
        }
    });
}

/// The flat locality index answers exactly what a scan would: under any
/// sequence of takes and returns on any fleet shape, the best pending-map
/// locality on every machine equals the fold of [`locality`] over the
/// pending blocks, and a take hands out a block of that class. Every case
/// also drains the job (freeing the index) and returns maps afterwards.
#[test]
fn locality_index_matches_pending_scan() {
    fn rank(l: Locality) -> u8 {
        match l {
            Locality::NodeLocal => 0,
            Locality::RackLocal => 1,
            Locality::Remote => 2,
        }
    }
    fn assert_matches_scan(fleet: &Fleet, maps: &PendingMaps, step: usize) {
        for m in fleet.ids() {
            let scan = maps
                .pending()
                .iter()
                .map(|&idx| locality(fleet, maps.replicas(idx), m))
                .min_by_key(|&l| rank(l));
            assert_eq!(
                maps.best_map_locality(fleet, m),
                scan,
                "step {step}, machine {m:?}"
            );
        }
    }
    check("locality_index_matches_pending_scan", 96, |rng| {
        let machines = rng.uniform_u64(1, 40) as usize;
        let rack_size = rng.uniform_u64(1, 12) as usize;
        let fleet = Fleet::builder()
            .add(profiles::desktop(), machines)
            .rack_size(rack_size)
            .build()
            .unwrap();
        let replication = rng.uniform_u64(1, 4) as usize;
        let blocks = rng.uniform_u64(1, 30) as u32;
        let mut placer = BlockPlacer::new(replication);
        let mut maps = PendingMaps::place(&fleet, blocks, &mut placer, rng);
        let mut taken: Vec<u32> = Vec::new();
        assert_matches_scan(&fleet, &maps, 0);
        for step in 1..=80 {
            if !taken.is_empty() && (maps.is_empty() || rng.chance(0.35)) {
                let i = rng.uniform_u64(0, taken.len() as u64 - 1) as usize;
                maps.return_map(&fleet, taken.swap_remove(i));
            } else {
                let m = MachineId(rng.uniform_u64(0, machines as u64 - 1) as usize);
                let best = maps.best_map_locality(&fleet, m);
                let (idx, loc) = maps.take_map_for(&fleet, m).expect("a map is pending");
                assert_eq!(Some(loc), best, "step {step}: take class");
                assert_eq!(locality(&fleet, maps.replicas(idx), m), loc);
                taken.push(idx);
            }
            assert_matches_scan(&fleet, &maps, step);
        }
        // Drain (freeing the index), then return maps into the freed index.
        while let Some((idx, _)) = maps.take_map_for(&fleet, MachineId(0)) {
            taken.push(idx);
        }
        assert_eq!(taken.len(), blocks as usize);
        assert_matches_scan(&fleet, &maps, 81);
        for step in 82..82 + taken.len().min(3) {
            maps.return_map(&fleet, taken.pop().unwrap());
            assert_matches_scan(&fleet, &maps, step);
        }
    });
}

/// The analyzer's deposits are non-negative and only land on machines
/// that (transitively, via exchange groups) saw tasks.
#[test]
fn analyzer_deposits_are_nonnegative() {
    check("analyzer_deposits_are_nonnegative", 256, |rng| {
        let n = rng.uniform_u64(1, 39) as usize;
        let energies = f64_vec(rng, n, 1.0, 10_000.0);
        let exchange = [
            ExchangeStrategy::None,
            ExchangeStrategy::MachineLevel,
            ExchangeStrategy::JobLevel,
            ExchangeStrategy::Both,
        ][rng.uniform_u64(0, 3) as usize];
        let mut analyzer = TaskAnalyzer::new(4);
        for (i, &e) in energies.iter().enumerate() {
            analyzer.record(TaskEnergyRecord {
                job: JobId((i % 3) as u64),
                group: GroupId((i % 2) as u32),
                machine: MachineId(i % 4),
                energy_joules: e,
            });
        }
        let fb = analyzer.compute(&[0, 0, 1, 1], &[0, 1, 2, 3], exchange);
        assert_eq!(fb.tasks_analyzed, energies.len());
        for row in fb.deposits.values() {
            assert!(row.iter().all(|&v| v >= 0.0 && v.is_finite()));
        }
    });
}

/// The dense E-Ant learning arithmetic — one τ and one deposit per machine,
/// the analyzer's records in one arrival-ordered buffer — kept as the
/// reference [`PheromoneTable`] and [`TaskAnalyzer`] must reproduce bit for
/// bit while they store one value per τ column.
mod dense {
    use std::collections::BTreeMap;

    use eant::{ExchangeStrategy, TaskEnergyRecord};
    use workload::{GroupId, JobId};

    /// Eq. 4–6 over a job × machine matrix; each row carries its sum.
    pub struct Table {
        pub machines: usize,
        pub tau_init: f64,
        pub tau_min: f64,
        pub tau_max: f64,
        pub rows: BTreeMap<JobId, (Vec<f64>, f64)>,
    }

    impl Table {
        pub fn ensure_job(&mut self, job: JobId) {
            let tau = vec![self.tau_init; self.machines];
            self.rows.entry(job).or_insert_with(|| {
                let sum = tau.iter().sum();
                (tau, sum)
            });
        }

        pub fn get(&self, job: JobId, machine: usize) -> f64 {
            match self.rows.get(&job) {
                Some((tau, _)) => tau.get(machine).copied().unwrap_or(self.tau_min),
                None => self.tau_init,
            }
        }

        pub fn probability(&self, job: JobId, machine: usize) -> f64 {
            match self.rows.get(&job) {
                Some((tau, sum)) => tau[machine] / sum,
                None => 1.0 / self.machines as f64,
            }
        }

        pub fn apply_deposits(
            &mut self,
            deposits: &BTreeMap<JobId, Vec<f64>>,
            rho: f64,
            negative_feedback: bool,
        ) {
            for &job in deposits.keys() {
                self.ensure_job(job);
            }
            let mut totals = vec![0.0; self.machines];
            let mut depositors = vec![0u32; self.machines];
            if negative_feedback {
                for d in deposits.values() {
                    for (m, &v) in d.iter().enumerate() {
                        totals[m] += v;
                        if v > 0.0 {
                            depositors[m] += 1;
                        }
                    }
                }
            }
            let zero = vec![0.0; self.machines];
            for (job, (tau, sum)) in &mut self.rows {
                let own = deposits.get(job).unwrap_or(&zero);
                for (m, t) in tau.iter_mut().enumerate() {
                    let foreign = if negative_feedback {
                        let others = depositors[m] - u32::from(own[m] > 0.0);
                        if others > 0 {
                            (totals[m] - own[m]) / others as f64
                        } else {
                            0.0
                        }
                    } else {
                        0.0
                    };
                    let delta = own[m] - foreign;
                    *t = ((1.0 - rho) * *t + rho * delta).clamp(self.tau_min, self.tau_max);
                }
                *sum = tau.iter().sum();
            }
        }

        pub fn evaporate(&mut self, rho: f64) {
            for (tau, sum) in self.rows.values_mut() {
                for t in tau.iter_mut() {
                    *t = ((1.0 - rho) * *t).max(self.tau_min);
                }
                *sum = tau.iter().sum();
            }
        }

        pub fn evaporate_machine(&mut self, m: usize, rho: f64) {
            if m >= self.machines {
                return;
            }
            for (tau, sum) in self.rows.values_mut() {
                tau[m] = ((1.0 - rho) * tau[m]).max(self.tau_min);
                *sum = tau.iter().sum();
            }
        }
    }

    /// Eq. 5 deposits with the §IV-D exchange, one value per machine.
    pub fn compute(
        records: &[TaskEnergyRecord],
        machine_groups: &[usize],
        exchange: ExchangeStrategy,
    ) -> (BTreeMap<JobId, Vec<f64>>, BTreeMap<JobId, f64>) {
        let machines = machine_groups.len();
        let mut job_sum: BTreeMap<JobId, (f64, usize)> = BTreeMap::new();
        let mut job_group: BTreeMap<JobId, GroupId> = BTreeMap::new();
        for r in records {
            let e = job_sum.entry(r.job).or_insert((0.0, 0));
            e.0 += r.energy_joules;
            e.1 += 1;
            job_group.entry(r.job).or_insert(r.group);
        }
        let means: BTreeMap<JobId, f64> = job_sum
            .iter()
            .map(|(&j, &(sum, n))| (j, sum / n as f64))
            .collect();
        let mut deposits: BTreeMap<JobId, Vec<f64>> = BTreeMap::new();
        for r in records {
            let row = deposits.entry(r.job).or_insert_with(|| vec![0.0; machines]);
            row[r.machine.index()] += means[&r.job] / r.energy_joules;
        }
        if exchange.machine_level() {
            let groups = machine_groups.iter().max().map_or(0, |g| g + 1);
            for row in deposits.values_mut() {
                let mut sums = vec![0.0; groups];
                let mut counts = vec![0usize; groups];
                for (m, &v) in row.iter().enumerate() {
                    sums[machine_groups[m]] += v;
                    counts[machine_groups[m]] += 1;
                }
                for (m, v) in row.iter_mut().enumerate() {
                    let g = machine_groups[m];
                    *v = sums[g] / counts[g] as f64;
                }
            }
        }
        if exchange.job_level() {
            let mut group_rows: BTreeMap<GroupId, (Vec<f64>, usize)> = BTreeMap::new();
            for (job, row) in &deposits {
                let entry = group_rows
                    .entry(job_group[job])
                    .or_insert_with(|| (vec![0.0; machines], 0));
                for (m, &v) in row.iter().enumerate() {
                    entry.0[m] += v;
                }
                entry.1 += 1;
            }
            let averaged: BTreeMap<GroupId, Vec<f64>> = group_rows
                .into_iter()
                .map(|(g, (sum, n))| (g, sum.into_iter().map(|v| v / n as f64).collect()))
                .collect();
            for (job, row) in &mut deposits {
                let avg = &averaged[&job_group[job]];
                for (m, v) in row.iter_mut().enumerate() {
                    *v = 0.5 * *v + 0.5 * avg[m];
                }
            }
        }
        (deposits, means)
    }
}

/// [`PheromoneTable`] and [`TaskAnalyzer`], which keep one τ and one
/// deposit per column, reproduce the dense per-machine arithmetic to the
/// bit: random fleets (singleton groups included), every exchange
/// strategy, negative feedback on and off, discarded machines and
/// per-machine decay (which splits shared columns), over several control
/// intervals. Compared with `to_bits`: every deposit expanded to its
/// machines, τ and the Eq. 3 probability of every (job, machine) path.
#[test]
fn column_learning_matches_dense_oracle() {
    check("column_learning_matches_dense_oracle", 256, |rng| {
        let machines = rng.uniform_u64(1, 24) as usize;
        // Random group labels, renumbered in first-appearance order like
        // `Fleet::group_index`.
        let labels = rng.uniform_u64(1, machines as u64);
        let mut renumber = BTreeMap::new();
        let groups: Vec<usize> = (0..machines)
            .map(|_| {
                let label = rng.uniform_u64(0, labels - 1);
                let next = renumber.len();
                *renumber.entry(label).or_insert(next)
            })
            .collect();
        let exchange = [
            ExchangeStrategy::None,
            ExchangeStrategy::MachineLevel,
            ExchangeStrategy::JobLevel,
            ExchangeStrategy::Both,
        ][rng.uniform_u64(0, 3) as usize];
        let negative = rng.chance(0.5);
        let rho = rng.uniform_range(0.05, 1.0);
        let tau_max = rng.uniform_range(1.5, 50.0);
        let columns = if exchange.machine_level() {
            groups.clone()
        } else {
            (0..machines).collect()
        };
        let mut table = PheromoneTable::with_columns(columns, 1.0, 0.05, tau_max);
        let mut analyzer = TaskAnalyzer::new(machines);
        let mut oracle = dense::Table {
            machines,
            tau_init: 1.0,
            tau_min: 0.05,
            tau_max,
            rows: BTreeMap::new(),
        };
        let mut buffer: Vec<TaskEnergyRecord> = Vec::new();
        let jobs = rng.uniform_u64(1, 8);
        for interval in 0..6 {
            for _ in 0..rng.uniform_u64(0, 3) {
                let job = JobId(rng.uniform_u64(0, jobs - 1));
                if rng.chance(0.7) {
                    table.ensure_job(job);
                    oracle.ensure_job(job);
                } else {
                    table.remove_job(job);
                    oracle.rows.remove(&job);
                }
            }
            for _ in 0..rng.uniform_u64(0, 40) {
                let job = rng.uniform_u64(0, jobs - 1);
                let energy = if rng.chance(0.05) {
                    [0.0, -3.0, f64::NAN, f64::INFINITY][rng.uniform_u64(0, 3) as usize]
                } else {
                    rng.uniform_range(1.0, 1.0e4)
                };
                let record = TaskEnergyRecord {
                    job: JobId(job),
                    group: GroupId((job % 3) as u32),
                    machine: MachineId(rng.uniform_u64(0, machines as u64 - 1) as usize),
                    energy_joules: energy,
                };
                if energy.is_finite() && energy > 0.0 {
                    buffer.push(record.clone());
                }
                analyzer.record(record);
            }
            for _ in 0..rng.uniform_u64(0, 2) {
                let m = MachineId(rng.uniform_u64(0, machines as u64) as usize);
                analyzer.discard_machine(m);
                buffer.retain(|r| r.machine != m);
            }
            assert_eq!(analyzer.len(), buffer.len(), "interval {interval}");
            if buffer.is_empty() {
                table.evaporate(rho);
                oracle.evaporate(rho);
            } else {
                let fb = analyzer.compute(&groups, table.column_of(), exchange);
                let (deposits, means) = dense::compute(&buffer, &groups, exchange);
                assert_eq!(fb.tasks_analyzed, buffer.len());
                buffer.clear();
                assert_eq!(
                    fb.deposits.keys().collect::<Vec<_>>(),
                    deposits.keys().collect::<Vec<_>>()
                );
                for (job, row) in &deposits {
                    let columns = &fb.deposits[job];
                    assert_eq!(columns.len(), table.columns());
                    for (m, &v) in row.iter().enumerate() {
                        let c = table.column_of()[m];
                        assert_eq!(
                            columns[c].to_bits(),
                            v.to_bits(),
                            "interval {interval}: deposit of {job:?} on machine {m}"
                        );
                    }
                    assert_eq!(fb.mean_energy_per_job[job].to_bits(), means[job].to_bits());
                }
                table.apply_deposits(&fb.deposits, rho, negative);
                oracle.apply_deposits(&deposits, rho, negative);
            }
            for _ in 0..rng.uniform_u64(0, 3) {
                let m = rng.uniform_u64(0, machines as u64) as usize;
                table.evaporate_machine(MachineId(m), rho);
                oracle.evaporate_machine(m, rho);
            }
            assert_eq!(table.jobs(), oracle.rows.len());
            for job in (0..jobs + 1).map(JobId) {
                for m in 0..=machines {
                    assert_eq!(
                        table.get(job, MachineId(m)).to_bits(),
                        oracle.get(job, m).to_bits(),
                        "interval {interval}: τ of {job:?} on machine {m}"
                    );
                    if m < machines {
                        assert_eq!(
                            table.probability(job, MachineId(m)).to_bits(),
                            oracle.probability(job, m).to_bits(),
                            "interval {interval}: P of {job:?} on machine {m}"
                        );
                    }
                }
            }
        }
    });
}

/// Any small job mix drains on the paper fleet under the reference
/// scheduler, with tasks conserved.
#[test]
fn engine_drains_arbitrary_small_workloads() {
    check("engine_drains_arbitrary_small_workloads", 24, |rng| {
        let seed = rng.next_u64();
        let jobs_n = rng.uniform_u64(1, 4) as usize;
        let maps: Vec<u32> = (0..jobs_n).map(|_| rng.uniform_u64(1, 39) as u32).collect();
        let cfg = EngineConfig {
            noise: NoiseConfig::none(),
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(Fleet::paper_evaluation(), cfg, seed);
        let mut expected = 0u64;
        let jobs = maps
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let reduces = m / 4;
                expected += u64::from(m + reduces);
                JobSpec::new(
                    JobId(i as u64),
                    Benchmark::of(
                        [
                            BenchmarkKind::Wordcount,
                            BenchmarkKind::Grep,
                            BenchmarkKind::Terasort,
                        ][i % 3],
                    ),
                    m,
                    reduces,
                    SimTime::from_secs(i as u64 * 10),
                )
            })
            .collect();
        engine.submit_jobs(jobs);
        let result = engine.run(&mut GreedyScheduler::new());
        assert!(result.drained);
        assert_eq!(result.total_tasks, expected);
    });
}

/// With any speculation policy and straggler noise, every workload
/// drains with exact task conservation — backups never double-count.
#[test]
fn speculation_conserves_tasks() {
    check("speculation_conserves_tasks", 24, |rng| {
        let seed = rng.next_u64();
        let policy = [
            SpeculationPolicy::Off,
            SpeculationPolicy::Hadoop,
            SpeculationPolicy::Late,
        ][rng.uniform_u64(0, 2) as usize];
        let maps = rng.uniform_u64(8, 59) as u32;
        let cfg = EngineConfig {
            noise: NoiseConfig {
                straggler_prob: 0.2,
                straggler_slowdown: (2.0, 6.0),
                utilization_jitter: 0.1,
            },
            speculation: policy,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(Fleet::paper_evaluation(), cfg, seed);
        let reduces = maps / 6;
        engine.submit_jobs(vec![JobSpec::new(
            JobId(0),
            Benchmark::wordcount(),
            maps,
            reduces,
            SimTime::ZERO,
        )]);
        let result = engine.run(&mut GreedyScheduler::new());
        assert!(result.drained);
        assert_eq!(result.total_tasks, u64::from(maps + reduces));
        assert!(result.wasted_attempts <= result.speculative_attempts);
        if policy == SpeculationPolicy::Off {
            assert_eq!(result.speculative_attempts, 0);
        }
    });
}

/// Power-down never strands work and never *increases* energy relative
/// to physical limits (total energy is at least the standby floor).
#[test]
fn power_down_is_safe() {
    check("power_down_is_safe", 16, |rng| {
        let seed = rng.next_u64();
        let gap_mins = rng.uniform_u64(1, 29);
        let cfg = EngineConfig {
            noise: NoiseConfig::none(),
            power_down: Some(PowerDownConfig::suspend_to_ram()),
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(Fleet::paper_evaluation(), cfg, seed);
        engine.submit_jobs(vec![
            JobSpec::new(JobId(0), Benchmark::grep(), 16, 2, SimTime::ZERO),
            JobSpec::new(
                JobId(1),
                Benchmark::grep(),
                16,
                2,
                SimTime::from_secs(gap_mins * 60),
            ),
        ]);
        let result = engine.run(&mut GreedyScheduler::new());
        assert!(result.drained, "power-down must never strand work");
        assert_eq!(result.total_tasks, 36);
        // Energy floor: every machine draws at least standby power for the
        // whole run.
        let floor = 2.5 * 16.0 * result.makespan.as_secs_f64();
        assert!(result.total_energy_joules() >= floor * 0.99);
    });
}

/// Machine energy meters never decrease and never drop below idle
/// draw.
#[test]
fn meter_monotone_and_bounded_below() {
    check("meter_monotone_and_bounded_below", 256, |rng| {
        let spans_n = rng.uniform_u64(1, 29) as usize;
        let spans: Vec<u64> = (0..spans_n).map(|_| rng.uniform_u64(1, 99)).collect();
        let profile = profiles::desktop();
        let mut machine = cluster::Machine::new(MachineId(0), profile.clone());
        let mut now = SimTime::ZERO;
        let mut last_energy = 0.0;
        for secs in spans {
            now += simcore::SimDuration::from_secs(secs);
            machine.sync(now);
            let e = machine.meter().total_joules();
            assert!(e >= last_energy);
            // Idle machine: exactly idle power integrated.
            let idle_floor =
                profile.power().idle_watts() * now.saturating_since(SimTime::ZERO).as_secs_f64();
            assert!(e >= idle_floor - 1e-6);
            last_energy = e;
        }
    });
}

/// The in-repo case generator itself is deterministic: the same property
/// name and case index always see the same stream.
#[test]
fn case_generation_is_deterministic() {
    let draw = |name: &str, case: usize| {
        let mut rng = SimRng::seed_from(PROPERTY_SEED).fork_index(name, case);
        (rng.next_u64(), rng.uniform_f64())
    };
    assert_eq!(draw("p", 0), draw("p", 0));
    assert_ne!(draw("p", 0), draw("p", 1));
    assert_ne!(draw("p", 0), draw("q", 0));
}

/// After every engine event the incrementally maintained scoreboard equals
/// a from-scratch rebuild — the tentpole invariant of the ClusterState
/// refactor. A wrapper scheduler checks `state() == rebuild_state()` inside
/// every callback of a seeded multi-job run with stragglers and speculation
/// enabled, so the assertion fires between task starts, completions
/// (including speculative losers draining after their job finished),
/// submissions and control ticks.
#[test]
fn scoreboard_matches_oracle_rebuild() {
    use cluster::SlotKind;
    use hadoop_sim::{ClusterQuery, Scheduler, TaskReport};

    struct OracleChecked<S> {
        inner: S,
        checks: u64,
    }

    impl<S> OracleChecked<S> {
        fn verify(&mut self, query: &dyn ClusterQuery, site: &str) {
            let incremental = query.state();
            let oracle = query.rebuild_state();
            assert_eq!(
                *incremental,
                oracle,
                "scoreboard diverged from oracle at {site} (t={})",
                query.now()
            );
            self.checks += 1;
        }
    }

    impl<S: Scheduler> Scheduler for OracleChecked<S> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn select_job(
            &mut self,
            query: &dyn ClusterQuery,
            machine: MachineId,
            kind: SlotKind,
        ) -> Option<JobId> {
            self.verify(query, "select_job");
            self.inner.select_job(query, machine, kind)
        }
        fn on_job_submitted(&mut self, query: &dyn ClusterQuery, job: &JobSpec) {
            self.verify(query, "on_job_submitted");
            self.inner.on_job_submitted(query, job);
        }
        fn on_job_completed(&mut self, query: &dyn ClusterQuery, job: JobId) {
            self.verify(query, "on_job_completed");
            self.inner.on_job_completed(query, job);
        }
        fn on_task_completed(&mut self, query: &dyn ClusterQuery, report: &TaskReport) {
            self.verify(query, "on_task_completed");
            self.inner.on_task_completed(query, report);
        }
        fn on_control_interval(&mut self, query: &dyn ClusterQuery) {
            self.verify(query, "on_control_interval");
            self.inner.on_control_interval(query);
        }
    }

    check("scoreboard_matches_oracle_rebuild", 8, |rng| {
        let seed = rng.next_u64();
        let jobs_n = rng.uniform_u64(2, 5) as usize;
        let cfg = EngineConfig {
            noise: NoiseConfig {
                straggler_prob: 0.25,
                straggler_slowdown: (2.0, 6.0),
                utilization_jitter: 0.1,
            },
            speculation: SpeculationPolicy::Hadoop,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(Fleet::paper_evaluation(), cfg, seed);
        let jobs = (0..jobs_n)
            .map(|i| {
                let maps = rng.uniform_u64(6, 47) as u32;
                JobSpec::new(
                    JobId(i as u64),
                    Benchmark::of(
                        [
                            BenchmarkKind::Wordcount,
                            BenchmarkKind::Grep,
                            BenchmarkKind::Terasort,
                        ][i % 3],
                    ),
                    maps,
                    maps / 5,
                    SimTime::from_secs(i as u64 * 30),
                )
            })
            .collect();
        engine.submit_jobs(jobs);
        let mut checked = OracleChecked {
            inner: GreedyScheduler::new(),
            checks: 0,
        };
        let result = engine.run(&mut checked);
        assert!(result.drained);
        assert!(checked.checks > 100, "too few oracle checks ran");
    });
}

/// Streaming observers reproduce the post-hoc [`hadoop_sim::RunResult`]
/// aggregates bit for bit — makespan, total energy, energy series, interval
/// snapshots, per-job completion times, speculation counts — for every
/// scheduler, across random workloads, noise levels, speculation policies
/// and power-management features.
#[test]
fn streaming_stats_match_posthoc() {
    use eant::EAntConfig;
    use experiments::common::SchedulerKind;
    use experiments::scenario::{msd_spec, ScenarioSpec, WorkloadSpec};
    use hadoop_sim::trace::SharedObserver;
    use hadoop_sim::DvfsConfig;
    use metrics::observers::StreamingRunStats;
    use simcore::SimDuration;
    use workload::msd::MsdConfig;

    check("streaming_stats_match_posthoc", 6, |rng| {
        let seed = rng.next_u64();
        let mut spec = ScenarioSpec {
            workload: WorkloadSpec::Msd(MsdConfig {
                num_jobs: rng.uniform_u64(3, 8) as usize,
                task_scale: 32,
                submission_window: SimDuration::from_mins(rng.uniform_u64(2, 6)),
            }),
            fast_workload: None,
            ..msd_spec().clone()
        };
        spec.engine.speculation = [
            SpeculationPolicy::Off,
            SpeculationPolicy::Hadoop,
            SpeculationPolicy::Late,
        ][rng.uniform_u64(0, 2) as usize];
        if rng.chance(0.3) {
            spec.engine.power_down = Some(PowerDownConfig::suspend_to_ram());
        }
        if rng.chance(0.3) {
            spec.engine.dvfs = Some(DvfsConfig::conservative());
        }
        let num_machines = Fleet::paper_evaluation().len();
        for kind in [
            SchedulerKind::Fifo,
            SchedulerKind::Fair,
            SchedulerKind::Tarazu,
            SchedulerKind::EAnt(EAntConfig::paper_default()),
        ] {
            let stats = SharedObserver::new(StreamingRunStats::new(num_machines));
            let handle = stats.clone();
            let result = spec.execute_scaled_observed(&kind, seed, true, 1.0, move |engine, _| {
                engine.attach_observer(Box::new(handle));
            });
            stats
                .with(|s| s.matches(&result))
                .unwrap_or_else(|e| panic!("{} (seed {seed}): {e}", kind.label()));
        }
    });
}

/// The scoreboard/oracle equivalence survives fault injection: machine
/// crashes, heartbeat-expiry deaths, task retries, map-output loss and
/// blacklisting all mutate the incremental state through the same paths the
/// oracle rebuilds from scratch.
#[test]
fn scoreboard_matches_oracle_under_faults() {
    use cluster::SlotKind;
    use hadoop_sim::{ClusterQuery, FaultConfig, Scheduler, TaskReport};
    use simcore::SimDuration;

    struct OracleChecked<S> {
        inner: S,
        checks: u64,
    }

    impl<S> OracleChecked<S> {
        fn verify(&mut self, query: &dyn ClusterQuery, site: &str) {
            let incremental = query.state();
            let oracle = query.rebuild_state();
            assert_eq!(
                *incremental,
                oracle,
                "scoreboard diverged from oracle at {site} (t={})",
                query.now()
            );
            self.checks += 1;
        }
    }

    impl<S: Scheduler> Scheduler for OracleChecked<S> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn select_job(
            &mut self,
            query: &dyn ClusterQuery,
            machine: MachineId,
            kind: SlotKind,
        ) -> Option<JobId> {
            self.verify(query, "select_job");
            self.inner.select_job(query, machine, kind)
        }
        fn on_job_submitted(&mut self, query: &dyn ClusterQuery, job: &JobSpec) {
            self.verify(query, "on_job_submitted");
            self.inner.on_job_submitted(query, job);
        }
        fn on_job_completed(&mut self, query: &dyn ClusterQuery, job: JobId) {
            self.verify(query, "on_job_completed");
            self.inner.on_job_completed(query, job);
        }
        fn on_task_completed(&mut self, query: &dyn ClusterQuery, report: &TaskReport) {
            self.verify(query, "on_task_completed");
            self.inner.on_task_completed(query, report);
        }
        fn on_control_interval(&mut self, query: &dyn ClusterQuery) {
            self.verify(query, "on_control_interval");
            self.inner.on_control_interval(query);
        }
    }

    check("scoreboard_matches_oracle_under_faults", 6, |rng| {
        let seed = rng.next_u64();
        let fault = FaultConfig {
            crash_mtbf: SimDuration::from_mins(rng.uniform_u64(10, 40)),
            crash_downtime: SimDuration::from_mins(rng.uniform_u64(1, 4)),
            task_failure_prob: rng.uniform_range(0.0, 0.15),
            blacklist_threshold: if rng.chance(0.5) { 8 } else { 0 },
            ..FaultConfig::none()
        };
        let cfg = EngineConfig {
            noise: NoiseConfig {
                straggler_prob: 0.2,
                straggler_slowdown: (2.0, 5.0),
                utilization_jitter: 0.1,
            },
            speculation: SpeculationPolicy::Hadoop,
            fault,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(Fleet::paper_evaluation(), cfg, seed);
        let jobs = (0..3)
            .map(|i| {
                let maps = rng.uniform_u64(8, 39) as u32;
                JobSpec::new(
                    JobId(i as u64),
                    Benchmark::of(
                        [
                            BenchmarkKind::Wordcount,
                            BenchmarkKind::Grep,
                            BenchmarkKind::Terasort,
                        ][i % 3],
                    ),
                    maps,
                    maps / 5,
                    SimTime::from_secs(i as u64 * 30),
                )
            })
            .collect();
        engine.submit_jobs(jobs);
        let mut checked = OracleChecked {
            inner: GreedyScheduler::new(),
            checks: 0,
        };
        let result = engine.run(&mut checked);
        assert!(result.drained, "faulted run failed to drain (seed {seed})");
        assert!(checked.checks > 100, "too few oracle checks ran");
    });
}

/// Conservation under faults: with recovery enabled, every task still
/// completes exactly once — crashes, retries and lost map outputs never
/// duplicate or strand work, so the completed-task count equals the
/// submitted count for any fault schedule.
#[test]
fn faults_conserve_tasks() {
    use hadoop_sim::FaultConfig;
    use simcore::SimDuration;

    check("faults_conserve_tasks", 16, |rng| {
        let seed = rng.next_u64();
        let fault = FaultConfig {
            crash_mtbf: SimDuration::from_mins(rng.uniform_u64(8, 50)),
            crash_downtime: SimDuration::from_mins(rng.uniform_u64(1, 5)),
            task_failure_prob: rng.uniform_range(0.0, 0.2),
            blacklist_threshold: [0, 6, 12][rng.uniform_u64(0, 2) as usize],
            ..FaultConfig::none()
        };
        fault.validate();
        let cfg = EngineConfig {
            noise: NoiseConfig::none(),
            fault,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(Fleet::paper_evaluation(), cfg, seed);
        let mut expected = 0u64;
        let jobs = (0..rng.uniform_u64(1, 4) as usize)
            .map(|i| {
                let maps = rng.uniform_u64(4, 47) as u32;
                let reduces = maps / 4;
                expected += u64::from(maps + reduces);
                JobSpec::new(
                    JobId(i as u64),
                    Benchmark::of(
                        [
                            BenchmarkKind::Wordcount,
                            BenchmarkKind::Grep,
                            BenchmarkKind::Terasort,
                        ][i % 3],
                    ),
                    maps,
                    reduces,
                    SimTime::from_secs(i as u64 * 20),
                )
            })
            .collect();
        engine.submit_jobs(jobs);
        let result = engine.run(&mut GreedyScheduler::new());
        assert!(result.drained, "faulted run failed to drain (seed {seed})");
        assert_eq!(
            result.total_tasks, expected,
            "task conservation violated under faults (seed {seed})"
        );
        // Failure counters are consistent: map outputs are only lost to
        // machine deaths, and blacklisting is impossible when disabled.
        if result.machine_failures == 0 {
            assert_eq!(result.map_outputs_lost, 0);
        }
        if fault.blacklist_threshold == 0 {
            assert_eq!(result.machines_blacklisted, 0);
        }
    });
}

/// The scenario codec's emitter and parser are exact inverses: any valid
/// [`experiments::scenario::ScenarioSpec`] — random workload shape, fleet
/// composition, scheduler grid, engine knobs — emits to canonical JSON that
/// parses back to an equal spec and re-emits byte-identically. This is the
/// contract that makes manifest keys (content hashes of the canonical form)
/// stable across load/save cycles.
#[test]
fn scenario_spec_round_trips_byte_identically() {
    use eant::EAntConfig;
    use experiments::common::SchedulerKind;
    use experiments::scenario::{
        FleetGroup, FleetSpec, ScenarioSpec, ServeSpec, ServeTolerance, Tolerance, WorkloadSpec,
    };
    use hadoop_sim::{DvfsConfig, FaultConfig, SloConfig};
    use simcore::{SimDuration, SimTime};
    use workload::arrival::{DiurnalPeak, DiurnalProfile, OpenArrival};
    use workload::mix::{BenchmarkChoice, StreamArrival, StreamSpec};
    use workload::msd::MsdConfig;
    use workload::open::{OpenJobTemplate, OpenStreamSpec};
    use workload::SizeClass;

    fn ident(rng: &mut SimRng, prefix: &str) -> String {
        format!("{prefix}-{:x}", rng.uniform_u64(0, 0xFFFF_FFFF))
    }

    fn gen_scheduler(rng: &mut SimRng) -> SchedulerKind {
        match rng.uniform_u64(0, 3) {
            0 => SchedulerKind::Fifo,
            1 => SchedulerKind::Fair,
            2 => SchedulerKind::Tarazu,
            _ => {
                let mut cfg = EAntConfig::paper_default();
                cfg.rho = rng.uniform_range(0.05, 1.0);
                cfg.beta = rng.uniform_range(0.0, 4.0);
                cfg.tau_min = rng.uniform_range(0.01, 0.5);
                cfg.tau_init = cfg.tau_min + rng.uniform_range(0.0, 5.0);
                cfg.tau_max = cfg.tau_init + rng.uniform_range(0.0, 100.0);
                cfg.local_boost = rng.uniform_range(1.0, 3.0);
                cfg.share_cap = rng.uniform_range(1.0, 4.0);
                cfg.exchange = [
                    ExchangeStrategy::None,
                    ExchangeStrategy::MachineLevel,
                    ExchangeStrategy::JobLevel,
                    ExchangeStrategy::Both,
                ][rng.uniform_u64(0, 3) as usize];
                cfg.negative_feedback = rng.chance(0.5);
                SchedulerKind::EAnt(cfg)
            }
        }
    }

    fn gen_arrival(rng: &mut SimRng) -> StreamArrival {
        match rng.uniform_u64(0, 3) {
            0 => StreamArrival::Poisson {
                rate_per_min: rng.uniform_range(0.2, 4.0),
                start_s: rng.uniform_range(0.0, 300.0),
            },
            1 => StreamArrival::Uniform {
                period_s: rng.uniform_range(10.0, 300.0),
                start_s: rng.uniform_range(0.0, 120.0),
            },
            2 => StreamArrival::Batches {
                at_s: (0..rng.uniform_u64(1, 3))
                    .map(|_| rng.uniform_range(0.0, 3600.0))
                    .collect(),
            },
            _ => StreamArrival::Diurnal {
                profile: DiurnalProfile {
                    base_per_min: rng.uniform_range(0.2, 2.0),
                    peaks: (0..rng.uniform_u64(1, 2))
                        .map(|_| DiurnalPeak {
                            center_s: rng.uniform_range(0.0, 3600.0),
                            width_s: rng.uniform_range(60.0, 600.0),
                            extra_per_min: rng.uniform_range(0.5, 8.0),
                        })
                        .collect(),
                },
                window_s: rng.uniform_range(1200.0, 7200.0),
            },
        }
    }

    fn gen_workload(rng: &mut SimRng) -> WorkloadSpec {
        if rng.chance(0.5) {
            WorkloadSpec::Msd(MsdConfig {
                num_jobs: rng.uniform_u64(1, 50) as usize,
                task_scale: rng.uniform_u64(16, 128) as u32,
                submission_window: SimDuration::from_secs(rng.uniform_u64(60, 3600)),
            })
        } else {
            let streams = (0..rng.uniform_u64(1, 3))
                .map(|_| StreamSpec {
                    label: ident(rng, "stream"),
                    benchmark: match rng.uniform_u64(0, 3) {
                        0 => BenchmarkChoice::Fixed(BenchmarkKind::Wordcount),
                        1 => BenchmarkChoice::Fixed(BenchmarkKind::Grep),
                        2 => BenchmarkChoice::Fixed(BenchmarkKind::Terasort),
                        _ => BenchmarkChoice::Rotate,
                    },
                    size_class: match rng.uniform_u64(0, 3) {
                        0 => None,
                        1 => Some(SizeClass::Small),
                        2 => Some(SizeClass::Medium),
                        _ => Some(SizeClass::Large),
                    },
                    maps: rng.uniform_u64(1, 200) as u32,
                    reduces: rng.uniform_u64(0, 32) as u32,
                    count: rng.uniform_u64(1, 20) as usize,
                    arrival: gen_arrival(rng),
                })
                .collect();
            WorkloadSpec::Streams(streams)
        }
    }

    fn gen_open_workload(rng: &mut SimRng) -> WorkloadSpec {
        let arrival = match rng.uniform_u64(0, 2) {
            0 => OpenArrival::Poisson {
                rate_per_min: rng.uniform_range(0.2, 6.0),
            },
            1 => OpenArrival::Diurnal {
                profile: DiurnalProfile {
                    base_per_min: rng.uniform_range(0.2, 2.0),
                    peaks: (0..rng.uniform_u64(1, 2))
                        .map(|_| DiurnalPeak {
                            center_s: rng.uniform_range(0.0, 3600.0),
                            width_s: rng.uniform_range(60.0, 600.0),
                            extra_per_min: rng.uniform_range(0.5, 8.0),
                        })
                        .collect(),
                },
                period_s: rng.uniform_range(1200.0, 7200.0),
            },
            _ => {
                let burst_min = rng.uniform_u64(1, 4) as u32;
                OpenArrival::Bursty {
                    bursts_per_min: rng.uniform_range(0.1, 2.0),
                    burst_min,
                    burst_max: burst_min + rng.uniform_u64(0, 4) as u32,
                }
            }
        };
        let templates = (0..rng.uniform_u64(1, 3))
            .map(|_| OpenJobTemplate {
                benchmark: match rng.uniform_u64(0, 2) {
                    0 => BenchmarkKind::Wordcount,
                    1 => BenchmarkKind::Grep,
                    _ => BenchmarkKind::Terasort,
                },
                size_class: match rng.uniform_u64(0, 3) {
                    0 => None,
                    1 => Some(SizeClass::Small),
                    2 => Some(SizeClass::Medium),
                    _ => Some(SizeClass::Large),
                },
                maps: rng.uniform_u64(1, 128) as u32,
                reduces: rng.uniform_u64(0, 16) as u32,
                weight: rng.uniform_range(0.1, 5.0),
            })
            .collect();
        WorkloadSpec::Open(OpenStreamSpec {
            label: ident(rng, "open"),
            arrival,
            templates,
        })
    }

    fn gen_serve(rng: &mut SimRng) -> ServeSpec {
        ServeSpec {
            warmup: SimDuration::from_secs(rng.uniform_u64(0, 3600)),
            measure: SimDuration::from_secs(rng.uniform_u64(600, 14_400)),
            fast_warmup: if rng.chance(0.5) {
                Some(SimDuration::from_secs(rng.uniform_u64(0, 600)))
            } else {
                None
            },
            fast_measure: if rng.chance(0.5) {
                Some(SimDuration::from_secs(rng.uniform_u64(300, 3600)))
            } else {
                None
            },
            tolerance: ServeTolerance {
                p99_rel: rng.uniform_range(0.001, 0.1),
                energy_per_job_rel: rng.uniform_range(0.001, 0.1),
            },
        }
    }

    fn gen_slo(rng: &mut SimRng) -> SloConfig {
        // At least one threshold must be set (the validator's invariant),
        // so p99 is always present and the rest are coin flips.
        SloConfig {
            window: SimDuration::from_secs(rng.uniform_u64(60, 1800)),
            ring_capacity: rng.uniform_u64(1, 4096) as usize,
            arm_after: SimTime::from_secs(rng.uniform_u64(0, 3600)),
            min_completions: rng.uniform_u64(0, 100) as usize,
            p95_sojourn: if rng.chance(0.5) {
                Some(SimDuration::from_secs(rng.uniform_u64(60, 7200)))
            } else {
                None
            },
            p99_sojourn: Some(SimDuration::from_secs(rng.uniform_u64(60, 7200))),
            max_queue_depth: if rng.chance(0.5) {
                Some(rng.uniform_u64(1, 100_000))
            } else {
                None
            },
            max_backlog_growth_per_min: if rng.chance(0.5) {
                Some(rng.uniform_range(0.1, 50.0))
            } else {
                None
            },
        }
    }

    fn gen_fleet(rng: &mut SimRng) -> FleetSpec {
        if rng.chance(0.4) {
            FleetSpec::Paper
        } else {
            let names = ["Desktop", "XeonE5", "Atom", "T110", "T420", "T320", "T620"];
            let groups = (0..rng.uniform_u64(1, 4))
                .map(|_| FleetGroup {
                    profile: names[rng.uniform_u64(0, names.len() as u64 - 1) as usize].to_owned(),
                    count: rng.uniform_u64(1, 4) as usize,
                    slots: if rng.chance(0.3) {
                        Some((
                            rng.uniform_u64(1, 6) as usize,
                            rng.uniform_u64(0, 3) as usize,
                        ))
                    } else {
                        None
                    },
                })
                .collect();
            FleetSpec::Custom {
                groups,
                rack_size: if rng.chance(0.5) {
                    Some(rng.uniform_u64(2, 8) as usize)
                } else {
                    None
                },
            }
        }
    }

    fn gen_engine(rng: &mut SimRng) -> EngineConfig {
        EngineConfig {
            heartbeat: SimDuration::from_secs(rng.uniform_u64(1, 10)),
            control_interval: SimDuration::from_secs(rng.uniform_u64(60, 600)),
            reduce_slowstart: rng.uniform_range(0.1, 1.0),
            noise: if rng.chance(0.3) {
                NoiseConfig::none()
            } else {
                let lo = rng.uniform_range(1.5, 3.0);
                NoiseConfig {
                    straggler_prob: rng.uniform_range(0.0, 0.5),
                    straggler_slowdown: (lo, lo + rng.uniform_range(0.1, 3.0)),
                    utilization_jitter: rng.uniform_range(0.0, 0.3),
                }
            },
            fault: if rng.chance(0.5) {
                hadoop_sim::FaultConfig::none()
            } else {
                FaultConfig {
                    crash_mtbf: SimDuration::from_secs(rng.uniform_u64(600, 3600)),
                    crash_downtime: SimDuration::from_secs(rng.uniform_u64(60, 300)),
                    task_failure_prob: rng.uniform_range(0.0, 0.2),
                    blacklist_threshold: [0, 6, 12][rng.uniform_u64(0, 2) as usize],
                    ..FaultConfig::none()
                }
            },
            power_down: if rng.chance(0.3) {
                Some(PowerDownConfig {
                    idle_timeout: SimDuration::from_secs(rng.uniform_u64(30, 600)),
                    standby_watts: rng.uniform_range(1.0, 5.0),
                    wake_latency: SimDuration::from_secs(rng.uniform_u64(1, 10)),
                })
            } else {
                None
            },
            speculation: [
                SpeculationPolicy::Off,
                SpeculationPolicy::Hadoop,
                SpeculationPolicy::Late,
            ][rng.uniform_u64(0, 2) as usize],
            dvfs: if rng.chance(0.3) {
                Some(DvfsConfig {
                    eco_factor: rng.uniform_range(0.5, 1.0),
                    low_utilization: rng.uniform_range(0.1, 0.3),
                    high_utilization: rng.uniform_range(0.6, 0.9),
                })
            } else {
                None
            },
            speculation_threshold: rng.uniform_range(1.0, 3.0),
            max_sim_time: SimDuration::from_secs(rng.uniform_u64(3600, 1_000_000)),
            ..EngineConfig::default()
        }
    }

    // Every case's canonical form, folded into one digest below: the
    // library never sets DVFS, power-down, bursty or diurnal-stream
    // fields, so this pin is what holds their bytes.
    let canonical = std::cell::RefCell::new(String::new());
    check("scenario_spec_round_trips_byte_identically", 64, |rng| {
        // A scenario is either closed (msd/streams, no serve) or an open
        // service scenario (open workload + serve section) — the spec
        // validator rejects mixing, so the generator picks one shape.
        let open = rng.chance(0.3);
        let spec = ScenarioSpec {
            name: ident(rng, "scenario"),
            description: format!("prop \"case\" \\ {}", ident(rng, "desc")),
            seeds: (0..rng.uniform_u64(1, 3)).map(|_| rng.next_u64()).collect(),
            schedulers: (0..rng.uniform_u64(1, 4))
                .map(|_| gen_scheduler(rng))
                .collect(),
            workload: if open {
                gen_open_workload(rng)
            } else {
                gen_workload(rng)
            },
            fast_workload: if rng.chance(0.5) {
                Some(if open {
                    gen_open_workload(rng)
                } else {
                    gen_workload(rng)
                })
            } else {
                None
            },
            serve: if open { Some(gen_serve(rng)) } else { None },
            slo: if rng.chance(0.3) {
                Some(gen_slo(rng))
            } else {
                None
            },
            fleet: gen_fleet(rng),
            engine: gen_engine(rng),
            tolerance: Tolerance {
                energy_rel: rng.uniform_range(0.001, 0.1),
                makespan_rel: rng.uniform_range(0.001, 0.1),
            },
        };
        let first = spec.canonical();
        let reparsed = ScenarioSpec::parse(&first)
            .unwrap_or_else(|e| panic!("canonical form failed to parse: {e}\n{first}"));
        assert_eq!(reparsed, spec, "parse is not the emitter's inverse");
        assert_eq!(
            reparsed.canonical(),
            first,
            "emit ∘ parse ∘ emit is not byte-stable"
        );
        let mut all = canonical.borrow_mut();
        all.push_str(&first);
        all.push('\n');
    });
    let digest = metrics::spec::fnv1a_64(canonical.borrow().as_bytes());
    println!("canonical digest of 64 random specs: {digest:#018x}");
    assert_eq!(
        digest, 0x02837e880b750f58,
        "random specs' canonical bytes drifted"
    );
}

/// Applies one to four random edits to `bytes`: overwrite, insert or
/// delete a byte, truncate, duplicate a span, or splice in a token that
/// stresses a JSON reader (extreme numbers, escapes, stray structure).
fn mutate(rng: &mut SimRng, bytes: &mut Vec<u8>) {
    const BYTES: &[u8] = b"\"\\{}[],:-+.eE0u9 nt\x00\x1f\x7f\xc3\xe2\xf0\xff";
    const TOKENS: &[&str] = &[
        "18446744073709551616",
        "18446744073709551615",
        "4294967296",
        "-1",
        "1e999",
        "-0",
        "0.5",
        "null",
        "true",
        "\"map\"",
        "\\ud800",
        "\\udc00",
        "\\u00e9",
        "\\uzzzz",
        "{}",
        "[]",
        "[[[[",
        "\"\":",
    ];
    for _ in 0..rng.uniform_u64(1, 4) {
        let at = rng.uniform_u64(0, bytes.len() as u64) as usize;
        let byte = if rng.chance(0.5) {
            BYTES[rng.uniform_u64(0, BYTES.len() as u64 - 1) as usize]
        } else {
            rng.uniform_u64(0, 255) as u8
        };
        match rng.uniform_u64(0, 5) {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            4 => {
                let end = (at + rng.uniform_u64(1, 16) as usize).min(bytes.len());
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
            _ => {
                let token = TOKENS[rng.uniform_u64(0, TOKENS.len() as u64 - 1) as usize];
                bytes.splice(at..at, token.bytes());
            }
        }
    }
}

/// [`JsonValue::parse`] returns `Ok` or `Err` — never panics — on byte
/// mutations of documents that exercise every JSON construct it reads.
#[test]
fn json_parse_survives_byte_mutation() {
    use metrics::emit::JsonValue;

    const CORPUS: &[&str] = &[
        r#"{"a":[1,2.5,null,true,false],"b":{"c":"d\"e\\f\/g\b\f\n\r\t"},"e":-0.5e-3}"#,
        r#"["é😀A", 18446744073709551615, -12, 1E+2, {}, []]"#,
        r#" { "nested" : [ [ { "x" : [ ] } ] ] , "k" : "é漢😀" } "#,
        r#"{"at":0,"type":"run_finished","drained":true,"total_energy_joules":1.5,"total_tasks":3}"#,
    ];
    check("json_parse_survives_byte_mutation", 4096, |rng| {
        let mut bytes = CORPUS[rng.uniform_u64(0, CORPUS.len() as u64 - 1) as usize]
            .as_bytes()
            .to_vec();
        mutate(rng, &mut bytes);
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(value) = JsonValue::parse(&text) {
            // Whatever parses renders back to a document that parses.
            assert!(JsonValue::parse(&value.render()).is_ok(), "{text}");
        }
    });
}

/// [`experiments::scenario::ScenarioSpec::parse`] returns `Ok` or `Err` —
/// never panics — on byte mutations of every committed scenario file,
/// including the error rendering that quotes the offending line.
#[test]
fn scenario_spec_parse_survives_byte_mutation() {
    use experiments::scenario::{library_dir, ScenarioSpec};

    let mut corpus: Vec<String> = std::fs::read_dir(library_dir())
        .expect("scenarios/ exists")
        .map(|e| std::fs::read_to_string(e.expect("readable dir entry").path()).expect("UTF-8"))
        .collect();
    corpus.sort();
    check("scenario_spec_parse_survives_byte_mutation", 2048, |rng| {
        let mut bytes = corpus[rng.uniform_u64(0, corpus.len() as u64 - 1) as usize]
            .as_bytes()
            .to_vec();
        mutate(rng, &mut bytes);
        let _ = ScenarioSpec::parse(&String::from_utf8_lossy(&bytes));
    });
}

/// [`experiments::scenario::RunDb::parse`] returns `Ok` or `Err` — never
/// panics — on byte mutations of real baseline records, a drain run and an
/// open-stream run, each with its `result` cut to a small object so a case
/// stays cheap.
#[test]
fn run_db_parse_survives_byte_mutation() {
    use experiments::scenario::{library_dir, RunDb};

    let baseline = std::fs::read_to_string(library_dir().join("../runs/baseline-fast.jsonl"))
        .expect("baseline DB reads");
    let cut = |line: &str| {
        let at = line.find(",\"result\":").expect("records end in a result");
        format!(
            "{},\"result\":{{\"scheduler\":\"E-Ant\",\"jobs\":[1,2.5,null]}}}}",
            &line[..at]
        )
    };
    let corpus: Vec<String> = [
        baseline.lines().find(|l| !l.contains("\"open_stream\"")),
        baseline
            .lines()
            .find(|l| l.contains("\"open_stream\":true")),
    ]
    .into_iter()
    .map(|line| cut(line.expect("baseline has drain and open-stream records")))
    .collect();
    for line in &corpus {
        RunDb::parse(line).unwrap_or_else(|e| panic!("cut record parses: {e}"));
    }
    check("run_db_parse_survives_byte_mutation", 2048, |rng| {
        let mut bytes = corpus[rng.uniform_u64(0, corpus.len() as u64 - 1) as usize]
            .as_bytes()
            .to_vec();
        mutate(rng, &mut bytes);
        // A DB that loads must also save and load again unchanged.
        if let Ok(db) = RunDb::parse(&String::from_utf8_lossy(&bytes)) {
            let saved = db.render();
            let reloaded = RunDb::parse(&saved)
                .unwrap_or_else(|e| panic!("a loaded DB does not reload after a save: {e}"));
            assert_eq!(reloaded.records, db.records, "saved as {saved}");
        }
    });
}

/// [`metrics::trace::parse_trace_line`] returns `Ok` or `Err` — never
/// panics — on byte mutations of every event kind a faulted, speculating,
/// power-managed run with decision tracing writes.
#[test]
fn trace_line_parse_survives_byte_mutation() {
    use eant::EAntConfig;
    use experiments::common::SchedulerKind;
    use experiments::scenario::{msd_spec, ScenarioSpec, WorkloadSpec};
    use hadoop_sim::trace::SharedObserver;
    use hadoop_sim::{DvfsConfig, FaultConfig};
    use metrics::trace::{parse_trace_line, JsonlTraceSink};
    use simcore::SimDuration;
    use workload::msd::MsdConfig;

    let mut spec = ScenarioSpec {
        workload: WorkloadSpec::Msd(MsdConfig {
            num_jobs: 6,
            task_scale: 32,
            submission_window: SimDuration::from_mins(3),
        }),
        fast_workload: None,
        ..msd_spec().clone()
    };
    spec.engine.speculation = SpeculationPolicy::Late;
    spec.engine.power_down = Some(PowerDownConfig::suspend_to_ram());
    spec.engine.dvfs = Some(DvfsConfig::conservative());
    spec.engine.fault = FaultConfig::moderate();
    spec.engine.trace_decisions = true;
    let sink = SharedObserver::new(JsonlTraceSink::new(Vec::<u8>::new()));
    let (engine_sink, scheduler_sink) = (sink.clone(), sink.clone());
    spec.execute_scaled_observed(
        &SchedulerKind::EAnt(EAntConfig::paper_default()),
        7,
        true,
        1.0,
        move |engine, scheduler| {
            engine.attach_observer(Box::new(engine_sink));
            scheduler.attach_observer(Box::new(scheduler_sink));
        },
    );
    let bytes = sink
        .try_into_inner()
        .unwrap_or_else(|_| panic!("trace sink still shared after run"))
        .finish()
        .expect("Vec<u8> writes cannot fail");
    let text = String::from_utf8(bytes).expect("trace is UTF-8");
    // One line per event kind: mutations then hit every field reader.
    let mut corpus: BTreeMap<String, &str> = BTreeMap::new();
    for line in text.lines() {
        let (_, event) = parse_trace_line(line).expect("written lines parse");
        corpus.entry(event.kind().to_owned()).or_insert(line);
    }
    assert!(corpus.len() >= 15, "kinds: {:?}", corpus.keys());
    let corpus: Vec<&str> = corpus.into_values().collect();
    check("trace_line_parse_survives_byte_mutation", 4096, |rng| {
        let mut bytes = corpus[rng.uniform_u64(0, corpus.len() as u64 - 1) as usize]
            .as_bytes()
            .to_vec();
        mutate(rng, &mut bytes);
        let _ = parse_trace_line(&String::from_utf8_lossy(&bytes));
    });
}

/// [`experiments::explain::run`] returns `Ok` or `Err` — never panics —
/// on a real postmortem bundle with one of its three files byte-mutated:
/// the event log, the breach record or the sampled series.
#[test]
fn explain_bundle_loader_survives_byte_mutation() {
    use experiments::scenario::{library_dir, load_spec};
    use experiments::slo::run_monitored;

    let mut spec = load_spec(&library_dir().join("serve-overload-burst-slo.json"))
        .unwrap_or_else(|e| panic!("{e}"));
    // A shallow flight recorder keeps every iteration's reload cheap; the
    // event log still holds decision, task and heartbeat lines.
    if let Some(slo) = spec.slo.as_mut() {
        slo.ring_capacity = 16;
    }
    let eant = spec
        .schedulers
        .iter()
        .find(|k| k.label() == "E-Ant")
        .expect("slo scenario compares E-Ant");
    let bundle = run_monitored(&spec, eant, spec.seeds[0], true)
        .postmortem
        .expect("E-Ant breaches the overload SLO");
    let root = std::env::temp_dir().join(format!("eant-explain-fuzz-{}", std::process::id()));
    let dir = bundle.write_to(&root).expect("bundle writes");
    experiments::explain::run(&dir).expect("the unmutated bundle explains");
    let files: Vec<(&str, Vec<u8>)> = ["events.jsonl", "breach.json", "series.json"]
        .into_iter()
        .map(|name| {
            (
                name,
                std::fs::read(dir.join(name)).expect("bundle file reads"),
            )
        })
        .collect();
    std::fs::remove_dir_all(&root).expect("bundle dir removes");
    check("explain_bundle_loader_survives_byte_mutation", 256, |rng| {
        let mutated = rng.uniform_u64(0, files.len() as u64 - 1) as usize;
        // Fresh files every case: rewriting a file in place can flush it
        // to disk on each truncation, which is slow on some filesystems.
        std::fs::create_dir_all(&dir).expect("case dir creates");
        for (i, (name, original)) in files.iter().enumerate() {
            let mut bytes = original.clone();
            if i == mutated {
                mutate(rng, &mut bytes);
            }
            std::fs::write(dir.join(name), &bytes).expect("bundle file writes");
        }
        let _ = experiments::explain::run(&dir);
        std::fs::remove_dir_all(&root).expect("case dir removes");
    });
}
