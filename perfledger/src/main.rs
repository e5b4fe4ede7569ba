//! The benchmark ledger: runs one workload on the serial engine, the
//! sharded engine and the `pstar-net` runtime from a single process,
//! gates every run's report, and prints one JSON result line.
//!
//! ```text
//! perfledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!            [--print-digests]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics from untraced runs;
//! `--trace 1` prints the per-layer metrics from a traced run. See
//! `README.md` for the workloads and the layer map.

mod arms;
mod gate;
mod host;
mod layers;
mod workloads;

use arms::{Backend, Run};
use gate::Digests;
use layers::median;
use pstar_net::NetError;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Point, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Print every report digest as a digest-file line.
    print_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: workloads::DEFAULT_SEED,
        seconds: 10,
        trace: false,
        print_digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-digests" {
            args.print_digests = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// The committed digests to gate against at `seed`: only the default
/// seed has them.
fn committed_digests(seed: u64) -> Result<Option<Digests>, String> {
    if seed == workloads::DEFAULT_SEED {
        gate::parse_digests(gate::COMMITTED).map(Some)
    } else {
        Ok(None)
    }
}

/// Pass/fail bookkeeping for every run, plus the digest checks.
struct Ledger<'a> {
    wl: &'a Workload,
    /// Digests to gate against: only at the default seed.
    committed: Option<Digests>,
    /// The first digest each `(point, sub-seed, backend)` produced in
    /// this process; later rounds must repeat it.
    seen: BTreeMap<(usize, u64, &'static str), u64>,
    attempted: u64,
    failed: u64,
}

impl Ledger<'_> {
    fn fail(&mut self, what: &str, why: &str) {
        eprintln!("FAIL {} {what}: {why}", self.wl.name);
        self.failed += 1;
    }

    /// The point's name in the digest file.
    fn point_key(&self, pi: usize, sub: u64) -> String {
        format!("{}/s{sub}", self.wl.points[pi].label)
    }

    /// Gates one run of point `pi` at sub-seed `sub` on `backend`
    /// against the round's serial report.
    fn check(
        &mut self,
        pi: usize,
        sub: u64,
        backend: Backend,
        run: &Result<Run, NetError>,
        serial: Option<&Run>,
    ) {
        self.attempted += 1;
        let what = format!("{} on {}", self.point_key(pi, sub), backend.label());
        let run = match run {
            Ok(run) => run,
            Err(e) => return self.fail(&what, &format!("NetError: {e}")),
        };
        let d = gate::digest(&run.report);
        let first = *self.seen.entry((pi, sub, backend.label())).or_insert(d);
        if first != d {
            return self.fail(&what, "report changed between rounds of one run");
        }
        if let Some(committed) = &self.committed {
            let key = (
                self.wl.name.to_string(),
                self.point_key(pi, sub),
                backend.label().to_string(),
            );
            match committed.get(&key) {
                Some(&c) if c == d => {}
                Some(&c) => {
                    return self.fail(&what, &format!("digest {d:016x}, committed {c:016x}"))
                }
                None => return self.fail(&what, "no committed digest"),
            }
        }
        let Some(serial) = serial else { return };
        let verdict = match backend {
            Backend::Serial => Ok(()),
            Backend::Sharded => gate::sharded_matches(&serial.report, &run.report),
            Backend::Net if self.wl.points[pi].broadcast_only() => {
                gate::net_matches(&serial.report, &run.report)
            }
            Backend::Net => Ok(()),
        };
        if let Err(why) = verdict {
            self.fail(&what, &why);
        }
    }
}

/// One round's runs, `runs[arm][point]`.
type Round = Vec<Vec<Result<Run, NetError>>>;

/// Runs at least `min_rounds` rounds, and more while the next one is
/// expected to end no later than half a round past `deadline`. Gates
/// every run against the same round's serial run (`arms[0]`). Within a
/// round the arms start in rotated order, so no arm always runs first.
/// Calls `each` with the round index and its runs; returns the number
/// of rounds.
fn run_rounds(
    ledger: &mut Ledger,
    arms: &[(Backend, bool)],
    deadline: Instant,
    min_rounds: u64,
    cores: usize,
    mut each: impl FnMut(usize, &Round),
) -> usize {
    assert_eq!(arms[0], (Backend::Serial, false), "arm 0 is the reference");
    let wl = ledger.wl;
    let mut r = 0;
    let mut last = Duration::ZERO;
    while (r as u64) < min_rounds || Instant::now() + last / 2 < deadline {
        let started = Instant::now();
        let sub = r as u64 % wl.subseeds;
        let mut runs: Round = (0..arms.len()).map(|_| Vec::new()).collect();
        for k in 0..arms.len() {
            let a = (k + r) % arms.len();
            let (backend, perf) = arms[a];
            runs[a] = wl
                .points
                .iter()
                .map(|p| arms::run(p, sub, backend, perf, cores))
                .collect();
        }
        for (pi, serial) in runs[0].iter().enumerate() {
            for (a, &(backend, _)) in arms.iter().enumerate() {
                ledger.check(pi, sub, backend, &runs[a][pi], serial.as_ref().ok());
            }
        }
        let sps: Vec<String> = runs
            .iter()
            .map(|a| format!("{:.0}", Throughput::of(a).per_s()))
            .collect();
        eprintln!("round {r} (sub-seed {sub}): slots/s {}", sps.join(" "));
        each(r, &runs);
        r += 1;
        last = started.elapsed();
    }
    r
}

/// Simulated slots and host seconds of one arm's successful runs.
#[derive(Default)]
struct Throughput {
    slots: u64,
    secs: f64,
}

impl Throughput {
    fn of(runs: &[Result<Run, NetError>]) -> Self {
        let mut t = Self::default();
        t.add(runs);
        t
    }

    fn add(&mut self, runs: &[Result<Run, NetError>]) {
        for run in runs.iter().flatten() {
            self.slots += run.report.slots_run;
            self.secs += run.secs;
        }
    }

    /// Simulated slots per host second.
    fn per_s(&self) -> f64 {
        self.slots as f64 / self.secs
    }
}

fn geometric_mean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len().max(1) as f64).exp()
}

fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(ledger: &mut Ledger, deadline: Instant, cores: usize) -> Metrics {
    let wl = ledger.wl;
    let arms = [
        (Backend::Serial, false),
        (Backend::Sharded, false),
        (Backend::Net, false),
    ];
    let mut sps: [Throughput; 3] = Default::default();
    // Per point, the serial arm's set-up seconds from every build of
    // every round; `setup_s` sums the points' medians.
    let mut setup_secs = vec![Vec::new(); wl.points.len()];
    // The paper's reception delay, from the serial reports of the
    // stable points at every sub-seed: geometric means, so that on the
    // sweep every point weighs the same.
    let (mut mean, mut p99) = (Vec::new(), Vec::new());
    let rounds = run_rounds(ledger, &arms, deadline, wl.subseeds, cores, |r, runs| {
        for (t, arm) in sps.iter_mut().zip(runs) {
            t.add(arm);
        }
        for (samples, run) in setup_secs.iter_mut().zip(&runs[0]) {
            if let Ok(run) = run {
                samples.extend(&run.setup_secs);
            }
        }
        if (r as u64) < wl.subseeds {
            for run in runs[0].iter().flatten().filter(|run| run.report.ok()) {
                mean.push(run.report.reception_delay.mean);
                p99.push(run.report.reception_quantiles.2 as f64);
            }
        }
    });
    if mean.is_empty() {
        ledger.fail("reception delay", "no point ran stable");
    }
    eprintln!(
        "{}: {rounds} rounds; slots/s serial {:.0} sharded {:.0} net {:.0}",
        wl.name,
        sps[0].per_s(),
        sps[1].per_s(),
        sps[2].per_s()
    );
    vec![
        ("serial.slots_per_s", sps[0].per_s(), "slots/s"),
        ("sharded.slots_per_s", sps[1].per_s(), "slots/s"),
        ("net.slots_per_s", sps[2].per_s(), "slots/s"),
        ("setup_s", setup_secs.iter().map(|s| median(s)).sum(), "s"),
        ("peak_rss_mib", host::peak_rss_mib().unwrap_or(0.0), "MiB"),
        ("recv_delay_mean_slots", geometric_mean(&mean), "slots"),
        ("recv_delay_p99_slots", geometric_mean(&p99), "slots"),
    ]
}

/// Sums of the sharded engine's phase telemetry over traced runs.
#[derive(Default)]
struct ShardedSums {
    slots: u64,
    work: [u64; 5],
    wait: u64,
    merge: u64,
    mid: u64,
    /// Per run, `EnginePerf::serial_fraction` and `predicted_speedup`.
    serial_fraction: Vec<f64>,
    predicted: Vec<f64>,
    /// Over the first round only: an exact count.
    boundary: u64,
}

/// Sums of the runtime's telemetry over traced runs.
#[derive(Default)]
struct NetSums {
    slots: u64,
    worker_slots: u64,
    barrier_wait: u64,
    phase_a: u64,
    phase_b: u64,
    blocked: u64,
    /// Per run, the slowest worker's median slot time.
    slot_p50_us: Vec<f64>,
    slot_max_us: f64,
    /// Messages and slots of the first round only: exact counts.
    first_messages: u64,
    first_slots: u64,
}

/// Exact counts from the serial runs of the first round, and the
/// queue shape they produced.
#[derive(Default)]
struct SerialSums {
    slots: u64,
    tx: u64,
    peak_queue: i64,
    /// Time-average queued packets per link, summed over runs.
    depth_sum: f64,
    runs: u64,
    /// Link utilization by priority class, summed over runs.
    class_busy: [f64; pstar_sim::MAX_PRIORITY_CLASSES],
}

fn per_layer(ledger: &mut Ledger, deadline: Instant, seed: u64, cores: usize) -> Metrics {
    let wl = ledger.wl;
    let probe = deadline
        .saturating_duration_since(Instant::now())
        .mul_f64(0.06);
    let setup = layers::setup(&wl.points, probe);
    let forward = layers::forward_emits_ns(&wl.points, seed, probe);
    let unicast = layers::unicast_emits_ns(&wl.points, seed, probe);
    let (arrival_ns, tasks_per_slot) = layers::arrivals(&wl.points, probe);
    let channel = layers::channel_send_drain_ns(cores, probe);

    let arms = [
        (Backend::Serial, false),
        (Backend::Sharded, false),
        (Backend::Sharded, true),
        (Backend::Net, false),
        (Backend::Net, true),
    ];
    let mut sps: [Throughput; 5] = Default::default();
    let mut tx_total = 0u64;
    let (mut se, mut sh, mut nt) = (
        SerialSums::default(),
        ShardedSums::default(),
        NetSums::default(),
    );
    let rounds = run_rounds(ledger, &arms, deadline, 2, cores, |r, runs| {
        for (t, arm) in sps.iter_mut().zip(runs) {
            t.add(arm);
        }
        let first = r == 0;
        let serial: Vec<(&Point, &Run)> = wl.points.iter().zip(runs[0].iter().flatten()).collect();
        tx_total += serial
            .iter()
            .map(|(_, run)| run.report.vc_transmissions.iter().sum::<u64>())
            .sum::<u64>();
        if first {
            for (p, run) in serial {
                let rep = &run.report;
                se.slots += rep.slots_run;
                se.tx += rep.vc_transmissions.iter().sum::<u64>();
                se.peak_queue = se.peak_queue.max(rep.peak_queue_total);
                se.depth_sum += rep.flow.mean_queued_packets / p.topo.link_count() as f64;
                se.runs += 1;
                for (k, c) in rep.class.iter().enumerate() {
                    se.class_busy[k] += c.utilization;
                }
            }
        }
        for run in runs[2].iter().flatten() {
            let p = run.engine_perf.as_ref().expect("traced sharded arm");
            sh.slots += p.slots;
            for w in &p.worker_phases {
                for (s, x) in sh.work.iter_mut().zip(&w.work_ns) {
                    *s += x;
                }
                sh.wait += w.wait_total();
            }
            sh.merge += p.coord.merge_ns;
            sh.mid += p.coord.mid_ns;
            sh.serial_fraction.push(p.serial_fraction());
            sh.predicted.push(p.predicted_speedup(cores));
            if first {
                sh.boundary += p.boundary_packets;
            }
        }
        for run in runs[4].iter().flatten() {
            let p = run.net_perf.as_ref().expect("traced net arm");
            nt.slots += run.report.slots_run;
            if first {
                nt.first_messages += run.net_messages;
                nt.first_slots += run.report.slots_run;
            }
            let mut p50 = 0.0f64;
            for w in &p.workers {
                nt.worker_slots += w.slots;
                nt.barrier_wait += w.wait_ns_total();
                nt.phase_a += w.phase_a_ns;
                nt.phase_b += w.phase_b_ns;
                nt.blocked += w.blocked_send_ns;
                p50 = p50.max(w.slot_ns_median as f64 / 1e3);
                nt.slot_max_us = nt.slot_max_us.max(w.slot_ns_max as f64 / 1e3);
            }
            nt.slot_p50_us.push(p50);
        }
    });
    eprintln!("{}: {rounds} traced rounds", wl.name);
    // The queue probe runs at the per-link depth and class mix the
    // workload's serial runs produced.
    let queue = layers::queue_push_pop_ns(
        wl.points[0].topo.link_count() as usize,
        (se.depth_sum / se.runs.max(1) as f64).round() as usize,
        &se.class_busy,
        seed,
        probe,
    );

    let per_slot = |x: u64, slots: u64| x as f64 / slots.max(1) as f64;
    let rate = |a: usize| sps[a].per_s();
    let overhead = |bare: f64, traced: f64| 1.0 - traced / bare;
    let mut m: Metrics = vec![
        (
            "core.balance_solve_us",
            median(&setup.balance_s) * 1e6,
            "us",
        ),
        ("core.build_scheme_us", median(&setup.build_s) * 1e6, "us"),
        ("engine.new_us", median(&setup.engine_new_s) * 1e6, "us"),
        ("core.forward_emits_ns", forward, "ns"),
        ("core.unicast_emits_ns", unicast, "ns"),
        ("arrivals.slot_ns", arrival_ns, "ns"),
        ("arrivals.tasks_per_slot", tasks_per_slot, "count"),
        ("queue.push_pop_ns", queue, "ns"),
        (
            "engine.ns_per_tx",
            sps[0].secs * 1e9 / tx_total.max(1) as f64,
            "ns",
        ),
        ("engine.slots", se.slots as f64, "count"),
        ("engine.tx", se.tx as f64, "count"),
        ("engine.peak_queue_total", se.peak_queue as f64, "count"),
    ];
    const WORK: [&str; 5] = [
        "sharded.work_ns_per_slot.alpha",
        "sharded.work_ns_per_slot.beta",
        "sharded.work_ns_per_slot.gamma",
        "sharded.work_ns_per_slot.delta",
        "sharded.work_ns_per_slot.epsilon",
    ];
    for (name, w) in WORK.iter().zip(sh.work) {
        m.push((name, per_slot(w, sh.slots), "ns"));
    }
    m.extend([
        (
            "sharded.wait_ns_per_slot",
            per_slot(sh.wait, sh.slots),
            "ns",
        ),
        (
            "sharded.coord_merge_ns_per_slot",
            per_slot(sh.merge, sh.slots),
            "ns",
        ),
        (
            "sharded.coord_mid_ns_per_slot",
            per_slot(sh.mid, sh.slots),
            "ns",
        ),
        ("sharded.boundary_packets", sh.boundary as f64, "count"),
        (
            "sharded.serial_fraction",
            median_or_zero(&sh.serial_fraction),
            "ratio",
        ),
        ("sharded.host_cores", cores as f64, "count"),
        (
            "sharded.predicted_speedup",
            median_or_zero(&sh.predicted),
            "x",
        ),
        ("sharded.measured_speedup", rate(1) / rate(0), "x"),
        (
            "net.barrier_wait_ns_per_slot",
            per_slot(nt.barrier_wait, nt.worker_slots),
            "ns",
        ),
        (
            "net.phase_a_ns_per_slot",
            per_slot(nt.phase_a, nt.worker_slots),
            "ns",
        ),
        (
            "net.phase_b_ns_per_slot",
            per_slot(nt.phase_b, nt.worker_slots),
            "ns",
        ),
        ("net.slot_us_p50", median_or_zero(&nt.slot_p50_us), "us"),
        ("net.slot_us_max", nt.slot_max_us, "us"),
        (
            "net.messages_per_slot",
            per_slot(nt.first_messages, nt.first_slots),
            "count",
        ),
        ("net.blocked_send_ns", per_slot(nt.blocked, nt.slots), "ns"),
        ("channel.send_drain_ns", channel, "ns"),
        (
            "trace_overhead_frac.sharded",
            overhead(rate(1), rate(2)),
            "ratio",
        ),
        (
            "trace_overhead_frac.net",
            overhead(rate(3), rate(4)),
            "ratio",
        ),
    ]);
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfledger: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workloads::build(&args.workload, args.seed) else {
        eprintln!(
            "perfledger: unknown workload {:?} (one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let cores = host::cores();
    println!("{{\"host\": {}}}", host::fingerprint_json());

    let committed = match committed_digests(args.seed) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfledger: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ledger = Ledger {
        wl: &wl,
        committed: if args.print_digests { None } else { committed },
        seen: BTreeMap::new(),
        attempted: 0,
        failed: 0,
    };
    let metrics = if args.trace {
        per_layer(&mut ledger, deadline, args.seed, cores)
    } else {
        end_to_end(&mut ledger, deadline, cores)
    };
    if args.print_digests {
        for (&(pi, sub, backend), d) in &ledger.seen {
            println!(
                "{} {} {backend} {d:016x}",
                wl.name,
                ledger.point_key(pi, sub)
            );
        }
    }

    let mut json = String::new();
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            ledger.fail(name, &format!("metric is {value}"));
        }
        let sep = if json.is_empty() { "" } else { ", " };
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    eprintln!(
        "{}: {} runs gated, {} failed, {:.1}s",
        wl.name,
        ledger.attempted,
        ledger.failed,
        start.elapsed().as_secs_f64()
    );
    let correct = ledger.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        ledger.attempted, ledger.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gates the serial run of `wl`'s first point at sub-seed 0 against
    /// `committed`; returns the number of failed checks.
    fn gate_first_point(wl: &Workload, committed: Option<Digests>) -> u64 {
        let mut ledger = Ledger {
            wl,
            committed,
            seen: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        };
        let run = arms::run(&wl.points[0], 0, Backend::Serial, false, 1);
        ledger.check(0, 0, Backend::Serial, &run, run.as_ref().ok());
        assert_eq!(ledger.attempted, 1);
        ledger.failed
    }

    #[test]
    fn a_wrong_committed_digest_fails_the_gate() {
        let wl = workloads::build("sweep-8x8", workloads::DEFAULT_SEED).unwrap();
        let committed = committed_digests(workloads::DEFAULT_SEED)
            .unwrap()
            .expect("the default seed has committed digests");
        assert_eq!(gate_first_point(&wl, Some(committed.clone())), 0);

        let key = (
            wl.name.to_string(),
            format!("{}/s0", wl.points[0].label),
            "serial".to_string(),
        );
        let mut tampered = committed;
        *tampered.get_mut(&key).expect("a committed serial digest") ^= 1;
        assert_eq!(gate_first_point(&wl, Some(tampered)), 1);
    }

    #[test]
    fn no_digest_applies_off_the_default_seed() {
        assert!(committed_digests(2).unwrap().is_none());
        let wl = workloads::build("sweep-8x8", 2).unwrap();
        assert_eq!(gate_first_point(&wl, None), 0);
    }
}
