//! `experiments perf` — runtime telemetry bench: phase-timing
//! breakdowns for the sharded engine and the pstar-net runtime.
//!
//! Runs the reference scenario (16×16 torus, priority STAR, ρ = 0.9;
//! 8×8 under `--smoke`) through two arms, each bare and instrumented —
//! the sharded engine with [`EnginePerfConfig`] telemetry, and the
//! pstar-net runtime with [`pstar_net::NetConfig::perf`] — and writes:
//!
//! * a telemetry-overhead line (instrumented vs bare slots/sec,
//!   interleaved median-of-rounds) and a phase-breakdown table on
//!   stdout: per-barrier work vs wait time for every engine worker, the
//!   coordinator's k-way-merge/mid/end serial section, the measured
//!   **Amdahl decomposition** (serial fraction + predicted speedup at
//!   2/4/8/16 cores) and the per-worker net straggler spread;
//! * `results/perf_phases.svg` — stacked per-worker phase-time bars;
//! * `results/engine_phases.chrome.json` — a Chrome trace of the
//!   barrier phases (coordinator and worker tracks, work vs wait);
//! * `results/perf_metrics.prom` — a Prometheus text-exposition
//!   snapshot of the whole metrics registry (engine + net);
//! * `results/perf_stream.jsonl` — the bounded streaming snapshot sink
//!   sampled every N slots.
//!
//! The house rule this bench exists to police: telemetry must be
//! **zero-overhead when disabled** (one never-taken branch) and
//! **report-neutral when enabled** — instrumentation reads clocks, never
//! RNGs, so the instrumented report is bit-identical to the bare one.
//! Both properties are enforced fatally on every round; `--smoke` also
//! gates the enabled-telemetry overhead at < 5% for CI.

use crate::bench_util::{median, overhead_frac};
use crate::{fatal, Ctx};
use priority_star::prelude::*;
use pstar_net::{run_net, NetConfig, NetPerf};
use pstar_sim::PHASE_NAMES;
use std::fmt::Write as _;

/// Core counts the Amdahl projection is evaluated at.
const AMDAHL_KS: [usize; 4] = [2, 4, 8, 16];

/// Shard count of the instrumented sharded arm (threads are clamped to
/// the host).
const SHARDS: usize = 4;

/// Worker count of the instrumented net arm.
const NET_WORKERS: usize = 4;

/// Maximum telemetry-on slowdown the smoke gate tolerates.
const GATE_OVERHEAD: f64 = 0.05;

/// Tab-palette colors for the stacked phase bars: the five barrier
/// phases, then aggregate wait.
const PHASE_COLORS: [&str; 6] = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#9467bd", "#8c564b", "#c7c7c7",
];

/// Runs the interleaved telemetry bench, prints the phase table, writes
/// the stacked SVG, the Chrome phase trace, the Prometheus snapshot and
/// the JSONL stream; under `--smoke`, gates bit-identity (always,
/// fatally) and the < 5% overhead bound.
pub fn perf(ctx: &Ctx) {
    let topo = if ctx.smoke {
        Torus::new(&[8, 8])
    } else {
        Torus::new(&[16, 16])
    };
    let spec = ScenarioSpec {
        scheme: SchemeKind::PriorityStar,
        rho: 0.9,
        ..Default::default()
    };
    let mut cfg = if ctx.smoke {
        SimConfig::quick(0)
    } else {
        SimConfig {
            warmup_slots: 2_000,
            measure_slots: 10_000,
            max_slots: 400_000,
            ..SimConfig::default()
        }
    };
    cfg.seed = ctx.seed("perf", 0);
    let rounds = if ctx.smoke { 3 } else { 5 };
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let threads = SHARDS.min(host_cores);
    let net_workers = NET_WORKERS.min(host_cores.max(2));

    // Interleaved arms, median-of-rounds (bench_util discipline): the
    // bare and instrumented configurations alternate within each round
    // so warmup and frequency ramp cannot bias either side.
    let (mut off_secs, mut on_secs) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    let (mut net_off_secs, mut net_on_secs) =
        (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    let mut slots_run = 0u64;
    let mut net_slots_run = 0u64;
    for round in 0..rounds {
        let t0 = std::time::Instant::now();
        let off_rep = run_scenario_sharded(&topo, &spec, cfg, SHARDS, threads, None);
        off_secs.push(t0.elapsed().as_secs_f64());
        if !off_rep.ok() {
            fatal(
                "perf bench",
                &format!("sharded reference run did not complete cleanly (round {round})"),
            );
        }
        slots_run = off_rep.slots_run;

        let t0 = std::time::Instant::now();
        let (on_rep, _perf) = run_scenario_sharded_perf(
            &topo,
            &spec,
            cfg,
            SHARDS,
            threads,
            None,
            EnginePerfConfig::default(),
        );
        on_secs.push(t0.elapsed().as_secs_f64());
        // The zero-overhead house rule, half one: telemetry must never
        // change a reported number. Debug equality covers every field.
        if format!("{off_rep:?}") != format!("{on_rep:?}") {
            fatal(
                "perf bench",
                &format!("engine telemetry perturbed the report (round {round})"),
            );
        }

        let (net_off, net_on) = (net_point(&topo, &spec, cfg, net_workers, false), {
            net_point(&topo, &spec, cfg, net_workers, true)
        });
        net_off_secs.push(net_off.wall_secs);
        net_on_secs.push(net_on.wall_secs);
        net_slots_run = net_off.report.slots_run;
        if format!("{:?}", net_off.report) != format!("{:?}", net_on.report) {
            fatal(
                "perf bench",
                &format!("net telemetry perturbed the report (round {round})"),
            );
        }
    }

    let off_sps = slots_run as f64 / median(&mut off_secs);
    let on_sps = slots_run as f64 / median(&mut on_secs);
    let overhead = overhead_frac(off_sps, on_sps);
    let net_off_sps = net_slots_run as f64 / median(&mut net_off_secs);
    let net_on_sps = net_slots_run as f64 / median(&mut net_on_secs);
    let net_overhead = overhead_frac(net_off_sps, net_on_sps);
    println!(
        "perf bench: sharded s={SHARDS} t={threads} bare {off_sps:.0} vs instrumented {on_sps:.0} slots/s \
         (overhead {:.1}%); net w={net_workers} bare {net_off_sps:.0} vs \
         instrumented {net_on_sps:.0} slots/s (overhead {:.1}%); \
         median of {rounds}, host_cores={host_cores}",
        overhead * 100.0,
        net_overhead * 100.0
    );

    // Detail run: same seed, telemetry on, streaming sink attached.
    // Timing-neutral choices (sampling cadence, span capture) only
    // affect artifacts, so this run sits outside the timed rounds.
    let stream_path = ctx.out.join("perf_stream.jsonl");
    let detail_cfg = EnginePerfConfig {
        sample_every: (slots_run / 16).max(1),
        jsonl_path: Some(stream_path.clone()),
        ..EnginePerfConfig::default()
    };
    let (_, eperf) =
        run_scenario_sharded_perf(&topo, &spec, cfg, SHARDS, threads, None, detail_cfg);
    let net_detail = net_point(&topo, &spec, cfg, net_workers, true);
    let net_perf = net_detail
        .perf
        .as_ref()
        .expect("perf arm collects telemetry");

    print_phase_table(&eperf);
    print_net_table(net_perf);
    let s = eperf.serial_fraction();
    let mut amdahl = String::new();
    for (i, &k) in AMDAHL_KS.iter().enumerate() {
        if i > 0 {
            amdahl.push_str(", ");
        }
        let _ = write!(amdahl, "{k} cores {:.2}x", eperf.predicted_speedup(k));
    }
    println!("perf bench: measured serial fraction {s:.4} -> predicted speedup {amdahl}");

    // Exporters: net telemetry lands in the engine run's registry so one
    // Prometheus snapshot covers both layers.
    net_perf.publish(&eperf.registry);
    let prom_path = ctx.out.join("perf_metrics.prom");
    if let Err(e) = std::fs::write(&prom_path, eperf.registry.prometheus_text()) {
        fatal(&format!("writing {}", prom_path.display()), &e);
    }
    println!(
        "wrote {} ({} jsonl samples in {})",
        prom_path.display(),
        eperf.jsonl_lines,
        stream_path.display()
    );

    write_phase_svg(ctx, &topo, &eperf);
    let trace_path = ctx.out.join("engine_phases.chrome.json");
    if let Err(e) = std::fs::write(&trace_path, pstar_obs::chrome_trace_phases(&eperf.spans)) {
        fatal(&format!("writing {}", trace_path.display()), &e);
    }
    println!(
        "wrote {} ({} phase spans)",
        trace_path.display(),
        eperf.spans.len()
    );
    ctx.push_phase("perf-bench", off_secs.iter().sum(), Some(slots_run));

    if ctx.smoke {
        // Bit-identity already gated fatally above, every round, both
        // layers — half two of the house rule is the overhead bound.
        if overhead < GATE_OVERHEAD {
            println!(
                "PASS  perf-overhead: engine telemetry costs {:.1}% (< {:.0}%)",
                overhead * 100.0,
                GATE_OVERHEAD * 100.0
            );
        } else {
            eprintln!(
                "FAIL  perf-overhead: engine telemetry costs {:.1}% (>= {:.0}%)",
                overhead * 100.0,
                GATE_OVERHEAD * 100.0
            );
            std::process::exit(1);
        }
    }
}

/// One net-runtime run with telemetry on or off.
fn net_point(
    topo: &Torus,
    spec: &ScenarioSpec,
    mut cfg: SimConfig,
    workers: usize,
    perf: bool,
) -> pstar_net::NetReport {
    cfg.lengths = spec.lengths;
    match run_net(
        topo,
        spec.build_scheme(topo),
        spec.mix(topo),
        NetConfig {
            workers,
            perf,
            ..NetConfig::new(cfg)
        },
    ) {
        Ok(rep) => rep,
        Err(e) => fatal("perf bench: net arm", &e),
    }
}

/// The stdout phase table: one row per barrier phase with summed
/// work/wait across engine workers, then the coordinator's serial
/// section.
fn print_phase_table(p: &EnginePerf) {
    println!(
        "perf bench: engine phase breakdown (s={} t={}, {} slots, wall {:.3}s)",
        p.shards,
        p.workers,
        p.slots,
        p.wall_ns as f64 / 1e9
    );
    println!("  {:<10} {:>12} {:>12}", "phase", "work_ms", "wait_ms");
    for (i, name) in PHASE_NAMES.iter().enumerate() {
        let work: u64 = p.worker_phases.iter().map(|w| w.work_ns[i]).sum();
        let wait: u64 = p.worker_phases.iter().map(|w| w.wait_ns[i]).sum();
        println!(
            "  {:<10} {:>12.3} {:>12.3}",
            name,
            work as f64 / 1e6,
            wait as f64 / 1e6
        );
    }
    println!(
        "  {:<10} {:>12.3} {:>12}  (k-way merge of {} msgs)",
        "coord:merge",
        p.coord.merge_ns as f64 / 1e6,
        "-",
        p.merged_msgs
    );
    println!(
        "  {:<10} {:>12.3} {:>12}",
        "coord:mid",
        p.coord.mid_ns as f64 / 1e6,
        "-"
    );
    println!(
        "  {:<10} {:>12.3} {:>12.3}",
        "coord:end",
        p.coord.end_ns as f64 / 1e6,
        p.coord.wait_ns as f64 / 1e6
    );
    let arena_high = p.arena_slots.iter().copied().max().unwrap_or(0);
    let free_high = p.free_list_len.iter().copied().max().unwrap_or(0);
    println!(
        "  boundary packets {} | arena high-water {} slots/shard | free-list high {} ",
        p.boundary_packets, arena_high, free_high
    );
}

/// The stdout straggler table: per-net-worker slot-time spread. A
/// straggler shows as one worker whose median/max run away from the
/// fleet while everyone else's barrier waits balloon.
fn print_net_table(p: &NetPerf) {
    println!("perf bench: net per-worker slot times (stragglers show here)");
    println!(
        "  {:<7} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "worker", "min_us", "median_us", "max_us", "wait_ms", "blocked_ms"
    );
    for w in &p.workers {
        println!(
            "  {:<7} {:>10.1} {:>10.1} {:>10.1} {:>12.3} {:>12.3}",
            w.worker,
            w.slot_ns_min as f64 / 1e3,
            w.slot_ns_median as f64 / 1e3,
            w.slot_ns_max as f64 / 1e3,
            w.wait_ns_total() as f64 / 1e6,
            w.blocked_send_ns as f64 / 1e6
        );
    }
}

/// Stacked horizontal bars, one per engine worker plus the coordinator:
/// the five barrier phases' work time in palette colors, aggregate wait
/// in gray. Hand-rolled — `svg::Chart` draws line charts.
fn write_phase_svg(ctx: &Ctx, topo: &Torus, p: &EnginePerf) {
    const W: f64 = 640.0;
    const BAR_H: f64 = 26.0;
    const LEFT: f64 = 110.0;
    const TOP: f64 = 56.0;
    let rows: Vec<(String, Vec<u64>, u64)> = std::iter::once((
        "coordinator".to_string(),
        vec![p.coord.merge_ns, p.coord.mid_ns, p.coord.end_ns, 0, 0],
        p.coord.wait_ns,
    ))
    .chain(
        p.worker_phases
            .iter()
            .enumerate()
            .map(|(i, w)| (format!("worker {i}"), w.work_ns.to_vec(), w.wait_total())),
    )
    .collect();
    let max_total = rows
        .iter()
        .map(|(_, work, wait)| work.iter().sum::<u64>() + wait)
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let height = TOP + rows.len() as f64 * (BAR_H + 10.0) + 40.0;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\" \
         viewBox=\"0 0 {} {}\" font-family=\"sans-serif\" font-size=\"12\">",
        W as u32, height as u32, W as u32, height as u32
    );
    let dims: Vec<String> = (0..topo.d())
        .map(|i| topo.dim_size(i).to_string())
        .collect();
    let _ = writeln!(
        s,
        "<text x=\"{}\" y=\"20\" text-anchor=\"middle\" font-size=\"14\">\
         phase time per track, torus({}) rho=0.9, {} slots</text>",
        W / 2.0,
        dims.join("x"),
        p.slots
    );
    // Legend: phase colors, then wait.
    let mut lx = LEFT;
    for (i, name) in PHASE_NAMES.iter().chain(["wait"].iter()).enumerate() {
        let color = PHASE_COLORS[i.min(PHASE_COLORS.len() - 1)];
        let _ = writeln!(
            s,
            "<rect x=\"{lx}\" y=\"30\" width=\"10\" height=\"10\" fill=\"{color}\"/>\
             <text x=\"{}\" y=\"39\">{name}</text>",
            lx + 14.0
        );
        lx += 14.0 + 9.0 * name.len() as f64 + 14.0;
    }
    for (row, (label, work, wait)) in rows.iter().enumerate() {
        let y = TOP + row as f64 * (BAR_H + 10.0);
        let _ = writeln!(
            s,
            "<text x=\"{}\" y=\"{}\" text-anchor=\"end\">{label}</text>",
            LEFT - 8.0,
            y + BAR_H * 0.7
        );
        let mut x = LEFT;
        let scale = (W - LEFT - 20.0) / max_total;
        for (i, &ns) in work.iter().enumerate() {
            let seg = ns as f64 * scale;
            if seg > 0.0 {
                let _ = writeln!(
                    s,
                    "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{seg:.1}\" \
                     height=\"{BAR_H}\" fill=\"{}\"/>",
                    PHASE_COLORS[i]
                );
            }
            x += seg;
        }
        let seg = *wait as f64 * scale;
        if seg > 0.0 {
            let _ = writeln!(
                s,
                "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{seg:.1}\" height=\"{BAR_H}\" \
                 fill=\"{}\"/>",
                PHASE_COLORS[5]
            );
        }
    }
    let _ = writeln!(s, "</svg>");
    let path = ctx.out.join("perf_phases.svg");
    if let Err(e) = std::fs::write(&path, s) {
        fatal(&format!("writing {}", path.display()), &e);
    }
    println!("plotted {}", path.display());
}
