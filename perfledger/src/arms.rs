//! One timed run of one point on one backend.
//!
//! Scheme and engine construction happen outside the timed region, so
//! every arm times simulation only. `pstar-net` has no separate
//! construction step: its timed region is the whole `run_net` call,
//! thread spawn and join included. The serial arm times its
//! construction separately, [`SETUP_REPS`] times: that is the
//! `setup_s` metric.

use crate::workloads::Point;
use pstar_net::{run_net, NetConfig, NetError, NetPerf};
use pstar_sim::{Engine, EnginePerf, EnginePerfConfig, ShardedEngine, SimReport};
use std::time::Instant;

/// Shard count of the sharded arm.
pub const SHARDS: usize = 2;

/// Worker count of the net arm. Fixed rather than read from the host:
/// on mixed traffic the runtime's report depends on the worker count,
/// and the committed digests must hold on any host.
pub const NET_WORKERS: usize = 2;

/// Scheme and engine builds the serial arm times per run. One build
/// takes well under a millisecond, so a single timing is mostly noise.
pub const SETUP_REPS: usize = 5;

/// The three backends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Serial,
    Sharded,
    Net,
}

impl Backend {
    pub fn label(self) -> &'static str {
        match self {
            Backend::Serial => "serial",
            Backend::Sharded => "sharded",
            Backend::Net => "net",
        }
    }
}

/// What one run produced.
pub struct Run {
    pub report: SimReport,
    /// Host seconds spent simulating.
    pub secs: f64,
    /// Host seconds of each `build_scheme` plus `Engine::new`: serial
    /// arm only, empty on the others.
    pub setup_secs: Vec<f64>,
    pub engine_perf: Option<EnginePerf>,
    pub net_perf: Option<NetPerf>,
    pub net_messages: u64,
}

impl Run {
    fn plain(report: SimReport, secs: f64) -> Self {
        Run {
            report,
            secs,
            setup_secs: Vec::new(),
            engine_perf: None,
            net_perf: None,
            net_messages: 0,
        }
    }
}

/// Sharded-engine thread count: one per shard, capped at the host's
/// cores.
pub fn sharded_threads(host_cores: usize) -> usize {
    SHARDS.min(host_cores).max(1)
}

/// Runs `p` at sub-seed `sub` on `backend`; `perf` turns on the backend's own telemetry
/// (the sharded engine's phase timers, the runtime's `NetConfig::perf`).
/// The serial engine has none.
pub fn run(
    p: &Point,
    sub: u64,
    backend: Backend,
    perf: bool,
    host_cores: usize,
) -> Result<Run, NetError> {
    let cfg = p.sim_cfg(sub);
    let mix = p.spec.mix(&p.topo);
    let run = match backend {
        Backend::Serial => {
            let mut setup_secs = Vec::with_capacity(SETUP_REPS);
            let mut engine = None;
            for _ in 0..SETUP_REPS {
                drop(engine.take());
                let topo = p.topo.clone();
                let t0 = Instant::now();
                let scheme = p.spec.build_scheme(&p.topo);
                engine = Some(Engine::new(topo, scheme, mix, cfg));
                setup_secs.push(t0.elapsed().as_secs_f64());
            }
            let engine = engine.expect("SETUP_REPS is at least 1");
            let t0 = Instant::now();
            let report = std::hint::black_box(engine.run());
            Run {
                setup_secs,
                ..Run::plain(report, t0.elapsed().as_secs_f64())
            }
        }
        Backend::Sharded => {
            let scheme = p.spec.build_scheme(&p.topo);
            let engine = ShardedEngine::new(p.topo.clone(), scheme, mix, cfg, SHARDS)
                .with_threads(sharded_threads(host_cores));
            let t0 = Instant::now();
            if perf {
                let (report, eperf) = engine.run_perf(EnginePerfConfig::default());
                Run {
                    engine_perf: Some(eperf),
                    ..Run::plain(report, t0.elapsed().as_secs_f64())
                }
            } else {
                let report = engine.run();
                Run::plain(report, t0.elapsed().as_secs_f64())
            }
        }
        Backend::Net => {
            let ncfg = NetConfig {
                workers: NET_WORKERS,
                perf,
                ..NetConfig::new(cfg)
            };
            let scheme = p.spec.build_scheme(&p.topo);
            let t0 = Instant::now();
            let rep = run_net(&p.topo, scheme, mix, ncfg)?;
            Run {
                net_perf: rep.perf,
                net_messages: rep.messages_sent,
                ..Run::plain(rep.report, t0.elapsed().as_secs_f64())
            }
        }
    };
    Ok(run)
}
