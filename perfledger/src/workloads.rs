//! The three benchmark workloads, as lists of simulation points.
//!
//! A workload is a fixed list of `(torus, scenario, config)` points run
//! in order. Every backend runs the same points; only the seed comes
//! from the command line.

use priority_star::prelude::*;

/// Seed at which the committed report digests apply.
pub const DEFAULT_SEED: u64 = 1;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["bcast16-hi", "mixed-asym-burst", "sweep-8x8"];

/// One simulation point of a workload.
pub struct Point {
    /// Short label for logs and the digest file.
    pub label: String,
    pub topo: Torus,
    pub spec: ScenarioSpec,
    /// Run configuration; `sim_cfg` folds the spec's length law and
    /// scenario in, as `run_scenario` does, and sets the sub-seed.
    cfg: SimConfig,
}

impl Point {
    /// The configuration every backend runs this point with at
    /// sub-seed `sub`.
    pub fn sim_cfg(&self, sub: u64) -> SimConfig {
        SimConfig {
            lengths: self.spec.lengths,
            scenario: self.spec.scenario,
            seed: mix_seed(self.cfg.seed, sub),
            ..self.cfg
        }
    }

    /// Broadcast-only points are inside `pstar-net`'s exact-count
    /// agreement contract; mixed points are not (unicast forwarding
    /// draws come from per-worker streams there).
    pub fn broadcast_only(&self) -> bool {
        self.spec.broadcast_load_fraction >= 1.0
    }

    /// Whether `build_scheme` solves a balance equation for this point,
    /// and which: `Some(true)` for Eq. (4), `Some(false)` for Eq. (2).
    pub fn balance_solve(&self) -> Option<bool> {
        match self.spec.scheme {
            SchemeKind::PriorityStar | SchemeKind::ThreeClass | SchemeKind::FcfsBalanced => {
                let mix = self.spec.mix(&self.topo);
                Some(mix.lambda_unicast > 0.0 && mix.lambda_broadcast > 0.0)
            }
            SchemeKind::FcfsDirect | SchemeKind::DimensionOrdered => None,
        }
    }
}

/// A named workload.
pub struct Workload {
    pub name: &'static str,
    pub points: Vec<Point>,
    /// Round `r` runs every point at sub-seed `r % subseeds`. An
    /// untraced run covers at least `subseeds` rounds, and its simulated
    /// metrics average over all of them: they depend on the seed alone,
    /// cover many windows, and each timing sample stays short.
    pub subseeds: u64,
}

/// splitmix64: derives independent per-point seeds from the workload
/// seed.
fn mix_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn window(warmup: u64, measure: u64, seed: u64) -> SimConfig {
    SimConfig {
        warmup_slots: warmup,
        measure_slots: measure,
        max_slots: 400_000,
        seed,
        ..SimConfig::default()
    }
}

/// Builds the named workload at `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let (points, subseeds) = match name {
        // Fig. 3's top point: deep ending-dimension queues, per-packet
        // forwarding and delivery dominate.
        "bcast16-hi" => (
            vec![Point {
                label: "pstar-rho0.9".into(),
                topo: Torus::new(&[16, 16]),
                spec: ScenarioSpec {
                    scheme: SchemeKind::PriorityStar,
                    rho: 0.9,
                    ..ScenarioSpec::default()
                },
                cfg: window(1_000, 4_000, mix_seed(seed, 0)),
            }],
            12,
        ),
        // Table 1's asymmetric torus, 50/50 mix, Eq. (4) balance, three
        // classes, bursty MMPP arrivals.
        "mixed-asym-burst" => (
            vec![Point {
                label: "three-class-rho0.6-mmpp".into(),
                topo: Torus::new(&[4, 4, 8]),
                spec: ScenarioSpec {
                    scheme: SchemeKind::ThreeClass,
                    rho: 0.6,
                    broadcast_load_fraction: 0.5,
                    scenario: ScenarioConfig {
                        modulation: RateModulation::mmpp_normalized(0.02, 0.02, 4.0),
                        ..ScenarioConfig::default()
                    },
                    ..ScenarioSpec::default()
                },
                cfg: window(1_500, 6_000, mix_seed(seed, 0)),
            }],
            12,
        ),
        // A figure-style sweep: many short points, each with its own
        // scheme and engine build. Schemes at one ρ share a seed
        // (common random numbers), as the figure sweeps do.
        "sweep-8x8" => {
            let rhos = [0.3, 0.5, 0.7, 0.9];
            let mut points = Vec::new();
            for kind in SchemeKind::all() {
                for (ri, &rho) in rhos.iter().enumerate() {
                    points.push(Point {
                        label: format!("{}-rho{rho}", kind.label()),
                        topo: Torus::new(&[8, 8]),
                        spec: ScenarioSpec {
                            scheme: kind,
                            rho,
                            ..ScenarioSpec::default()
                        },
                        cfg: window(300, 1_200, mix_seed(seed, ri as u64)),
                    });
                }
            }
            (points, 6)
        }
        _ => return None,
    };
    Some(Workload {
        name: NAMES.iter().find(|n| **n == name)?,
        points,
        subseeds,
    })
}
