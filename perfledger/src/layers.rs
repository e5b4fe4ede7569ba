//! Per-layer probes: each times one layer's public API on the inputs
//! the workload gives it, outside any engine.

use crate::workloads::Point;
use priority_star::prelude::*;
use priority_star::StarScheme;
use pstar_net::Channel;
use pstar_sim::{
    generate_arrivals_into, ArrivalSink, BroadcastState, Emit, Packet, PacketKind, PriorityQueue,
    Scheme, MAX_PRIORITY_CLASSES,
};
use pstar_traffic::{DestSampler, ScenarioCursor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Runs `pass` until `budget` is spent (at least `min_passes` times)
/// and returns each pass's host seconds.
pub fn timed_passes(budget: Duration, min_passes: usize, mut pass: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < min_passes || start.elapsed() < budget {
        let t0 = Instant::now();
        pass();
        secs.push(t0.elapsed().as_secs_f64());
    }
    secs
}

/// Median of a sample (the upper median for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Set-up cost of a workload, per repetition and summed over its
/// points.
pub struct Setup {
    /// Eq. (2)/(4) solves alone (points whose scheme solves one).
    pub balance_s: Vec<f64>,
    /// `ScenarioSpec::build_scheme`, which includes the solve.
    pub build_s: Vec<f64>,
    /// `Engine::new`.
    pub engine_new_s: Vec<f64>,
}

/// Builds every point's scheme and serial engine again and again until
/// `budget` is spent.
pub fn setup(points: &[Point], budget: Duration) -> Setup {
    let mut s = Setup {
        balance_s: Vec::new(),
        build_s: Vec::new(),
        engine_new_s: Vec::new(),
    };
    let start = Instant::now();
    while s.build_s.len() < 15 || start.elapsed() < budget {
        let (mut balance, mut build, mut new) = (0.0, 0.0, 0.0);
        for p in points {
            let mix = p.spec.mix(&p.topo);
            let t0 = Instant::now();
            match p.balance_solve() {
                Some(true) => {
                    black_box(balance_mixed(
                        &p.topo,
                        mix.lambda_broadcast,
                        mix.lambda_unicast,
                        false,
                    ));
                }
                Some(false) => {
                    black_box(balance_broadcast_only(&p.topo));
                }
                None => {}
            }
            balance += t0.elapsed().as_secs_f64();

            let t0 = Instant::now();
            let scheme = black_box(p.spec.build_scheme(&p.topo));
            build += t0.elapsed().as_secs_f64();

            let topo = p.topo.clone();
            let t0 = Instant::now();
            let engine = Engine::new(topo, scheme, mix, p.sim_cfg(0));
            new += t0.elapsed().as_secs_f64();
            drop(black_box(engine));
        }
        s.balance_s.push(balance);
        s.build_s.push(build);
        s.engine_new_s.push(new);
    }
    s
}

/// Probe inputs are sized to about this many calls per pass.
const CALLS_PER_PASS: usize = 60_000;

/// Median host nanoseconds per `StarScheme::on_broadcast_arrival`
/// call, over the arrivals of whole broadcast trees from random
/// sources (every point's own scheme).
pub fn forward_emits_ns(points: &[Point], seed: u64, budget: Duration) -> f64 {
    let schemes: Vec<StarScheme> = points
        .iter()
        .map(|p| p.spec.build_scheme(&p.topo))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events: Vec<(usize, NodeId, BroadcastState)> = Vec::new();
    let mut out: Vec<Emit> = Vec::new();
    let mut stack: Vec<(NodeId, Emit)> = Vec::new();
    for (si, (p, scheme)) in points.iter().zip(&schemes).enumerate() {
        let n = p.topo.node_count();
        let trees = CALLS_PER_PASS.div_ceil(points.len() * (n as usize - 1));
        for _ in 0..trees {
            let src = NodeId(rng.gen_range(0..n));
            scheme.on_broadcast_generated(src, &mut rng, &mut out);
            stack.extend(out.drain(..).map(|e| (src, e)));
            while let Some((from, e)) = stack.pop() {
                let PacketKind::Broadcast(state) = e.kind else {
                    unreachable!("broadcast trees emit broadcast copies only")
                };
                let to = p.topo.neighbor(from, e.dim as usize, e.dir);
                events.push((si, to, state));
                scheme.on_broadcast_arrival(to, &state, &mut out);
                stack.extend(out.drain(..).map(|e| (to, e)));
            }
        }
    }
    let secs = timed_passes(budget, 5, || {
        for (si, node, state) in &events {
            out.clear();
            schemes[*si].on_broadcast_arrival(*node, state, &mut out);
            black_box(&out);
        }
    });
    median(&secs) * 1e9 / events.len() as f64
}

/// Median host nanoseconds per `StarScheme::on_unicast_arrival` call,
/// over every hop of unicast paths between uniform random pairs.
pub fn unicast_emits_ns(points: &[Point], seed: u64, budget: Duration) -> f64 {
    let schemes: Vec<StarScheme> = points
        .iter()
        .map(|p| p.spec.build_scheme(&p.topo))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events: Vec<(usize, NodeId, NodeId)> = Vec::new();
    let mut out: Vec<Emit> = Vec::new();
    let per_point = CALLS_PER_PASS.div_ceil(points.len());
    for (si, (p, scheme)) in points.iter().zip(&schemes).enumerate() {
        let n = p.topo.node_count();
        let start = events.len();
        while events.len() - start < per_point {
            let src = NodeId(rng.gen_range(0..n));
            let dest = NodeId(rng.gen_range(0..n));
            let mut node = src;
            while node != dest {
                events.push((si, node, dest));
                out.clear();
                scheme.on_unicast_arrival(node, dest, &mut rng, &mut out);
                node = p.topo.neighbor(node, out[0].dim as usize, out[0].dir);
            }
        }
    }
    let secs = timed_passes(budget, 5, || {
        for (si, node, dest) in &events {
            out.clear();
            schemes[*si].on_unicast_arrival(*node, *dest, &mut rng, &mut out);
            black_box(&out);
        }
    });
    median(&secs) * 1e9 / events.len() as f64
}

/// An [`ArrivalSink`] that only counts the tasks it is handed.
struct CountingSink {
    rng: StdRng,
    dests: DestSampler,
    tasks: u64,
}

impl ArrivalSink for CountingSink {
    fn draw_ctx(&mut self) -> (&mut StdRng, &DestSampler) {
        (&mut self.rng, &self.dests)
    }

    fn source_dead(&self, _node: NodeId) -> bool {
        false
    }

    fn spawn(&mut self, _src: NodeId, _dest: Option<NodeId>) {
        self.tasks += 1;
    }
}

/// `generate_arrivals_into` over every point's warmup and measurement
/// window, with the point's mix, scenario and first sub-seed: median host
/// nanoseconds per slot, and tasks generated per slot (an exact count).
pub fn arrivals(points: &[Point], budget: Duration) -> (f64, f64) {
    let slots: u64 = points.iter().map(|p| p.sim_cfg(0).measure_end()).sum();
    let mut tasks = 0;
    let secs = timed_passes(budget, 5, || {
        tasks = 0;
        for p in points {
            let cfg = p.sim_cfg(0);
            let mut sink = CountingSink {
                rng: StdRng::seed_from_u64(cfg.seed),
                dests: cfg
                    .scenario
                    .resolve_dests(p.topo.dims())
                    .expect("benchmark scenarios are valid"),
                tasks: 0,
            };
            let mut cursor = ScenarioCursor::new(cfg.scenario);
            let mix = p.spec.mix(&p.topo);
            for slot in 0..cfg.measure_end() {
                generate_arrivals_into(&mut sink, &mut cursor, mix, p.topo.node_count(), slot);
            }
            tasks += black_box(sink.tasks);
        }
    });
    (
        median(&secs) * 1e9 / slots as f64,
        tasks as f64 / slots as f64,
    )
}

/// `PriorityQueue::push` + `pop` pairs on one queue per link of the
/// first point's torus, each held at `depth` packets, with classes
/// drawn from `class_share`: median host nanoseconds per pair.
pub fn queue_push_pop_ns(
    links: usize,
    depth: usize,
    class_share: &[f64],
    seed: u64,
    budget: Duration,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let total: f64 = class_share.iter().sum();
    let mut draw_class = || {
        let mut u = rng.gen::<f64>() * total;
        for (k, &w) in class_share.iter().enumerate() {
            if u < w {
                return k as u8;
            }
            u -= w;
        }
        (class_share.len().clamp(1, MAX_PRIORITY_CLASSES) - 1) as u8
    };
    let packet = |task: u32, priority: u8| Packet {
        task,
        gen_time: 0,
        enqueue_time: 0,
        len: 1,
        priority,
        vc: 0,
        attempt: 0,
        kind: PacketKind::Unicast { dest: NodeId(0) },
    };
    let mut queues: Vec<PriorityQueue> = (0..links).map(|_| PriorityQueue::new()).collect();
    for q in &mut queues {
        for i in 0..depth {
            q.push(packet(i as u32, draw_class()));
        }
    }
    let classes: Vec<u8> = (0..CALLS_PER_PASS).map(|_| draw_class()).collect();
    let secs = timed_passes(budget, 5, || {
        for (i, &c) in classes.iter().enumerate() {
            let q = &mut queues[i % links];
            q.push(packet(i as u32, c));
            black_box(q.pop());
        }
    });
    median(&secs) * 1e9 / classes.len() as f64
}

/// `Channel::send` + `drain_into` on a ring of `threads` threads: each
/// sends a batch to its successor's bounded channel, then drains its
/// own until the predecessor's batch is in. Median host nanoseconds per
/// message sent and drained by one thread, all threads running at once.
pub fn channel_send_drain_ns(threads: usize, budget: Duration) -> f64 {
    const BATCH: usize = 64;
    const ROUNDS: usize = 500;
    let secs = timed_passes(budget, 5, || {
        let chans: Vec<Channel<[u64; 4]>> = (0..threads).map(|_| Channel::bounded(BATCH)).collect();
        std::thread::scope(|s| {
            for t in 0..threads {
                let chans = &chans;
                s.spawn(move || {
                    let mut inbox = Vec::with_capacity(BATCH);
                    // Counted across rounds: a drain may already hold
                    // part of the predecessor's next batch.
                    let mut got = 0;
                    for r in 0..ROUNDS {
                        for i in 0..BATCH {
                            chans[(t + 1) % threads].send([r as u64, i as u64, t as u64, 0]);
                        }
                        while got < (r + 1) * BATCH {
                            inbox.clear();
                            chans[t].drain_into(&mut inbox);
                            got += inbox.len();
                            if inbox.is_empty() {
                                std::thread::yield_now();
                            }
                            black_box(&inbox);
                        }
                    }
                });
            }
        });
    });
    median(&secs) * 1e9 / (BATCH * ROUNDS) as f64
}
