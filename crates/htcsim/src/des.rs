//! Sharded parallel discrete-event engine with an epoch barrier.
//!
//! [`EventQueue`](crate::event::EventQueue) pins the *ordering* of
//! events with its `(time, lane, seq)` key; this module adds the
//! *execution* side: an engine that drains many event lanes
//! concurrently over the vendored rayon fork-join pool and still
//! produces bitwise-identical results at every thread count —
//! including a purely monolithic single-heap run.
//!
//! ## Model
//!
//! State is partitioned into **lanes** (one [`LaneModel`] each — a pool,
//! a machine group). Each lane owns a private event heap ordered by
//! `(time, per-lane seq)` and a private RNG stream split off the base
//! seed with [`crate::fault::lane_seed`]. Simulated time advances in
//! fixed-width **epochs**:
//!
//! 1. the next epoch is the one containing the globally earliest
//!    pending event (a k-way min over lane heads — the merge point);
//! 2. every lane independently drains its events with `time <
//!    epoch_end`, scheduling lane-local follow-ups immediately and
//!    buffering cross-lane messages in an outbox;
//! 3. at the **barrier**, outboxes are delivered in lane order; a
//!    message sent at `t` arrives no earlier than the epoch boundary
//!    after `t` (a pure function of `t`, never of scheduling), which is
//!    the lookahead that makes step 2 safe to run in parallel.
//!
//! Within a lane, events are handled in exactly the order a global
//! `(time, lane, seq)` merge would handle them; across lanes, the only
//! interaction channel is the barrier. Both facts together give the
//! determinism contract: `run_sharded(threads)` and [`run_monolithic`]
//! (one global heap, no parallelism) fold byte-identical digests.
//!
//! [`run_monolithic`]: ShardedEngine::run_monolithic

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fault::lane_seed;
use crate::rand_util::lognormal_median;
use crate::time::SimTime;

/// FNV-1a fold of one word into a running digest. Lane models use this
/// to fingerprint every handled event; the engine folds lane digests in
/// lane order, so the combined digest pins the full execution history.
pub fn digest_fold(h: u64, x: u64) -> u64 {
    let mut h = h ^ x;
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    h ^ (h >> 32)
}

/// Initial digest state (FNV-1a offset basis).
pub const DIGEST_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// One lane's state machine.
pub trait LaneModel: Send {
    /// Event type carried on this lane.
    type Ev: Send + Clone;

    /// Handle one event at simulated time `now`; follow-ups and
    /// cross-lane messages go through `fx`.
    fn handle(&mut self, now: SimTime, ev: Self::Ev, fx: &mut Effects<Self::Ev>);

    /// Order-sensitive digest of everything this lane has processed.
    fn digest(&self) -> u64;
}

/// A cross-lane message buffered until the epoch barrier.
struct Mail<E> {
    to: u32,
    recv: SimTime,
    ev: E,
}

/// Scheduling effects a handler may emit: lane-local follow-ups (made
/// visible to the lane's own heap immediately) and cross-lane sends
/// (buffered; delivered at the epoch barrier).
pub struct Effects<'a, E> {
    lane: u32,
    now: SimTime,
    epoch_s: u64,
    local: &'a mut Vec<(SimTime, E)>,
    mail: &'a mut Vec<Mail<E>>,
}

impl<E> Effects<'_, E> {
    /// The lane this handler runs on.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Schedule a lane-local follow-up `delay` seconds from now. It may
    /// land inside the current epoch and will be handled there.
    pub fn schedule(&mut self, delay: u64, ev: E) {
        self.local.push((self.now + delay, ev));
    }

    /// Send `ev` to lane `to`. It arrives at
    /// `max(now + delay, next epoch boundary after now)` — a pure
    /// function of the send time, so monolithic and sharded execution
    /// agree on the delivery timestamp. Sending to the own lane is
    /// allowed and still routes through the barrier.
    pub fn send(&mut self, to: u32, delay: u64, ev: E) {
        let boundary = SimTime((self.now.as_secs() / self.epoch_s + 1) * self.epoch_s);
        let recv = SimTime((self.now + delay).as_secs().max(boundary.as_secs()));
        self.mail.push(Mail { to, recv, ev });
    }
}

/// Lane-heap entry ordered by `(time, seq)` — the per-lane restriction
/// of the global `(time, lane, seq)` key.
struct LEntry<E> {
    time: SimTime,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for LEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<E> Eq for LEntry<E> {}
impl<E> Ord for LEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl<E> PartialOrd for LEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct LaneRt<M: LaneModel> {
    model: M,
    heap: BinaryHeap<Reverse<LEntry<M::Ev>>>,
    /// Per-lane push counter — identical across run modes because only
    /// pushes to *this* lane bump it, and those happen in this lane's
    /// processing order in every mode.
    seq: u64,
    outbox: Vec<Mail<M::Ev>>,
    handled: u64,
    last_time: SimTime,
}

impl<M: LaneModel> LaneRt<M> {
    fn push(&mut self, time: SimTime, ev: M::Ev) {
        self.heap.push(Reverse(LEntry {
            time,
            seq: self.seq,
            ev,
        }));
        self.seq += 1;
    }

    /// Drain every event with `time < epoch_end`, handling lane-local
    /// follow-ups that land inside the epoch in the same pass.
    fn drain_epoch(&mut self, lane: u32, epoch_end: SimTime, epoch_s: u64) {
        let mut local: Vec<(SimTime, M::Ev)> = Vec::new();
        while let Some(Reverse(head)) = self.heap.peek() {
            if head.time >= epoch_end {
                break;
            }
            let Reverse(e) = self.heap.pop().expect("peeked");
            self.handled += 1;
            self.last_time = e.time;
            let mut fx = Effects {
                lane,
                now: e.time,
                epoch_s,
                local: &mut local,
                mail: &mut self.outbox,
            };
            self.model.handle(e.time, e.ev, &mut fx);
            for (t, ev) in local.drain(..) {
                self.push(t, ev);
            }
        }
    }
}

/// Run totals; every field is mode- and thread-invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineReport {
    /// Events handled across all lanes.
    pub events: u64,
    /// Time of the last handled event.
    pub makespan: SimTime,
    /// Combined digest (per-lane digests + counters folded in lane
    /// order) — the byte-identity gate between run modes.
    pub digest: u64,
}

/// The epoch-barrier engine over a set of lanes.
pub struct ShardedEngine<M: LaneModel> {
    lanes: Vec<LaneRt<M>>,
    epoch_s: u64,
}

impl<M: LaneModel> ShardedEngine<M> {
    /// Build an engine over `models` (lane index = position) with the
    /// given epoch width in seconds (clamped to at least 1).
    pub fn new(models: Vec<M>, epoch_s: u64) -> Self {
        ShardedEngine {
            lanes: models
                .into_iter()
                .map(|model| LaneRt {
                    model,
                    heap: BinaryHeap::new(),
                    seq: 0,
                    outbox: Vec::new(),
                    handled: 0,
                    last_time: SimTime::ZERO,
                })
                .collect(),
            epoch_s: epoch_s.max(1),
        }
    }

    /// Number of lanes.
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Seed an initial event onto `lane` at absolute `time`.
    pub fn seed_event(&mut self, lane: u32, time: SimTime, ev: M::Ev) {
        self.lanes[lane as usize].push(time, ev);
    }

    /// Iterate the lane models (for post-run statistics).
    pub fn models(&self) -> impl Iterator<Item = &M> {
        self.lanes.iter().map(|l| &l.model)
    }

    fn report(&self) -> EngineReport {
        let mut events = 0;
        let mut makespan = SimTime::ZERO;
        let mut digest = DIGEST_INIT;
        for l in &self.lanes {
            events += l.handled;
            makespan = makespan.max(l.last_time);
            digest = digest_fold(digest, l.model.digest());
            digest = digest_fold(digest, l.handled);
            digest = digest_fold(digest, l.last_time.as_secs());
        }
        EngineReport {
            events,
            makespan,
            digest,
        }
    }

    /// Deliver every buffered cross-lane message, iterating source lanes
    /// in index order (each outbox is already in its lane's processing
    /// order — the same order in every run mode, so target-lane seq
    /// assignment is mode-invariant).
    fn deliver_mail(&mut self) {
        let mut pending: Vec<Mail<M::Ev>> = Vec::new();
        for l in &mut self.lanes {
            pending.append(&mut l.outbox);
        }
        for m in pending {
            self.lanes[m.to as usize].push(m.recv, m.ev);
        }
    }

    /// Earliest pending event time across all lanes (the k-way merge).
    fn next_time(&self) -> Option<SimTime> {
        self.lanes
            .iter()
            .filter_map(|l| l.heap.peek().map(|Reverse(e)| e.time))
            .min()
    }

    /// Run to completion, draining lanes in parallel over a fork-join
    /// budget of `threads` (1 = sequential). Returns mode-invariant
    /// totals.
    pub fn run_sharded(&mut self, threads: usize) -> EngineReport {
        let epoch_s = self.epoch_s;
        while let Some(next) = self.next_time() {
            let epoch_end = SimTime((next.as_secs() / epoch_s + 1) * epoch_s);
            Self::drain_all(&mut self.lanes, threads.max(1), epoch_end, epoch_s);
            self.deliver_mail();
        }
        self.report()
    }

    /// Recursive fork-join drain over the lane slice with an explicit
    /// thread budget: `threads = 1` is exactly the sequential loop, and
    /// larger budgets split deterministically down the middle — the
    /// split points never depend on scheduling, and each half carries
    /// its base lane index so handlers know their lane.
    fn drain_all(lanes: &mut [LaneRt<M>], threads: usize, epoch_end: SimTime, epoch_s: u64) {
        fn rec<M: LaneModel>(
            base: u32,
            lanes: &mut [LaneRt<M>],
            threads: usize,
            epoch_end: SimTime,
            epoch_s: u64,
        ) {
            if threads <= 1 || lanes.len() <= 1 {
                for (i, l) in lanes.iter_mut().enumerate() {
                    l.drain_epoch(base + i as u32, epoch_end, epoch_s);
                }
                return;
            }
            let mid = lanes.len() / 2;
            let (a, b) = lanes.split_at_mut(mid);
            let ta = threads.div_ceil(2);
            let tb = (threads / 2).max(1);
            // fdwlint::allow(raw-parallelism): lanes within an epoch are data-independent (cross-lane mail buffers in per-lane outboxes until the barrier), so any fork-join split produces the same per-lane state bitwise
            rayon::join(
                || rec(base, a, ta, epoch_end, epoch_s),
                || rec(base + mid as u32, b, tb, epoch_end, epoch_s),
            );
        }
        rec(0, lanes, threads, epoch_end, epoch_s);
    }

    /// Run to completion on **one global heap** keyed by the full
    /// `(time, lane, seq)` order — the classic monolithic DES loop, with
    /// the same epoch-barrier mail semantics. This is both the perf
    /// baseline for `des_scaling` and the reference the sharded digest
    /// must match bit-for-bit.
    pub fn run_monolithic(&mut self) -> EngineReport {
        struct GEntry<E> {
            time: SimTime,
            lane: u32,
            seq: u64,
            ev: E,
        }
        impl<E> PartialEq for GEntry<E> {
            fn eq(&self, other: &Self) -> bool {
                (self.time, self.lane, self.seq) == (other.time, other.lane, other.seq)
            }
        }
        impl<E> Eq for GEntry<E> {}
        impl<E> Ord for GEntry<E> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                (self.time, self.lane, self.seq).cmp(&(other.time, other.lane, other.seq))
            }
        }
        impl<E> PartialOrd for GEntry<E> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let epoch_s = self.epoch_s;
        let mut heap: BinaryHeap<Reverse<GEntry<M::Ev>>> = BinaryHeap::new();
        for (i, l) in self.lanes.iter_mut().enumerate() {
            while let Some(Reverse(e)) = l.heap.pop() {
                heap.push(Reverse(GEntry {
                    time: e.time,
                    lane: i as u32,
                    seq: e.seq,
                    ev: e.ev,
                }));
            }
        }
        let mut local: Vec<(SimTime, M::Ev)> = Vec::new();
        while let Some(Reverse(head)) = heap.peek() {
            let epoch_end = SimTime((head.time.as_secs() / epoch_s + 1) * epoch_s);
            while let Some(Reverse(head)) = heap.peek() {
                if head.time >= epoch_end {
                    break;
                }
                let Reverse(e) = heap.pop().expect("peeked");
                let l = &mut self.lanes[e.lane as usize];
                l.handled += 1;
                l.last_time = e.time;
                let mut fx = Effects {
                    lane: e.lane,
                    now: e.time,
                    epoch_s,
                    local: &mut local,
                    mail: &mut l.outbox,
                };
                l.model.handle(e.time, e.ev, &mut fx);
                for (t, ev) in local.drain(..) {
                    heap.push(Reverse(GEntry {
                        time: t,
                        lane: e.lane,
                        seq: l.seq,
                        ev,
                    }));
                    l.seq += 1;
                }
            }
            // Barrier: deliver outboxes in lane order, assigning target
            // lane seqs exactly as `deliver_mail` does.
            let mut pending: Vec<Mail<M::Ev>> = Vec::new();
            for l in &mut self.lanes {
                pending.append(&mut l.outbox);
            }
            for m in pending {
                let l = &mut self.lanes[m.to as usize];
                heap.push(Reverse(GEntry {
                    time: m.recv,
                    lane: m.to,
                    seq: l.seq,
                    ev: m.ev,
                }));
                l.seq += 1;
            }
        }
        self.report()
    }
}

/// Configuration of the synthetic federated pool used by the
/// `des_scaling` bench and the differential tests: `lanes` machine
/// groups with `slots_per_lane` slots each, `jobs_per_lane` jobs whose
/// arrivals spread over `arrival_horizon_s`.
#[derive(Debug, Clone, Copy)]
pub struct SynthConfig {
    /// Machine-group lanes.
    pub lanes: u32,
    /// Execution slots per lane.
    pub slots_per_lane: u32,
    /// Jobs arriving per lane.
    pub jobs_per_lane: u32,
    /// Arrival window in seconds.
    pub arrival_horizon_s: u64,
    /// Median job runtime in seconds.
    pub median_runtime_s: f64,
    /// Epoch width in seconds (also the minimum cross-lane latency).
    pub epoch_s: u64,
    /// RNG base seed (lane streams split via [`lane_seed`]).
    pub seed: u64,
    /// Queue depth beyond which a lane sheds arriving jobs to a
    /// neighbour lane (cross-shard migration traffic). 0 = never.
    pub shed_depth: usize,
}

impl SynthConfig {
    /// The reduced-scale smoke shape (CI-friendly).
    pub fn smoke() -> Self {
        SynthConfig {
            lanes: 16,
            slots_per_lane: 64,
            jobs_per_lane: 500,
            arrival_horizon_s: 2_000,
            median_runtime_s: 300.0,
            epoch_s: 60,
            seed: 7,
            shed_depth: 32,
        }
    }

    /// The paper-scale shape: 10^5 slots, 10^6 jobs.
    pub fn full() -> Self {
        SynthConfig {
            lanes: 64,
            slots_per_lane: 1_563, // 64 × 1563 ≈ 10^5 slots
            jobs_per_lane: 15_625, // 64 × 15625 = 10^6 jobs
            arrival_horizon_s: 4_000,
            median_runtime_s: 600.0,
            epoch_s: 60,
            seed: 7,
            shed_depth: 256,
        }
    }
}

/// Synthetic pool events.
#[derive(Debug, Clone, Copy)]
pub enum SynthEv {
    /// A job (with `work` seconds of runtime) arrives on the lane.
    Arrive {
        /// Runtime in seconds.
        work: u32,
    },
    /// A running job finishes, freeing a slot.
    Done,
    /// Stale wall-time guard (usually a no-op by the time it fires) —
    /// kept in the heap to model the timeout-event pressure a real
    /// HTCondor queue carries.
    Stale,
}

/// One synthetic machine-group lane.
pub struct SynthLane {
    lane: u32,
    n_lanes: u32,
    slots_free: u32,
    idle: VecDeque<u32>,
    rng: StdRng,
    digest: u64,
    shed_depth: usize,
    /// Jobs completed on this lane.
    pub completed: u64,
    /// Jobs shed to a neighbour lane (cross-shard migrations).
    pub migrated_out: u64,
}

impl SynthLane {
    fn start(&mut self, now: SimTime, work: u32, fx: &mut Effects<SynthEv>) {
        self.slots_free -= 1;
        fx.schedule(u64::from(work).max(1), SynthEv::Done);
        // The wall-time guard outlives the job by 4x: by the time it
        // fires the attempt is long gone, but it sat in the heap the
        // whole while — the stale-event pressure of a real queue.
        fx.schedule((u64::from(work) * 4).max(4), SynthEv::Stale);
        self.digest = digest_fold(self.digest, now.as_secs() ^ (u64::from(work) << 32));
    }
}

impl LaneModel for SynthLane {
    type Ev = SynthEv;

    fn handle(&mut self, now: SimTime, ev: SynthEv, fx: &mut Effects<SynthEv>) {
        match ev {
            SynthEv::Arrive { work } => {
                self.digest = digest_fold(self.digest, 0xA55 ^ u64::from(work));
                if self.slots_free > 0 {
                    self.start(now, work, fx);
                } else if self.shed_depth > 0
                    && self.n_lanes > 1
                    && self.idle.len() >= self.shed_depth
                {
                    // Load-shed to a pseudo-random neighbour: the draw
                    // comes from the lane-local stream, so the choice is
                    // identical in every run mode.
                    let span = u64::from(self.n_lanes - 1);
                    let pick = (lognormal_median(&mut self.rng, 1.0, 0.5) * 1e6) as u64 % span;
                    let to = (self.lane + 1 + pick as u32) % self.n_lanes;
                    self.migrated_out += 1;
                    self.digest = digest_fold(self.digest, 0x316 ^ u64::from(to));
                    fx.send(to, 30, SynthEv::Arrive { work });
                } else {
                    self.idle.push_back(work);
                }
            }
            SynthEv::Done => {
                self.completed += 1;
                self.slots_free += 1;
                self.digest = digest_fold(self.digest, 0xD00E ^ now.as_secs());
                if let Some(work) = self.idle.pop_front() {
                    self.start(now, work, fx);
                }
            }
            SynthEv::Stale => {
                self.digest = digest_fold(self.digest, 0x57A1E);
            }
        }
    }

    fn digest(&self) -> u64 {
        digest_fold(digest_fold(self.digest, self.completed), self.migrated_out)
    }
}

/// Build the synthetic engine: one lane per machine group, per-lane RNG
/// streams split from `cfg.seed`, arrivals pre-scheduled over the
/// horizon. Identical construction every call — the bench builds one
/// engine per run mode and compares digests.
pub fn synth_engine(cfg: &SynthConfig) -> ShardedEngine<SynthLane> {
    let models = (0..cfg.lanes)
        .map(|lane| SynthLane {
            lane,
            n_lanes: cfg.lanes,
            slots_free: cfg.slots_per_lane,
            idle: VecDeque::new(),
            rng: StdRng::seed_from_u64(lane_seed(cfg.seed, lane)),
            digest: DIGEST_INIT,
            shed_depth: cfg.shed_depth,
            completed: 0,
            migrated_out: 0,
        })
        .collect();
    let mut engine = ShardedEngine::new(models, cfg.epoch_s);
    for lane in 0..cfg.lanes {
        // A separate arrival stream per lane, split from the same base
        // seed, so seeding order inside a lane is fixed forever.
        let mut rng = StdRng::seed_from_u64(lane_seed(cfg.seed ^ 0x0A11_1BA1, lane));
        for _ in 0..cfg.jobs_per_lane {
            let t = (lognormal_median(&mut rng, cfg.arrival_horizon_s as f64 / 2.0, 0.8) as u64)
                .min(cfg.arrival_horizon_s);
            let work = lognormal_median(&mut rng, cfg.median_runtime_s, 0.6).max(1.0) as u32;
            engine.seed_event(lane, SimTime(t), SynthEv::Arrive { work });
        }
    }
    engine
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SynthConfig {
        SynthConfig {
            lanes: 8,
            slots_per_lane: 4,
            jobs_per_lane: 120,
            arrival_horizon_s: 600,
            median_runtime_s: 90.0,
            epoch_s: 30,
            seed: 11,
            shed_depth: 6,
        }
    }

    #[test]
    fn monolithic_equals_sharded_at_every_thread_count() {
        let cfg = small();
        let mono = synth_engine(&cfg).run_monolithic();
        assert!(mono.events > 0);
        for threads in [1, 2, 4, 8] {
            let got = synth_engine(&cfg).run_sharded(threads);
            assert_eq!(got, mono, "threads={threads}");
        }
    }

    #[test]
    fn all_jobs_complete_and_migrations_happen() {
        let cfg = small();
        let mut engine = synth_engine(&cfg);
        engine.run_sharded(2);
        let completed: u64 = engine.models().map(|m| m.completed).sum();
        let migrated: u64 = engine.models().map(|m| m.migrated_out).sum();
        assert_eq!(
            completed,
            u64::from(cfg.lanes) * u64::from(cfg.jobs_per_lane),
            "every arrival must eventually complete (migrations included)"
        );
        assert!(migrated > 0, "the shed path must be exercised");
    }

    #[test]
    fn lane_count_changes_the_workload_but_each_is_internally_deterministic() {
        let a = synth_engine(&small()).run_sharded(1);
        let b = synth_engine(&small()).run_sharded(1);
        assert_eq!(a, b);
        let mut wider = small();
        wider.lanes = 16;
        let c = synth_engine(&wider).run_sharded(1);
        assert_ne!(a.digest, c.digest, "lanes are part of the scenario");
    }

    #[test]
    fn cross_lane_sends_respect_the_epoch_boundary() {
        // A message sent at t lands at >= the next multiple of epoch_s.
        struct Echo {
            lane: u32,
            recv_times: Vec<u64>,
        }
        #[derive(Clone, Copy)]
        enum Ev {
            Ping,
            Pong,
        }
        impl LaneModel for Echo {
            type Ev = Ev;
            fn handle(&mut self, now: SimTime, ev: Ev, fx: &mut Effects<Ev>) {
                match ev {
                    Ev::Ping => fx.send(1 - self.lane, 5, Ev::Pong),
                    Ev::Pong => self.recv_times.push(now.as_secs()),
                }
            }
            fn digest(&self) -> u64 {
                self.recv_times
                    .iter()
                    .fold(DIGEST_INIT, |h, &t| digest_fold(h, t))
            }
        }
        let models = vec![
            Echo {
                lane: 0,
                recv_times: vec![],
            },
            Echo {
                lane: 1,
                recv_times: vec![],
            },
        ];
        let mut engine = ShardedEngine::new(models, 100);
        engine.seed_event(0, SimTime(10), Ev::Ping);
        engine.seed_event(1, SimTime(150), Ev::Ping);
        engine.run_sharded(2);
        let lanes: Vec<&Echo> = engine.models().collect();
        // Ping at t=10 (epoch [0,100)): pong clamps to the boundary 100.
        assert_eq!(lanes[1].recv_times, vec![100]);
        // Ping at t=150 (epoch [100,200)): 150+5 clamps to 200.
        assert_eq!(lanes[0].recv_times, vec![200]);
    }
}
