//! The discrete-event queue: one heap, lane-aware, and deterministic.
//!
//! Events live on **logical lanes** (one per federated pool plus a
//! control lane, see [`LaneId`]) and are stored in a single binary heap
//! ordered by the explicit total order
//!
//! ```text
//!   (timestamp, lane_id, per-lane sequence number)
//! ```
//!
//! That key — [`EventKey`] — is the determinism contract of the whole
//! simulator: same pushes, same pops. Same-timestamp ties break by
//! lane, then by per-lane insertion order; nothing is left to heap
//! internals or hasher state. The golden ULOG fixtures are pinned by
//! this contract, not by accident of `BinaryHeap` sift order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::job::JobId;
use crate::pool::MachineId;
use crate::time::SimTime;

/// A logical event lane. Lane 0 is the control lane (matchmaker,
/// glidein churn, pool-level fault windows); federated runs place each
/// pool's job-lifecycle events on lane `pool + 1`, single-pool runs use
/// lane 1 for every job event. Lanes are a property of the *scenario*,
/// so the pop order depends only on what was pushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LaneId(pub u32);

impl LaneId {
    /// The control lane: negotiation cycles, machine churn and
    /// pool-granularity fault windows.
    pub const CONTROL: LaneId = LaneId(0);
}

/// The explicit total-order key of one scheduled event.
///
/// Keys are unique within a queue (the `seq` counter is per-lane and
/// never reused), so `cmp` is a *strict* total order: for any two
/// distinct scheduled events one strictly precedes the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey {
    /// Absolute simulation time of the event.
    pub time: SimTime,
    /// Logical lane the event belongs to.
    pub lane: LaneId,
    /// Per-lane insertion sequence number.
    pub seq: u64,
}

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.lane, self.seq).cmp(&(other.time, other.lane, other.seq))
    }
}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Everything that can happen in the cluster simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A glidein group joins the pool.
    MachineArrive,
    /// Glidein `0` leaves the pool (evicting its jobs).
    MachineDepart(MachineId),
    /// The negotiator runs a matchmaking cycle.
    Negotiate,
    /// Input staging for a job finished; it starts executing.
    StageInDone(JobId),
    /// A job's executable finished; output staging starts.
    ExecDone(JobId),
    /// Output staging finished; the job is complete.
    StageOutDone(JobId),
    /// A held job's hold period expired; release it back to Idle. The
    /// `u64` is the job serial at hold time — a stale release (the job
    /// moved on) is ignored.
    Release(JobId, u64),
    /// A running job hit its wall-time limit; hold then remove it. The
    /// `u64` is the job serial at execute time — stale timeouts (the
    /// attempt already ended) are ignored.
    Timeout(JobId, u64),
    /// A whole-pool outage window opens for the given pool index.
    PoolOutageStart(u32),
    /// The outage window for the given pool index closes.
    PoolOutageEnd(u32),
    /// A network partition cuts the given pool off from the submit node.
    PartitionStart(u32),
    /// The partition for the given pool index heals.
    PartitionEnd(u32),
    /// Spot reclamation kills a running cloud-pool job mid-attempt. The
    /// `u64` is the job serial at execute time — stale preemptions (the
    /// attempt already ended) are ignored.
    Preempt(JobId, u64),
}

#[derive(Debug)]
struct Entry {
    key: EventKey,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic event queue.
///
/// One binary heap under the full [`EventKey`] order, so the pop
/// sequence is a pure function of the push sequence.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    /// Per-lane sequence counters, indexed by lane id (grown on demand).
    lane_seq: Vec<u64>,
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at absolute time `time` on the control lane.
    pub fn push(&mut self, time: SimTime, event: Event) -> EventKey {
        self.push_lane(time, LaneId::CONTROL, event)
    }

    /// Schedule `event` at absolute time `time` on `lane`, returning the
    /// total-order key it was assigned.
    pub fn push_lane(&mut self, time: SimTime, lane: LaneId, event: Event) -> EventKey {
        let idx = lane.0 as usize;
        if idx >= self.lane_seq.len() {
            self.lane_seq.resize(idx + 1, 0);
        }
        let seq = self.lane_seq[idx];
        self.lane_seq[idx] += 1;
        let key = EventKey { time, lane, seq };
        self.heap.push(Reverse(Entry { key, event }));
        key
    }

    /// Pop the earliest event together with its key.
    pub fn pop_keyed(&mut self) -> Option<(EventKey, Event)> {
        self.heap.pop().map(|Reverse(e)| (e.key, e.event))
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_keyed().map(|(k, ev)| (k.time, ev))
    }

    /// Key of the earliest pending event.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|Reverse(e)| e.key)
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|k| k.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), Event::Negotiate);
        q.push(SimTime(10), Event::MachineArrive);
        q.push(SimTime(20), Event::ExecDone(JobId(1)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        assert_eq!(q.pop().unwrap().0, SimTime(10));
        assert_eq!(q.pop().unwrap().0, SimTime(20));
        assert_eq!(q.pop().unwrap().0, SimTime(30));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_lane_then_insertion_order() {
        // The explicit contract: same-time events pop by (lane, seq),
        // not by heap sift order or global insertion order.
        let mut q = EventQueue::new();
        q.push_lane(SimTime(5), LaneId(2), Event::StageInDone(JobId(20)));
        q.push_lane(SimTime(5), LaneId(1), Event::StageInDone(JobId(10)));
        q.push_lane(SimTime(5), LaneId(1), Event::StageInDone(JobId(11)));
        q.push_lane(SimTime(5), LaneId(0), Event::Negotiate);
        let order: Vec<Event> = std::iter::from_fn(|| q.pop().map(|p| p.1)).collect();
        assert_eq!(
            order,
            vec![
                Event::Negotiate,
                Event::StageInDone(JobId(10)),
                Event::StageInDone(JobId(11)),
                Event::StageInDone(JobId(20)),
            ]
        );
    }

    #[test]
    fn same_lane_ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), Event::StageInDone(JobId(1)));
        q.push(SimTime(5), Event::StageInDone(JobId(2)));
        q.push(SimTime(5), Event::StageInDone(JobId(3)));
        let order: Vec<Event> = std::iter::from_fn(|| q.pop().map(|p| p.1)).collect();
        assert_eq!(
            order,
            vec![
                Event::StageInDone(JobId(1)),
                Event::StageInDone(JobId(2)),
                Event::StageInDone(JobId(3)),
            ]
        );
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), Event::Negotiate);
        assert_eq!(q.pop().unwrap().0, SimTime(10));
        q.push(SimTime(4), Event::Negotiate);
        q.push(SimTime(2), Event::MachineArrive);
        assert_eq!(q.pop().unwrap().1, Event::MachineArrive);
        assert_eq!(q.pop().unwrap().1, Event::Negotiate);
    }

    #[test]
    fn lane_seq_counters_are_independent() {
        let mut q = EventQueue::new();
        let a = q.push_lane(SimTime(1), LaneId(4), Event::Negotiate);
        let b = q.push_lane(SimTime(1), LaneId(9), Event::Negotiate);
        let c = q.push_lane(SimTime(1), LaneId(4), Event::Negotiate);
        assert_eq!(a.seq, 0);
        assert_eq!(b.seq, 0);
        assert_eq!(c.seq, 1);
    }
}
