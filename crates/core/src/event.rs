//! The engine's future-event list, split into one lane per event class.
//!
//! Every event carries the sequence number a single `(time, seq)`
//! priority queue would have given it, and [`Lanes::pop`] returns the
//! least `(time, seq)` among the lane heads. Because each FIFO lane is
//! pushed in non-decreasing time order (and seq only grows), its head is
//! its least entry, so the merged order equals one global heap's order,
//! ties at the same instant included. Only segment-ready times depend on
//! the device and need a heap.

use cxlg_sim::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One engine event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ev {
    /// A warp is free and pulls the next work item.
    Warp,
    /// A request arrives at the device.
    DevArrive(u32),
    /// A response segment is ready to enter the return link.
    SegReady { req: u32, bytes: u64 },
    /// A segment finished serializing on the return link.
    SegDone { req: u32 },
    /// The request's final data arrived at the GPU.
    Complete(u32),
}

/// Pop order key: time, then insertion order.
type Key = (SimTime, u64);

/// Pending events, one lane per [`Ev`] class.
#[derive(Default)]
pub(crate) struct Lanes {
    seq: u64,
    /// At the batch start, then `now + compute` after each completion.
    warp: VecDeque<(Key, ())>,
    /// At `out + const`, and the request channel's `out` only grows.
    arrive: VecDeque<(Key, u32)>,
    /// At `now + propagation`, set as segment transfers finish.
    complete: VecDeque<(Key, u32)>,
    /// The return link carries one transfer at a time.
    seg_done: Option<(Key, u32)>,
    /// Device-dependent ready times: the only lane out of time order.
    seg_ready: BinaryHeap<Reverse<(Key, u32, u64)>>,
}

fn push_fifo<T>(lane: &mut VecDeque<(Key, T)>, key: Key, payload: T) {
    debug_assert!(
        lane.back().is_none_or(|&(last, _)| last.0 <= key.0),
        "FIFO lane pushed out of time order"
    );
    lane.push_back((key, payload));
}

impl Lanes {
    /// Schedule `ev` at absolute time `t`.
    #[inline]
    pub(crate) fn push(&mut self, t: SimTime, ev: Ev) {
        let key = (t, self.seq);
        self.seq += 1;
        match ev {
            Ev::Warp => push_fifo(&mut self.warp, key, ()),
            Ev::DevArrive(req) => push_fifo(&mut self.arrive, key, req),
            Ev::Complete(req) => push_fifo(&mut self.complete, key, req),
            Ev::SegDone { req } => {
                debug_assert!(self.seg_done.is_none(), "two return transfers in flight");
                self.seg_done = Some((key, req));
            }
            Ev::SegReady { req, bytes } => self.seg_ready.push(Reverse((key, req, bytes))),
        }
    }

    /// Remove and return the least `(time, seq)` event.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(SimTime, Ev)> {
        let mut best: Option<(Key, Ev)> = None;
        let mut offer = |key: Key, ev: Ev| {
            if best.is_none_or(|(k, _)| key < k) {
                best = Some((key, ev));
            }
        };
        if let Some(&(k, ())) = self.warp.front() {
            offer(k, Ev::Warp);
        }
        if let Some(&(k, req)) = self.arrive.front() {
            offer(k, Ev::DevArrive(req));
        }
        if let Some(&Reverse((k, req, bytes))) = self.seg_ready.peek() {
            offer(k, Ev::SegReady { req, bytes });
        }
        if let Some((k, req)) = self.seg_done {
            offer(k, Ev::SegDone { req });
        }
        if let Some(&(k, req)) = self.complete.front() {
            offer(k, Ev::Complete(req));
        }
        let ((t, _), ev) = best?;
        match ev {
            Ev::Warp => drop(self.warp.pop_front()),
            Ev::DevArrive(_) => drop(self.arrive.pop_front()),
            Ev::SegReady { .. } => drop(self.seg_ready.pop()),
            Ev::SegDone { .. } => self.seg_done = None,
            Ev::Complete(_) => drop(self.complete.pop_front()),
        }
        Some((t, ev))
    }

    /// True when no events are pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.warp.is_empty()
            && self.arrive.is_empty()
            && self.seg_ready.is_empty()
            && self.seg_done.is_none()
            && self.complete.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(l: &mut Lanes) -> Vec<(u64, Ev)> {
        std::iter::from_fn(|| l.pop())
            .map(|(t, e)| (t.as_ps(), e))
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut l = Lanes::default();
        l.push(SimTime(30), Ev::Complete(3));
        l.push(SimTime(10), Ev::SegReady { req: 1, bytes: 64 });
        l.push(SimTime(40), Ev::Warp);
        l.push(SimTime(20), Ev::DevArrive(2));
        l.push(SimTime(5), Ev::SegReady { req: 0, bytes: 64 });
        l.push(SimTime(25), Ev::SegDone { req: 1 });
        assert_eq!(
            drain(&mut l),
            vec![
                (5, Ev::SegReady { req: 0, bytes: 64 }),
                (10, Ev::SegReady { req: 1, bytes: 64 }),
                (20, Ev::DevArrive(2)),
                (25, Ev::SegDone { req: 1 }),
                (30, Ev::Complete(3)),
                (40, Ev::Warp),
            ]
        );
        assert!(l.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        // Same-instant events pop in push order across every lane, as a
        // single queue with a sequence-number tie-break would pop them.
        let mut l = Lanes::default();
        let mut want = Vec::new();
        for i in 0..100u32 {
            let ev = match i % 4 {
                0 => Ev::Warp,
                1 => Ev::DevArrive(i),
                2 => Ev::SegReady {
                    req: i,
                    bytes: i as u64,
                },
                _ => Ev::Complete(i),
            };
            l.push(SimTime(5), ev);
            want.push((5, ev));
            if i == 50 {
                l.push(SimTime(5), Ev::SegDone { req: i });
                want.push((5, Ev::SegDone { req: i }));
            }
        }
        assert_eq!(drain(&mut l), want);
    }

    #[test]
    fn schedule_now_runs_after_existing_same_time_events() {
        // A segment transfer that finishes at the instant it is popped
        // schedules its completion at that same instant; the completion
        // runs after the events already pending for it.
        let mut l = Lanes::default();
        l.push(SimTime(7), Ev::SegDone { req: 0 });
        l.push(SimTime(7), Ev::Warp);
        l.push(SimTime(7), Ev::SegReady { req: 1, bytes: 32 });
        assert_eq!(l.pop(), Some((SimTime(7), Ev::SegDone { req: 0 })));
        l.push(SimTime(7), Ev::Complete(0));
        assert_eq!(
            drain(&mut l),
            vec![
                (7, Ev::Warp),
                (7, Ev::SegReady { req: 1, bytes: 32 }),
                (7, Ev::Complete(0)),
            ]
        );
    }

    #[test]
    fn interleaved_schedule_and_pop_is_causal() {
        // A small cascade through the lanes: each event schedules its
        // successor class; popped times never decrease.
        let mut l = Lanes::default();
        l.push(SimTime(1), Ev::Warp);
        let (mut last, mut count) = (SimTime::ZERO, 0u32);
        while let Some((t, ev)) = l.pop() {
            assert!(t >= last);
            last = t;
            count += 1;
            if count > 50 {
                continue;
            }
            let next = SimTime(t.as_ps() + count as u64 % 7);
            l.push(
                next,
                match ev {
                    Ev::Warp => Ev::DevArrive(count),
                    Ev::DevArrive(req) => Ev::SegReady { req, bytes: 64 },
                    Ev::SegReady { req, .. } => Ev::SegDone { req },
                    Ev::SegDone { req } => Ev::Complete(req),
                    Ev::Complete(_) => Ev::Warp,
                },
            );
        }
        assert_eq!(count, 51);
        assert!(l.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "FIFO lane pushed out of time order")]
    fn fifo_lane_rejects_out_of_order_push() {
        let mut l = Lanes::default();
        l.push(SimTime(9), Ev::Complete(0));
        l.push(SimTime(8), Ev::Complete(1));
    }
}
