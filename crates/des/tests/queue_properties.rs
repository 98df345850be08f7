//! Property-based tests of the cancellable event queue: for arbitrary
//! interleavings of schedules, cancellations and reschedules, pops must
//! come out in (time, insertion) order and exactly the non-cancelled
//! events appear.

use ckpt_des::{EventQueue, SimTime};
use proptest::prelude::*;

/// An abstract queue operation.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + dt`.
    Schedule(f64),
    /// Cancel the k-th previously scheduled event (if any).
    Cancel(usize),
    /// Reschedule the k-th previously scheduled event to `now + dt`.
    Reschedule(usize, f64),
    /// Pop one event.
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0.0f64..100.0).prop_map(Op::Schedule),
        1 => (0usize..64).prop_map(Op::Cancel),
        1 => ((0usize..64), (0.0f64..100.0)).prop_map(|(k, dt)| Op::Reschedule(k, dt)),
        2 => Just(Op::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn queue_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut q = EventQueue::new();
        // Reference model: Vec of (time, seq, payload, alive).
        let mut model: Vec<(f64, usize, u32, bool)> = Vec::new();
        let mut ids = Vec::new();
        let mut now = 0.0f64;
        let mut seq = 0usize;

        for op in ops {
            match op {
                Op::Schedule(dt) => {
                    let t = now + dt;
                    let id = q.schedule(SimTime::from_secs(t), seq as u32);
                    ids.push(id);
                    model.push((t, seq, seq as u32, true));
                    seq += 1;
                }
                Op::Cancel(k) => {
                    if !ids.is_empty() {
                        let k = k % ids.len();
                        let did = q.cancel(ids[k]);
                        // The model says the cancel succeeds iff entry k
                        // is still alive.
                        prop_assert_eq!(did, model[k].3, "cancel result mismatch");
                        model[k].3 = false;
                    }
                }
                Op::Reschedule(k, dt) => {
                    if !ids.is_empty() {
                        let k = k % ids.len();
                        let t = now + dt;
                        let did = q.reschedule(ids[k], SimTime::from_secs(t));
                        prop_assert_eq!(did, model[k].3, "reschedule result mismatch");
                        // A moved event takes a fresh FIFO sequence.
                        if did {
                            model[k].0 = t;
                            model[k].1 = seq;
                            seq += 1;
                        }
                    }
                }
                Op::Pop => {
                    // Model pop: earliest (time, seq) alive entry.
                    let next = model
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.3)
                        .min_by(|(_, a), (_, b)| {
                            a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1))
                        })
                        .map(|(i, e)| (i, e.0, e.2));
                    let popped = q.pop();
                    match (next, popped) {
                        (None, None) => {}
                        (Some((i, t, payload)), Some(ev)) => {
                            prop_assert_eq!(ev.time(), SimTime::from_secs(t));
                            prop_assert_eq!(ev.into_payload(), payload);
                            model[i].3 = false;
                            now = t;
                        }
                        (m, p) => {
                            return Err(TestCaseError::fail(format!(
                                "model {m:?} vs queue {p:?}"
                            )))
                        }
                    }
                }
            }
            // len() always agrees with the model's live count.
            let live = model.iter().filter(|e| e.3).count();
            prop_assert_eq!(q.len(), live);
        }
    }

    /// Draining any schedule-only workload yields a sorted sequence.
    #[test]
    fn drain_is_sorted(times in proptest::collection::vec(0.0f64..1e6, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some(ev) = q.pop() {
            prop_assert!(ev.time() >= last);
            last = ev.time();
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }
}
