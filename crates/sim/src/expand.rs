//! Expansion of aggregated traces into individual timed message injections.

use netloc_mpi::{translate_collective, Event, Trace};

/// One message injection: who sends what to whom, and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Injection {
    /// Injection time, seconds from trace start.
    pub time: f64,
    /// Source rank.
    pub src: u32,
    /// Destination rank.
    pub dst: u32,
    /// Message size in bytes.
    pub bytes: u64,
}

impl Injection {
    /// The canonical total order both simulation engines process
    /// injections in: time (IEEE total order), then source, destination
    /// and size as tie-breakers. Ties under this order are fully
    /// identical injections, so any remaining permutation is
    /// result-neutral — which is what makes simulation results invariant
    /// under the order injections were *supplied* in.
    pub fn canonical_cmp(&self, other: &Injection) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.src.cmp(&other.src))
            .then_with(|| self.dst.cmp(&other.dst))
            .then_with(|| self.bytes.cmp(&other.bytes))
    }
}

/// Copy and canonically sort a list of injections (see
/// [`Injection::canonical_cmp`]).
pub(crate) fn canonicalize(injections: &[Injection]) -> Vec<Injection> {
    let mut v = injections.to_vec();
    v.sort_unstable_by(Injection::canonical_cmp);
    v
}

/// Expand a trace into individual injections, sorted by time.
///
/// Repeated events are spread evenly from their timestamp to the end of the
/// trace (the aggregated format does not retain per-call times; an even
/// spread models an iterative application). Collectives are translated to
/// p2p with the paper's rules, every translated message injected at the
/// call's time. Self-messages are dropped.
///
/// `max_injections` caps the expansion, in two steps. When the full
/// expansion would exceed it, every event keeps only instances 0, k, 2k, …
/// of its repeats (bytes unchanged), with the stride k reported as
/// `sample_stride`. That is not a uniform sample of the trace: an event
/// with fewer than k repeats still keeps its first instance, so the
/// strided expansion can stay far above the cap. The cap is then
/// enforced as a hard bound on the output length by dropping every event
/// after the one that reaches it, in trace order — for a time-ordered
/// trace the result covers only a time prefix of its events. (A
/// 2M-event, 12.5 s stencil trace with repeats 1–7 gets stride 10 at
/// the default 2M cap; its events after t ≈ 3.5 s are dropped, and the
/// last injection falls at t ≈ 5.8 s.) The hard bound also means a
/// corrupted repeat count can never drive an unbounded allocation — the
/// same "clamp count-driven growth to what the caller asked for"
/// discipline the binary trace reader applies to length prefixes.
/// Returns `(injections, sample_stride)`.
pub fn expand_trace(trace: &Trace, max_injections: usize) -> (Vec<Injection>, u64) {
    assert!(max_injections > 0);
    let t_end = trace.exec_time_s.max(f64::MIN_POSITIVE);

    // First pass: count the full expansion.
    let mut full: u128 = 0;
    for te in &trace.events {
        match &te.event {
            Event::Send { repeat, .. } => full += *repeat as u128,
            Event::Collective {
                op,
                comm,
                root,
                payload,
                repeat,
            } => {
                if let Some(c) = trace.comms.get(*comm) {
                    let fanout = translate_collective(*op, c, *root, payload).len() as u128;
                    full += fanout * *repeat as u128;
                }
            }
        }
    }
    let stride = (full / max_injections as u128 + 1) as u64;

    let mut out = Vec::new();
    let spread =
        |time: f64, repeat: u64, src: u32, dst: u32, bytes: u64, out: &mut Vec<Injection>| {
            if src == dst || bytes == 0 {
                return;
            }
            let span = t_end - time;
            let mut k = 0;
            while k < repeat {
                if out.len() >= max_injections {
                    return;
                }
                let t = if repeat == 1 {
                    time
                } else {
                    time + span * (k as f64 + 0.5) / repeat as f64
                };
                out.push(Injection {
                    time: t,
                    src,
                    dst,
                    bytes,
                });
                k += stride;
            }
        };

    for te in &trace.events {
        match &te.event {
            Event::Send {
                src, dst, repeat, ..
            } => {
                let bytes = te.event.p2p_bytes().expect("send has bytes");
                spread(te.time, *repeat, src.0, dst.0, bytes, &mut out);
            }
            Event::Collective {
                op,
                comm,
                root,
                payload,
                repeat,
            } => {
                let Some(c) = trace.comms.get(*comm) else {
                    continue;
                };
                for m in translate_collective(*op, c, *root, payload) {
                    spread(te.time, *repeat, m.src.0, m.dst.0, m.bytes, &mut out);
                }
            }
        }
    }
    out.sort_unstable_by(Injection::canonical_cmp);
    (out, stride)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netloc_mpi::{CollectiveOp, Payload, Rank, TraceBuilder};

    #[test]
    fn expansion_is_sorted_and_complete() {
        let mut b = TraceBuilder::new("t", 4).exec_time_s(2.0);
        b.send(Rank(0), Rank(1), 100, 10);
        b.send(Rank(2), Rank(3), 50, 5);
        let (inj, stride) = expand_trace(&b.build(), 1_000_000);
        assert_eq!(stride, 1);
        assert_eq!(inj.len(), 15);
        assert!(inj.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(inj.iter().all(|i| i.time < 2.0));
    }

    #[test]
    fn collectives_are_translated() {
        let mut b = TraceBuilder::new("t", 4).exec_time_s(1.0);
        b.collective(CollectiveOp::Bcast, Some(0), Payload::Uniform(64), 3);
        let (inj, _) = expand_trace(&b.build(), 1_000_000);
        assert_eq!(inj.len(), 3 * 3); // 3 repeats × 3 receivers
        assert!(inj.iter().all(|i| i.src == 0));
    }

    #[test]
    fn sampling_caps_the_expansion() {
        let mut b = TraceBuilder::new("t", 2).exec_time_s(1.0);
        b.send(Rank(0), Rank(1), 100, 100_000);
        let (inj, stride) = expand_trace(&b.build(), 1000);
        assert!(stride > 1);
        assert!(inj.len() <= 1001, "{}", inj.len());
        assert!(!inj.is_empty());
    }

    #[test]
    fn max_injections_is_a_hard_bound_even_with_stride_overshoot() {
        // Many distinct events, each with a large repeat: the per-event
        // ceil() overshoot of the stride math would exceed the cap
        // without the hard bound.
        let mut b = TraceBuilder::new("t", 8).exec_time_s(1.0);
        for s in 0..8u32 {
            for d in 0..8u32 {
                if s != d {
                    b.send(Rank(s), Rank(d), 64, 10_000);
                }
            }
        }
        let (inj, stride) = expand_trace(&b.build(), 100);
        assert!(stride > 1);
        assert!(inj.len() <= 100, "{}", inj.len());
        assert!(!inj.is_empty());
    }

    #[test]
    fn canonical_order_breaks_time_ties_deterministically() {
        let mk = |src, dst, bytes| Injection {
            time: 1.0,
            src,
            dst,
            bytes,
        };
        let mut v = [mk(3, 0, 10), mk(1, 2, 10), mk(1, 0, 10), mk(1, 0, 5)];
        v.sort_unstable_by(Injection::canonical_cmp);
        assert_eq!(
            v.iter()
                .map(|i| (i.src, i.dst, i.bytes))
                .collect::<Vec<_>>(),
            vec![(1, 0, 5), (1, 0, 10), (1, 2, 10), (3, 0, 10)]
        );
    }

    #[test]
    fn single_shot_uses_event_time() {
        let mut b = TraceBuilder::new("t", 2).exec_time_s(4.0);
        b.send(Rank(0), Rank(1), 100, 1);
        b.send(Rank(1), Rank(0), 100, 1);
        let t = b.build();
        let expected: Vec<f64> = t.events.iter().map(|e| e.time).collect();
        let (inj, _) = expand_trace(&t, 100);
        let got: Vec<f64> = inj.iter().map(|i| i.time).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn zero_byte_and_self_messages_dropped() {
        let mut b = TraceBuilder::new("t", 2).exec_time_s(1.0);
        b.send(Rank(0), Rank(0), 100, 5);
        b.send(Rank(0), Rank(1), 0, 5);
        let (inj, _) = expand_trace(&b.build(), 100);
        assert!(inj.is_empty());
    }
}
