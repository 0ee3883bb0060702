//! The per-message forwarding kernel both engines share.
//!
//! Byte-identical reports require byte-identical float arithmetic:
//! [`process_message`] evaluates the same expressions in the same
//! per-slot order as the independently-written reference walk in
//! [`crate::refsim`] — the differential oracle in `netloc-testkit` is
//! what keeps the two in lockstep. Messages retire one at a time in
//! canonical injection order, so the slot state is plain `f64` arrays
//! behind `&mut`.

use crate::engine::{Forwarding, SimConfig};
use crate::expand::Injection;
use crate::windows::WindowGrid;
use netloc_topology::{Link, LinkId};

/// Mutable simulation state, indexed by directed-link slot
/// (`2·link + direction`).
pub(crate) struct SlotState {
    /// When each slot next becomes free, seconds.
    pub free_at: Vec<f64>,
    /// Accumulated busy seconds per slot, in injection order.
    pub busy: Vec<f64>,
    /// Busy seconds per (slot, window), slot-major:
    /// `win_busy[slot · grid.count() + w]`.
    pub win_busy: Vec<f64>,
    /// The window grid occupancy is charged against.
    pub grid: WindowGrid,
}

impl SlotState {
    pub(crate) fn new(num_links: usize, grid: WindowGrid) -> Self {
        let slots = 2 * num_links;
        SlotState {
            free_at: vec![0.0; slots],
            busy: vec![0.0; slots],
            win_busy: vec![0.0; slots * grid.count()],
            grid,
        }
    }

    /// Charge `[start, end)` on `slot` to the window grid.
    #[inline]
    fn charge(&mut self, slot: usize, start: f64, end: f64) {
        let w = self.grid.count();
        if w == 0 {
            return;
        }
        let base = slot * w;
        let win_busy = &mut self.win_busy;
        self.grid
            .attribute(start, end, |win, s| win_busy[base + win] += s);
    }
}

/// What one simulated message contributes to the report.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MsgOutcome {
    /// Completion time (last-hop done), seconds.
    pub completion: f64,
    /// Completion minus the contention-free completion (can be a hair
    /// negative from float re-association; the report clamps).
    pub queueing: f64,
    /// Link-seconds of demand: Σ over hops of the slot occupancy.
    pub offered: f64,
}

/// Translate a route (as produced by `route_into` or read from a CSR
/// table — byte-identical by the route-table oracle) into directed-link
/// slots, walking from `src_vertex`.
#[inline]
pub(crate) fn slots_of_route(
    route: &[LinkId],
    links: &[Link],
    src_vertex: u32,
    out: &mut Vec<u32>,
) {
    let mut prev = src_vertex;
    for lid in route {
        let link = links[lid.idx()];
        // Direction: 0 when traversing a→b, 1 when b→a.
        let dir = u32::from(link.a != prev);
        prev = link.other(prev).expect("contiguous route");
        out.push(2 * lid.0 + dir);
    }
}

/// Advance one message over its slots: store-and-forward serializes on
/// each directed link in turn; cut-through reserves the whole route from
/// the instant every slot is free. Updates `free_at`, per-slot busy and
/// per-(slot, window) busy, and returns the message outcome.
///
/// The float operations here are the *only* place the engine produces
/// simulated time, in a fixed per-slot order — which is what makes it
/// bit-reproducible against the reference.
#[inline]
pub(crate) fn process_message(
    inj: &Injection,
    slots: &[u32],
    cfg: &SimConfig,
    st: &mut SlotState,
) -> MsgOutcome {
    let hops = slots.len() as f64;
    match cfg.forwarding {
        Forwarding::StoreAndForward => {
            let serialize = inj.bytes as f64 / cfg.bandwidth + cfg.hop_latency_s;
            let mut t = inj.time;
            for &s in slots {
                let s = s as usize;
                let start = t.max(st.free_at[s]);
                let end = start + serialize;
                st.free_at[s] = end;
                st.busy[s] += serialize;
                st.charge(s, start, end);
                t = end;
            }
            let uncontended = inj.time + hops * serialize;
            MsgOutcome {
                completion: t,
                queueing: t - uncontended,
                offered: hops * serialize,
            }
        }
        Forwarding::CutThrough => {
            let mut start = inj.time;
            for &s in slots {
                start = start.max(st.free_at[s as usize]);
            }
            let occupy = inj.bytes as f64 / cfg.bandwidth;
            let end = start + occupy + hops * cfg.hop_latency_s;
            for &s in slots {
                let s = s as usize;
                st.free_at[s] = end;
                st.busy[s] += occupy;
                st.charge(s, start, start + occupy);
            }
            let uncontended = inj.time + occupy + hops * cfg.hop_latency_s;
            MsgOutcome {
                completion: end,
                queueing: end - uncontended,
                offered: hops * occupy,
            }
        }
    }
}
