//! Time windows over the injection horizon: the grid the engines charge
//! link occupancy against, and the per-window statistics the report
//! carries.
//!
//! The grid spans `[0, horizon]` where `horizon` is the last injection
//! time — a quantity both engines know *before* simulating, so the window
//! edges cannot depend on scheduling. Occupancy that extends past the
//! horizon (the drain after the last injection) is charged to the final
//! window, which keeps `Σ windows busy == Σ slots busy` exact up to float
//! rounding. All attribution arithmetic happens in a fixed order per
//! directed-link slot, so the CSR engine reproduces the reference
//! byte-for-byte.

use serde::Serialize;

/// Uniform time grid over the injection horizon `[0, horizon]`.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowGrid {
    horizon: f64,
    width: f64,
    count: usize,
}

impl WindowGrid {
    /// Grid of `count` equal windows covering `[0, horizon]`. A
    /// non-positive (or non-finite) horizon degenerates to zero-width
    /// windows that all map to index 0; `count == 0` means "no windows"
    /// and every attribution is dropped.
    pub fn covering(horizon: f64, count: usize) -> Self {
        let horizon = if horizon.is_finite() && horizon > 0.0 {
            horizon
        } else {
            0.0
        };
        let width = if count > 0 {
            horizon / count as f64
        } else {
            0.0
        };
        WindowGrid {
            horizon,
            width,
            count,
        }
    }

    /// Number of windows.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The horizon (end of the last injection-time window), seconds.
    #[inline]
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Window index of time `t`, clamped into `0..count`. Times past the
    /// horizon (or NaN, from hostile traces) land in the last window
    /// (respectively window 0) rather than out of range.
    #[inline]
    pub fn index_of(&self, t: f64) -> usize {
        if self.count == 0 {
            return 0;
        }
        if self.width > 0.0 && t > 0.0 {
            // The cast saturates, so `t == horizon` (and beyond) clamps.
            ((t / self.width) as usize).min(self.count - 1)
        } else {
            0
        }
    }

    /// Start of window `i`, seconds.
    #[inline]
    pub fn start_of(&self, i: usize) -> f64 {
        i as f64 * self.width
    }

    /// End of window `i`, seconds (the last window ends at the horizon).
    #[inline]
    pub fn end_of(&self, i: usize) -> f64 {
        if i + 1 >= self.count {
            self.horizon
        } else {
            (i + 1) as f64 * self.width
        }
    }

    /// Split the occupancy interval `[start, end)` across windows,
    /// calling `add(window, seconds)` once per overlapped window in
    /// ascending order. The final window absorbs everything past the
    /// horizon so totals are conserved.
    #[inline]
    // `!(end > start)` rather than `end <= start`: a NaN bound must also
    // charge nothing.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn attribute(&self, start: f64, end: f64, mut add: impl FnMut(usize, f64)) {
        if self.count == 0 || !(end > start) {
            return;
        }
        let first = self.index_of(start);
        let last = self.index_of(end);
        if first == last {
            add(first, end - start);
            return;
        }
        for w in first..=last {
            let lo = if w == first { start } else { self.start_of(w) };
            // The last overlapped window keeps the tail even when `end`
            // lies beyond its nominal edge (horizon clamping).
            let hi = if w == last { end } else { self.end_of(w) };
            if hi > lo {
                add(w, hi - lo);
            }
        }
    }
}

/// Per-window congestion statistics carried by
/// [`SimReport`](crate::SimReport).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WindowStats {
    /// Window start, seconds from trace start.
    pub t_start_s: f64,
    /// Window end, seconds from trace start.
    pub t_end_s: f64,
    /// Messages injected in this window.
    pub messages: u64,
    /// Bytes injected in this window.
    pub bytes: u128,
    /// Link-seconds of work *offered* by this window's injections
    /// (Σ hops · serialization — the static, contention-free demand).
    pub offered_link_s: f64,
    /// Link-seconds the links actually spent busy inside this window
    /// (includes drain from earlier windows' backlog).
    pub busy_link_s: f64,
    /// Measured utilization: busy link-seconds over window duration ×
    /// the run's used links.
    pub measured_utilization: f64,
    /// Static upper bound on this window's utilization: offered
    /// link-seconds over the same denominator (the per-window analogue of
    /// the paper's Eq. 5 bound).
    pub offered_utilization: f64,
    /// Mean per-message slowdown (latency over contention-free latency)
    /// of this window's injections; 1.0 when the window is empty.
    pub mean_slowdown: f64,
    /// Worst per-message slowdown of this window's injections.
    pub max_slowdown: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_edges_are_consistent() {
        let g = WindowGrid::covering(10.0, 4);
        assert_eq!(g.count(), 4);
        assert_eq!(g.index_of(0.0), 0);
        assert_eq!(g.index_of(2.4), 0);
        assert_eq!(g.index_of(2.6), 1);
        assert_eq!(g.index_of(9.99), 3);
        // At and past the horizon clamps into the last window.
        assert_eq!(g.index_of(10.0), 3);
        assert_eq!(g.index_of(1e9), 3);
        assert_eq!(g.index_of(f64::NAN), 0);
        assert_eq!(g.start_of(0), 0.0);
        assert!((g.end_of(0) - 2.5).abs() < 1e-12);
        assert_eq!(g.end_of(3), 10.0);
    }

    #[test]
    fn attribution_conserves_the_interval() {
        let g = WindowGrid::covering(8.0, 4);
        let mut got = [0.0f64; 4];
        g.attribute(1.0, 7.0, |w, s| got[w] += s);
        assert!((got.iter().sum::<f64>() - 6.0).abs() < 1e-12);
        assert!((got[0] - 1.0).abs() < 1e-12);
        assert!((got[1] - 2.0).abs() < 1e-12);
        assert!((got[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_past_horizon_lands_in_last_window() {
        let g = WindowGrid::covering(4.0, 2);
        let mut got = [0.0f64; 2];
        g.attribute(3.0, 9.0, |w, s| got[w] += s);
        assert_eq!(got[0], 0.0);
        assert!((got[1] - 6.0).abs() < 1e-12);
        // Entirely-past-horizon intervals too.
        g.attribute(5.0, 6.0, |w, s| got[w] += s);
        assert!((got[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_grids_do_not_panic() {
        let g = WindowGrid::covering(0.0, 4);
        assert_eq!(g.index_of(123.0), 0);
        let mut hits = 0;
        g.attribute(0.0, 5.0, |w, _| {
            assert_eq!(w, 0);
            hits += 1;
        });
        assert_eq!(hits, 1);
        let none = WindowGrid::covering(10.0, 0);
        none.attribute(0.0, 5.0, |_, _| panic!("no windows to hit"));
        assert_eq!(WindowGrid::covering(f64::NAN, 3).horizon(), 0.0);
    }
}
