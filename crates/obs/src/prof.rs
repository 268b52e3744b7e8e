//! Host-domain scoped timers feeding `prof.*` histograms.
//!
//! ```
//! {
//!     let _t = unsync_obs::prof::scope("campaign.dispatch");
//!     // ... hot phase ...
//! } // drop records the elapsed wall-clock µs into `prof.campaign.dispatch`
//! ```
//!
//! Handles are resolved once per phase name and cached (the same
//! construction-time caching [`unsync_exec::EventStream::publish`]
//! uses for scheme counters), so a scope on a hot path costs one
//! `HashMap` lookup under a short-lived lock plus two monotonic-clock
//! reads — never a registry lock or a `format!`.
//!
//! Everything recorded here is **wall-clock** and therefore
//! non-deterministic; `prof.*` metrics surface only in host-domain
//! sections (per-run meta `prof` blocks) and are excluded from
//! run-to-run diffs.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use unsync_sim::metrics::{prof_histogram, Histogram};

/// The cached `prof.<phase>` histogram handle for `phase`.
///
/// First use of a phase name pays the registry resolution; subsequent
/// calls clone the cached handle (an `Arc` bump). Observations through
/// the handle are lock-free.
pub(crate) fn handle(phase: &'static str) -> Histogram {
    static CACHE: OnceLock<Mutex<HashMap<&'static str, Histogram>>> = OnceLock::new();
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("prof handle cache poisoned");
    cache
        .entry(phase)
        .or_insert_with(|| prof_histogram(phase))
        .clone()
}

/// A running scoped timer; dropping it records the elapsed wall-clock
/// microseconds into its phase histogram.
#[must_use = "binding the timer to `_` drops it immediately and records ~0 µs"]
pub struct ScopeTimer {
    hist: Histogram,
    started: Instant,
}

impl Drop for ScopeTimer {
    fn drop(&mut self) {
        self.hist
            .observe(self.started.elapsed().as_secs_f64() * 1e6);
    }
}

/// Starts a scoped timer for `phase` (recorded as `prof.<phase>` on
/// drop).
pub fn scope(phase: &'static str) -> ScopeTimer {
    ScopeTimer {
        hist: handle(phase),
        started: Instant::now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_records_into_the_prof_namespace() {
        let before = handle("test_only.prof_unit").count();
        {
            let _t = scope("test_only.prof_unit");
        }
        let h = handle("test_only.prof_unit");
        assert_eq!(h.count(), before + 1);
        assert!(
            unsync_sim::metrics::global()
                .snapshot()
                .iter()
                .any(|(name, _)| name == "prof.test_only.prof_unit"),
            "handle must register under prof."
        );
    }
}
