//! The warm store: per-(node, corner) contexts shared by every request.
//!
//! A one-shot CLI run pays for its technology tables, calibrated models,
//! buffering-plan search and (for NoC queries) network synthesis on every
//! invocation, then throws them away. The server keeps them: one
//! [`NodeContext`] per `(technology node, process corner)`, built on first
//! use and shared — the in-process half of the warm store, alongside the
//! process-global `pi_core::char_cache` the calibration path memoizes
//! into. The char-cache fingerprint covers the corner (it hashes the full
//! `Technology` debug form), so a slow-corner grid characterized for one
//! request warms every later request at that corner, across connections.
//!
//! Sharding is by `(TechNode, Corner)`: each context carries its own plan
//! and network caches behind its own locks, so concurrent batches touching
//! different nodes or corners never contend.
//!
//! Model provenance differs by corner, deliberately: the **typical**
//! corner uses the builtin Table I coefficients — bit-identical to what
//! every CLI flow uses — while SS/FF corners have no builtin tables and
//! run a live `calibrate` over the standard grid on first touch (~tens of
//! milliseconds, deterministic, cached for the process lifetime and
//! journaled through the char cache like any calibration).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use pi_core::coefficients::builtin;
use pi_core::line::{BufferingPlan, LineEvaluator, LineSpec};
use pi_core::{calibrate, BufferingObjective, CalibratedModels, CalibrationGrid, SearchSpace};
use pi_cosi::synthesis::Network;
use pi_cosi::{synthesize, ProposedLinkModel, SynthesisConfig};
use pi_tech::units::{Freq, Length};
use pi_tech::{Corner, DesignStyle, TechNode, Technology};

/// Parses an optional corner spelling from a request body: `None` means
/// typical; `tt`/`ss`/`ff` and the longhand names are accepted
/// case-insensitively.
///
/// # Errors
///
/// Names the unknown spelling and the accepted ones.
pub fn parse_corner(spelling: Option<&str>) -> Result<Corner, String> {
    let Some(raw) = spelling else {
        return Ok(Corner::Typical);
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "tt" | "typical" => Ok(Corner::Typical),
        "ss" | "slow" | "slow-slow" => Ok(Corner::SlowSlow),
        "ff" | "fast" | "fast-fast" => Ok(Corner::FastFast),
        other => Err(format!("unknown corner `{other}` (expected tt, ss, or ff)")),
    }
}

/// Everything the executors need for one `(technology node, corner)`.
#[derive(Debug)]
pub struct NodeContext {
    /// The technology description (carries the corner).
    pub tech: Technology,
    /// The calibrated predictive models: builtin Table I coefficients at
    /// the typical corner, live-calibrated at SS/FF.
    pub models: CalibratedModels,
    /// Delay-optimal plans keyed by line-length bits — the plan derivation
    /// is deterministic, so caching it preserves bit-identity with the
    /// one-shot CLI while skipping the search on repeat lengths.
    plans: Mutex<HashMap<u64, BufferingPlan>>,
    /// Synthesized networks keyed by `(design, clock bits)`.
    networks: Mutex<HashMap<(String, u64), Arc<Network>>>,
}

impl NodeContext {
    fn new(node: TechNode, corner: Corner) -> Result<Self, String> {
        let tech = Technology::with_corner(node, corner);
        let models = if corner == Corner::Typical {
            builtin(node)
        } else {
            calibrate(&tech, &CalibrationGrid::standard())
                .map_err(|e| format!("calibration failed at {node} {corner}: {e:?}"))?
        };
        Ok(NodeContext {
            tech,
            models,
            plans: Mutex::new(HashMap::new()),
            networks: Mutex::new(HashMap::new()),
        })
    }

    /// The process corner this context was built for.
    #[must_use]
    pub fn corner(&self) -> Corner {
        self.tech.corner()
    }

    /// A borrowing line evaluator over this context.
    #[must_use]
    pub fn evaluator(&self) -> LineEvaluator<'_> {
        LineEvaluator::new(&self.models, &self.tech)
    }

    /// The delay-optimal buffering plan for a global line of `length` —
    /// exactly the plan the `pi yield` CLI derives (balanced 1 GHz
    /// objective over the standard search space), cached per length.
    ///
    /// Returns `None` when the search space is empty for the length.
    #[must_use]
    pub fn plan_for(&self, length: Length) -> Option<BufferingPlan> {
        let key = length.si().to_bits();
        if let Some(plan) = lock(&self.plans).get(&key) {
            pi_obs::counter_add("serve.plan_cache.hits", 1);
            PLAN_HITS.fetch_add(1, Ordering::Relaxed);
            return Some(*plan);
        }
        pi_obs::counter_add("serve.plan_cache.misses", 1);
        PLAN_MISSES.fetch_add(1, Ordering::Relaxed);
        let spec = LineSpec::global(length, DesignStyle::SingleSpacing);
        let obj = BufferingObjective::balanced(Freq::ghz(1.0));
        let plan = self
            .evaluator()
            .optimize_buffering(&spec, &obj, &SearchSpace::for_length(length))?
            .plan;
        lock(&self.plans).insert(key, plan);
        Some(plan)
    }

    /// The synthesized network for a built-in testcase at a clock, cached
    /// per `(design, clock)`. Synthesis follows the established recipe:
    /// `ProposedLinkModel` at the clock with 0.25 switching activity,
    /// single-spacing style.
    ///
    /// # Errors
    ///
    /// Unknown design names and infeasible syntheses are reported as text
    /// (the execution layer maps them to a 400).
    pub fn network_for(&self, design: &str, clock: Freq) -> Result<Arc<Network>, String> {
        let key = (design.to_owned(), clock.si().to_bits());
        if let Some(net) = lock(&self.networks).get(&key) {
            pi_obs::counter_add("serve.net_cache.hits", 1);
            return Ok(Arc::clone(net));
        }
        pi_obs::counter_add("serve.net_cache.misses", 1);
        let spec = match design {
            "dvopd" => pi_cosi::testcases::dvopd(),
            "vproc" => pi_cosi::testcases::vproc(),
            other => {
                return Err(format!(
                    "unknown design `{other}` (expected dvopd or vproc)"
                ))
            }
        };
        let ev = self.evaluator();
        let model = ProposedLinkModel::new(&ev, DesignStyle::SingleSpacing, clock, 0.25);
        let net = synthesize(&spec, &model, &SynthesisConfig::at_clock(clock))
            .map_err(|e| format!("synthesis failed for `{design}`: {e:?}"))?;
        let net = Arc::new(net);
        lock(&self.networks).insert(key, Arc::clone(&net));
        Ok(net)
    }
}

/// Locks one of the store's maps. A panic elsewhere while the lock was
/// held (poisoning it) leaves the map consistent — every critical section
/// is a lookup or a single insert of a finished value — so the store
/// recovers the guard instead of cascading the panic into every later
/// request.
fn lock<T>(map: &Mutex<T>) -> MutexGuard<'_, T> {
    map.lock().unwrap_or_else(PoisonError::into_inner)
}

static PLAN_HITS: AtomicU64 = AtomicU64::new(0);
static PLAN_MISSES: AtomicU64 = AtomicU64::new(0);

/// Plan-cache hit rate since process start (`0` before any lookup) — the
/// "cache hit rate" the load generator reports.
#[must_use]
pub fn plan_cache_hit_rate() -> f64 {
    let hits = PLAN_HITS.load(Ordering::Relaxed);
    let total = hits + PLAN_MISSES.load(Ordering::Relaxed);
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Raw plan-cache counters `(hits, misses)` since process start.
#[must_use]
pub fn plan_cache_counts() -> (u64, u64) {
    (
        PLAN_HITS.load(Ordering::Relaxed),
        PLAN_MISSES.load(Ordering::Relaxed),
    )
}

/// The process-global node store, sharded by `(technology node, corner)`.
#[derive(Debug, Default)]
pub struct NodeStore {
    nodes: Mutex<HashMap<(TechNode, Corner), Arc<NodeContext>>>,
}

impl NodeStore {
    /// The shared process-global store.
    pub fn global() -> &'static NodeStore {
        static STORE: OnceLock<NodeStore> = OnceLock::new();
        STORE.get_or_init(NodeStore::default)
    }

    /// The typical-corner context for `node`, built on first use. The
    /// typical corner uses builtin models, so this path cannot fail.
    #[must_use]
    pub fn context(&self, node: TechNode) -> Arc<NodeContext> {
        self.context_at(node, Corner::Typical)
            .expect("typical-corner models are builtin")
    }

    /// The context for `(node, corner)`, built (and for SS/FF, live
    /// calibrated) on first use. The store lock is held across the build
    /// so a corner is calibrated exactly once per process even under
    /// concurrent first touches.
    ///
    /// # Errors
    ///
    /// Propagates a calibration failure at a non-typical corner as text.
    pub fn context_at(&self, node: TechNode, corner: Corner) -> Result<Arc<NodeContext>, String> {
        let mut nodes = lock(&self.nodes);
        if let Some(ctx) = nodes.get(&(node, corner)) {
            return Ok(Arc::clone(ctx));
        }
        let _span = pi_obs::span("serve.node_warmup");
        let ctx = Arc::new(NodeContext::new(node, corner)?);
        nodes.insert((node, corner), Arc::clone(&ctx));
        Ok(ctx)
    }

    /// Parses a node spelling plus an optional corner spelling and returns
    /// the matching context.
    ///
    /// # Errors
    ///
    /// Propagates node-name, corner-name and calibration errors as text.
    pub fn context_for(
        &self,
        spelling: &str,
        corner: Option<&str>,
    ) -> Result<Arc<NodeContext>, String> {
        let node: TechNode = spelling.parse().map_err(|e| format!("{e}"))?;
        self.context_at(node, parse_corner(corner)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contexts_are_shared_per_node_and_corner() {
        let store = NodeStore::default();
        let a = store.context(TechNode::N65);
        let b = store.context(TechNode::N65);
        assert!(Arc::ptr_eq(&a, &b), "same node → same context");
        let c = store.context(TechNode::N45);
        assert!(!Arc::ptr_eq(&a, &c));
        let tt = store.context_for("n65", None).unwrap();
        assert!(Arc::ptr_eq(&a, &tt), "no corner means typical");
        assert_eq!(tt.tech.node(), TechNode::N65);
        assert_eq!(tt.corner(), Corner::Typical);
        assert!(store.context_for("7nm", None).is_err());
        assert!(store.context_for("n65", Some("sf")).is_err());
    }

    #[test]
    fn poisoned_store_locks_are_recovered_not_cascaded() {
        let store = NodeStore::default();
        let ctx = store.context(TechNode::N65);
        std::thread::scope(|s| {
            let panicked = [
                s.spawn(|| {
                    let _guard = store.nodes.lock().expect("first lock");
                    panic!("a panic while holding the node-store lock");
                }),
                s.spawn(|| {
                    let _guard = ctx.plans.lock().expect("first lock");
                    panic!("a panic while holding the plan-cache lock");
                }),
                s.spawn(|| {
                    let _guard = ctx.networks.lock().expect("first lock");
                    panic!("a panic while holding the network-cache lock");
                }),
            ];
            for handle in panicked {
                assert!(handle.join().is_err());
            }
        });
        assert!(store.nodes.is_poisoned());
        assert!(ctx.plans.is_poisoned());
        assert!(ctx.networks.is_poisoned());

        // Hits, misses and inserts all carry on as normal.
        assert!(Arc::ptr_eq(&ctx, &store.context(TechNode::N65)));
        assert_eq!(store.context(TechNode::N45).tech.node(), TechNode::N45);
        let length = Length::mm(5.0);
        let plan = ctx.plan_for(length).expect("plan exists");
        assert_eq!(ctx.plan_for(length), Some(plan));
        let clock = Freq::ghz(2.25);
        let net = ctx.network_for("dvopd", clock).expect("synthesis");
        let cached = ctx.network_for("dvopd", clock).expect("cached");
        assert!(Arc::ptr_eq(&net, &cached));
    }

    #[test]
    fn corner_contexts_calibrate_live_and_shift_timing() {
        let store = NodeStore::default();
        let tt = store.context(TechNode::N65);
        let ss = store
            .context_at(TechNode::N65, Corner::SlowSlow)
            .expect("SS calibrates");
        assert!(!Arc::ptr_eq(&tt, &ss), "corners get distinct contexts");
        let again = store.context_at(TechNode::N65, Corner::SlowSlow).unwrap();
        assert!(Arc::ptr_eq(&ss, &again), "calibration runs once");
        assert_eq!(ss.corner(), Corner::SlowSlow);
        // Physics check: a slow corner slows the same line down.
        let length = Length::mm(5.0);
        let plan = tt.plan_for(length).expect("plan exists");
        let spec = LineSpec::global(length, DesignStyle::SingleSpacing);
        let t_tt = tt.evaluator().timing(&spec, &plan).delay.as_ps();
        let t_ss = ss.evaluator().timing(&spec, &plan).delay.as_ps();
        assert!(
            t_ss > t_tt * 1.02,
            "SS delay {t_ss} ps should exceed TT delay {t_tt} ps"
        );
    }

    #[test]
    fn corner_spellings_parse_case_insensitively() {
        assert_eq!(parse_corner(None).unwrap(), Corner::Typical);
        for (s, c) in [
            ("tt", Corner::Typical),
            ("Typical", Corner::Typical),
            ("SS", Corner::SlowSlow),
            ("slow-slow", Corner::SlowSlow),
            (" ff ", Corner::FastFast),
            ("FAST", Corner::FastFast),
        ] {
            assert_eq!(parse_corner(Some(s)).unwrap(), c, "{s}");
        }
        assert!(parse_corner(Some("fs")).is_err());
    }

    #[test]
    fn plan_cache_reproduces_the_cli_plan() {
        let store = NodeStore::default();
        let ctx = store.context(TechNode::N65);
        let length = Length::mm(5.0);
        let cached = ctx.plan_for(length).expect("plan exists");
        let again = ctx.plan_for(length).expect("plan exists");
        assert_eq!(cached, again, "cache returns the identical plan");
        // Same derivation as `pi yield`:
        let spec = LineSpec::global(length, DesignStyle::SingleSpacing);
        let direct = ctx
            .evaluator()
            .optimize_buffering(
                &spec,
                &BufferingObjective::balanced(Freq::ghz(1.0)),
                &SearchSpace::for_length(length),
            )
            .unwrap()
            .plan;
        assert_eq!(cached, direct);
    }

    #[test]
    fn network_cache_round_trips_and_rejects_unknown_designs() {
        let store = NodeStore::default();
        let ctx = store.context(TechNode::N65);
        let clock = Freq::ghz(2.25);
        let a = ctx.network_for("dvopd", clock).expect("synthesis");
        let b = ctx.network_for("dvopd", clock).expect("cached");
        assert!(Arc::ptr_eq(&a, &b), "network is cached");
        assert!(!a.channels.is_empty());
        assert!(ctx.network_for("mesh9000", clock).is_err());
    }
}
