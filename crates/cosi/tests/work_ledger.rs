//! The work ledger of one yield-filtered synthesis.
//!
//! `synthesize` prices each distinct clamped channel length once per call
//! and reuses the answer across the filter's rounds. This test pins, for
//! the VPROC and DVOPD testcases under a 0.99 filter and for DVOPD under
//! a correlated 0.95 filter (rho 0.8, 2 mm regions), the exact buffering
//! searches (`cosi.link_solves`), GP solves (`gp.solve`), filter
//! rounds (`cosi.yield_filter_rounds`), resize rounds stopped at an
//! unfixable channel (`cosi.filter_resize_early_miss`) and the
//! independent analytic closures' `Φ` evaluations
//! (`yield.closure_cdf_evals`: one per distinct channel per D2D node of
//! every network closure, the early-miss check's one-channel closure and
//! the resize's single-link closures included; the correlated closure
//! does not count its terms) per call, and checks the searches
//! against a model that logs every `link_cost` it answers: no (length,
//! width) reaches the model twice, and the searches are exactly the
//! distinct lengths the call priced plus the margin bisection's probes.
//!
//! One `#[test]`: the counters are read on the calling thread, and every
//! number here is a count of work, not a time.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use pi_core::coefficients::builtin;
use pi_core::line::{BufferingPlan, LineEvaluator};
use pi_core::variation::VariationModel;
use pi_cosi::{
    synthesize, testcases, CommSpec, InfeasibleLink, LinkCost, LinkCostModel, Network,
    ProposedLinkModel, SynthesisConfig, YieldFilter, CHANNEL_LENGTH_FLOOR,
};
use pi_tech::units::{Freq, Length};
use pi_tech::{DesignStyle, TechNode, Technology};
use pi_yield::StageDelays;

/// The proposed model, logging the (length bits, width) of every
/// `link_cost` it answers.
struct Logged<'a> {
    inner: ProposedLinkModel<'a>,
    calls: RefCell<Vec<(u64, usize)>>,
}

impl LinkCostModel for Logged<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn max_length(&self) -> Length {
        self.inner.max_length()
    }
    fn link_cost(&self, length: Length, n_bits: usize) -> Result<LinkCost, InfeasibleLink> {
        self.calls
            .borrow_mut()
            .push((length.si().to_bits(), n_bits));
        self.inner.link_cost(length, n_bits)
    }
    fn stage_delays(&self, length: Length, plan: &BufferingPlan) -> Option<StageDelays> {
        self.inner.stage_delays(length, plan)
    }
    fn resize_for_yield(
        &self,
        length: Length,
        n_bits: usize,
        plan: &BufferingPlan,
        per_link_target: f64,
        variation: &VariationModel,
    ) -> Option<(LinkCost, StageDelays)> {
        self.inner
            .resize_for_yield(length, n_bits, plan, per_link_target, variation)
    }
}

/// The (clamped length bits, width) keys a network's channels price.
fn priced_keys(net: &Network) -> BTreeSet<(u64, usize)> {
    net.channels
        .iter()
        .map(|c| (c.length.max(CHANNEL_LENGTH_FLOOR).si().to_bits(), c.n_bits))
        .collect()
}

/// Runs `f` and returns the counters it added on the calling thread.
fn counters_of<R>(f: impl FnOnce() -> R) -> (R, BTreeMap<&'static str, u64>) {
    let before = pi_obs::thread_counters();
    let out = f();
    let mut added = pi_obs::thread_counters();
    for (name, total) in &mut added {
        *total -= before.get(name).copied().unwrap_or(0);
    }
    (out, added)
}

/// One filtered synthesis and the work it must take.
struct Row {
    design: &'static str,
    min_yield: f64,
    /// Spatial-correlation coefficient of the filter (2 mm regions); 0
    /// for none.
    rho: f64,
    /// Buffering searches: all, of which priced lengths, of which
    /// margin-probe lengths.
    link_solves: (u64, u64, u64),
    gp_solves: u64,
    rounds: u64,
    margin_probes: u64,
    early_misses: u64,
    cdf_evals: u64,
}

/// The `Φ` counts are 257 D2D nodes × (the distinct channels of the
/// network closures, plus one for the early-miss check, plus one per
/// single-link estimate): VPROC 257 × (70 + 1 + 111 + 111 + 87), DVOPD
/// 257 × (34 + 1 + 66 + 66 + 56). Round 1 stops at its first unresizable
/// channel in every job; round 2's resize passes.
const LEDGER: [Row; 3] = [
    Row {
        design: "vproc",
        min_yield: 0.99,
        rho: 0.0,
        link_solves: (202, 181, 21),
        gp_solves: 64,
        rounds: 2,
        margin_probes: 22,
        early_misses: 1,
        cdf_evals: 97_660,
    },
    Row {
        design: "dvopd",
        min_yield: 0.99,
        rho: 0.0,
        link_solves: (121, 100, 21),
        gp_solves: 34,
        rounds: 2,
        margin_probes: 22,
        early_misses: 1,
        cdf_evals: 57_311,
    },
    Row {
        design: "dvopd",
        min_yield: 0.95,
        rho: 0.8,
        link_solves: (124, 103, 21),
        gp_solves: 41,
        rounds: 2,
        margin_probes: 22,
        early_misses: 1,
        cdf_evals: 0,
    },
];

#[test]
fn each_length_is_searched_once_per_synthesis() {
    std::env::set_var("PI_OBS", "summary");
    pi_obs::reinit_from_env();
    let tech = Technology::new(TechNode::N65);
    let models = builtin(TechNode::N65);
    let evaluator = LineEvaluator::new(&models, &tech);
    let clock = Freq::ghz(2.25);
    for row in LEDGER {
        let design = format!("{}@{}/rho{}", row.design, row.min_yield, row.rho);
        let spec: CommSpec = match row.design {
            "vproc" => testcases::vproc(),
            _ => testcases::dvopd(),
        };
        let model = Logged {
            inner: ProposedLinkModel::new(&evaluator, DesignStyle::SingleSpacing, clock, 0.25),
            calls: RefCell::new(Vec::new()),
        };
        let unfiltered = SynthesisConfig::at_clock(clock);
        let mut variation = VariationModel::nominal();
        if row.rho > 0.0 {
            variation = variation.with_regional(row.rho, Length::mm(2.0));
        }
        let filtered = unfiltered.with_yield_filter(YieldFilter::new(row.min_yield, variation));

        // Both rounds' networks: the first round prices the unfiltered
        // network, the second the re-segmented one that resizing keeps.
        let first = synthesize(&spec, &model, &unfiltered).expect("unfiltered synthesis");
        model.calls.borrow_mut().clear();
        let (net, added) = counters_of(|| synthesize(&spec, &model, &filtered));
        let net = net.expect("filtered synthesis");
        let count = |name: &str| added.get(name).copied().unwrap_or(0);

        let calls = model.calls.borrow();
        let distinct: BTreeSet<(u64, usize)> = calls.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            calls.len(),
            "{design}: a (length, width) reached the model twice"
        );
        let lengths: BTreeSet<u64> = calls.iter().map(|&(bits, _)| bits).collect();
        assert_eq!(
            lengths.len(),
            calls.len(),
            "{design}: a length was searched twice"
        );
        assert_eq!(count("cosi.link_solves"), calls.len() as u64, "{design}");

        // Every priced (length, width) was searched; every other search
        // is one of the margin bisection's probes (a probe that lands on a
        // priced length is a memo hit, not a search).
        let mut priced = priced_keys(&first);
        priced.extend(priced_keys(&net));
        assert!(
            priced.is_subset(&distinct),
            "{design}: a priced length skipped the model"
        );
        let probed = distinct.difference(&priced).count() as u64;
        assert!(
            probed <= count("cosi.margin_probes"),
            "{design}: {probed} searches beyond the priced lengths, but only {} probes",
            count("cosi.margin_probes")
        );
        assert_eq!(
            count("cosi.link_solves"),
            priced.len() as u64 + probed,
            "{design}: searches are the priced lengths plus the bisection probes"
        );

        assert_eq!(
            (count("cosi.link_solves"), priced.len() as u64, probed),
            row.link_solves,
            "{design}: link solves (all, priced, probes)"
        );
        assert_eq!(count("gp.solve"), row.gp_solves, "{design}: GP solves");
        assert_eq!(
            count("cosi.yield_filter_rounds"),
            row.rounds,
            "{design}: filter rounds"
        );
        assert_eq!(
            count("cosi.margin_probes"),
            row.margin_probes,
            "{design}: bisection probes"
        );
        assert_eq!(
            count("cosi.filter_resize_early_miss"),
            row.early_misses,
            "{design}: early resize misses"
        );
        assert_eq!(
            count("yield.closure_cdf_evals"),
            row.cdf_evals,
            "{design}: closure Φ evaluations"
        );
    }
}
