//! The work ledger of one yield-filtered synthesis.
//!
//! `synthesize` prices each distinct clamped channel length once per call
//! and reuses the answer across the filter's rounds. This test pins, for
//! the VPROC and DVOPD testcases under a 0.99 filter, the exact buffering
//! searches (`cosi.link_solves`), GP solves (`gp.solve`), filter
//! rounds (`cosi.yield_filter_rounds`) and the analytic closures' `Φ`
//! evaluations (`yield.closure_cdf_evals`: one per distinct channel per
//! D2D node of every network closure, the resize's single-link closures
//! included) per call, and checks the searches
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

/// `(design, link solves, of which priced lengths, of which probe
/// lengths, GP solves, filter rounds, margin probes, closure Φ
/// evaluations)`. The Φ count is 257 D2D nodes × (the distinct channels
/// of the four network closures plus one per single-link estimate):
/// VPROC 257 × (70 + 70 + 111 + 111 + 446), DVOPD
/// 257 × (34 + 34 + 66 + 66 + 157).
type LedgerRow = (&'static str, u64, u64, u64, u64, u64, u64, u64);
const LEDGER: [LedgerRow; 2] = [
    ("vproc", 202, 181, 21, 132, 2, 22, 207_656),
    ("dvopd", 121, 100, 21, 62, 2, 22, 91_749),
];

#[test]
fn each_length_is_searched_once_per_synthesis() {
    std::env::set_var("PI_OBS", "summary");
    pi_obs::reinit_from_env();
    let tech = Technology::new(TechNode::N65);
    let models = builtin(TechNode::N65);
    let evaluator = LineEvaluator::new(&models, &tech);
    let clock = Freq::ghz(2.25);
    for (design, solves, priced_lengths, probe_solves, gp_solves, rounds, probes, cdf_evals) in
        LEDGER
    {
        let spec: CommSpec = match design {
            "vproc" => testcases::vproc(),
            _ => testcases::dvopd(),
        };
        let model = Logged {
            inner: ProposedLinkModel::new(&evaluator, DesignStyle::SingleSpacing, clock, 0.25),
            calls: RefCell::new(Vec::new()),
        };
        let unfiltered = SynthesisConfig::at_clock(clock);
        let filtered =
            unfiltered.with_yield_filter(YieldFilter::new(0.99, VariationModel::nominal()));

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
            (solves, priced_lengths, probe_solves),
            "{design}: link solves (all, priced, probes)"
        );
        assert_eq!(count("gp.solve"), gp_solves, "{design}: GP solves");
        assert_eq!(
            count("cosi.yield_filter_rounds"),
            rounds,
            "{design}: filter rounds"
        );
        assert_eq!(
            count("cosi.margin_probes"),
            probes,
            "{design}: bisection probes"
        );
        assert_eq!(
            count("yield.closure_cdf_evals"),
            cdf_evals,
            "{design}: closure Φ evaluations"
        );
    }
}
