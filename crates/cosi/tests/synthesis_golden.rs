//! Golden bits for NoC synthesis.
//!
//! Each row pins one synthesized network: the channel count and an
//! FNV-64 over every channel's endpoints, length bits, bus width, the
//! bits of each `LinkCost` float and its buffering plan. The cases are
//! both built-in testcases (DVOPD and VPROC at 65 nm, 2.25 GHz, the
//! proposed link model) unfiltered, under a 0.95 and a 0.99 yield filter
//! with independent variation, and under a 0.95 filter with ρ = 0.8
//! regional correlation over 2 mm cells, plus the XY mesh baseline of
//! each. A 0.99 filter allowed a single round fails; where synthesis
//! fails, the row pins the error text instead.
//!
//! A change to how the filter schedules its work (caching, re-timing,
//! batching) must leave every row unchanged; a change that moves answers
//! on purpose rewrites the table and says why. On a mismatch the failure
//! message prints the whole table as computed, in the literal form below.

use pi_core::coefficients::builtin;
use pi_core::line::LineEvaluator;
use pi_core::variation::VariationModel;
use pi_cosi::{
    mesh_network, synthesize, testcases, CommSpec, Network, ProposedLinkModel, SynthesisConfig,
    YieldFilter,
};
use pi_tech::units::{Freq, Length};
use pi_tech::{DesignStyle, TechNode, Technology};

/// `(case, channel count, FNV-64 of the channel bits, error text)`; a
/// failed case has count 0, hash 0 and the `SynthesisError` text.
type Golden = (&'static str, usize, u64, &'static str);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("dvopd/unfiltered", 37, 0xf8ea266141798372, ""),
    ("dvopd/0.95", 120, 0x844ba1095df0b0d9, ""),
    ("dvopd/0.99", 126, 0xfc142fa3c47011d9, ""),
    ("dvopd/0.95/rho0.8", 120, 0x844ba1095df0b0d9, ""),
    ("dvopd/0.99/1round", 0, 0x0000000000000000, "network yield 0.3199 misses the 0.9900 target after 1 re-segmentation rounds"),
    ("dvopd/mesh", 101, 0x33489e0adf530ace, ""),
    ("vproc/unfiltered", 85, 0xfd22ca6b75ef7616, ""),
    ("vproc/0.95", 362, 0xed4c9f7f7756e468, ""),
    ("vproc/0.99", 378, 0x0e86591acb6108a0, ""),
    ("vproc/0.95/rho0.8", 362, 0xed4c9f7f7756e468, ""),
    ("vproc/0.99/1round", 0, 0x0000000000000000, "network yield 0.2334 misses the 0.9900 target after 1 re-segmentation rounds"),
    ("vproc/mesh", 177, 0x2d9a4913abc13e9e, ""),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-64 over every channel's identity, cost bits and plan.
fn network_hash(net: &Network) -> u64 {
    let mut h = FNV_OFFSET;
    for c in &net.channels {
        let cost = &c.cost;
        let plan = &cost.plan;
        for word in [
            c.from as u64,
            c.to as u64,
            c.length.si().to_bits(),
            c.n_bits as u64,
            cost.delay.si().to_bits(),
            cost.power.dynamic.si().to_bits(),
            cost.power.leakage.si().to_bits(),
            cost.wire_area.si().to_bits(),
            cost.repeater_area.si().to_bits(),
            cost.repeaters_per_bit as u64,
            plan.count as u64,
            plan.wn.si().to_bits(),
            u64::from(plan.staggered),
        ] {
            h = fnv(h, &word.to_le_bytes());
        }
        h = fnv(h, format!("{:?}", plan.kind).as_bytes());
    }
    h
}

/// The filter of each case label, `None` for an unfiltered run.
fn filter_of(case: &str) -> Option<YieldFilter> {
    match case {
        "unfiltered" | "mesh" => None,
        "0.95" => Some(YieldFilter::new(0.95, VariationModel::nominal())),
        "0.99" => Some(YieldFilter::new(0.99, VariationModel::nominal())),
        "0.95/rho0.8" => Some(YieldFilter::new(
            0.95,
            VariationModel::nominal().with_regional(0.8, Length::mm(2.0)),
        )),
        // One round cannot re-segment: the filter gives up with an error.
        "0.99/1round" => Some(YieldFilter {
            max_rounds: 1,
            ..YieldFilter::new(0.99, VariationModel::nominal())
        }),
        other => panic!("unknown case `{other}`"),
    }
}

fn computed() -> Vec<(String, usize, u64, String)> {
    let tech = Technology::new(TechNode::N65);
    let models = builtin(TechNode::N65);
    let evaluator = LineEvaluator::new(&models, &tech);
    let clock = Freq::ghz(2.25);
    let model = ProposedLinkModel::new(&evaluator, DesignStyle::SingleSpacing, clock, 0.25);
    let designs: [(&str, CommSpec); 2] =
        [("dvopd", testcases::dvopd()), ("vproc", testcases::vproc())];
    let mut rows = Vec::new();
    for (design, spec) in &designs {
        for case in [
            "unfiltered",
            "0.95",
            "0.99",
            "0.95/rho0.8",
            "0.99/1round",
            "mesh",
        ] {
            let mut config = SynthesisConfig::at_clock(clock);
            if let Some(filter) = filter_of(case) {
                config = config.with_yield_filter(filter);
            }
            let result = if case == "mesh" {
                mesh_network(spec, &model, &config)
            } else {
                synthesize(spec, &model, &config)
            };
            let label = format!("{design}/{case}");
            rows.push(match result {
                Ok(net) => (label, net.channels.len(), network_hash(&net), String::new()),
                Err(e) => (label, 0, 0, e.to_string()),
            });
        }
    }
    rows
}

#[test]
fn synthesized_networks_match_their_golden_bits() {
    let rows = computed();
    let table: String = rows
        .iter()
        .map(|(label, n, h, err)| format!("    (\"{label}\", {n}, {h:#018x}, {err:?}),\n"))
        .collect();
    let same = rows.len() == GOLDEN.len()
        && rows
            .iter()
            .zip(GOLDEN)
            .all(|((label, n, h, err), (gl, gn, gh, ge))| {
                label == gl && n == gn && h == gh && err == ge
            });
    assert!(same, "synthesis golden mismatch; computed table:\n{table}");
}
