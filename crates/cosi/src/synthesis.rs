//! Constraint-driven NoC topology synthesis.
//!
//! The algorithm mirrors COSI-OCC's structure: every flow must be carried
//! by a chain of point-to-point buffered links, each no longer than the
//! link model's **maximum feasible length** at the target clock; relay
//! routers are inserted where a flow exceeds it, nearby relays are merged
//! (grid clustering), and flows between the same pair of nodes share
//! channels. The link model is a parameter — running the same algorithm
//! with the original and the proposed models is exactly the experiment of
//! Table III.
//!
//! Each channel length is priced once per [`synthesize`] call. A
//! call-scoped memo keeps every `link_cost` answer by (clamped length,
//! width), so channels that share a length, and the yield filter's later
//! rounds, reuse one buffering search. The filter times a channel by
//! handing the priced plan back to [`LinkCostModel::stage_delays`] (two
//! line timings) rather than searching again, starts each GP resize from
//! that plan, and memoizes single-link yields and resizes by length too.
//! The memo is dropped when the call returns: nothing is cached across
//! calls or threads.
//!
//! A filter round first tries to resize its sub-target channels in place,
//! worst single-link yield first. The network passes only if every
//! channel passes, so when a channel the model cannot resize already
//! misses the target taken alone, the round cannot pass and stops there
//! without resizing the rest. The filter's closures keep that bound
//! exactly in floating point (see `resize_critical_links`), so the round
//! returns what the full loop would have, and the networks keep their
//! bits.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

use pi_core::variation::VariationModel;
use pi_tech::units::{Freq, Length};
use pi_tech::DesignStyle;
use pi_yield::{NetworkProblem, SpatialCorrelation, StageDelays};

use crate::model::{InfeasibleLink, LinkCost, LinkCostModel};
use crate::net_yield::CHANNEL_LENGTH_FLOOR;
use crate::spec::{CommSpec, Point, SpecError};

/// Yield-aware synthesis filtering: accept a synthesized network only if
/// its analytic lower-bound timing yield under process variation reaches
/// a target, re-segmenting with a tighter length budget otherwise.
///
/// The analytic closure (see [`pi_yield::network_yield`]) is a lower
/// bound under active spatial correlation, so a network that passes the
/// filter is conservatively feasible — the right direction for sign-off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldFilter {
    /// Minimum acceptable network timing yield, in `(0, 1]` ([`synthesize`]
    /// rejects any other value with [`SynthesisError::BadYieldFilter`]).
    pub min_yield: f64,
    /// Variation budget the yield is evaluated under (including the
    /// spatial-correlation knobs `rho_region` / `region_cell`).
    pub variation: VariationModel,
    /// Maximum re-segmentation rounds before giving up with
    /// [`SynthesisError::YieldTarget`]; at least 1.
    pub max_rounds: usize,
}

impl YieldFilter {
    /// A filter at `min_yield` under `variation` with the default round
    /// budget (6 rounds ≈ a 38 % cut of the length budget).
    #[must_use]
    pub fn new(min_yield: f64, variation: VariationModel) -> Self {
        YieldFilter {
            min_yield,
            variation,
            max_rounds: 6,
        }
    }
}

/// Synthesis parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthesisConfig {
    /// Target clock frequency.
    pub clock: Freq,
    /// Switching-activity factor for power estimates.
    pub activity: f64,
    /// Wiring design style for all links.
    pub style: DesignStyle,
    /// Maximum ports per router / network interface.
    pub max_router_ports: usize,
    /// Fraction of the feasible length actually used when segmenting
    /// (slack for relay-placement snapping).
    pub length_margin: f64,
    /// Optional yield-aware feasibility filter (off by default).
    pub yield_filter: Option<YieldFilter>,
}

impl SynthesisConfig {
    /// Default configuration at the given clock.
    #[must_use]
    pub fn at_clock(clock: Freq) -> Self {
        SynthesisConfig {
            clock,
            activity: 0.25,
            style: DesignStyle::SingleSpacing,
            max_router_ports: 16,
            length_margin: 0.85,
            yield_filter: None,
        }
    }

    /// The same configuration with a yield filter attached.
    #[must_use]
    pub fn with_yield_filter(self, filter: YieldFilter) -> Self {
        SynthesisConfig {
            yield_filter: Some(filter),
            ..self
        }
    }
}

/// What a network node is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Network interface of a core (index into the spec's cores).
    CoreInterface(usize),
    /// Relay router inserted to satisfy the wire-length constraint.
    Relay,
}

/// One node of the synthesized network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetNode {
    /// Role of the node.
    pub kind: NodeKind,
    /// Floorplan position.
    pub position: Point,
}

/// One synthesized physical channel (a buffered bus between two nodes).
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    /// Source node index.
    pub from: usize,
    /// Destination node index.
    pub to: usize,
    /// Routed (Manhattan) length.
    pub length: Length,
    /// Aggregate bandwidth carried, Gbit/s.
    pub bandwidth_gbps: f64,
    /// Parallel lanes (each `data_width` bits) needed for the bandwidth.
    pub lanes: usize,
    /// Total bus width in bits.
    pub n_bits: usize,
    /// Cost as estimated by the synthesis model.
    pub cost: LinkCost,
}

/// A synthesized network.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    /// Name of the link model that drove synthesis.
    pub model_name: String,
    /// All nodes (core interfaces first, relays after).
    pub nodes: Vec<NetNode>,
    /// All physical channels.
    pub channels: Vec<Channel>,
    /// Channel indices traversed by each flow, in spec order.
    pub routes: Vec<Vec<usize>>,
}

impl Network {
    /// Number of relay routers inserted.
    #[must_use]
    pub fn relay_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Relay)
            .count()
    }

    /// Port count (degree) of a node.
    #[must_use]
    pub fn ports_of(&self, node: usize) -> usize {
        self.channels
            .iter()
            .filter(|c| c.from == node || c.to == node)
            .count()
    }

    /// Hop count of a flow: the number of links its data traverses.
    #[must_use]
    pub fn hops(&self, flow: usize) -> usize {
        self.routes[flow].len()
    }

    /// Mean hop count over all flows.
    #[must_use]
    pub fn average_hops(&self) -> f64 {
        if self.routes.is_empty() {
            return 0.0;
        }
        let total: usize = self.routes.iter().map(Vec::len).sum();
        total as f64 / self.routes.len() as f64
    }

    /// Largest hop count over all flows.
    #[must_use]
    pub fn max_hops(&self) -> usize {
        self.routes.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Synthesis failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthesisError {
    /// The input spec is inconsistent.
    Spec(SpecError),
    /// No positive feasible link length exists at this clock.
    NoFeasibleLink,
    /// A link the algorithm committed to was rejected by the model.
    Link(InfeasibleLink),
    /// A node would need more ports than the router supports.
    PortOverflow {
        /// Node index.
        node: usize,
        /// Ports required.
        ports: usize,
        /// Ports available.
        max: usize,
    },
    /// The yield filter's target is outside `(0, 1]` (or NaN), or it
    /// allows no rounds.
    BadYieldFilter {
        /// The configured minimum yield.
        min_yield: f64,
        /// The configured round budget.
        max_rounds: usize,
    },
    /// The yield filter exhausted its re-segmentation rounds without
    /// reaching the target network yield.
    YieldTarget {
        /// Best analytic yield achieved.
        achieved: f64,
        /// The configured minimum yield.
        target: f64,
        /// Rounds spent.
        rounds: usize,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::Spec(e) => write!(f, "invalid spec: {e}"),
            SynthesisError::NoFeasibleLink => {
                f.write_str("no feasible link length at the target clock")
            }
            SynthesisError::Link(e) => write!(f, "link rejected: {e}"),
            SynthesisError::PortOverflow { node, ports, max } => {
                write!(f, "node {node} needs {ports} ports but routers have {max}")
            }
            SynthesisError::BadYieldFilter {
                min_yield,
                max_rounds,
            } => write!(
                f,
                "yield filter needs a target in (0, 1] and at least one round, \
                 got target {min_yield} with {max_rounds} rounds"
            ),
            SynthesisError::YieldTarget {
                achieved,
                target,
                rounds,
            } => write!(
                f,
                "network yield {achieved:.4} misses the {target:.4} target \
                 after {rounds} re-segmentation rounds"
            ),
        }
    }
}

impl std::error::Error for SynthesisError {}

impl From<SpecError> for SynthesisError {
    fn from(e: SpecError) -> Self {
        SynthesisError::Spec(e)
    }
}

impl From<InfeasibleLink> for SynthesisError {
    fn from(e: InfeasibleLink) -> Self {
        SynthesisError::Link(e)
    }
}

/// Synthesizes a network for `spec` under `config` using `model` for every
/// link-cost and feasibility decision.
///
/// When `config.yield_filter` is set, the synthesized network is accepted
/// only if its analytic timing yield under the filter's variation budget
/// reaches `min_yield`; otherwise synthesis is re-run with a 15 %-tighter
/// length budget (shorter links carry more timing slack, so per-channel
/// yield rises) for up to `max_rounds` rounds. Models without per-stage
/// timing ([`LinkCostModel::stage_delays`] returning `None`) skip the
/// filter with a one-time warning.
///
/// # Errors
///
/// Returns an error if the spec is invalid, no link is feasible at the
/// clock, a router would exceed its port budget, the yield filter's
/// target is outside `(0, 1]` or its round budget is 0, or the filter
/// exhausts its rounds below the target.
pub fn synthesize(
    spec: &CommSpec,
    model: &dyn LinkCostModel,
    config: &SynthesisConfig,
) -> Result<Network, SynthesisError> {
    if let Some(filter) = config.yield_filter {
        if !(filter.min_yield > 0.0 && filter.min_yield <= 1.0) || filter.max_rounds == 0 {
            return Err(SynthesisError::BadYieldFilter {
                min_yield: filter.min_yield,
                max_rounds: filter.max_rounds,
            });
        }
    }
    let mut memo = LinkMemo::default();
    let network = synthesize_with_margin(spec, model, config, config.length_margin, &mut memo)?;
    match config.yield_filter {
        None => Ok(network),
        Some(filter) => apply_yield_filter(spec, model, config, &filter, network, &mut memo),
    }
}

/// The per-length work of one [`synthesize`] call, done once. Synthesis
/// rounds re-price the same channel lengths, channels of one network
/// share lengths, and the filter asks the same single-link questions
/// round after round; every answer here is a pure function of its key
/// (the model, config and filter are fixed for the call), so a repeat is
/// a lookup. Keys use the bits of the clamped length
/// (`length.max(CHANNEL_LENGTH_FLOOR)`). The memo lives on the stack of
/// one call: nothing outlives it, so concurrent calls share nothing and
/// a repeated call does the same work again.
#[derive(Default)]
struct LinkMemo {
    /// `link_cost` answers by (length, width).
    costs: HashMap<(u64, usize), Result<LinkCost, InfeasibleLink>>,
    /// Single-link analytic yields of the priced plan by (length, width);
    /// `None` when the link is infeasible or the model has no stage
    /// timing.
    yields: HashMap<(u64, usize), Option<f64>>,
    /// `resize_for_yield` answers by (length, width, per-link target).
    resized: HashMap<(u64, usize, u64), Option<(LinkCost, StageDelays)>>,
}

impl LinkMemo {
    /// The model's cost of an `n_bits`-wide link of the (clamped) length,
    /// searched at most once per call.
    fn link_cost(
        &mut self,
        model: &dyn LinkCostModel,
        length: Length,
        n_bits: usize,
    ) -> Result<LinkCost, InfeasibleLink> {
        let length = length.max(CHANNEL_LENGTH_FLOOR);
        match self.costs.entry((length.si().to_bits(), n_bits)) {
            Entry::Occupied(hit) => {
                pi_obs::counter_add("cosi.link_solve_hits", 1);
                hit.get().clone()
            }
            Entry::Vacant(miss) => {
                pi_obs::counter_add("cosi.link_solves", 1);
                miss.insert(model.link_cost(length, n_bits)).clone()
            }
        }
    }

    /// The analytic timing yield of one `n_bits`-wide link of the
    /// (clamped) length at its priced plan under the filter's variation
    /// budget, with line-position-derived spatial correlation. `None` when
    /// the link is infeasible or the model has no per-stage timing.
    fn link_yield(
        &mut self,
        model: &dyn LinkCostModel,
        config: &SynthesisConfig,
        filter: &YieldFilter,
        length: Length,
        n_bits: usize,
    ) -> Option<f64> {
        let length = length.max(CHANNEL_LENGTH_FLOOR);
        let key = (length.si().to_bits(), n_bits);
        if let Some(&y) = self.yields.get(&key) {
            return y;
        }
        let y = self
            .link_cost(model, length, n_bits)
            .ok()
            .and_then(|cost| model.stage_delays(length, &cost.plan))
            .map(|stages| link_yield_of_stages(stages, config, filter, length));
        self.yields.insert(key, y);
        y
    }

    /// The model's yield resize of a channel (from its priced plan),
    /// solved at most once per (length, width, target) per call.
    fn resize(
        &mut self,
        model: &dyn LinkCostModel,
        channel: &Channel,
        per_link_target: f64,
        variation: &VariationModel,
    ) -> Option<(LinkCost, StageDelays)> {
        let length = channel.length.max(CHANNEL_LENGTH_FLOOR);
        let key = (
            length.si().to_bits(),
            channel.n_bits,
            per_link_target.to_bits(),
        );
        self.resized
            .entry(key)
            .or_insert_with(|| {
                model.resize_for_yield(
                    length,
                    channel.n_bits,
                    &channel.cost.plan,
                    per_link_target,
                    variation,
                )
            })
            .clone()
    }
}

/// One synthesis pass with an explicit length budget (the yield filter
/// re-runs this with progressively tighter margins). Channels are priced
/// through the call's memo.
fn synthesize_with_margin(
    spec: &CommSpec,
    model: &dyn LinkCostModel,
    config: &SynthesisConfig,
    length_margin: f64,
    memo: &mut LinkMemo,
) -> Result<Network, SynthesisError> {
    let _obs_span = pi_obs::span("cosi.synthesize");
    spec.validate()?;
    let max_len = model.max_length();
    if max_len.si() <= 0.0 {
        return Err(SynthesisError::NoFeasibleLink);
    }
    let budget = max_len * length_margin;

    // Core interfaces.
    let mut nodes: Vec<NetNode> = spec
        .cores
        .iter()
        .enumerate()
        .map(|(i, c)| NetNode {
            kind: NodeKind::CoreInterface(i),
            position: c.position,
        })
        .collect();

    // Relay routers are deduplicated on a grid half the budget wide, so
    // nearby flows share them (the merging step of constraint-driven
    // synthesis).
    let cell = budget.si() * 0.5;
    let mut relay_at: HashMap<(i64, i64), usize> = HashMap::new();
    let mut relay_for = |nodes: &mut Vec<NetNode>, p: Point| -> usize {
        let key = (
            (p.x.si() / cell).round() as i64,
            (p.y.si() / cell).round() as i64,
        );
        *relay_at.entry(key).or_insert_with(|| {
            let snapped = Point {
                x: Length::from_si(key.0 as f64 * cell),
                y: Length::from_si(key.1 as f64 * cell),
            };
            nodes.push(NetNode {
                kind: NodeKind::Relay,
                position: snapped,
            });
            nodes.len() - 1
        })
    };

    // Route each flow: a straight chain of relays every ≤ budget.
    let mut channel_bw: HashMap<(usize, usize), f64> = HashMap::new();
    let mut flow_paths: Vec<Vec<(usize, usize)>> = Vec::with_capacity(spec.flows.len());
    for flow in &spec.flows {
        let src_pos = spec.cores[flow.src].position;
        let dst_pos = spec.cores[flow.dst].position;
        let dist = src_pos.manhattan(&dst_pos);
        let mut path_nodes: Vec<usize> = vec![flow.src];
        if dist > budget {
            let segs = (dist / budget).ceil() as usize;
            for k in 1..segs {
                let p = src_pos.lerp(&dst_pos, k as f64 / segs as f64);
                let relay = relay_for(&mut nodes, p);
                if *path_nodes.last().expect("path has src") != relay {
                    path_nodes.push(relay);
                }
            }
        }
        path_nodes.push(flow.dst);

        // Snapping can stretch a segment past the feasible length; split
        // such segments with exact-midpoint relays until all fit.
        let mut i = 0;
        while i + 1 < path_nodes.len() {
            let a = nodes[path_nodes[i]].position;
            let b = nodes[path_nodes[i + 1]].position;
            if a.manhattan(&b) > max_len {
                let relay = relay_for(&mut nodes, a.lerp(&b, 0.5));
                if relay == path_nodes[i] || relay == path_nodes[i + 1] {
                    // Degenerate snap: give up splitting (length ≈ max_len).
                    i += 1;
                } else {
                    path_nodes.insert(i + 1, relay);
                }
            } else {
                i += 1;
            }
        }

        let mut segments = Vec::with_capacity(path_nodes.len() - 1);
        for pair in path_nodes.windows(2) {
            let key = (pair[0], pair[1]);
            *channel_bw.entry(key).or_insert(0.0) += flow.bandwidth_gbps;
            segments.push(key);
        }
        flow_paths.push(segments);
    }

    // Materialize channels, sizing lanes by bandwidth.
    let capacity_gbps = spec.data_width as f64 * config.clock.as_ghz();
    let mut keys: Vec<(usize, usize)> = channel_bw.keys().copied().collect();
    keys.sort_unstable();
    let mut channel_index: HashMap<(usize, usize), usize> = HashMap::new();
    let mut channels = Vec::with_capacity(keys.len());
    for key in keys {
        let bw = channel_bw[&key];
        let length = nodes[key.0].position.manhattan(&nodes[key.1].position);
        let lanes = ((bw / capacity_gbps).ceil() as usize).max(1);
        let n_bits = lanes * spec.data_width;
        let cost = memo.link_cost(model, length, n_bits)?;
        channel_index.insert(key, channels.len());
        channels.push(Channel {
            from: key.0,
            to: key.1,
            length,
            bandwidth_gbps: bw,
            lanes,
            n_bits,
            cost,
        });
    }

    let routes: Vec<Vec<usize>> = flow_paths
        .iter()
        .map(|segs| segs.iter().map(|k| channel_index[k]).collect())
        .collect();

    let network = Network {
        model_name: model.name().to_owned(),
        nodes,
        channels,
        routes,
    };

    // Port-budget check.
    for node in 0..network.nodes.len() {
        let mut ports = network.ports_of(node);
        if matches!(network.nodes[node].kind, NodeKind::CoreInterface(_)) {
            ports += 1; // the local core port
        }
        if ports > config.max_router_ports {
            return Err(SynthesisError::PortOverflow {
                node,
                ports,
                max: config.max_router_ports,
            });
        }
    }

    if pi_obs::enabled() {
        pi_obs::counter_add("cosi.syntheses", 1);
        pi_obs::counter_add("cosi.channels_built", network.channels.len() as u64);
        pi_obs::counter_add("cosi.relays_built", network.relay_count() as u64);
    }

    Ok(network)
}

/// Per-channel stage delays of a synthesized network, or `None` when the
/// model cannot provide per-stage timing. The lowering mirrors
/// `net_yield::network_problem` (channel lengths are floor-clamped), but
/// the delays come from the model re-timing each channel's priced plan
/// (a design-time estimate), not a post-hoc evaluator. A filter round
/// computes them once and hands them to both the yield check and the
/// resize attempt.
fn channel_stage_delays(network: &Network, model: &dyn LinkCostModel) -> Option<Vec<StageDelays>> {
    network
        .channels
        .iter()
        .map(|c| model.stage_delays(c.length.max(CHANNEL_LENGTH_FLOOR), &c.cost.plan))
        .collect()
}

/// The analytic network timing yield of the given per-channel stage
/// delays under the filter's variation budget. Placement-derived region
/// ids attach spatial correlation when `rho_region > 0`.
fn network_yield_of_stages(
    channels: &[StageDelays],
    network: &Network,
    config: &SynthesisConfig,
    filter: &YieldFilter,
) -> f64 {
    let _obs_span = pi_obs::span("cosi.filter_network_yield");
    let regions = stage_regions(channels, network, filter);
    closure_yield(channels.to_vec(), regions, config, filter)
}

/// The analytic timing yield of channel `i` of the network *taken alone*:
/// a one-channel [`pi_yield::network_yield`] on its stage delays and its
/// slice of the placement regions. The network passes only if this
/// channel does, and the closure keeps that bound exactly in floating
/// point (see [`resize_critical_links`]): no network holding channel `i`
/// with these stages has a higher filter yield.
fn channel_alone_yield(
    channels: &[StageDelays],
    i: usize,
    network: &Network,
    config: &SynthesisConfig,
    filter: &YieldFilter,
) -> f64 {
    let mut regions = stage_regions(channels, network, filter);
    if !regions.is_empty() {
        let start: usize = channels[..i].iter().map(StageDelays::len).sum();
        regions = regions[start..start + channels[i].len()].to_vec();
    }
    closure_yield(vec![channels[i].clone()], regions, config, filter)
}

/// One region id per stage of `channels` (channel-major), derived from
/// the network's placement; empty when the filter's variation budget has
/// no spatial correlation.
fn stage_regions(channels: &[StageDelays], network: &Network, filter: &YieldFilter) -> Vec<usize> {
    if filter.variation.rho_region > 0.0 {
        let counts: Vec<usize> = channels.iter().map(StageDelays::len).collect();
        crate::placement::channel_stage_regions(network, &counts, filter.variation.region_cell)
    } else {
        Vec::new()
    }
}

/// The filter's analytic closure of `channels`, correlated through
/// `stage_region` (from [`stage_regions`]) when `rho_region > 0`.
fn closure_yield(
    channels: Vec<StageDelays>,
    stage_region: Vec<usize>,
    config: &SynthesisConfig,
    filter: &YieldFilter,
) -> f64 {
    let correlation = if filter.variation.rho_region > 0.0 {
        SpatialCorrelation::regional(filter.variation.rho_region, stage_region)
    } else {
        SpatialCorrelation::none()
    };
    let problem = NetworkProblem::new(
        channels,
        filter.variation.to_drive(),
        config.clock.period().si(),
    )
    .with_correlation(correlation);
    let (yield_fraction, _) = pi_yield::network_yield(&problem);
    yield_fraction
}

/// The analytic timing yield of one link with the given stage delays under
/// the filter's variation budget, with line-position-derived spatial
/// correlation.
fn link_yield_of_stages(
    stages: StageDelays,
    config: &SynthesisConfig,
    filter: &YieldFilter,
    length: Length,
) -> f64 {
    let problem = pi_yield::LineProblem {
        correlation: filter.variation.line_correlation(stages.len(), length),
        stages,
        variation: filter.variation.to_drive(),
        deadline_s: config.clock.period().si(),
    };
    pi_yield::line_yield(&problem)
}

/// Attempts to recover a failing network by **resizing** its sub-target
/// channels in place (GP joint sizing via
/// [`LinkCostModel::resize_for_yield`]) instead of re-segmenting the whole
/// topology. Every channel whose single-link analytic yield misses the
/// per-link share is offered to the model for resizing; if the network
/// yield with the resized stage delays clears the filter target, the
/// resized costs are committed and the passing yield is returned. `None`
/// when the model cannot resize, nothing needed resizing, or the resized
/// network still misses the target — the caller then re-segments.
/// `channels` holds the network's current per-channel stage delays.
///
/// **Early miss.** The sub-target channels are visited worst first
/// (ascending single-link yield, ties by channel index). A channel the
/// model cannot resize keeps its stages, and the network passes only if
/// that channel passes; so when its yield taken alone
/// ([`channel_alone_yield`]) is below the target, the round cannot pass
/// and the loop stops there (`cosi.filter_resize_early_miss`). The bound
/// is exact in floating point, not just in exact arithmetic: the
/// independent closure's per-node product multiplies factors ≤ 1, so it
/// never exceeds the channel's own `Φ`, and the node sums run in the same
/// order; the correlated closure's product over regions never exceeds
/// the region quadrature that holds the channel, which with only that
/// channel in it is what the one-channel closure computes (region
/// loadings are in first-touch order, so region labels do not matter).
/// The loop therefore returns `None` exactly when it would have after
/// resizing the rest, and leaves the network as it would have. Visit
/// order cannot change a bit: a resize is a pure function of its key and
/// each one lands at its own channel index.
fn resize_critical_links(
    network: &mut Network,
    model: &dyn LinkCostModel,
    config: &SynthesisConfig,
    filter: &YieldFilter,
    per_link_target: f64,
    mut channels: Vec<StageDelays>,
    memo: &mut LinkMemo,
) -> Option<f64> {
    let _obs_span = pi_obs::span("cosi.filter_resize");
    let mut critical: Vec<(f64, usize)> = Vec::new();
    for (i, channel) in network.channels.iter().enumerate() {
        match memo.link_yield(model, config, filter, channel.length, channel.n_bits) {
            Some(y) if y >= per_link_target => {}
            y => critical.push((y.unwrap_or(f64::NEG_INFINITY), i)),
        }
    }
    critical.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut resized: Vec<(usize, LinkCost)> = Vec::new();
    for (_, i) in critical {
        let channel = &network.channels[i];
        match memo.resize(model, channel, per_link_target, &filter.variation) {
            Some((cost, stages)) => {
                channels[i] = stages;
                resized.push((i, cost));
            }
            None => {
                if channel_alone_yield(&channels, i, network, config, filter) < filter.min_yield {
                    pi_obs::counter_add("cosi.filter_resize_early_miss", 1);
                    return None;
                }
            }
        }
    }
    if resized.is_empty() {
        return None;
    }
    let y = network_yield_of_stages(&channels, network, config, filter);
    if y < filter.min_yield {
        return None;
    }
    for (i, cost) in resized {
        network.channels[i].cost = cost;
    }
    Some(y)
}

/// Bisects for the largest length-budget fraction whose single-link
/// analytic yield, for an `n_bits`-wide link, reaches `per_link_target`.
/// `None` when even a floor-length link misses it (or the model has no
/// per-stage timing) — the caller then falls back to geometric budget
/// shrinking.
fn yield_feasible_margin(
    model: &dyn LinkCostModel,
    config: &SynthesisConfig,
    filter: &YieldFilter,
    per_link_target: f64,
    n_bits: usize,
    memo: &mut LinkMemo,
) -> Option<f64> {
    let max_len = model.max_length();
    let mut single_link_yield = |length| {
        pi_obs::counter_add("cosi.margin_probes", 1);
        memo.link_yield(model, config, filter, length, n_bits)
    };
    let mut lo = CHANNEL_LENGTH_FLOOR;
    if single_link_yield(lo)? < per_link_target {
        return None;
    }
    let mut hi = max_len * config.length_margin;
    if single_link_yield(hi)? >= per_link_target {
        return Some(config.length_margin);
    }
    for _ in 0..20 {
        let mid = lo.lerp(hi, 0.5);
        if single_link_yield(mid)? >= per_link_target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some((lo.si() / max_len.si()).max(1e-3))
}

/// The yield-aware feasibility loop: keep the network if its analytic
/// yield clears the target, otherwise re-segment with a tighter length
/// budget until it does or the round budget runs out.
fn apply_yield_filter(
    spec: &CommSpec,
    model: &dyn LinkCostModel,
    config: &SynthesisConfig,
    filter: &YieldFilter,
    mut network: Network,
    memo: &mut LinkMemo,
) -> Result<Network, SynthesisError> {
    let _obs_span = pi_obs::span("cosi.yield_filter");
    // A network with no channels carries no timing-critical wires: it
    // passes trivially. (Guarding here also keeps the per-link target
    // `min_yield^(1/channels)` below from dividing by zero.)
    if network.channels.is_empty() {
        pi_obs::counter_add("cosi.yield_filter_empty", 1);
        pi_obs::counter_add("cosi.yield_filter_pass", 1);
        return Ok(network);
    }
    let mut margin = config.length_margin;
    let mut achieved = 0.0f64;
    for round in 0..filter.max_rounds {
        pi_obs::counter_add("cosi.yield_filter_rounds", 1);
        let Some(channels) = channel_stage_delays(&network, model) else {
            pi_obs::warn_once(
                "cosi.yield_filter_unsupported",
                "link model provides no per-stage timing; yield filter skipped",
            );
            return Ok(network);
        };
        let y = network_yield_of_stages(&channels, &network, config, filter);
        achieved = achieved.max(y);
        if y >= filter.min_yield {
            pi_obs::counter_add("cosi.yield_filter_pass", 1);
            return Ok(network);
        }
        if round + 1 == filter.max_rounds {
            break;
        }
        // Shorter links carry more slack against the same period, so a
        // tighter budget trades hops for per-channel yield. Jump straight
        // to the longest length whose single-link analytic yield clears
        // the per-link share of the network target (bisection); fall back
        // to a 15 % cut when bisection cannot improve on the current
        // margin (e.g. shared-region correlation across channels is what
        // drags the network below target).
        let per_link = filter.min_yield.powf(1.0 / network.channels.len() as f64);
        // Cheapest recovery first: ask the model to jointly *resize* the
        // channels that miss the per-link share, keeping the topology.
        // Only when resizing cannot lift the network over the target do
        // we pay for a re-segmentation round.
        if resize_critical_links(
            &mut network,
            model,
            config,
            filter,
            per_link,
            channels,
            memo,
        )
        .is_some()
        {
            pi_obs::counter_add("cosi.yield_filter_resize", 1);
            pi_obs::counter_add("cosi.yield_filter_pass", 1);
            return Ok(network);
        }
        pi_obs::counter_add("cosi.yield_filter_resize_miss", 1);
        // Bisection probes a one-lane link: the narrowest bus the spec
        // builds.
        margin = match yield_feasible_margin(model, config, filter, per_link, spec.data_width, memo)
        {
            Some(m) if m < margin => m,
            _ => margin * 0.85,
        };
        pi_obs::counter_add("cosi.yield_filter_resegment", 1);
        network = synthesize_with_margin(spec, model, config, margin, memo)?;
    }
    pi_obs::counter_add("cosi.yield_filter_reject", 1);
    Err(SynthesisError::YieldTarget {
        achieved,
        target: filter.min_yield,
        rounds: filter.max_rounds,
    })
}

/// Counts the channels of `network` that `other` considers infeasible at
/// its clock — the paper's observation that the original model's long
/// links are "actually not implementable" when checked with accurate
/// models.
#[must_use]
pub fn infeasible_under(network: &Network, other: &dyn LinkCostModel) -> usize {
    network
        .channels
        .iter()
        .filter(|c| other.link_cost(c.length, c.n_bits).is_err())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinkCost;
    use pi_core::power::PowerBreakdown;
    use pi_tech::units::{Area, Power, Time};

    /// A stub model with a configurable reach, for algorithm-level tests.
    #[derive(Debug)]
    struct StubModel {
        reach: Length,
    }

    impl LinkCostModel for StubModel {
        fn name(&self) -> &str {
            "stub"
        }
        fn max_length(&self) -> Length {
            self.reach
        }
        fn link_cost(&self, length: Length, n_bits: usize) -> Result<LinkCost, InfeasibleLink> {
            if length > self.reach {
                return Err(InfeasibleLink {
                    length,
                    max_length: self.reach,
                });
            }
            Ok(LinkCost {
                delay: Time::ps(100.0),
                power: PowerBreakdown {
                    dynamic: Power::uw(n_bits as f64),
                    leakage: Power::uw(0.1 * n_bits as f64),
                },
                wire_area: Area::um2(1.0),
                repeater_area: Area::um2(1.0),
                repeaters_per_bit: 1,
                plan: pi_core::line::BufferingPlan {
                    kind: pi_tech::RepeaterKind::Inverter,
                    count: 1,
                    wn: Length::um(4.0),
                    staggered: false,
                },
            })
        }
    }

    use crate::spec::{Core, Flow};
    use pi_tech::units::Freq;

    fn line_spec(dist_mm: f64) -> CommSpec {
        CommSpec {
            name: "L".into(),
            cores: vec![
                Core {
                    name: "a".into(),
                    position: Point::mm(0.0, 0.0),
                },
                Core {
                    name: "b".into(),
                    position: Point::mm(dist_mm, 0.0),
                },
            ],
            flows: vec![Flow {
                src: 0,
                dst: 1,
                bandwidth_gbps: 10.0,
            }],
            data_width: 128,
            die: (Length::mm(20.0), Length::mm(20.0)),
        }
    }

    #[test]
    fn short_flow_gets_direct_link() {
        let net = synthesize(
            &line_spec(2.0),
            &StubModel {
                reach: Length::mm(5.0),
            },
            &SynthesisConfig::at_clock(Freq::ghz(2.0)),
        )
        .unwrap();
        assert_eq!(net.relay_count(), 0);
        assert_eq!(net.channels.len(), 1);
        assert_eq!(net.hops(0), 1);
    }

    #[test]
    fn long_flow_gets_relays() {
        let net = synthesize(
            &line_spec(12.0),
            &StubModel {
                reach: Length::mm(4.0),
            },
            &SynthesisConfig::at_clock(Freq::ghz(2.0)),
        )
        .unwrap();
        assert!(net.relay_count() >= 2, "relays = {}", net.relay_count());
        assert!(net.hops(0) >= 3);
        // Every channel respects the reach.
        for c in &net.channels {
            assert!(c.length <= Length::mm(4.0) + Length::um(1.0));
        }
    }

    #[test]
    fn shorter_reach_means_more_hops() {
        let cfg = SynthesisConfig::at_clock(Freq::ghz(2.0));
        let long = synthesize(
            &line_spec(12.0),
            &StubModel {
                reach: Length::mm(8.0),
            },
            &cfg,
        )
        .unwrap();
        let short = synthesize(
            &line_spec(12.0),
            &StubModel {
                reach: Length::mm(3.0),
            },
            &cfg,
        )
        .unwrap();
        assert!(short.average_hops() > long.average_hops());
    }

    #[test]
    fn parallel_flows_share_relays_and_channels() {
        let mut spec = line_spec(12.0);
        // A second flow in the same direction between the same cores.
        spec.flows.push(Flow {
            src: 0,
            dst: 1,
            bandwidth_gbps: 5.0,
        });
        let net = synthesize(
            &spec,
            &StubModel {
                reach: Length::mm(4.0),
            },
            &SynthesisConfig::at_clock(Freq::ghz(2.0)),
        )
        .unwrap();
        // Both flows use the same channels (shared bandwidth).
        assert_eq!(net.routes[0], net.routes[1]);
        let total_bw: f64 =
            net.channels.iter().map(|c| c.bandwidth_gbps).sum::<f64>() / net.channels.len() as f64;
        assert!((total_bw - 15.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_beyond_capacity_adds_lanes() {
        let mut spec = line_spec(2.0);
        // Capacity at 128 b × 2 GHz = 256 Gbit/s; ask for more.
        spec.flows[0].bandwidth_gbps = 300.0;
        let net = synthesize(
            &spec,
            &StubModel {
                reach: Length::mm(5.0),
            },
            &SynthesisConfig::at_clock(Freq::ghz(2.0)),
        )
        .unwrap();
        assert_eq!(net.channels[0].lanes, 2);
        assert_eq!(net.channels[0].n_bits, 256);
    }

    #[test]
    fn port_overflow_is_reported() {
        // A star of 6 flows into one core with a 4-port router budget.
        let mut spec = line_spec(2.0);
        spec.cores.push(Core {
            name: "hub".into(),
            position: Point::mm(5.0, 5.0),
        });
        let hub = spec.cores.len() - 1;
        spec.flows.clear();
        for i in 0..6 {
            spec.cores.push(Core {
                name: format!("leaf{i}"),
                position: Point::mm(4.0 + 0.3 * f64::from(i), 4.0),
            });
            spec.flows.push(Flow {
                src: spec.cores.len() - 1,
                dst: hub,
                bandwidth_gbps: 5.0,
            });
        }
        let mut cfg = SynthesisConfig::at_clock(Freq::ghz(2.0));
        cfg.max_router_ports = 4;
        let err = synthesize(
            &spec,
            &StubModel {
                reach: Length::mm(5.0),
            },
            &cfg,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                SynthesisError::PortOverflow {
                    ports: 7,
                    max: 4,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn yield_filter_skips_models_without_stage_timing() {
        // StubModel keeps the default `stage_delays` (None): the filter
        // must pass the network through unchanged instead of failing.
        let cfg = SynthesisConfig::at_clock(Freq::ghz(2.0)).with_yield_filter(YieldFilter::new(
            0.99,
            pi_core::variation::VariationModel::nominal(),
        ));
        let plain = synthesize(
            &line_spec(2.0),
            &StubModel {
                reach: Length::mm(5.0),
            },
            &SynthesisConfig::at_clock(Freq::ghz(2.0)),
        )
        .unwrap();
        let filtered = synthesize(
            &line_spec(2.0),
            &StubModel {
                reach: Length::mm(5.0),
            },
            &cfg,
        )
        .unwrap();
        assert_eq!(plain.channels.len(), filtered.channels.len());
    }

    #[test]
    fn empty_network_passes_the_yield_filter_trivially() {
        // Regression: the per-link target `min_yield^(1/channels)` used
        // to divide by zero on a channel-less network and spin a
        // degenerate zero-target resegment loop.
        let model = StubModel {
            reach: Length::mm(5.0),
        };
        let cfg = SynthesisConfig::at_clock(Freq::ghz(2.0));
        let filter = YieldFilter::new(0.99, pi_core::variation::VariationModel::nominal());
        let empty = Network {
            model_name: model.name().into(),
            nodes: Vec::new(),
            channels: Vec::new(),
            routes: Vec::new(),
        };
        let out = apply_yield_filter(
            &line_spec(2.0),
            &model,
            &cfg,
            &filter,
            empty,
            &mut LinkMemo::default(),
        )
        .expect("empty network must pass the filter trivially");
        assert!(out.channels.is_empty());
    }

    /// A stub whose links are timing-marginal until the model is asked to
    /// resize them, for exercising the filter's resize-over-resegment
    /// path deterministically.
    #[derive(Debug)]
    struct ResizableModel {
        reach: Length,
    }

    impl LinkCostModel for ResizableModel {
        fn name(&self) -> &str {
            "resizable"
        }
        fn max_length(&self) -> Length {
            self.reach
        }
        fn link_cost(&self, length: Length, n_bits: usize) -> Result<LinkCost, InfeasibleLink> {
            StubModel { reach: self.reach }.link_cost(length, n_bits)
        }
        fn stage_delays(
            &self,
            _length: Length,
            _plan: &pi_core::line::BufferingPlan,
        ) -> Option<StageDelays> {
            // One marginal stage: 95 % of a 1 ns period nominal.
            Some(StageDelays::new(vec![0.95e-9], vec![0.0]))
        }
        fn resize_for_yield(
            &self,
            length: Length,
            n_bits: usize,
            _plan: &pi_core::line::BufferingPlan,
            _per_link_target: f64,
            _variation: &VariationModel,
        ) -> Option<(LinkCost, StageDelays)> {
            let mut cost = self.link_cost(length, n_bits).ok()?;
            cost.delay = Time::ps(500.0);
            cost.plan.wn = Length::um(8.0);
            Some((cost, StageDelays::new(vec![0.5e-9], vec![0.0])))
        }
    }

    #[test]
    fn yield_filter_resizes_critical_links_before_resegmenting() {
        // At 1 GHz the marginal 0.95 ns stage misses a 0.99 yield target
        // under nominal variation; the resized 0.5 ns stage clears it.
        // The filter must accept via resize — same topology, updated
        // channel cost — without any re-segmentation round.
        let model = ResizableModel {
            reach: Length::mm(5.0),
        };
        let cfg = SynthesisConfig::at_clock(Freq::ghz(1.0)).with_yield_filter(YieldFilter::new(
            0.99,
            pi_core::variation::VariationModel::nominal(),
        ));
        let net = synthesize(&line_spec(2.0), &model, &cfg).unwrap();
        assert_eq!(net.channels.len(), 1, "topology must be kept");
        assert_eq!(
            net.channels[0].cost.delay,
            Time::ps(500.0),
            "resized cost must be committed"
        );
        assert_eq!(net.channels[0].cost.plan.wn, Length::um(8.0));
    }

    /// A stub with one-stage links: `fast_ns` up to 2.5 mm, which the
    /// model can resize to 0.5 ns, and `slow_ns` beyond, which it cannot.
    /// Counts its `resize_for_yield` calls.
    #[derive(Debug)]
    struct PartlyResizableModel {
        fast_ns: f64,
        slow_ns: f64,
        resizes: std::cell::Cell<usize>,
    }

    impl PartlyResizableModel {
        const RESIZABLE: Length = Length::um(2500.0);
    }

    impl LinkCostModel for PartlyResizableModel {
        fn name(&self) -> &str {
            "partly-resizable"
        }
        fn max_length(&self) -> Length {
            Length::mm(5.0)
        }
        fn link_cost(&self, length: Length, n_bits: usize) -> Result<LinkCost, InfeasibleLink> {
            StubModel {
                reach: self.max_length(),
            }
            .link_cost(length, n_bits)
        }
        fn stage_delays(
            &self,
            length: Length,
            _plan: &pi_core::line::BufferingPlan,
        ) -> Option<StageDelays> {
            let ns = if length <= Self::RESIZABLE {
                self.fast_ns
            } else {
                self.slow_ns
            };
            Some(StageDelays::new(vec![ns * 1e-9], vec![0.0]))
        }
        fn resize_for_yield(
            &self,
            length: Length,
            n_bits: usize,
            _plan: &pi_core::line::BufferingPlan,
            _per_link_target: f64,
            _variation: &VariationModel,
        ) -> Option<(LinkCost, StageDelays)> {
            self.resizes.set(self.resizes.get() + 1);
            if length > Self::RESIZABLE {
                return None;
            }
            let mut cost = self.link_cost(length, n_bits).ok()?;
            cost.delay = Time::ps(500.0);
            Some((cost, StageDelays::new(vec![0.5e-9], vec![0.0])))
        }
    }

    /// Two direct links from core `a`: 2 mm to `b` and 3 mm to `c`.
    fn fork_spec() -> CommSpec {
        let mut spec = line_spec(2.0);
        spec.cores.push(Core {
            name: "c".into(),
            position: Point::mm(0.0, 3.0),
        });
        spec.flows.push(Flow {
            src: 0,
            dst: 2,
            bandwidth_gbps: 10.0,
        });
        spec
    }

    /// A filter at 1 GHz whose single-stage link yield is
    /// `Φ((1 ns − 1.01·r)/(0.1·r))`: WID variation only, 10 %.
    fn wid_only_filter(min_yield: f64) -> SynthesisConfig {
        let variation = VariationModel {
            sigma_d2d: 0.0,
            sigma_wid: 0.1,
            ..VariationModel::nominal()
        };
        let filter = YieldFilter {
            max_rounds: 2,
            ..YieldFilter::new(min_yield, variation)
        };
        SynthesisConfig::at_clock(Freq::ghz(1.0)).with_yield_filter(filter)
    }

    #[test]
    fn an_unfixable_channel_below_the_target_ends_the_resize_round() {
        // Both links miss the per-link share of a 0.99 target: the 2 mm
        // one (0.95 ns, yield ≈ 0.67) could be resized, the 3 mm one
        // (1.05 ns, yield ≈ 0.31) cannot. It is the worse, so it is
        // visited first, and alone it already misses 0.99: the round must
        // stop after that one resize attempt and re-segment. The last
        // round judges without resizing, so one call in all.
        let model = PartlyResizableModel {
            fast_ns: 0.95,
            slow_ns: 1.05,
            resizes: std::cell::Cell::new(0),
        };
        let out = synthesize(&fork_spec(), &model, &wid_only_filter(0.99));
        assert!(
            matches!(out, Err(SynthesisError::YieldTarget { rounds: 2, .. })),
            "got {out:?}"
        );
        assert_eq!(model.resizes.get(), 1, "resize attempts");
    }

    #[test]
    fn an_unfixable_channel_that_clears_the_target_alone_does_not_end_the_round() {
        // Target 0.5 (per-link share ≈ 0.707). The 3 mm link (0.966 ns,
        // yield ≈ 0.60) cannot be resized but clears 0.5 alone; the 2 mm
        // link (0.953 ns, yield ≈ 0.65) is resized to 0.5 ns. The network
        // then reads ≈ 0.60 and passes with the resize committed.
        let model = PartlyResizableModel {
            fast_ns: 0.953,
            slow_ns: 0.966,
            resizes: std::cell::Cell::new(0),
        };
        let net = synthesize(&fork_spec(), &model, &wid_only_filter(0.5)).unwrap();
        assert_eq!(model.resizes.get(), 2, "both links offered for resizing");
        assert_eq!(net.channels.len(), 2, "topology must be kept");
        for c in &net.channels {
            let resized = c.length <= PartlyResizableModel::RESIZABLE;
            assert_eq!(c.cost.delay == Time::ps(500.0), resized, "{c:?}");
        }
    }

    #[test]
    fn an_invalid_yield_filter_is_an_error_not_a_panic() {
        let model = ResizableModel {
            reach: Length::mm(5.0),
        };
        let nominal = pi_core::variation::VariationModel::nominal();
        for (min_yield, max_rounds) in [(0.0, 6), (1.5, 6), (f64::NAN, 6), (0.99, 0)] {
            let filter = YieldFilter {
                max_rounds,
                ..YieldFilter::new(min_yield, nominal)
            };
            let cfg = SynthesisConfig::at_clock(Freq::ghz(1.0)).with_yield_filter(filter);
            match synthesize(&line_spec(2.0), &model, &cfg) {
                Err(SynthesisError::BadYieldFilter {
                    min_yield: got,
                    max_rounds: rounds,
                }) => {
                    assert_eq!(got.to_bits(), min_yield.to_bits());
                    assert_eq!(rounds, max_rounds);
                }
                other => panic!("({min_yield}, {max_rounds}) gave {other:?}"),
            }
        }
        // A target of exactly 1 is in range: it is judged, not rejected.
        let cfg = SynthesisConfig::at_clock(Freq::ghz(1.0))
            .with_yield_filter(YieldFilter::new(1.0, nominal));
        assert!(!matches!(
            synthesize(&line_spec(2.0), &model, &cfg),
            Err(SynthesisError::BadYieldFilter { .. })
        ));
    }

    #[test]
    fn zero_reach_is_an_error() {
        let err = synthesize(
            &line_spec(2.0),
            &StubModel {
                reach: Length::ZERO,
            },
            &SynthesisConfig::at_clock(Freq::ghz(2.0)),
        )
        .unwrap_err();
        assert_eq!(err, SynthesisError::NoFeasibleLink);
    }

    #[test]
    fn infeasible_under_flags_overlong_channels() {
        let net = synthesize(
            &line_spec(12.0),
            &StubModel {
                reach: Length::mm(8.0),
            },
            &SynthesisConfig::at_clock(Freq::ghz(2.0)),
        )
        .unwrap();
        // Check the 8 mm-reach network against a 3 mm-reach model.
        let strict = StubModel {
            reach: Length::mm(3.0),
        };
        assert!(infeasible_under(&net, &strict) > 0);
    }
}
