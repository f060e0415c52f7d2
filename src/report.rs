//! Link datasheets: one-stop reports combining every analysis in the
//! workspace for a single point-to-point link.
//!
//! The facade crate is the only place that sees all subsystems at once, so
//! this is where the cross-cutting "give me everything about this link"
//! query lives: predictive timing, power, area, Monte-Carlo yield,
//! crosstalk glitch and (optionally) a transient sign-off cross-check.

use std::fmt;

use pi_core::coefficients::builtin;
use pi_core::line::{BufferingPlan, LineEvaluator, LineSpec};
use pi_core::power::PowerBreakdown;
use pi_core::variation::VariationModel;
use pi_golden::noise::victim_glitch;
use pi_golden::signoff::line_delay;
use pi_spice::SimError;
use pi_tech::units::{Area, Freq, Time};
use pi_tech::{TechNode, Technology};
use pi_wire::bus_area;
use pi_yield::{EstimatorConfig, Method};

/// What the datasheet should include beyond the closed-form estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasheetOptions {
    /// Clock frequency for power and yield.
    pub clock: Freq,
    /// Switching activity for dynamic power.
    pub activity: f64,
    /// Bus width for the bus-level roll-up.
    pub n_bits: usize,
    /// Run the Monte-Carlo yield analysis (fast).
    pub with_yield: bool,
    /// Run the transient sign-off cross-check and glitch analysis (slow:
    /// tens of milliseconds).
    pub with_signoff: bool,
    /// Variation budget for the yield analysis.
    pub variation: VariationModel,
    /// Monte-Carlo samples.
    pub samples: usize,
}

impl DatasheetOptions {
    /// Fast defaults at the given clock: yield on, sign-off off.
    #[must_use]
    pub fn at_clock(clock: Freq) -> Self {
        DatasheetOptions {
            clock,
            activity: 0.25,
            n_bits: 128,
            with_yield: true,
            with_signoff: false,
            variation: VariationModel::nominal(),
            samples: 1000,
        }
    }

    /// Everything on, including the transient sign-off cross-check.
    #[must_use]
    pub fn full(clock: Freq) -> Self {
        DatasheetOptions {
            with_signoff: true,
            ..Self::at_clock(clock)
        }
    }
}

/// The assembled link datasheet.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkDatasheet {
    /// Technology node.
    pub node: TechNode,
    /// The evaluated line.
    pub spec: LineSpec,
    /// The buffering used.
    pub plan: BufferingPlan,
    /// Options the sheet was generated with.
    pub options: DatasheetOptions,
    /// Closed-form line delay.
    pub delay: Time,
    /// Slew delivered to the receiver.
    pub output_slew: Time,
    /// Per-bit power breakdown.
    pub power_per_bit: PowerBreakdown,
    /// Repeater cell area per bit.
    pub repeater_area_per_bit: Area,
    /// Routing area of the whole bus.
    pub bus_wire_area: Area,
    /// Timing yield at the clock period (if requested).
    pub timing_yield: Option<f64>,
    /// Worst-case coupling glitch as a fraction of V_dd (if requested).
    pub glitch_fraction: Option<f64>,
    /// Transient sign-off delay (if requested).
    pub signoff_delay: Option<Time>,
}

impl LinkDatasheet {
    /// Model error vs the sign-off cross-check, if it was run.
    #[must_use]
    pub fn signoff_error(&self) -> Option<f64> {
        self.signoff_delay.map(|g| (self.delay - g).si() / g.si())
    }

    /// Whether the link meets the clock period (closed-form delay).
    #[must_use]
    pub fn meets_clock(&self) -> bool {
        self.delay <= self.options.clock.period()
    }
}

impl fmt::Display for LinkDatasheet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== {} | {:.2} mm {} link | {} x {} (wn {:.1} um{}) ===",
            self.node,
            self.spec.length.as_mm(),
            self.spec.style.code(),
            self.plan.count,
            self.plan.kind,
            self.plan.wn.as_um(),
            if self.plan.staggered {
                ", staggered"
            } else {
                ""
            }
        )?;
        writeln!(
            f,
            "timing : delay {} | output slew {} | {} @ {:.2} GHz",
            self.delay.pretty(),
            self.output_slew.pretty(),
            if self.meets_clock() {
                "MEETS"
            } else {
                "MISSES"
            },
            self.options.clock.as_ghz()
        )?;
        writeln!(
            f,
            "power  : {}/bit dynamic + {}/bit leakage (alpha = {}) | bus({}b): {}",
            self.power_per_bit.dynamic.pretty(),
            self.power_per_bit.leakage.pretty(),
            self.options.activity,
            self.options.n_bits,
            (self.power_per_bit.total() * self.options.n_bits as f64).pretty()
        )?;
        writeln!(
            f,
            "area   : repeaters {:.1} um2/bit | bus routing {:.4} mm2",
            self.repeater_area_per_bit.as_um2(),
            self.bus_wire_area.as_mm2()
        )?;
        if let Some(y) = self.timing_yield {
            writeln!(
                f,
                "yield  : {:.1}% at the clock period (sigma_d2d {:.0}%, sigma_wid {:.0}%, {} samples)",
                y * 100.0,
                self.options.variation.sigma_d2d * 100.0,
                self.options.variation.sigma_wid * 100.0,
                self.options.samples
            )?;
        }
        if let Some(g) = self.glitch_fraction {
            writeln!(
                f,
                "noise  : worst coupling glitch {:.0}% of Vdd ({})",
                g * 100.0,
                if g <= 0.4 {
                    "within margin"
                } else {
                    "VIOLATION"
                }
            )?;
        }
        if let (Some(d), Some(e)) = (self.signoff_delay, self.signoff_error()) {
            writeln!(
                f,
                "signoff: transient reference {} | model error {:+.1}%",
                d.pretty(),
                e * 100.0
            )?;
        }
        Ok(())
    }
}

/// Generates the datasheet for a link under a buffering plan, using the
/// shipped coefficients of `node`.
///
/// # Errors
///
/// Propagates simulator errors from the optional sign-off/glitch passes.
pub fn link_datasheet(
    node: TechNode,
    spec: &LineSpec,
    plan: &BufferingPlan,
    options: &DatasheetOptions,
) -> Result<LinkDatasheet, SimError> {
    let tech = Technology::new(node);
    let models = builtin(node);
    let evaluator = LineEvaluator::new(&models, &tech);

    let timing = evaluator.timing(spec, plan);
    let power = evaluator.power(spec, plan, options.activity, options.clock);
    let repeater_area = evaluator.repeater_area(plan);
    let wire_area = bus_area(
        options.n_bits,
        spec.length,
        tech.layer(spec.tier),
        spec.style,
    );

    let timing_yield = options.with_yield.then(|| {
        // Fixed-count naive Monte Carlo: exactly `samples` dies and no
        // early stop, so the yield is the plain pass fraction of those
        // dies (the sampled delay distribution's `yield_at`, bit for bit).
        let config = EstimatorConfig::new(Method::Naive)
            .with_seed(0x11ea)
            .with_max_evals(options.samples)
            .with_target_half_width(0.0);
        evaluator
            .timing_yield_estimate(
                spec,
                plan,
                &options.variation,
                options.clock.period(),
                &config,
            )
            .yield_fraction
    });

    let (glitch_fraction, signoff_delay) = if options.with_signoff {
        let glitch = victim_glitch(&tech, spec, plan, true)?;
        let golden = line_delay(&tech, spec, plan)?;
        (Some(glitch.peak_fraction), Some(golden.delay))
    } else {
        (None, None)
    };

    Ok(LinkDatasheet {
        node,
        spec: *spec,
        plan: *plan,
        options: *options,
        delay: timing.delay,
        output_slew: timing.output_slew(),
        power_per_bit: power,
        repeater_area_per_bit: repeater_area,
        bus_wire_area: wire_area,
        timing_yield,
        glitch_fraction,
        signoff_delay,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_tech::units::Length;
    use pi_tech::{DesignStyle, RepeaterKind};

    fn spec_plan() -> (LineSpec, BufferingPlan) {
        (
            LineSpec::global(Length::mm(5.0), DesignStyle::SingleSpacing),
            BufferingPlan {
                kind: RepeaterKind::Inverter,
                count: 8,
                wn: Length::um(6.0),
                staggered: false,
            },
        )
    }

    #[test]
    fn fast_datasheet_has_core_numbers() {
        let (spec, plan) = spec_plan();
        let opts = DatasheetOptions::at_clock(Freq::ghz(2.0));
        let ds = link_datasheet(TechNode::N65, &spec, &plan, &opts).unwrap();
        assert!(ds.delay.as_ps() > 0.0);
        assert!(ds.power_per_bit.total().si() > 0.0);
        assert!(ds.timing_yield.is_some());
        assert!(ds.signoff_delay.is_none());
        let text = ds.to_string();
        assert!(text.contains("timing"));
        assert!(text.contains("yield"));
    }

    #[test]
    fn full_datasheet_cross_checks_signoff() {
        let (spec, plan) = spec_plan();
        let opts = DatasheetOptions::full(Freq::ghz(2.0));
        let ds = link_datasheet(TechNode::N65, &spec, &plan, &opts).unwrap();
        let err = ds.signoff_error().expect("sign-off ran");
        assert!(err.abs() < 0.15, "model error {:.1}%", err * 100.0);
        let g = ds.glitch_fraction.expect("glitch ran");
        assert!((0.0..0.5).contains(&g));
        assert!(ds.to_string().contains("signoff"));
    }

    #[test]
    fn meets_clock_reflects_period() {
        let (spec, plan) = spec_plan();
        let fast = link_datasheet(
            TechNode::N65,
            &spec,
            &plan,
            &DatasheetOptions::at_clock(Freq::ghz(1.0)),
        )
        .unwrap();
        assert!(fast.meets_clock());
        let hopeless = link_datasheet(
            TechNode::N65,
            &spec,
            &plan,
            &DatasheetOptions::at_clock(Freq::ghz(20.0)),
        )
        .unwrap();
        assert!(!hopeless.meets_clock());
    }
}
