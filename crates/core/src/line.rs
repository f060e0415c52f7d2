//! Buffered-line evaluation with the calibrated predictive models.
//!
//! A buffered interconnect is `count` identical repeaters dividing the wire
//! into equal segments, terminated by a receiver. "The total delay of a
//! buffered interconnect is the sum of the delays of all repeaters and wire
//! segments in it" (§III-E); the input slew of each stage is the modeled
//! output slew of the previous one, and rise/fall polarity alternates
//! through inverting repeaters.

use pi_tech::units::{Area, Cap, Freq, Length, Time};
use pi_tech::wire_geom::{DesignStyle, WireTier};
use pi_tech::{RepeaterKind, Technology};
use pi_wire::parasitics::MILLER_BEST;
use pi_wire::WireRc;

use crate::calibrate::CalibratedModels;
use crate::power::{dynamic_power, PowerBreakdown};
use crate::repeater_model::Transition;

/// Electrical context of a point-to-point line to evaluate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineSpec {
    /// Line length.
    pub length: Length,
    /// Wiring design style.
    pub style: DesignStyle,
    /// Routing tier the wire uses.
    pub tier: WireTier,
    /// Transition time at the line input (the paper's Table II uses 300 ps).
    pub input_slew: Time,
    /// Transition direction at the line input.
    pub input_transition: Transition,
}

impl LineSpec {
    /// A global-tier line of the given length and style with the nominal
    /// 300 ps input slew and a rising input.
    #[must_use]
    pub fn global(length: Length, style: DesignStyle) -> Self {
        LineSpec {
            length,
            style,
            tier: WireTier::Global,
            input_slew: Time::ps(300.0),
            input_transition: Transition::Rise,
        }
    }
}

/// A uniform buffering solution to evaluate a line with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferingPlan {
    /// Repeater kind used.
    pub kind: RepeaterKind,
    /// Number of repeaters (≥ 1).
    pub count: usize,
    /// nMOS width of each repeater.
    pub wn: Length,
    /// Staggered insertion (§III-D): adjacent bits switch through offset
    /// repeaters, cancelling Miller amplification (switch factor 0).
    pub staggered: bool,
}

/// Timing of one stage of a buffered line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTiming {
    /// Input slew seen by the repeater.
    pub input_slew: Time,
    /// Output transition direction of the repeater.
    pub transition: Transition,
    /// Repeater delay (intrinsic + drive-resistance terms).
    pub repeater_delay: Time,
    /// Distributed wire delay of the driven segment.
    pub wire_delay: Time,
    /// Modeled output slew (the next stage's input slew).
    pub output_slew: Time,
}

impl StageTiming {
    /// Total delay of the stage.
    #[must_use]
    pub fn delay(&self) -> Time {
        self.repeater_delay + self.wire_delay
    }
}

/// Timing of a complete buffered line.
#[derive(Debug, Clone, PartialEq)]
pub struct LineTiming {
    /// Total line delay.
    pub delay: Time,
    /// Per-stage breakdown.
    pub stages: Vec<StageTiming>,
}

impl LineTiming {
    /// Slew at the line output (input slew of the receiving block).
    ///
    /// # Panics
    ///
    /// Panics if the line has no stages (plans always have ≥ 1 repeater).
    #[must_use]
    pub fn output_slew(&self) -> Time {
        self.stages
            .last()
            .expect("plans have ≥ 1 stage")
            .output_slew
    }

    /// Renders an STA-style path report: one line per stage with arrival
    /// time, stage delays and slews — the familiar sign-off report shape.
    #[must_use]
    pub fn path_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5}  {:>6}  {:>10}  {:>9}  {:>9}  {:>9}",
            "stage", "edge", "slew [ps]", "gate [ps]", "wire [ps]", "arr [ps]"
        );
        let mut arrival = Time::ZERO;
        for (k, s) in self.stages.iter().enumerate() {
            arrival += s.delay();
            let _ = writeln!(
                out,
                "{:>5}  {:>6}  {:>10.1}  {:>9.1}  {:>9.1}  {:>9.1}",
                k,
                s.transition.label(),
                s.input_slew.as_ps(),
                s.repeater_delay.as_ps(),
                s.wire_delay.as_ps(),
                arrival.as_ps()
            );
        }
        let _ = writeln!(
            out,
            "total {:.1} ps, output slew {:.1} ps",
            self.delay.as_ps(),
            self.output_slew().as_ps()
        );
        out
    }
}

/// Evaluates buffered lines with the calibrated predictive models of one
/// technology.
#[derive(Debug, Clone)]
pub struct LineEvaluator<'a> {
    models: &'a CalibratedModels,
    tech: &'a Technology,
}

impl<'a> LineEvaluator<'a> {
    /// Creates an evaluator.
    ///
    /// # Panics
    ///
    /// Panics if the models were calibrated for a different node than
    /// `tech` describes.
    #[must_use]
    pub fn new(models: &'a CalibratedModels, tech: &'a Technology) -> Self {
        assert_eq!(
            models.node,
            tech.node(),
            "models calibrated for {} cannot evaluate {} lines",
            models.node,
            tech.node()
        );
        LineEvaluator { models, tech }
    }

    /// The technology in use.
    #[must_use]
    pub fn tech(&self) -> &Technology {
        self.tech
    }

    /// The calibrated models in use.
    #[must_use]
    pub fn models(&self) -> &CalibratedModels {
        self.models
    }

    /// Wire parasitics for a spec, honoring staggering.
    #[must_use]
    pub fn wire_rc(&self, spec: &LineSpec, staggered: bool) -> WireRc {
        let layer = self.tech.layer(spec.tier);
        let rc = WireRc::from_layer(layer, spec.style);
        if staggered && rc.neighbors_switch {
            rc.with_switch_factor(MILLER_BEST)
        } else {
            rc
        }
    }

    /// Timing of the line under a buffering plan, with stage-to-stage slew
    /// propagation.
    ///
    /// # Panics
    ///
    /// Panics if `plan.count` is zero.
    #[must_use]
    pub fn timing(&self, spec: &LineSpec, plan: &BufferingPlan) -> LineTiming {
        let rc = self.wire_rc(spec, plan.staggered);
        self.timing_with_rc(spec, plan, &rc)
    }

    /// Timing with explicitly supplied wire parasitics — the hook ablation
    /// studies use to swap in e.g. bulk-resistivity wires or a different
    /// switch factor.
    ///
    /// # Panics
    ///
    /// Panics if `plan.count` is zero.
    #[must_use]
    pub fn timing_with_rc(&self, spec: &LineSpec, plan: &BufferingPlan, rc: &WireRc) -> LineTiming {
        self.stage_chain(spec, plan, rc, plan.wn)
    }

    /// The stage-by-stage slew-propagating chain behind every timing
    /// entry point: each stage drives one wire segment plus the next
    /// repeater's input, the first repeater at width `first_wn` and the
    /// rest at `plan.wn`.
    fn stage_chain(
        &self,
        spec: &LineSpec,
        plan: &BufferingPlan,
        rc: &WireRc,
        first_wn: Length,
    ) -> LineTiming {
        assert!(
            plan.count > 0,
            "a buffered line needs at least one repeater"
        );
        let model = self.models.repeater(plan.kind);
        let seg_len = spec.length / plan.count as f64;
        let ci_next = model.cin(plan.wn);

        let seg_cg = rc.total_cg(seg_len);
        let seg_cc = rc.total_cc(seg_len);
        let seg_rw = rc.total_r(seg_len);
        let sf = rc.switch_factor;
        // Load presented to each repeater: switch-factor-weighted wire cap
        // plus the next repeater's input capacitance.
        let load: Cap = seg_cg + seg_cc * sf + ci_next;
        // Enhanced Pamunuwa wire term with the corrected wire resistance:
        // d_w = r_w (0.4 c_g + k_c c_c + 0.7 c_i). For switching neighbours
        // the coupling coefficient is the Miller-amplified SF/2; coupling to
        // *quiet* conductors (shields) is electrically ground capacitance
        // and takes the distributed 0.4 coefficient instead.
        let wire_cc_coeff = if rc.neighbors_switch { 0.5 * sf } else { 0.4 };
        let wire_delay: Time = Time::s(
            seg_rw.as_ohm()
                * (0.4 * seg_cg.si() + wire_cc_coeff * seg_cc.si() + 0.7 * ci_next.si()),
        );

        let mut stages = Vec::with_capacity(plan.count);
        let mut slew = spec.input_slew;
        let mut transition = spec.input_transition;
        for k in 0..plan.count {
            let wn = if k == 0 { first_wn } else { plan.wn };
            let out_transition = transition.through(plan.kind);
            let edge = model.edge(out_transition);
            let repeater_delay = edge.delay(slew, load, wn, model.beta_ratio);
            let output_slew = edge.output_slew(slew, load, wn, model.beta_ratio);
            stages.push(StageTiming {
                input_slew: slew,
                transition: out_transition,
                repeater_delay,
                wire_delay,
                output_slew,
            });
            slew = output_slew;
            transition = out_transition;
        }
        let delay = stages.iter().map(StageTiming::delay).sum();
        LineTiming { delay, stages }
    }

    /// Timings of many `(spec, plan)` pairs in one sweep through the
    /// `pi_rt::par_map` workers — the batch-friendly entry point the serve
    /// path coalesces concurrent model-eval requests into. Results are in
    /// input order and bit-identical to calling [`LineEvaluator::timing`]
    /// per item (par_map reassembles chunks in index order), for any
    /// `PI_THREADS` setting.
    ///
    /// Duplicate items — common when a traffic burst repeats popular wire
    /// lengths, since the length distribution is discrete — are computed
    /// once and fanned back out. Identity is the `Debug` rendering of the
    /// pair: Rust renders floats as their shortest round-trippable form,
    /// so two items share a computation only when the per-item calls would
    /// have returned bit-identical results anyway. The duplicate count is
    /// visible as the `core.timing_batch_deduped` counter.
    ///
    /// # Panics
    ///
    /// Panics if any plan has zero repeaters.
    #[must_use]
    pub fn timing_batch(&self, items: &[(LineSpec, BufferingPlan)]) -> Vec<LineTiming> {
        let mut index_of: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        let mut unique: Vec<(LineSpec, BufferingPlan)> = Vec::new();
        let slots: Vec<usize> = items
            .iter()
            .map(|item| {
                *index_of.entry(format!("{item:?}")).or_insert_with(|| {
                    unique.push(*item);
                    unique.len() - 1
                })
            })
            .collect();
        if unique.len() < items.len() {
            pi_obs::counter_add(
                "core.timing_batch_deduped",
                (items.len() - unique.len()) as u64,
            );
        }
        let timings = pi_rt::par_map(&unique, |(spec, plan)| self.timing(spec, plan));
        slots.into_iter().map(|i| timings[i].clone()).collect()
    }

    /// Timing with a different (typically larger) first repeater: the line
    /// boundary sees the slow upstream slew, so upsizing only the first
    /// stage recovers delay at a fraction of the power cost of upsizing
    /// the whole line.
    ///
    /// # Panics
    ///
    /// Panics if `plan.count` is zero.
    #[must_use]
    pub fn timing_tapered(
        &self,
        spec: &LineSpec,
        plan: &BufferingPlan,
        first_wn: Length,
    ) -> LineTiming {
        let rc = self.wire_rc(spec, plan.staggered);
        self.stage_chain(spec, plan, &rc, first_wn)
    }

    /// Worst-case timing over both input transition directions.
    #[must_use]
    pub fn worst_timing(&self, spec: &LineSpec, plan: &BufferingPlan) -> LineTiming {
        let mut rise_spec = *spec;
        rise_spec.input_transition = Transition::Rise;
        let mut fall_spec = *spec;
        fall_spec.input_transition = Transition::Fall;
        let r = self.timing(&rise_spec, plan);
        let f = self.timing(&fall_spec, plan);
        if r.delay >= f.delay {
            r
        } else {
            f
        }
    }

    /// Power of one bit-line under a plan: dynamic switching of the total
    /// physical capacitance plus repeater leakage.
    #[must_use]
    pub fn power(
        &self,
        spec: &LineSpec,
        plan: &BufferingPlan,
        activity: f64,
        clock: Freq,
    ) -> PowerBreakdown {
        let model = self.models.repeater(plan.kind);
        let rc = self.wire_rc(spec, plan.staggered);
        let devices = self.tech.devices();
        // Physical capacitance switched each transition: the full wire cap
        // (coupling included — energy is drawn regardless of Miller timing
        // effects) plus every repeater's input and output capacitance.
        let wire_c = rc.total_c_physical(spec.length);
        let rep_c = (model.cin(plan.wn) + devices.inverter_cout(plan.wn)) * plan.count as f64;
        let dynamic = dynamic_power(activity, wire_c + rep_c, devices.vdd, clock);
        let leakage = self
            .models
            .leakage
            .repeater(plan.kind, plan.wn, model.beta_ratio)
            * plan.count as f64;
        PowerBreakdown { dynamic, leakage }
    }

    /// Total repeater (cell) area of the plan, from the fitted area model.
    #[must_use]
    pub fn repeater_area(&self, plan: &BufferingPlan) -> Area {
        self.models.area.repeater(plan.kind, plan.wn) * plan.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coefficients::builtin;
    use pi_tech::TechNode;

    fn setup() -> (Technology, CalibratedModels) {
        let t = Technology::new(TechNode::N65);
        let m = builtin(TechNode::N65);
        (t, m)
    }

    fn plan(count: usize, wn_um: f64) -> BufferingPlan {
        BufferingPlan {
            kind: RepeaterKind::Inverter,
            count,
            wn: Length::um(wn_um),
            staggered: false,
        }
    }

    #[test]
    fn delay_roughly_linear_in_length_at_fixed_density() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let d2 = ev
            .timing(
                &LineSpec::global(Length::mm(2.0), DesignStyle::SingleSpacing),
                &plan(4, 6.0),
            )
            .delay;
        let d8 = ev
            .timing(
                &LineSpec::global(Length::mm(8.0), DesignStyle::SingleSpacing),
                &plan(16, 6.0),
            )
            .delay;
        // The first stage is driven by the slow 300 ps boundary slew and is
        // noticeably slower than the settled stages, so a 4-stage line pays
        // proportionally more boundary cost than a 16-stage one; the ratio
        // sits slightly below the ideal 4.
        let ratio = d8 / d2;
        assert!((3.2..4.5).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn slew_settles_after_a_few_stages() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let timing = ev.timing(
            &LineSpec::global(Length::mm(10.0), DesignStyle::SingleSpacing),
            &plan(12, 6.0),
        );
        let slews: Vec<f64> = timing
            .stages
            .iter()
            .map(|s| s.output_slew.as_ps())
            .collect();
        let last = slews[slews.len() - 1];
        let second_last = slews[slews.len() - 2];
        assert!(
            (last - second_last).abs() < 0.05 * last,
            "slew did not settle: {slews:?}"
        );
    }

    #[test]
    fn staggering_reduces_delay_under_worst_case_coupling() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let spec = LineSpec::global(Length::mm(5.0), DesignStyle::SingleSpacing);
        let normal = ev.timing(&spec, &plan(8, 6.0));
        let mut staggered_plan = plan(8, 6.0);
        staggered_plan.staggered = true;
        let staggered = ev.timing(&spec, &staggered_plan);
        assert!(staggered.delay < normal.delay);
    }

    #[test]
    fn staggering_does_not_change_power() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let spec = LineSpec::global(Length::mm(5.0), DesignStyle::SingleSpacing);
        let p1 = ev.power(&spec, &plan(8, 6.0), 0.25, Freq::ghz(2.0));
        let mut sp = plan(8, 6.0);
        sp.staggered = true;
        let p2 = ev.power(&spec, &sp, 0.25, Freq::ghz(2.0));
        assert_eq!(p1, p2, "staggering is a timing trick, not a power one");
    }

    #[test]
    fn shielded_line_is_faster_than_single_spacing() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let ss = ev.timing(
            &LineSpec::global(Length::mm(5.0), DesignStyle::SingleSpacing),
            &plan(8, 6.0),
        );
        let sh = ev.timing(
            &LineSpec::global(Length::mm(5.0), DesignStyle::Shielded),
            &plan(8, 6.0),
        );
        assert!(sh.delay < ss.delay);
    }

    #[test]
    fn worst_timing_at_least_each_direction() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let spec = LineSpec::global(Length::mm(3.0), DesignStyle::SingleSpacing);
        let p = plan(4, 6.0);
        let worst = ev.worst_timing(&spec, &p).delay;
        assert!(worst >= ev.timing(&spec, &p).delay);
    }

    #[test]
    fn power_scales_with_activity_and_frequency() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let spec = LineSpec::global(Length::mm(4.0), DesignStyle::SingleSpacing);
        let p = plan(6, 6.0);
        let base = ev.power(&spec, &p, 0.2, Freq::ghz(1.0));
        let double_a = ev.power(&spec, &p, 0.4, Freq::ghz(1.0));
        assert!((double_a.dynamic.si() / base.dynamic.si() - 2.0).abs() < 1e-9);
        assert_eq!(base.leakage, double_a.leakage);
    }

    #[test]
    fn repeater_area_scales_with_count() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let a4 = ev.repeater_area(&plan(4, 6.0));
        let a8 = ev.repeater_area(&plan(8, 6.0));
        assert!((a8 / a4 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn path_report_is_consistent() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let timing = ev.timing(
            &LineSpec::global(Length::mm(4.0), DesignStyle::SingleSpacing),
            &plan(5, 6.0),
        );
        let report = timing.path_report();
        // Header + one line per stage + total line.
        assert_eq!(report.lines().count(), 2 + timing.stages.len());
        assert!(report.contains("arr [ps]"));
        assert!(report.contains("total"));
        // Arrival on the last stage row equals the total.
        let total = format!("{:.1}", timing.delay.as_ps());
        assert!(report.contains(&total));
    }
    #[test]
    fn timing_batch_matches_per_item_timing_bit_for_bit() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        // Deliberately repeat lengths (`i % 5`) so the duplicate-sharing
        // path is exercised alongside the unique items.
        let items: Vec<(LineSpec, BufferingPlan)> = (1..=12)
            .map(|i| {
                (
                    LineSpec::global(
                        Length::mm(0.5 * (i % 5) as f64 + 0.5),
                        DesignStyle::SingleSpacing,
                    ),
                    plan(1 + (i % 5) % 4, 4.0 + (i % 5) as f64),
                )
            })
            .collect();
        let batch = ev.timing_batch(&items);
        assert_eq!(batch.len(), items.len());
        for ((spec, p), got) in items.iter().zip(&batch) {
            let one = ev.timing(spec, p);
            assert_eq!(one.delay.si().to_bits(), got.delay.si().to_bits());
            assert_eq!(one.stages.len(), got.stages.len());
        }
        assert!(ev.timing_batch(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one repeater")]
    fn zero_count_plan_rejected() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let _ = ev.timing(
            &LineSpec::global(Length::mm(1.0), DesignStyle::SingleSpacing),
            &plan(0, 6.0),
        );
    }
}
