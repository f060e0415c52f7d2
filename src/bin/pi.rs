//! `pi` — command-line front end for the predictive-interconnect library.
//!
//! ```text
//! pi delay    --tech 65nm --length 5mm [--style ss|sh|dw] [--count N] [--drive D] [--staggered]
//! pi optimize --tech 65nm --length 5mm --clock 2GHz [--weight 0.5] [--staggered]
//! pi reach    --tech 65nm --clock 2GHz [--style ss|sh|dw] [--staggered]
//! pi noc      --design dvopd|vproc --tech 65nm --clock 2.25GHz [--model proposed|original|mesh]
//!             [--yield-target 0.9 [--rho 0.5] [--cell 2mm]]
//!             (or --spec <file> with the text format of `pi_cosi::spec_text`)
//! pi yield    --tech 65nm --length 8mm --deadline 560ps [--samples 2000]
//!             [--estimator naive|sobol|sobol-scrambled|importance|surrogate-is|analytic]
//!             [--cv] [--ci 0.5] [--seed 1] [--rho 0.5] [--regions 4]
//! pi size     --tech 65nm --length 5mm --deadline 560ps [--target 0.9] [--gp]
//!             [--estimator naive|sobol|sobol-scrambled|importance|surrogate-is|analytic]
//!             [--seed 1] [--ci 0.5]
//! pi report   --tech 65nm --length 5mm --clock 2GHz [--bits 128] [--full]
//! pi serve    [--port 7878] [--queue-depth 1024]
//! pi load     [--addr 127.0.0.1:7878] [--qps 2000] [--conns 4] [--duration 3] [--size-pct 0]
//!             [--yield-pct 10] [--seed 1] [--tech 65nm] [--json]
//! pi obs-top  <host:port> [--interval 2] [--count N] [--raw]
//! pi scaling
//! ```
//!
//! Quantities accept unit suffixes: lengths `mm`/`um`, clocks `GHz`/`MHz`,
//! times `ps`/`ns`.

use std::collections::HashMap;
use std::process::ExitCode;

use predictive_interconnect::cosi::model::{LinkCostModel, OriginalLinkModel, ProposedLinkModel};
use predictive_interconnect::cosi::report::evaluate;
use predictive_interconnect::cosi::router::RouterParams;
use predictive_interconnect::cosi::synthesis::{synthesize, SynthesisConfig, YieldFilter};
use predictive_interconnect::cosi::{mesh_network, testcases};
use predictive_interconnect::models::buffering::{BufferingObjective, SearchSpace};
use predictive_interconnect::models::coefficients::builtin;
use predictive_interconnect::models::line::{BufferingPlan, LineEvaluator, LineSpec};
use predictive_interconnect::models::variation::{SizeQuery, VariationModel};
use predictive_interconnect::tech::units::{Freq, Length, Time};
use predictive_interconnect::tech::{DesignStyle, RepeaterKind, TechNode, Technology};

fn parse_length(s: &str) -> Result<Length, String> {
    let s = s.trim().to_ascii_lowercase();
    let (value, unit): (Result<f64, _>, fn(f64) -> Length) = if let Some(v) = s.strip_suffix("mm") {
        (v.parse(), Length::mm)
    } else if let Some(v) = s.strip_suffix("um") {
        (v.parse(), Length::um)
    } else {
        // Bare numbers are millimeters.
        (s.parse(), Length::mm)
    };
    let value = value.map_err(|_| format!("bad length `{s}` (use e.g. 5mm or 350um)"))?;
    // `f64::parse` happily accepts "nan", "inf" and negatives — all of
    // which would poison sizing and synthesis downstream.
    if !(value.is_finite() && value > 0.0) {
        return Err(format!("length must be positive and finite, got `{s}`"));
    }
    Ok(unit(value))
}

fn parse_clock(s: &str) -> Result<Freq, String> {
    let s = s.trim().to_ascii_lowercase();
    if let Some(v) = s.strip_suffix("ghz") {
        v.parse::<f64>()
            .map(Freq::ghz)
            .map_err(|e| format!("bad clock `{s}`: {e}"))
    } else if let Some(v) = s.strip_suffix("mhz") {
        v.parse::<f64>()
            .map(Freq::mhz)
            .map_err(|e| format!("bad clock `{s}`: {e}"))
    } else {
        s.parse::<f64>()
            .map(Freq::ghz)
            .map_err(|_| format!("bad clock `{s}` (use e.g. 2GHz or 750MHz)"))
    }
}

fn parse_time(s: &str) -> Result<Time, String> {
    let s = s.trim().to_ascii_lowercase();
    let (value, unit): (Result<f64, _>, fn(f64) -> Time) = if let Some(v) = s.strip_suffix("ps") {
        (v.parse(), Time::ps)
    } else if let Some(v) = s.strip_suffix("ns") {
        (v.parse(), Time::ns)
    } else {
        // Bare numbers are picoseconds.
        (s.parse(), Time::ps)
    };
    let value = value.map_err(|_| format!("bad time `{s}` (use e.g. 560ps or 1.2ns)"))?;
    // As for lengths: a NaN, zero or negative deadline would come back as
    // a 0% yield or "no plan reaches the target", not as an error.
    if !(value.is_finite() && value > 0.0) {
        return Err(format!("time must be positive and finite, got `{s}`"));
    }
    Ok(unit(value))
}

/// Parses the optional `--ci` target half-width in percent (default 0.5).
fn parse_ci_pct(opts: &Opts) -> Result<f64, String> {
    let ci_pct: f64 = opts
        .get("ci")
        .unwrap_or("0.5")
        .parse()
        .map_err(|e| format!("bad --ci: {e}"))?;
    if !(ci_pct.is_finite() && ci_pct > 0.0) {
        return Err("--ci must be a positive half-width in percent".to_owned());
    }
    Ok(ci_pct)
}

/// Parses the optional `--rho` spatial-correlation coefficient; `None`
/// when absent or zero.
fn parse_rho(opts: &Opts) -> Result<Option<f64>, String> {
    let Some(raw) = opts.get("rho") else {
        return Ok(None);
    };
    let rho: f64 = raw.parse().map_err(|e| format!("bad --rho: {e}"))?;
    if !(0.0..=1.0).contains(&rho) {
        return Err("--rho must be in [0, 1]".to_owned());
    }
    Ok((rho > 0.0).then_some(rho))
}

fn parse_style(s: &str) -> Result<DesignStyle, String> {
    match s.to_ascii_lowercase().as_str() {
        "ss" | "single" => Ok(DesignStyle::SingleSpacing),
        "sh" | "shielded" => Ok(DesignStyle::Shielded),
        "dw" | "double" => Ok(DesignStyle::DoubleSpacing),
        other => Err(format!("unknown style `{other}` (ss, sh, dw)")),
    }
}

/// Parsed `--key value` options plus boolean flags.
struct Opts {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument `{a}`"));
            };
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                values.insert(key.to_owned(), args[i + 1].clone());
                i += 2;
            } else {
                flags.push(key.to_owned());
                i += 1;
            }
        }
        Ok(Opts { values, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Rejects any option outside `known`, naming the first one found.
    fn only(&self, known: &[&str]) -> Result<(), String> {
        let mut given: Vec<&String> = self.values.keys().chain(&self.flags).collect();
        given.sort();
        match given.into_iter().find(|k| !known.contains(&k.as_str())) {
            Some(k) => Err(format!("unknown flag `--{k}`")),
            None => Ok(()),
        }
    }

    fn tech(&self) -> Result<TechNode, String> {
        self.require("tech")?
            .parse::<TechNode>()
            .map_err(|e| e.to_string())
    }
}

fn cmd_delay(opts: &Opts) -> Result<(), String> {
    let node = opts.tech()?;
    let tech = Technology::new(node);
    let models = builtin(node);
    let ev = LineEvaluator::new(&models, &tech);
    let length = parse_length(opts.require("length")?)?;
    let style = parse_style(opts.get("style").unwrap_or("ss"))?;
    let spec = LineSpec::global(length, style);
    let plan = if let (Some(count), Some(drive)) = (opts.get("count"), opts.get("drive")) {
        BufferingPlan {
            kind: RepeaterKind::Inverter,
            count: count.parse().map_err(|e| format!("bad --count: {e}"))?,
            wn: tech.layout().unit_nmos_width
                * drive
                    .parse::<f64>()
                    .map_err(|e| format!("bad --drive: {e}"))?,
            staggered: opts.flag("staggered"),
        }
    } else {
        let obj = BufferingObjective::balanced(Freq::ghz(1.0));
        let mut space = SearchSpace::for_length(length);
        space.staggered = opts.flag("staggered");
        ev.optimize_buffering(&spec, &obj, &space)
            .ok_or("empty search space")?
            .plan
    };
    let timing = ev.timing(&spec, &plan);
    println!(
        "{node} {} mm {} | {} x inverter (wn {:.1} um{})",
        length.as_mm(),
        style.code(),
        plan.count,
        plan.wn.as_um(),
        if plan.staggered { ", staggered" } else { "" }
    );
    println!(
        "delay {:.0} ps | output slew {:.0} ps",
        timing.delay.as_ps(),
        timing.output_slew().as_ps()
    );
    Ok(())
}

fn cmd_optimize(opts: &Opts) -> Result<(), String> {
    let node = opts.tech()?;
    let tech = Technology::new(node);
    let models = builtin(node);
    let ev = LineEvaluator::new(&models, &tech);
    let length = parse_length(opts.require("length")?)?;
    let clock = parse_clock(opts.require("clock")?)?;
    let style = parse_style(opts.get("style").unwrap_or("ss"))?;
    let weight: f64 = opts
        .get("weight")
        .unwrap_or("0.5")
        .parse()
        .map_err(|e| format!("bad --weight: {e}"))?;
    let spec = LineSpec::global(length, style);
    let objective = BufferingObjective {
        delay_weight: weight,
        activity: 0.25,
        clock,
    };
    let mut space = SearchSpace::for_length(length);
    space.staggered = opts.flag("staggered");
    let r = ev
        .optimize_buffering(&spec, &objective, &space)
        .ok_or("empty search space")?;
    println!(
        "{node} {} mm {} @ {} GHz, weight {weight}",
        length.as_mm(),
        style.code(),
        clock.as_ghz()
    );
    println!(
        "plan: {} x inverter, wn {:.1} um{}",
        r.plan.count,
        r.plan.wn.as_um(),
        if r.plan.staggered { " (staggered)" } else { "" }
    );
    println!(
        "delay {:.0} ps | power {:.1} uW/bit ({:.1} dynamic + {:.2} leakage)",
        r.timing.delay.as_ps(),
        r.power.total().as_uw(),
        r.power.dynamic.as_uw(),
        r.power.leakage.as_uw()
    );
    Ok(())
}

fn cmd_reach(opts: &Opts) -> Result<(), String> {
    let node = opts.tech()?;
    let tech = Technology::new(node);
    let models = builtin(node);
    let ev = LineEvaluator::new(&models, &tech);
    let clock = parse_clock(opts.require("clock")?)?;
    let style = parse_style(opts.get("style").unwrap_or("ss"))?;
    let objective = BufferingObjective::balanced(clock);
    let reach =
        ev.max_feasible_length_opts(style, clock.period(), &objective, opts.flag("staggered"));
    println!(
        "{node} {} @ {} GHz: max single-cycle link {:.2} mm{}",
        style.code(),
        clock.as_ghz(),
        reach.as_mm(),
        if opts.flag("staggered") {
            " (staggered)"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_noc(opts: &Opts) -> Result<(), String> {
    let node = opts.tech()?;
    let tech = Technology::new(node);
    let models = builtin(node);
    let ev = LineEvaluator::new(&models, &tech);
    let clock = parse_clock(opts.require("clock")?)?;
    let spec = if let Some(path) = opts.get("spec") {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        predictive_interconnect::cosi::parse_spec(&text).map_err(|e| e.to_string())?
    } else {
        match opts.require("design")?.to_ascii_lowercase().as_str() {
            "dvopd" => testcases::dvopd(),
            "vproc" => testcases::vproc(),
            other => return Err(format!("unknown design `{other}` (dvopd, vproc)")),
        }
    };
    let mut config = SynthesisConfig::at_clock(clock);
    if let Some(raw) = opts.get("yield-target") {
        let target: f64 = raw
            .parse()
            .map_err(|e| format!("bad --yield-target: {e}"))?;
        if !(0.0..=1.0).contains(&target) || target == 0.0 {
            return Err("--yield-target must be in (0, 1]".to_owned());
        }
        let mut variation = VariationModel::nominal();
        if let Some(rho) = parse_rho(opts)? {
            let cell = opts
                .get("cell")
                .map(parse_length)
                .transpose()?
                .unwrap_or(Length::mm(2.0));
            variation = variation.with_regional(rho, cell);
        }
        config = config.with_yield_filter(YieldFilter::new(target, variation));
    }
    let routers = RouterParams::for_tech(&tech);
    let which = opts.get("model").unwrap_or("proposed").to_ascii_lowercase();
    let proposed = ProposedLinkModel::new(&ev, DesignStyle::SingleSpacing, clock, 0.25);
    let network = match which.as_str() {
        "proposed" => synthesize(&spec, &proposed, &config),
        "original" => {
            let original = OriginalLinkModel::new(&tech, clock, 0.25);
            synthesize(&spec, &original, &config)
        }
        "mesh" => mesh_network(&spec, &proposed as &dyn LinkCostModel, &config),
        other => {
            return Err(format!(
                "unknown model `{other}` (proposed, original, mesh)"
            ))
        }
    }
    .map_err(|e| e.to_string())?;
    println!("{}", evaluate(&spec.name, &network, &routers, clock));
    Ok(())
}

fn cmd_yield(opts: &Opts) -> Result<(), String> {
    use predictive_interconnect::stats::{EstimatorConfig, Method};

    let node = opts.tech()?;
    let tech = Technology::new(node);
    let models = builtin(node);
    let ev = LineEvaluator::new(&models, &tech);
    let length = parse_length(opts.require("length")?)?;
    let deadline = parse_time(opts.require("deadline")?)?;
    let samples: usize = opts
        .get("samples")
        .unwrap_or("2000")
        .parse()
        .map_err(|e| format!("bad --samples: {e}"))?;
    let seed: u64 = opts
        .get("seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let spec = LineSpec::global(length, DesignStyle::SingleSpacing);
    let obj = BufferingObjective::balanced(Freq::ghz(1.0));
    let plan = ev
        .optimize_buffering(&spec, &obj, &SearchSpace::for_length(length))
        .ok_or("empty search space")?
        .plan;
    let mut variation = VariationModel::nominal();
    if let Some(rho) = parse_rho(opts)? {
        // `--regions N` slices the line into N equal correlation cells.
        let regions: usize = opts
            .get("regions")
            .unwrap_or("4")
            .parse()
            .map_err(|e| format!("bad --regions: {e}"))?;
        if regions == 0 {
            return Err("--regions must be at least 1".to_owned());
        }
        variation = variation.with_regional(rho, length / regions as f64);
        println!(
            "spatial correlation: rho {rho}, {regions} regions of {:.2} mm",
            (length / regions as f64).as_mm()
        );
    }

    if let Some(name) = opts.get("estimator") {
        // Variance-reduced estimator with a confidence interval. The CI
        // target is given in percent yield (default ±0.5% at 95%).
        let method: Method = name.parse()?;
        let ci_pct = parse_ci_pct(opts)?;
        let config = EstimatorConfig::new(method)
            .with_seed(seed)
            .with_target_half_width(ci_pct / 100.0)
            .with_control_variate(opts.flag("cv"));
        let est = ev.timing_yield_estimate(&spec, &plan, &variation, deadline, &config);
        println!(
            "{node} {} mm, {} x inverter wn {:.1} um, estimator {}{}",
            length.as_mm(),
            plan.count,
            plan.wn.as_um(),
            est.method,
            if config.control_variate { " +cv" } else { "" }
        );
        println!(
            "timing yield @ {:.0} ps: {:.2}% (±{:.2}% at 95%, {} line evaluations)",
            deadline.as_ps(),
            est.yield_fraction * 100.0,
            est.half_width * 100.0,
            est.evals
        );
        if method == Method::SurrogateIs || config.control_variate {
            println!(
                "surrogate disagreement: {:.3}% of dies{}",
                est.surrogate_disagreement * 100.0,
                if est.method != method {
                    " (above threshold -- fell back to the plain estimator)"
                } else {
                    ""
                }
            );
        }
        return Ok(());
    }

    let dist = ev.delay_distribution(&spec, &plan, &variation, samples, seed);
    println!(
        "{node} {} mm, {} x inverter wn {:.1} um, {samples} samples",
        length.as_mm(),
        plan.count,
        plan.wn.as_um()
    );
    println!(
        "delay mean {:.0} ps, sigma {:.1} ps, p99 {:.0} ps",
        dist.mean().as_ps(),
        dist.std_dev().as_ps(),
        dist.quantile(0.99).as_ps()
    );
    println!(
        "timing yield @ {:.0} ps: {:.1}%",
        deadline.as_ps(),
        dist.yield_at(deadline) * 100.0
    );
    Ok(())
}

fn cmd_size(opts: &Opts) -> Result<(), String> {
    use predictive_interconnect::stats::{EstimatorConfig, Method};

    let node = opts.tech()?;
    let tech = Technology::new(node);
    let models = builtin(node);
    let ev = LineEvaluator::new(&models, &tech);
    let length = parse_length(opts.require("length")?)?;
    let deadline = parse_time(opts.require("deadline")?)?;
    let target: f64 = opts
        .get("target")
        .unwrap_or("0.9")
        .parse()
        .map_err(|e| format!("bad --target: {e}"))?;
    if !(target > 0.0 && target <= 1.0) {
        return Err("--target must be a yield in (0, 1]".to_owned());
    }
    let method: Method = opts.get("estimator").unwrap_or("sobol-scrambled").parse()?;
    let seed: u64 = opts
        .get("seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let ci_pct = parse_ci_pct(opts)?;
    let config = EstimatorConfig::new(method)
        .with_seed(seed)
        .with_target_half_width(ci_pct / 100.0);
    let spec = LineSpec::global(length, DesignStyle::SingleSpacing);
    let obj = BufferingObjective::balanced(Freq::ghz(1.0));
    let start = ev
        .optimize_buffering(&spec, &obj, &SearchSpace::for_length(length))
        .ok_or("empty search space")?
        .plan;
    let query = SizeQuery {
        spec,
        plan: start,
        variation: VariationModel::nominal(),
        deadline,
        target_yield: target,
        config,
    };
    let engine = if opts.flag("gp") { "gp" } else { "ladder" };
    let sized = if opts.flag("gp") {
        ev.size_for_yield_gp_batch(&[query])
    } else {
        ev.size_for_yield_batch(&[query])
    }
    .remove(0)
    .ok_or("no plan in the search range reaches the target yield")?;
    let timing = ev.timing(&spec, &sized.plan);
    let power = ev.power(&spec, &sized.plan, 0.25, Freq::ghz(1.0));
    println!(
        "{node} {} mm, engine {engine}, start {} x wn {:.1} um",
        length.as_mm(),
        start.count,
        start.wn.as_um()
    );
    println!(
        "sized plan: {} x inverter wn {:.2} um ({} steps)",
        sized.plan.count,
        sized.plan.wn.as_um(),
        sized.steps
    );
    println!(
        "yield @ {:.0} ps: {:.2}% (target {:.2}%), nominal delay {:.0} ps, power {:.1} uW/bit",
        deadline.as_ps(),
        sized.achieved_yield * 100.0,
        target * 100.0,
        timing.delay.as_ps(),
        power.total().as_uw()
    );
    Ok(())
}

fn cmd_report(opts: &Opts) -> Result<(), String> {
    use predictive_interconnect::report::{link_datasheet, DatasheetOptions};
    let node = opts.tech()?;
    let tech = Technology::new(node);
    let models = builtin(node);
    let ev = LineEvaluator::new(&models, &tech);
    let length = parse_length(opts.require("length")?)?;
    let clock = parse_clock(opts.require("clock")?)?;
    let style = parse_style(opts.get("style").unwrap_or("ss"))?;
    let spec = LineSpec::global(length, style);
    let plan = ev
        .optimize_with_deadline(
            &spec,
            clock.period(),
            &BufferingObjective::balanced(clock),
            &SearchSpace::for_length(length),
        )
        .ok_or("link is infeasible at this clock")?
        .plan;
    let mut options = if opts.flag("full") {
        DatasheetOptions::full(clock)
    } else {
        DatasheetOptions::at_clock(clock)
    };
    if let Some(bits) = opts.get("bits") {
        options.n_bits = bits.parse().map_err(|e| format!("bad --bits: {e}"))?;
    }
    let sheet = link_datasheet(node, &spec, &plan, &options).map_err(|e| e.to_string())?;
    print!("{sheet}");
    Ok(())
}

/// `pi obs-report <journal.jsonl> [--check]` — renders a pi-obs JSONL trace
/// journal (see `docs/OBSERVABILITY.md`) as a span tree plus metric tables.
/// With `--check`, validates every line against the schema and the
/// wall-clock accounting bound instead of printing the report. With
/// `--diff <a> <b>`, prints per-span self-time and counter deltas between
/// two journals instead (e.g. before/after a perf change).
fn cmd_obs_report(args: &[String]) -> Result<(), String> {
    let mut paths: Vec<&str> = Vec::new();
    let mut check = false;
    let mut diff = false;
    for a in args {
        match a.as_str() {
            "--check" => check = true,
            "--diff" => diff = true,
            other if !other.starts_with("--") => paths.push(other),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if diff {
        let [a, b] = paths[..] else {
            return Err("usage: pi obs-report --diff <a.jsonl> <b.jsonl>".to_owned());
        };
        let ta = std::fs::read_to_string(a).map_err(|e| format!("cannot read `{a}`: {e}"))?;
        let tb = std::fs::read_to_string(b).map_err(|e| format!("cannot read `{b}`: {e}"))?;
        print!("{}", predictive_interconnect::obs::report::diff(&ta, &tb)?);
        return Ok(());
    }
    let [path] = paths[..] else {
        return Err("usage: pi obs-report <journal.jsonl> [--check]".to_owned());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    if check {
        predictive_interconnect::obs::report::check(&text)?;
        println!("obs-report: `{path}` OK");
    } else {
        print!("{}", predictive_interconnect::obs::report::render(&text)?);
    }
    Ok(())
}

/// One parsed Prometheus-exposition sample: metric name, label pairs,
/// value. Comment/`# TYPE` lines are dropped by the parser.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Parses Prometheus text exposition (the `GET /metrics` body) into flat
/// samples. Lines that do not parse are skipped rather than fatal — a
/// scrape mid-restart should degrade, not crash the console.
fn parse_exposition(text: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((head, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let (name, labels) = if let Some((name, rest)) = head.split_once('{') {
            let body = rest.strip_suffix('}').unwrap_or(rest);
            let labels = body
                .split(',')
                .filter_map(|kv| {
                    let (k, v) = kv.split_once('=')?;
                    Some((k.to_owned(), v.trim_matches('"').to_owned()))
                })
                .collect();
            (name.to_owned(), labels)
        } else {
            (head.to_owned(), Vec::new())
        };
        out.push(Sample {
            name,
            labels,
            value,
        });
    }
    out
}

/// Looks up a sample by name, optionally requiring a `window="..."` label.
fn sample_value(samples: &[Sample], name: &str, window: Option<&str>) -> Option<f64> {
    samples
        .iter()
        .find(|s| {
            s.name == name
                && window.is_none_or(|w| s.labels.iter().any(|(k, v)| k == "window" && v == w))
        })
        .map(|s| s.value)
}

/// Renders one `pi obs-top` refresh from parsed exposition samples.
fn render_top(addr: &str, tick: u64, samples: &[Sample]) -> String {
    let v = |name: &str, w: Option<&str>| sample_value(samples, name, w).unwrap_or(0.0);
    let mut out = format!("pi obs-top {addr}  tick {tick}\n");
    out.push_str(&format!(
        "qps {:.0}/{:.0}/{:.0} (1s/10s/60s)  shed/s {:.1}  err/s {:.1}\n",
        v("serve_requests_rate", Some("1s")),
        v("serve_requests_rate", Some("10s")),
        v("serve_requests_rate", Some("60s")),
        v("serve_shed_rate", Some("10s")),
        v("serve_responses_err_rate", Some("10s")),
    ));
    out.push_str(&format!(
        "queue {:.0} (hwm {:.0}, shed at {:.0})  batch mean {:.2}  \
         size batch mean {:.2}  plan-cache hit {:.1}%\n",
        v("serve_queue_depth", None),
        v("serve_queue_depth_hwm_total", None),
        v("serve_shed_threshold", None),
        v("serve_batch_mean", None),
        v("serve_size_batch_mean", None),
        v("serve_plan_cache_hit_rate", None) * 100.0,
    ));
    out.push_str("endpoint     p50[10s]     p99[10s]     p50[60s]     p99[60s]\n");
    for endpoint in ["request", "eval", "yield", "size", "net_yield", "other"] {
        let base = if endpoint == "request" {
            "serve_request_us".to_owned()
        } else {
            format!("serve_endpoint_{endpoint}_us")
        };
        // Endpoints that never saw traffic have no histogram yet.
        if sample_value(samples, &format!("{base}_p50"), Some("10s")).is_none() {
            continue;
        }
        out.push_str(&format!(
            "{endpoint:<12} {:>9.0}us {:>9.0}us {:>9.0}us {:>9.0}us\n",
            v(&format!("{base}_p50"), Some("10s")),
            v(&format!("{base}_p99"), Some("10s")),
            v(&format!("{base}_p50"), Some("60s")),
            v(&format!("{base}_p99"), Some("60s")),
        ));
    }
    out
}

/// `pi obs-top <host:port> [--interval S] [--count N] [--raw]` — polls the
/// server's `GET /metrics` exposition and renders a one-screen live
/// summary per tick: windowed QPS, shed and error rates, queue depth
/// against the shed threshold, batch means, and per-endpoint p50/p99 over
/// the 10 s and 60 s windows. `--count N` stops after N scrapes (default:
/// until ctrl-c). With `--raw` each scrape prints the exposition text
/// verbatim — `pi obs-top <addr> --count 1 --raw` is a zero-dependency
/// stand-in for `curl <addr>/metrics`.
fn cmd_obs_top(args: &[String]) -> Result<(), String> {
    use predictive_interconnect::serve::{install_shutdown_signals, signalled, Client};
    let mut addr: Option<&str> = None;
    let mut interval_s = 2.0f64;
    let mut count = 0u64; // 0 = poll until interrupted
    let mut raw = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--raw" => raw = true,
            "--interval" => {
                i += 1;
                let v = args.get(i).ok_or("--interval needs seconds")?;
                interval_s = v.parse().map_err(|e| format!("bad --interval: {e}"))?;
            }
            "--count" => {
                i += 1;
                let v = args.get(i).ok_or("--count needs a number")?;
                count = v.parse().map_err(|e| format!("bad --count: {e}"))?;
            }
            other if !other.starts_with("--") && addr.is_none() => addr = Some(other),
            other => return Err(format!("unexpected argument `{other}`")),
        }
        i += 1;
    }
    let addr = addr.ok_or("usage: pi obs-top <host:port> [--interval S] [--count N] [--raw]")?;
    if !(interval_s.is_finite() && interval_s > 0.0) {
        return Err(format!("--interval must be positive, got {interval_s}"));
    }
    install_shutdown_signals();
    let mut tick = 0u64;
    loop {
        let body = Client::connect(addr)
            .and_then(|mut c| c.roundtrip("GET", "/metrics", b""))
            .and_then(|resp| {
                if resp.status == 200 {
                    Ok(resp.body_str()?.to_owned())
                } else {
                    Err(format!("GET /metrics returned status {}", resp.status))
                }
            })?;
        tick += 1;
        if raw {
            print!("{body}");
        } else {
            print!("{}", render_top(addr, tick, &parse_exposition(&body)));
        }
        if count != 0 && tick >= count {
            return Ok(());
        }
        // Sleep in short slices so ctrl-c lands promptly.
        let wake = std::time::Instant::now() + std::time::Duration::from_secs_f64(interval_s);
        while std::time::Instant::now() < wake {
            if signalled() {
                return Ok(());
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        if signalled() {
            return Ok(());
        }
    }
}

fn cmd_serve(opts: &Opts) -> Result<(), String> {
    use predictive_interconnect::serve::{
        install_shutdown_signals, signalled, ServeConfig, Server,
    };
    opts.only(&["port", "queue-depth"])?;
    let mut config = ServeConfig::from_env();
    if let Some(v) = opts.get("port") {
        config.port = v.parse().map_err(|e| format!("bad --port: {e}"))?;
    }
    if let Some(v) = opts.get("queue-depth") {
        config.queue_depth = v.parse().map_err(|e| format!("bad --queue-depth: {e}"))?;
    }
    install_shutdown_signals();
    let mut server = Server::start(&config).map_err(|e| format!("bind failed: {e}"))?;
    println!("pi serve listening on {}", server.addr());
    println!(
        "endpoints: POST /v1/eval /v1/yield /v1/size /v1/net-yield | \
         GET /healthz /v1/stats | POST /admin/shutdown (or ctrl-c / SIGTERM)"
    );
    while !signalled() && !server.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    server.shutdown();
    let stats = server.stats();
    println!(
        "served {} requests in {} batches (mean batch size {:.2})",
        stats.requests.load(std::sync::atomic::Ordering::Relaxed),
        stats.batches.load(std::sync::atomic::Ordering::Relaxed),
        stats.batch_mean(),
    );
    Ok(())
}

fn cmd_load(opts: &Opts) -> Result<(), String> {
    use predictive_interconnect::serve::{run_load, LoadConfig};
    let mut config = LoadConfig::default();
    if let Some(v) = opts.get("addr") {
        config.addr = v.to_owned();
    }
    if let Some(v) = opts.get("qps") {
        config.qps = v.parse().map_err(|e| format!("bad --qps: {e}"))?;
    }
    if let Some(v) = opts.get("concurrency") {
        config.concurrency = v.parse().map_err(|e| format!("bad --concurrency: {e}"))?;
    }
    if let Some(v) = opts.get("conns") {
        config.conns = v.parse().map_err(|e| format!("bad --conns: {e}"))?;
    }
    if let Some(v) = opts.get("duration") {
        config.duration_s = v
            .parse()
            .map_err(|e| format!("bad --duration (seconds): {e}"))?;
    }
    if let Some(v) = opts.get("yield-pct") {
        config.yield_pct = v.parse().map_err(|e| format!("bad --yield-pct: {e}"))?;
    }
    if let Some(v) = opts.get("size-pct") {
        config.size_pct = v.parse().map_err(|e| format!("bad --size-pct: {e}"))?;
    }
    if let Some(v) = opts.get("seed") {
        config.seed = v.parse().map_err(|e| format!("bad --seed: {e}"))?;
    }
    if let Some(v) = opts.get("tech") {
        config.tech = v.to_owned();
    }
    let report = run_load(&config)?;
    if opts.flag("json") {
        println!("{}", report.to_json().render());
    } else {
        println!("{}", report.render());
    }
    if report.errors > 0 {
        return Err(format!(
            "{} of {} requests failed",
            report.errors, report.sent
        ));
    }
    Ok(())
}

fn cmd_scaling() -> Result<(), String> {
    use predictive_interconnect::wire::WireRc;
    println!("node   Vdd [V]  R [ohm/mm]  C [fF/mm]");
    for node in TechNode::ALL {
        let tech = Technology::new(node);
        let rc = WireRc::from_layer(tech.global_layer(), DesignStyle::SingleSpacing);
        println!(
            "{:>5}  {:>7.2}  {:>10.0}  {:>9.0}",
            node.name(),
            tech.vdd().as_v(),
            rc.r_per_m * 1e-3,
            (rc.cg_per_m + rc.cc_per_m) * 1e-3 * 1e15
        );
    }
    Ok(())
}

const USAGE: &str =
    "usage: pi <delay|optimize|reach|noc|yield|size|report|serve|load|obs-report|obs-top|scaling> [--options]
run `pi <command>` with missing options to see what it needs;
see the crate README for the full option list.
set PI_OBS=summary or PI_OBS=jsonl[:path] to trace any command (docs/OBSERVABILITY.md)";

/// Root span name for the command, so a `PI_OBS=jsonl` journal has a
/// single main-thread root covering the whole run.
fn root_span_name(cmd: &str) -> &'static str {
    match cmd {
        "delay" => "pi.delay",
        "optimize" => "pi.optimize",
        "reach" => "pi.reach",
        "noc" => "pi.noc",
        "yield" => "pi.yield",
        "size" => "pi.size",
        "report" => "pi.report",
        "serve" => "pi.serve",
        "load" => "pi.load",
        "scaling" => "pi.scaling",
        _ => "pi.main",
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = if cmd == "obs-report" {
        // Takes a positional journal path; not traced itself.
        cmd_obs_report(rest)
    } else if cmd == "obs-top" {
        // Takes a positional server address; a client-side poller, so
        // tracing it would only add noise to the journal.
        cmd_obs_top(rest)
    } else {
        let run = {
            let _root = predictive_interconnect::obs::span(root_span_name(cmd));
            Opts::parse(rest).and_then(|opts| match cmd.as_str() {
                "delay" => cmd_delay(&opts),
                "optimize" => cmd_optimize(&opts),
                "reach" => cmd_reach(&opts),
                "noc" => cmd_noc(&opts),
                "yield" => cmd_yield(&opts),
                "size" => cmd_size(&opts),
                "report" => cmd_report(&opts),
                "serve" => cmd_serve(&opts),
                "load" => cmd_load(&opts),
                "scaling" => cmd_scaling(),
                other => Err(format!("unknown command `{other}`\n{USAGE}")),
            })
        };
        predictive_interconnect::obs::finish();
        run
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_parsing() {
        assert!((parse_length("5mm").unwrap().as_mm() - 5.0).abs() < 1e-12);
        assert!((parse_length("350um").unwrap().as_um() - 350.0).abs() < 1e-12);
        assert!((parse_length("2.5").unwrap().as_mm() - 2.5).abs() < 1e-12);
        assert!(parse_length("five").is_err());
        // Finite-positive validation: f64::parse accepts these spellings,
        // so the guard has to reject them explicitly.
        for bad in ["nan", "inf", "-inf", "-3mm", "0", "0um", "nanmm"] {
            assert!(parse_length(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn clock_parsing() {
        assert!((parse_clock("2GHz").unwrap().as_ghz() - 2.0).abs() < 1e-12);
        assert!((parse_clock("750MHz").unwrap().as_ghz() - 0.75).abs() < 1e-12);
        assert!(parse_clock("fast").is_err());
    }

    #[test]
    fn time_parsing() {
        assert!((parse_time("560ps").unwrap().as_ps() - 560.0).abs() < 1e-12);
        assert!((parse_time("1.2ns").unwrap().as_ps() - 1200.0).abs() < 1e-9);
        assert!((parse_time("700").unwrap().as_ps() - 700.0).abs() < 1e-12);
        assert!(parse_time("soon").is_err());
        for bad in ["nan", "nanps", "inf", "-100ps", "0ps", "0", "-1ns"] {
            assert!(parse_time(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn style_parsing() {
        assert_eq!(parse_style("ss").unwrap(), DesignStyle::SingleSpacing);
        assert_eq!(parse_style("SH").unwrap(), DesignStyle::Shielded);
        assert!(parse_style("zz").is_err());
    }

    #[test]
    fn opts_parsing_values_and_flags() {
        let args: Vec<String> = ["--tech", "65nm", "--staggered", "--length", "5mm"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let o = Opts::parse(&args).unwrap();
        assert_eq!(o.get("tech"), Some("65nm"));
        assert_eq!(o.get("length"), Some("5mm"));
        assert!(o.flag("staggered"));
        assert!(o.require("missing").is_err());
    }

    #[test]
    fn opts_rejects_positional_arguments() {
        let args: Vec<String> = vec!["positional".to_owned()];
        assert!(Opts::parse(&args).is_err());
    }

    #[test]
    fn opts_only_names_the_first_unknown_option() {
        let args: Vec<String> = ["--port", "0", "--batch-window", "500", "--verbose"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let opts = Opts::parse(&args).unwrap();
        assert_eq!(
            opts.only(&["port"]),
            Err("unknown flag `--batch-window`".to_owned())
        );
        assert_eq!(
            opts.only(&["port", "batch-window"]),
            Err("unknown flag `--verbose`".to_owned())
        );
        assert_eq!(opts.only(&["port", "batch-window", "verbose"]), Ok(()));
    }

    #[test]
    fn exposition_parsing_handles_labels_and_skips_junk() {
        let text = "# TYPE serve_requests_total counter\n\
                    serve_requests_total 128\n\
                    serve_requests_rate{window=\"1s\"} 42.5\n\
                    serve_requests_rate{window=\"60s\"} 7.25\n\
                    serve_request_us_bucket{le=\"+Inf\"} 128\n\
                    not a metric line at all\n\
                    serve_queue_depth 3\n";
        let samples = parse_exposition(text);
        assert_eq!(samples.len(), 5, "comment and junk lines dropped");
        assert_eq!(
            sample_value(&samples, "serve_requests_total", None),
            Some(128.0)
        );
        assert_eq!(
            sample_value(&samples, "serve_requests_rate", Some("1s")),
            Some(42.5)
        );
        assert_eq!(
            sample_value(&samples, "serve_requests_rate", Some("60s")),
            Some(7.25)
        );
        assert_eq!(
            sample_value(&samples, "serve_requests_rate", Some("10s")),
            None
        );
        assert_eq!(sample_value(&samples, "serve_queue_depth", None), Some(3.0));
        assert_eq!(sample_value(&samples, "missing", None), None);
    }

    #[test]
    fn obs_top_renders_rates_and_endpoint_rows() {
        let text = "serve_requests_rate{window=\"1s\"} 1000\n\
                    serve_requests_rate{window=\"10s\"} 950\n\
                    serve_requests_rate{window=\"60s\"} 900\n\
                    serve_queue_depth 2\n\
                    serve_shed_threshold 768\n\
                    serve_batch_mean 7.5\n\
                    serve_plan_cache_hit_rate 0.93\n\
                    serve_request_us_p50{window=\"10s\"} 210\n\
                    serve_request_us_p99{window=\"10s\"} 900\n\
                    serve_request_us_p50{window=\"60s\"} 215\n\
                    serve_request_us_p99{window=\"60s\"} 950\n\
                    serve_endpoint_eval_us_p50{window=\"10s\"} 200\n\
                    serve_endpoint_eval_us_p99{window=\"10s\"} 850\n";
        let top = render_top("127.0.0.1:7878", 3, &parse_exposition(text));
        assert!(top.contains("tick 3"));
        assert!(top.contains("qps 1000/950/900 (1s/10s/60s)"));
        assert!(top.contains("queue 2 (hwm 0, shed at 768)"));
        assert!(top.contains("plan-cache hit 93.0%"));
        assert!(top.contains("request"));
        assert!(top.contains("eval"));
        assert!(!top.contains("net_yield"), "traffic-free endpoints hidden");
    }
}
