//! Thread-count invariance of the parallelized flows.
//!
//! The pi-rt engine spreads work over `PI_THREADS` scoped threads, and the
//! Monte-Carlo loops derive one `Rng::stream(seed, index)` per sample, so
//! every result must be **bit-identical** no matter how the samples were
//! scheduled. This test pins that contract for the three parallel hot
//! paths: the MC delay distribution, the NoC style exploration, and the
//! network yield tallies.
//!
//! Everything runs inside a single `#[test]` because `PI_THREADS` is
//! process-global: parallel test threads mutating it would race.

use pi_core::coefficients::builtin;
use pi_core::line::{BufferingPlan, LineEvaluator, LineSpec};
use pi_core::variation::{SizeQuery, VariationModel};
use pi_cosi::explore::{explore_link_styles, StyleResult};
use pi_cosi::net_yield::network_yield_estimates;
use pi_cosi::synthesis::SynthesisConfig;
use pi_cosi::testcases::dvopd;
use pi_tech::units::{Freq, Length};
use pi_tech::{DesignStyle, RepeaterKind, TechNode, Technology};
use pi_yield::{EstimatorConfig, Method};

/// Runs `f` with `PI_THREADS` set to `setting` (`None` = engine default).
fn with_threads<R>(setting: Option<&str>, f: impl FnOnce() -> R) -> R {
    match setting {
        Some(n) => std::env::set_var("PI_THREADS", n),
        None => std::env::remove_var("PI_THREADS"),
    }
    let out = f();
    std::env::remove_var("PI_THREADS");
    out
}

const SETTINGS: [Option<&str>; 4] = [Some("1"), Some("2"), Some("4"), None];

/// The naive estimator at a fixed die count with no early stop: the
/// fixed-count Monte-Carlo tally, die for die.
fn fixed_count(samples: usize, seed: u64) -> EstimatorConfig {
    EstimatorConfig::new(Method::Naive)
        .with_seed(seed)
        .with_max_evals(samples)
        .with_target_half_width(0.0)
}

#[test]
fn parallel_results_are_bit_identical_across_thread_counts() {
    let tech = Technology::new(TechNode::N65);
    let models = builtin(TechNode::N65);
    let evaluator = LineEvaluator::new(&models, &tech);

    // 1. Monte-Carlo delay distribution — compare the raw f64 bits of
    //    every sample, not an approximate summary.
    let spec = LineSpec::global(Length::mm(8.0), DesignStyle::SingleSpacing);
    let plan = BufferingPlan {
        kind: RepeaterKind::Inverter,
        count: 12,
        wn: Length::um(6.0),
        staggered: false,
    };
    let variation = VariationModel::nominal();
    let distributions: Vec<Vec<u64>> = SETTINGS
        .iter()
        .map(|s| {
            with_threads(*s, || {
                evaluator
                    .delay_distribution(&spec, &plan, &variation, 512, 42)
                    .samples()
                    .iter()
                    .map(|t| t.si().to_bits())
                    .collect()
            })
        })
        .collect();
    assert_eq!(distributions[0], distributions[1], "MC: 1 vs 2 threads");
    assert_eq!(distributions[0], distributions[2], "MC: 1 vs 4 threads");
    assert_eq!(distributions[0], distributions[3], "MC: 1 vs default");

    // 2. NoC style exploration — the per-style synthesis fan-out must
    //    return the same networks, reports, and ordering.
    let clock = Freq::ghz(2.25);
    let config = SynthesisConfig::at_clock(clock);
    let explored: Vec<Vec<StyleResult>> = SETTINGS
        .iter()
        .map(|s| {
            with_threads(*s, || {
                explore_link_styles(&evaluator, &dvopd(), &config, 0.25).expect("exploration")
            })
        })
        .collect();
    assert_eq!(explored[0], explored[1], "explore: 1 vs 2 threads");
    assert_eq!(explored[0], explored[2], "explore: 1 vs 4 threads");
    assert_eq!(explored[0], explored[3], "explore: 1 vs default");

    // 3. Network yield — the chunked pass counters must merge to the same
    //    tallies regardless of chunk scheduling, for the per-die RNG
    //    streams and for Sobol chunks stepped from their start index.
    let best = &explored[0][0];
    let yields: Vec<_> = SETTINGS
        .iter()
        .map(|s| {
            with_threads(*s, || {
                network_yield_estimates(
                    &best.network,
                    &evaluator,
                    best.choice.style,
                    &variation,
                    clock,
                    &[
                        fixed_count(400, 7),
                        // Eight replicates of 128 points: the rounds fan
                        // out over (replicate, chunk) items.
                        EstimatorConfig::new(Method::SobolScrambled)
                            .with_seed(7)
                            .with_max_evals(1024)
                            .with_target_half_width(0.0),
                    ],
                )
            })
        })
        .collect();
    assert_eq!(yields[0], yields[1], "yield: 1 vs 2 threads");
    assert_eq!(yields[0], yields[2], "yield: 1 vs 4 threads");
    assert_eq!(yields[0], yields[3], "yield: 1 vs default");

    // 4. pi-yield estimators — every sampling estimator, with and without
    //    the control variate, runs a fixed, index-addressed batch
    //    schedule, so the estimate (value, interval and disagreement
    //    bits, evaluation count and reported method) must not depend on
    //    how the chunks were scheduled across threads.
    let sampling = Method::ALL.into_iter().filter(|&m| m != Method::Analytic);
    for (method, cv) in sampling.flat_map(|m| [(m, false), (m, true)]) {
        let config = EstimatorConfig::new(method)
            .with_seed(9)
            .with_target_half_width(2e-2)
            .with_control_variate(cv);
        let estimates: Vec<(u64, u64, u64, usize, Method)> = SETTINGS
            .iter()
            .map(|s| {
                with_threads(*s, || {
                    let est = evaluator.timing_yield_estimate(
                        &spec,
                        &plan,
                        &variation,
                        evaluator.timing(&spec, &plan).delay * 1.05,
                        &config,
                    );
                    (
                        est.yield_fraction.to_bits(),
                        est.half_width.to_bits(),
                        est.surrogate_disagreement.to_bits(),
                        est.evals,
                        est.method,
                    )
                })
            })
            .collect();
        let name = format!("{method} cv={cv}");
        assert_eq!(estimates[0], estimates[1], "{name}: 1 vs 2 threads");
        assert_eq!(estimates[0], estimates[2], "{name}: 1 vs 4 threads");
        assert_eq!(estimates[0], estimates[3], "{name}: 1 vs default");
    }

    // 5. Characterization grid through the new structure-exploiting
    //    engine (bordered solver + modified Newton + adaptive steps).
    //    Every grid point is an independent deterministic simulation, so
    //    the raw measurement bits must not depend on the chunk schedule.
    //    The in-memory characterization cache is cleared between runs so
    //    each setting actually exercises the compute path rather than
    //    replaying the first run's results.
    use pi_core::calibrate::{characterize_grid, CalibrationGrid};
    use pi_core::repeater_model::Transition;
    let grid = CalibrationGrid::fast();
    let grids: Vec<Vec<(u64, u64)>> = SETTINGS
        .iter()
        .map(|s| {
            with_threads(*s, || {
                pi_core::char_cache::clear();
                characterize_grid(&tech, RepeaterKind::Inverter, Transition::Fall, &grid)
                    .expect("characterization")
                    .iter()
                    .map(|p| (p.delay.si().to_bits(), p.output_slew.si().to_bits()))
                    .collect()
            })
        })
        .collect();
    assert_eq!(grids[0], grids[1], "characterize: 1 vs 2 threads");
    assert_eq!(grids[0], grids[2], "characterize: 1 vs 4 threads");
    assert_eq!(grids[0], grids[3], "characterize: 1 vs default");

    // 6. And a cache replay must be indistinguishable from recomputation.
    let replay: Vec<(u64, u64)> = with_threads(Some("2"), || {
        characterize_grid(&tech, RepeaterKind::Inverter, Transition::Fall, &grid)
            .expect("characterization")
            .iter()
            .map(|p| (p.delay.si().to_bits(), p.output_slew.si().to_bits()))
            .collect()
    });
    assert_eq!(grids[0], replay, "cache replay differs from recomputation");

    // 7. Observation must never perturb the numerics: running the exact
    //    same flows under `PI_OBS=jsonl` must yield bit-identical
    //    characterization coefficients, yield estimates, and sign-off
    //    delays and slews — at one thread and at four. pi-obs probes only
    //    read;
    //    if tracing ever fed a value back into a solver this is the test
    //    that catches it.
    use pi_golden::signoff::line_delay;
    let signoff_spec = LineSpec::global(Length::mm(3.0), DesignStyle::SingleSpacing);
    let signoff_plan = BufferingPlan {
        kind: RepeaterKind::Inverter,
        count: 6,
        wn: Length::um(6.0),
        staggered: false,
    };
    type ObsProbeBits = (Vec<(u64, u64)>, (u64, u64, usize), Vec<u64>);
    let obs_probe = |threads: &str| -> ObsProbeBits {
        with_threads(Some(threads), || {
            pi_core::char_cache::clear();
            let grid_bits: Vec<(u64, u64)> =
                characterize_grid(&tech, RepeaterKind::Inverter, Transition::Fall, &grid)
                    .expect("characterization")
                    .iter()
                    .map(|p| (p.delay.si().to_bits(), p.output_slew.si().to_bits()))
                    .collect();
            let est = evaluator.timing_yield_estimate(
                &spec,
                &plan,
                &variation,
                evaluator.timing(&spec, &plan).delay * 1.05,
                &EstimatorConfig::new(Method::SobolScrambled)
                    .with_seed(9)
                    .with_target_half_width(2e-2),
            );
            let signoff = line_delay(&tech, &signoff_spec, &signoff_plan).expect("sign-off");
            let wave: Vec<u64> = vec![
                signoff.delay.si().to_bits(),
                signoff.steady_stage.delay.si().to_bits(),
                signoff.steady_stage.far_slew.si().to_bits(),
                signoff.simulated_stages as u64,
            ];
            (
                grid_bits,
                (
                    est.yield_fraction.to_bits(),
                    est.half_width.to_bits(),
                    est.evals,
                ),
                wave,
            )
        })
    };
    let journal = std::env::temp_dir().join("pi_determinism_obs.jsonl");
    let journal_arg = format!("jsonl:{}", journal.display());
    for threads in ["1", "4"] {
        std::env::remove_var("PI_OBS");
        pi_obs::reinit_from_env();
        let untraced = obs_probe(threads);

        let _ = std::fs::remove_file(&journal);
        std::env::set_var("PI_OBS", &journal_arg);
        pi_obs::reinit_from_env();
        let traced = {
            let _root = pi_obs::span("pi.main");
            obs_probe(threads)
        };
        pi_obs::finish();
        std::env::remove_var("PI_OBS");
        pi_obs::reinit_from_env();

        assert_eq!(
            untraced.0, traced.0,
            "PI_OBS=jsonl changed characterization bits at {threads} thread(s)"
        );
        assert_eq!(
            untraced.1, traced.1,
            "PI_OBS=jsonl changed the yield estimate at {threads} thread(s)"
        );
        assert_eq!(
            untraced.2, traced.2,
            "PI_OBS=jsonl changed the sign-off waveform at {threads} thread(s)"
        );
        // While we have it: the emitted journal must satisfy the public
        // schema contract end to end.
        let text = std::fs::read_to_string(&journal).expect("journal written");
        pi_obs::report::check(&text).expect("journal validates");
    }
    let _ = std::fs::remove_file(&journal);

    // 8. Spatially correlated samplers — the regional model draws extra
    //    region normals inside each die's private `Rng::stream`, so the
    //    one-stream-per-die schedule (and with it thread-count
    //    invariance) must survive at every rho. And whatever rho is, the
    //    variance-reduced estimators must still agree with the naive
    //    reference within their combined confidence intervals.
    let deadline = evaluator.timing(&spec, &plan).delay * 1.05;
    for rho in [0.0, 0.5, 0.9] {
        let correlated = VariationModel::nominal().with_regional(rho, Length::mm(2.0));
        let mut naive: Option<(f64, f64)> = None;
        for method in Method::ALL {
            let config = EstimatorConfig::new(method)
                .with_seed(11)
                .with_target_half_width(5e-3);
            let runs: Vec<(u64, u64, usize)> = [Some("1"), Some("4")]
                .iter()
                .map(|s| {
                    with_threads(*s, || {
                        let est = evaluator.timing_yield_estimate(
                            &spec,
                            &plan,
                            &correlated,
                            deadline,
                            &config,
                        );
                        (
                            est.yield_fraction.to_bits(),
                            est.half_width.to_bits(),
                            est.evals,
                        )
                    })
                })
                .collect();
            let name = method.name();
            assert_eq!(runs[0], runs[1], "{name} rho={rho}: 1 vs 4 threads");
            let y = f64::from_bits(runs[0].0);
            let hw = f64::from_bits(runs[0].1);
            match naive {
                None => naive = Some((y, hw)),
                Some((y_ref, hw_ref)) => {
                    let tol = 3.0 * (hw + hw_ref) + 0.01;
                    assert!(
                        (y - y_ref).abs() <= tol,
                        "{name} rho={rho}: yield {y:.5} vs naive {y_ref:.5} (tol {tol:.5})"
                    );
                }
            }
        }

        // The correlated network tallies (placement-derived regions) must
        // merge to identical counters regardless of chunk scheduling.
        let net_yields: Vec<_> = [Some("1"), Some("4")]
            .iter()
            .map(|s| {
                with_threads(*s, || {
                    network_yield_estimates(
                        &best.network,
                        &evaluator,
                        best.choice.style,
                        &correlated,
                        clock,
                        &[
                            fixed_count(400, 7),
                            // Eight replicates of 128 points: the rounds fan
                            // out over (replicate, chunk) items.
                            EstimatorConfig::new(Method::SobolScrambled)
                                .with_seed(7)
                                .with_max_evals(1024)
                                .with_target_half_width(0.0),
                        ],
                    )
                })
            })
            .collect();
        assert_eq!(
            net_yields[0], net_yields[1],
            "network yield rho={rho}: 1 vs 4 threads"
        );
    }

    // 9. Surrogate-guided importance sampling with the analytic control
    //    variate: the fitted proposal, per-die surrogate verdicts, and
    //    weighted disagreement tallies all ride the same one-stream-per-
    //    die schedule, so the full estimate — including the disagreement
    //    trust metric — must be bit-identical across thread counts, with
    //    and without spatial correlation (the correlated case exercises
    //    the mixture proposal path).
    for rho in [0.0, 0.8] {
        let model = if rho > 0.0 {
            VariationModel::nominal().with_regional(rho, Length::mm(2.0))
        } else {
            VariationModel::nominal()
        };
        let config = EstimatorConfig::new(Method::SurrogateIs)
            .with_seed(13)
            .with_target_half_width(1e-3);
        let runs: Vec<(u64, u64, usize, u64)> = [Some("1"), Some("4")]
            .iter()
            .map(|s| {
                with_threads(*s, || {
                    let est =
                        evaluator.timing_yield_estimate(&spec, &plan, &model, deadline, &config);
                    (
                        est.yield_fraction.to_bits(),
                        est.half_width.to_bits(),
                        est.evals,
                        est.surrogate_disagreement.to_bits(),
                    )
                })
            })
            .collect();
        assert_eq!(runs[0], runs[1], "surrogate-is rho={rho}: 1 vs 4 threads");

        // The control variate bolted onto a plain estimator must be just
        // as schedule-invariant.
        let cv = EstimatorConfig::new(Method::Naive)
            .with_seed(13)
            .with_target_half_width(5e-3)
            .with_control_variate(true);
        let cv_runs: Vec<(u64, u64, usize, u64)> = [Some("1"), Some("4")]
            .iter()
            .map(|s| {
                with_threads(*s, || {
                    let est = evaluator.timing_yield_estimate(&spec, &plan, &model, deadline, &cv);
                    (
                        est.yield_fraction.to_bits(),
                        est.half_width.to_bits(),
                        est.evals,
                        est.surrogate_disagreement.to_bits(),
                    )
                })
            })
            .collect();
        assert_eq!(cv_runs[0], cv_runs[1], "naive+cv rho={rho}: 1 vs 4 threads");
    }

    // 10. The batched server: a yield query answered over HTTP by a
    //     coalesced batch must be bit-identical to the equivalent
    //     one-shot `pi yield` evaluation — batching groups queries into
    //     one SoA sweep but must not perturb any query's seed-derived RNG
    //     stream assignment — and the server's answer must itself be
    //     thread-count invariant (its estimators read PI_THREADS like
    //     everything else).
    {
        use pi_serve::api::{ApiRequest, YieldRequest, YieldResponse};
        use pi_serve::{Client, ServeConfig, Server};

        let length = Length::mm(5.0);
        let spec = LineSpec::global(length, DesignStyle::SingleSpacing);
        // The exact plan derivation the `pi yield` CLI uses.
        let cli_plan = evaluator
            .optimize_buffering(
                &spec,
                &pi_core::BufferingObjective::balanced(Freq::ghz(1.0)),
                &pi_core::SearchSpace::for_length(length),
            )
            .expect("plan exists")
            .plan;
        let deadline = pi_tech::units::Time::ps(600.0);
        let seeds = [7u64, 8, 9];

        let mut served_runs: Vec<Vec<(u64, u64, u64)>> = Vec::new();
        for threads in ["1", "4"] {
            let served: Vec<YieldResponse> = with_threads(Some(threads), || {
                // Concurrent queries coalesce whenever they queue behind
                // an in-flight batch; answers must not depend on how the
                // arrivals happened to group.
                let mut server = Server::start(&ServeConfig {
                    port: 0,
                    queue_depth: 64,
                    ..ServeConfig::default()
                })
                .expect("bind ephemeral");
                let addr = server.addr().to_string();
                let responses = std::thread::scope(|scope| {
                    let handles: Vec<_> = seeds
                        .iter()
                        .map(|&seed| {
                            let addr = addr.clone();
                            scope.spawn(move || {
                                let mut client = Client::connect(&addr).expect("connect");
                                let req = ApiRequest::Yield(YieldRequest {
                                    tech: "65nm".to_owned(),
                                    length_mm: 5.0,
                                    deadline_ps: 600.0,
                                    estimator: "sobol-scrambled".to_owned(),
                                    seed,
                                    ci_pct: 2.0,
                                    cv: false,
                                    rho: None,
                                    regions: None,
                                    corner: None,
                                });
                                let body = req.to_json().render();
                                let resp = client
                                    .roundtrip("POST", req.path(), body.as_bytes())
                                    .expect("roundtrip");
                                assert_eq!(resp.status, 200, "{:?}", resp.body_str());
                                let v = pi_serve::json::parse(resp.body_str().unwrap()).unwrap();
                                YieldResponse::from_json(&v).unwrap()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap())
                        .collect::<Vec<_>>()
                });
                server.shutdown();
                responses
            });

            for (&seed, resp) in seeds.iter().zip(&served) {
                let config =
                    EstimatorConfig::new("sobol-scrambled".parse::<Method>().expect("method name"))
                        .with_seed(seed)
                        .with_target_half_width(2.0 / 100.0);
                let direct = with_threads(Some(threads), || {
                    evaluator.timing_yield_estimate(
                        &spec,
                        &cli_plan,
                        &VariationModel::nominal(),
                        deadline,
                        &config,
                    )
                });
                assert_eq!(
                    direct.yield_fraction.to_bits(),
                    resp.yield_fraction.to_bits(),
                    "served vs one-shot yield, seed {seed}, {threads} threads"
                );
                assert_eq!(
                    direct.half_width.to_bits(),
                    resp.half_width.to_bits(),
                    "served vs one-shot half-width, seed {seed}, {threads} threads"
                );
                assert_eq!(direct.evals as u64, resp.evals, "seed {seed}");
                assert_eq!(direct.method.name(), resp.method, "seed {seed}");
            }
            served_runs.push(
                served
                    .iter()
                    .map(|r| (r.yield_fraction.to_bits(), r.half_width.to_bits(), r.evals))
                    .collect(),
            );
        }
        assert_eq!(
            served_runs[0], served_runs[1],
            "served answers: 1 vs 4 threads"
        );
    }

    // 11. The poll(2) event loop: a single connection pipelining yield
    //     AND sizing queries back-to-back over a real socket must get
    //     answers bit-identical to in-process estimates (sizes parsed
    //     together coalesce into one batched ladder sweep), with wire
    //     bytes invariant across PI_THREADS.
    {
        use pi_serve::api::{ApiRequest, SizeRequest, SizeResponse, YieldRequest, YieldResponse};
        use pi_serve::http::{read_response, write_request};
        use pi_serve::{ServeConfig, Server};

        let length = Length::mm(5.0);
        let spec = LineSpec::global(length, DesignStyle::SingleSpacing);
        let cli_plan = evaluator
            .optimize_buffering(
                &spec,
                &pi_core::BufferingObjective::balanced(Freq::ghz(1.0)),
                &pi_core::SearchSpace::for_length(length),
            )
            .expect("plan exists")
            .plan;
        let deadline = pi_tech::units::Time::ps(600.0);
        let yield_seeds = [7u64, 8, 9];
        let size_jobs = [(3u64, "naive", 650.0), (4u64, "sobol-scrambled", 1100.0)];

        // One pipelined burst: write all five requests before reading any
        // response, so whatever queues behind the first in-flight batch
        // coalesces server-side.
        let run = |threads: &str| -> Vec<String> {
            with_threads(Some(threads), || {
                let mut server = Server::start(&ServeConfig {
                    port: 0,
                    queue_depth: 64,
                    ..ServeConfig::default()
                })
                .expect("bind ephemeral");
                let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
                stream
                    .set_read_timeout(Some(std::time::Duration::from_secs(60)))
                    .expect("timeout");
                let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone socket"));
                let mut requests: Vec<ApiRequest> = yield_seeds
                    .iter()
                    .map(|&seed| {
                        ApiRequest::Yield(YieldRequest {
                            tech: "65nm".to_owned(),
                            length_mm: 5.0,
                            deadline_ps: 600.0,
                            estimator: "sobol-scrambled".to_owned(),
                            seed,
                            ci_pct: 2.0,
                            cv: false,
                            rho: None,
                            regions: None,
                            corner: None,
                        })
                    })
                    .collect();
                for &(seed, estimator, deadline_ps) in &size_jobs {
                    requests.push(ApiRequest::Size(SizeRequest {
                        tech: "65nm".to_owned(),
                        length_mm: 5.0,
                        deadline_ps,
                        target_yield: 0.9,
                        estimator: estimator.to_owned(),
                        seed,
                        ci_pct: 2.0,
                        gp: false,
                        corner: None,
                    }));
                }
                for req in &requests {
                    let body = req.to_json().render();
                    write_request(&mut stream, "POST", req.path(), body.as_bytes())
                        .expect("pipelined write");
                }
                let bodies: Vec<String> = (0..requests.len())
                    .map(|_| {
                        let resp = read_response(&mut reader)
                            .expect("parse response")
                            .expect("connection stayed open");
                        assert_eq!(resp.status, 200, "{:?}", resp.body_str());
                        resp.body_str().expect("utf-8 body").to_owned()
                    })
                    .collect();
                server.shutdown();
                bodies
            })
        };

        let runs = [run("1"), run("4")];
        assert_eq!(runs[0], runs[1], "served bytes, 1 vs 4 threads");

        for (&seed, body) in yield_seeds.iter().zip(&runs[0]) {
            let v = pi_serve::json::parse(body).expect("json");
            let got = YieldResponse::from_json(&v).expect("yield body");
            let config = EstimatorConfig::new("sobol-scrambled".parse::<Method>().expect("method"))
                .with_seed(seed)
                .with_target_half_width(2.0 / 100.0);
            let direct = with_threads(Some("1"), || {
                evaluator.timing_yield_estimate(
                    &spec,
                    &cli_plan,
                    &VariationModel::nominal(),
                    deadline,
                    &config,
                )
            });
            assert_eq!(
                direct.yield_fraction.to_bits(),
                got.yield_fraction.to_bits(),
                "pipelined yield vs in-process, seed {seed}"
            );
            assert_eq!(
                direct.half_width.to_bits(),
                got.half_width.to_bits(),
                "half-width, seed {seed}"
            );
            assert_eq!(direct.evals as u64, got.evals, "seed {seed}");
        }
        for (&(seed, estimator, deadline_ps), body) in
            size_jobs.iter().zip(&runs[0][yield_seeds.len()..])
        {
            let v = pi_serve::json::parse(body).expect("json");
            let got = SizeResponse::from_json(&v).expect("size body");
            let config = EstimatorConfig::new(estimator.parse::<Method>().expect("method"))
                .with_seed(seed)
                .with_target_half_width(2.0 / 100.0);
            let query = SizeQuery {
                spec,
                plan: cli_plan,
                variation: VariationModel::nominal(),
                deadline: pi_tech::units::Time::ps(deadline_ps),
                target_yield: 0.9,
                config,
            };
            let direct = with_threads(Some("1"), || {
                evaluator.size_for_yield_batch(&[query]).remove(0)
            })
            .expect("sizing as a batch of one succeeds");
            assert_eq!(
                direct.plan.count as u64, got.count,
                "batched size count, seed {seed}"
            );
            assert_eq!(
                direct.plan.wn.as_um().to_bits(),
                got.wn_um.to_bits(),
                "batched size width, seed {seed}"
            );
            assert_eq!(
                direct.achieved_yield.to_bits(),
                got.achieved_yield.to_bits(),
                "achieved yield, seed {seed}"
            );
            assert_eq!(direct.steps as u64, got.steps, "sizing steps, seed {seed}");
        }
    }

    // 12. Live telemetry must be invisible on the wire: the same
    //     pipelined burst served with the JSONL trace journal AND the
    //     access log on must produce bytes identical to a run with every
    //     sink off — at 1 and 4 threads, and identical across the two
    //     thread counts. While the sinks
    //     are on, the access log itself must be well-formed JSONL with
    //     one line per request.
    {
        use pi_serve::api::{ApiRequest, YieldRequest};
        use pi_serve::http::{read_response, write_request};
        use pi_serve::{ServeConfig, Server};

        let journal = std::env::temp_dir().join("pi_determinism_serve_obs.jsonl");
        let access = std::env::temp_dir().join("pi_determinism_access.jsonl");
        let requests: Vec<ApiRequest> = [7u64, 8]
            .iter()
            .map(|&seed| {
                ApiRequest::Yield(YieldRequest {
                    tech: "65nm".to_owned(),
                    length_mm: 5.0,
                    deadline_ps: 600.0,
                    estimator: "sobol-scrambled".to_owned(),
                    seed,
                    ci_pct: 2.0,
                    cv: false,
                    rho: None,
                    regions: None,
                    corner: None,
                })
            })
            .collect();

        let run = |threads: &str, sinks_on: bool| -> Vec<String> {
            with_threads(Some(threads), || {
                let mut server = Server::start(&ServeConfig {
                    port: 0,
                    queue_depth: 64,
                    access_log: sinks_on.then(|| access.display().to_string()),
                    ..ServeConfig::default()
                })
                .expect("bind ephemeral");
                let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
                stream
                    .set_read_timeout(Some(std::time::Duration::from_secs(60)))
                    .expect("timeout");
                let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone socket"));
                for req in &requests {
                    let body = req.to_json().render();
                    write_request(&mut stream, "POST", req.path(), body.as_bytes())
                        .expect("pipelined write");
                }
                let bodies: Vec<String> = (0..requests.len())
                    .map(|_| {
                        let resp = read_response(&mut reader)
                            .expect("parse response")
                            .expect("connection stayed open");
                        assert_eq!(resp.status, 200, "{:?}", resp.body_str());
                        resp.body_str().expect("utf-8 body").to_owned()
                    })
                    .collect();
                server.shutdown();
                bodies
            })
        };

        let mut baseline: Option<Vec<String>> = None;
        for threads in ["1", "4"] {
            std::env::remove_var("PI_OBS");
            pi_obs::reinit_from_env();
            let quiet = run(threads, false);

            let _ = std::fs::remove_file(&journal);
            let _ = std::fs::remove_file(&access);
            std::env::set_var("PI_OBS", format!("jsonl:{}", journal.display()));
            pi_obs::reinit_from_env();
            let traced = run(threads, true);
            pi_obs::finish();
            std::env::remove_var("PI_OBS");
            pi_obs::reinit_from_env();

            assert_eq!(
                quiet, traced,
                "at {threads} thread(s): telemetry sinks changed served bytes"
            );
            match &baseline {
                None => baseline = Some(quiet),
                Some(b) => assert_eq!(
                    b, &quiet,
                    "at {threads} thread(s): served bytes drifted across thread counts"
                ),
            }

            let log = std::fs::read_to_string(&access).expect("access log written");
            let lines: Vec<&str> = log.lines().collect();
            assert_eq!(
                lines.len(),
                requests.len(),
                "at {threads} thread(s): one access-log line per request"
            );
            for line in lines {
                let v = pi_serve::json::parse(line).expect("access-log line is JSON");
                assert_eq!(
                    v.get("endpoint").and_then(pi_serve::json::Json::as_str),
                    Some("yield")
                );
                assert_eq!(
                    v.get("status").and_then(pi_serve::json::Json::as_u64),
                    Some(200)
                );
                assert!(v.get("id").and_then(pi_serve::json::Json::as_u64) >= Some(1));
                let total = v
                    .get("total_us")
                    .and_then(pi_serve::json::Json::as_f64)
                    .expect("total_us present");
                assert!(total > 0.0, "request duration recorded");
            }
        }
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&access);
    }

    // 13. GP sizing: the posynomial solver is serial scalar arithmetic,
    //     so its answers must be bit-identical at any PI_THREADS — and a
    //     pipelined burst of `gp: true` /v1/size requests must serve
    //     bytes identical across thread counts, parsing to
    //     exactly the in-process `size_for_yield_gp_batch` result for
    //     each request sized as a batch of one.
    {
        use pi_serve::api::{ApiRequest, SizeRequest, SizeResponse};
        use pi_serve::http::{read_response, write_request};
        use pi_serve::{ServeConfig, Server};

        let length = Length::mm(5.0);
        let spec = LineSpec::global(length, DesignStyle::SingleSpacing);
        let cli_plan = evaluator
            .optimize_buffering(
                &spec,
                &pi_core::BufferingObjective::balanced(Freq::ghz(1.0)),
                &pi_core::SearchSpace::for_length(length),
            )
            .expect("plan exists")
            .plan;
        let size_jobs = [(13u64, "sobol-scrambled", 650.0), (14u64, "naive", 900.0)];
        let query_for = |seed: u64, estimator: &str, deadline_ps: f64| SizeQuery {
            spec,
            plan: cli_plan,
            variation: VariationModel::nominal(),
            deadline: pi_tech::units::Time::ps(deadline_ps),
            target_yield: 0.9,
            config: EstimatorConfig::new(estimator.parse::<Method>().expect("method"))
                .with_seed(seed)
                .with_target_half_width(2.0 / 100.0),
        };

        // In-process thread invariance of the GP engine itself.
        let gp_at = |threads: &str| {
            with_threads(Some(threads), || {
                evaluator
                    .size_for_yield_gp_batch(&[query_for(13, "sobol-scrambled", 650.0)])
                    .remove(0)
                    .expect("GP sizing succeeds")
            })
        };
        let (gp_one, gp_four) = (gp_at("1"), gp_at("4"));
        assert_eq!(gp_one.plan, gp_four.plan, "GP plan: 1 vs 4 threads");
        assert_eq!(
            gp_one.achieved_yield.to_bits(),
            gp_four.achieved_yield.to_bits(),
            "GP achieved yield: 1 vs 4 threads"
        );
        assert_eq!(gp_one.steps, gp_four.steps, "GP steps: 1 vs 4 threads");

        let run = |threads: &str| -> Vec<String> {
            with_threads(Some(threads), || {
                let mut server = Server::start(&ServeConfig {
                    port: 0,
                    queue_depth: 64,
                    ..ServeConfig::default()
                })
                .expect("bind ephemeral");
                let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
                stream
                    .set_read_timeout(Some(std::time::Duration::from_secs(60)))
                    .expect("timeout");
                let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone socket"));
                let requests: Vec<ApiRequest> = size_jobs
                    .iter()
                    .map(|&(seed, estimator, deadline_ps)| {
                        ApiRequest::Size(SizeRequest {
                            tech: "65nm".to_owned(),
                            length_mm: 5.0,
                            deadline_ps,
                            target_yield: 0.9,
                            estimator: estimator.to_owned(),
                            seed,
                            ci_pct: 2.0,
                            gp: true,
                            corner: None,
                        })
                    })
                    .collect();
                for req in &requests {
                    let body = req.to_json().render();
                    write_request(&mut stream, "POST", req.path(), body.as_bytes())
                        .expect("pipelined write");
                }
                let bodies: Vec<String> = (0..requests.len())
                    .map(|_| {
                        let resp = read_response(&mut reader)
                            .expect("parse response")
                            .expect("connection stayed open");
                        assert_eq!(resp.status, 200, "{:?}", resp.body_str());
                        resp.body_str().expect("utf-8 body").to_owned()
                    })
                    .collect();
                server.shutdown();
                bodies
            })
        };

        let runs = [run("1"), run("4")];
        assert_eq!(runs[0], runs[1], "served gp bytes, 1 vs 4 threads");
        for (&(seed, estimator, deadline_ps), body) in size_jobs.iter().zip(&runs[0]) {
            let v = pi_serve::json::parse(body).expect("json");
            let got = SizeResponse::from_json(&v).expect("size body");
            let query = query_for(seed, estimator, deadline_ps);
            let direct = with_threads(Some("1"), || {
                evaluator.size_for_yield_gp_batch(&[query]).remove(0)
            })
            .expect("GP sizing as a batch of one succeeds");
            assert_eq!(
                direct.plan.count as u64, got.count,
                "served gp count, seed {seed}"
            );
            assert_eq!(
                direct.plan.wn.as_um().to_bits(),
                got.wn_um.to_bits(),
                "served gp width, seed {seed}"
            );
            assert_eq!(
                direct.achieved_yield.to_bits(),
                got.achieved_yield.to_bits(),
                "served gp yield, seed {seed}"
            );
            assert_eq!(
                direct.steps as u64, got.steps,
                "served gp steps, seed {seed}"
            );
        }
    }
}
