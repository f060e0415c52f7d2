//! Request batching: a bounded queue with load-aware admission control,
//! a drain-and-coalesce step, and the executors that turn coalesced
//! requests into answers.
//!
//! Batching is greedy and adaptive, with no timer: at the top of each
//! event-loop iteration the I/O thread drains whatever was parsed since
//! the last batch ([`Batcher::take_batch`], which never blocks) and runs
//! it through [`execute_batch`]. A lone request on an idle server is
//! dispatched at once; requests parsed while a batch executes queue up
//! behind it and form the next batch. Coalescing therefore grows with
//! load and costs nothing at idle.
//!
//! The scaling idea: concurrent requests that share a `(technology node,
//! process corner)` pair are drained together and dispatched as **one**
//! structure-of-arrays sweep through the batch entry points of
//! `pi-core`/`pi-cosi` (`timing_batch`, `timing_yield_estimate_batch`,
//! `size_for_yield_batch`, `network_yield_estimates`), so N requests pay
//! for one pass through the `pi_rt::par_map` workers instead of N
//! thread-pool round trips — and net-yield requests sharing a
//! `(design, clock)` pay for one network lowering instead of N.
//!
//! Batching is **transparent**: each query keeps its own seed-derived RNG
//! streams, the batch entry points run estimators in input order, and the
//! executors only group — they never reorder work inside a group — so a
//! batched response is bit-identical to the one-shot CLI equivalent. The
//! determinism suite (sections 10 and 11) pins this, including batched
//! sizing, whose bisection ladder advances in lock-step sweeps.
//!
//! Admission control is load-aware: once 75 % of the queue is taken,
//! expensive queries (the endpoints [`crate::api::Endpoint`] marks
//! sheddable: yield, size and net-yield) are answered `503` with a 1 s
//! `Retry-After` hint while cheap evals keep flowing, and a full queue
//! sheds everything. Shed counts surface as the `serve.shed` counter and
//! in `/v1/stats`.
//!
//! Every [`Job`] is answered exactly once: a job dropped unanswered —
//! most often one unwound over by a panic in [`execute_batch`] — answers
//! `500` on its way out, so a failed batch never leaves a client hanging.
//!
//! Observability: `serve.batch` spans cover one coalesced execution, the
//! `serve.batch_size` and `serve.size_batch` histograms record how much
//! coalescing actually happened, and `serve.queue_depth_hwm` gauges the
//! high-water mark of the queue. Each job additionally carries its phase
//! accounting: `take_batch` stamps the queue wait, answering stamps the
//! compute time (drain → answer), and both travel back to the connection
//! layer as a [`PhaseTiming`] alongside the response, feeding the
//! `serve.phase.*` windowed histograms and the access log.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use pi_core::line::{BufferingPlan, LineSpec};
use pi_core::variation::{SizeQuery, VariationModel, YieldQuery};
use pi_core::YieldSizing;
use pi_tech::units::{Freq, Length, Time};
use pi_tech::{Corner, DesignStyle, TechNode};
use pi_yield::{EstimatorConfig, Method, YieldEstimate};

use crate::api::{
    ApiRequest, ApiResponse, EvalResponse, NetYieldRequest, NetYieldResponse, SizeRequest,
    SizeResponse, YieldRequest, YieldResponse,
};
use crate::server::ServerStats;
use crate::store::{NodeContext, NodeStore};

/// How a job's answer leaves the batch: a boxed callback, so the event
/// loop can route it back to the job's connection and in-process callers
/// ([`Batcher::submit`]) can receive it on a channel. The callback also
/// receives the job's [`PhaseTiming`] so the connection layer can finish
/// the request's phase breakdown.
pub type Responder = Box<dyn FnOnce(ApiResponse, PhaseTiming) + Send + 'static>;

/// Batcher-side phase durations of one job, handed back with its answer.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTiming {
    /// Time spent queued: submit → batch drain, microseconds.
    pub queue_us: f64,
    /// Time spent in the batch executor: drain → answer, microseconds.
    pub compute_us: f64,
}

/// One queued request with its response path.
pub struct Job {
    /// The decoded request.
    pub request: ApiRequest,
    /// When it entered the queue (for the queue-wait histogram).
    pub enqueued: Instant,
    /// Request id allocated by the connection layer at parse time.
    pub id: u64,
    queue_us: f64,
    drained: Option<Instant>,
    /// `None` once answered.
    resp: Option<Responder>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("request", &self.request)
            .field("enqueued", &self.enqueued)
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl Job {
    /// Sends the response (a responder whose receiver hung up is a no-op),
    /// stamping the compute phase (batch drain → this answer) and handing
    /// the job's [`PhaseTiming`] to the responder. Jobs answered without
    /// ever being drained (close-time 503s) report zero compute.
    pub fn respond(mut self, response: ApiResponse) {
        self.answer(response);
    }

    fn answer(&mut self, response: ApiResponse) {
        let Some(resp) = self.resp.take() else {
            return;
        };
        let compute_us = self
            .drained
            .map_or(0.0, |d| d.elapsed().as_secs_f64() * 1e6);
        if self.drained.is_some() {
            crate::telemetry::hist("serve.phase.compute_us", compute_us);
        }
        resp(
            response,
            PhaseTiming {
                queue_us: self.queue_us,
                compute_us,
            },
        );
    }
}

impl Drop for Job {
    /// A job dropped unanswered — unwound over by a panic in its batch —
    /// answers `500` rather than leaving its client waiting forever.
    fn drop(&mut self) {
        self.answer(ApiResponse::error(
            500,
            "the batch executing this request failed",
        ));
    }
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The bounded queue of parsed requests awaiting their batch.
pub struct Batcher {
    state: Mutex<QueueState>,
    depth: usize,
    shed_threshold: usize,
    shed: AtomicU64,
    hwm: AtomicU64,
}

impl std::fmt::Debug for Batcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher")
            .field("depth", &self.depth)
            .field("shed_threshold", &self.shed_threshold)
            .finish()
    }
}

/// Queue fill, percent of the depth, at which admission control starts
/// shedding the endpoints the table marks sheddable.
const SHED_PCT: usize = 75;

/// `Retry-After` seconds attached to every shed or queue-full `503`.
const RETRY_AFTER_S: u64 = 1;

impl Batcher {
    /// A queue bounded at `depth` outstanding jobs, shedding expensive
    /// queries only when completely full.
    #[must_use]
    pub fn new(depth: usize) -> Arc<Self> {
        Self::bounded(depth, depth)
    }

    /// A queue bounded at `depth`, shedding expensive queries once 75 % of
    /// it is outstanding: the server's queue.
    #[must_use]
    pub fn with_admission(depth: usize) -> Arc<Self> {
        Self::bounded(depth, depth.saturating_mul(SHED_PCT) / 100)
    }

    fn bounded(depth: usize, shed_threshold: usize) -> Arc<Self> {
        let depth = depth.max(1);
        Arc::new(Batcher {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            depth,
            shed_threshold: shed_threshold.clamp(1, depth),
            shed: AtomicU64::new(0),
            hwm: AtomicU64::new(0),
        })
    }

    /// Enqueues a request. Returns the channel the response (and its
    /// [`PhaseTiming`]) will arrive on, or the `503` to answer immediately
    /// when admission control rejects it.
    ///
    /// # Errors
    ///
    /// The ready-made `503` [`ApiResponse`] on overload/shutdown.
    pub fn submit(
        &self,
        request: ApiRequest,
    ) -> Result<mpsc::Receiver<(ApiResponse, PhaseTiming)>, ApiResponse> {
        let (tx, rx) = mpsc::channel();
        self.submit_with(
            request,
            crate::telemetry::next_request_id(),
            Box::new(move |resp, timing| {
                let _ = tx.send((resp, timing));
            }),
        )?;
        Ok(rx)
    }

    /// Enqueues a request with an explicit id and responder — the
    /// connection-layer entry point. On rejection the responder is **not**
    /// invoked; the caller answers the returned `503` itself.
    ///
    /// # Errors
    ///
    /// The ready-made `503` [`ApiResponse`] on overload/shutdown.
    pub fn submit_with(
        &self,
        request: ApiRequest,
        id: u64,
        resp: Responder,
    ) -> Result<(), ApiResponse> {
        let mut st = self.lock();
        if st.closed {
            return Err(ApiResponse::error(503, "server is shutting down"));
        }
        if st.jobs.len() >= self.depth {
            crate::telemetry::counter("serve.queue_full", 1);
            return Err(ApiResponse::overloaded(
                format!("request queue full ({} outstanding)", self.depth),
                RETRY_AFTER_S,
            ));
        }
        if st.jobs.len() >= self.shed_threshold && request.endpoint().sheddable() {
            crate::telemetry::counter("serve.shed", 1);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ApiResponse::overloaded(
                format!(
                    "overloaded ({} of {} queued): shedding expensive queries",
                    st.jobs.len(),
                    self.depth
                ),
                RETRY_AFTER_S,
            ));
        }
        st.jobs.push_back(Job {
            request,
            enqueued: Instant::now(),
            id,
            queue_us: 0.0,
            drained: None,
            resp: Some(resp),
        });
        let now = st.jobs.len() as u64;
        if now > self.hwm.fetch_max(now, Ordering::Relaxed) {
            crate::telemetry::gauge("serve.queue_depth_hwm", now as f64);
        }
        Ok(())
    }

    /// Locks the queue. A panic elsewhere while the lock was held
    /// (poisoning it) leaves the queue consistent — every critical section
    /// is a single push, drain or flag store — so the queue recovers the
    /// guard instead of cascading the panic into every later request.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The server's dispatch call: drains everything queued as one batch,
    /// or returns `None` at once when nothing is queued. It never waits: a
    /// lone job leaves on the next call, and jobs queued while the previous
    /// batch executed come back together.
    ///
    /// `_window` is ignored: it is what remains of the retired coalescing
    /// window, kept only so existing callers that pass `Duration::ZERO`
    /// compile unchanged. Any value drains the same way.
    #[must_use]
    pub fn take_batch(&self, _window: Duration) -> Option<Vec<Job>> {
        let mut st = self.lock();
        if st.jobs.is_empty() {
            return None;
        }
        let mut batch: Vec<Job> = st.jobs.drain(..).collect();
        // Record outside the queue lock: probe sinks must never hold up a
        // submitter.
        drop(st);
        let drained = Instant::now();
        for job in &mut batch {
            let wait_us = drained
                .saturating_duration_since(job.enqueued)
                .as_secs_f64()
                * 1e6;
            job.queue_us = wait_us;
            job.drained = Some(drained);
            pi_obs::hist_record("serve.queue_wait_us", wait_us);
            crate::telemetry::hist("serve.phase.queue_us", wait_us);
        }
        Some(batch)
    }

    /// Number of jobs currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expensive queries shed by admission control so far.
    #[must_use]
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Queued-job count at which expensive queries start shedding.
    #[must_use]
    pub fn shed_threshold(&self) -> usize {
        self.shed_threshold
    }

    /// Deepest the queue has ever been.
    #[must_use]
    pub fn queue_depth_hwm(&self) -> u64 {
        self.hwm.load(Ordering::Relaxed)
    }

    /// Closes the queue: pending jobs are answered `503` and later submits
    /// fail fast.
    pub fn close(&self) {
        let pending: Vec<Job> = {
            let mut st = self.lock();
            st.closed = true;
            st.jobs.drain(..).collect()
        };
        // Answer outside the lock: a responder may re-enter the server.
        for job in pending {
            job.respond(ApiResponse::error(503, "server is shutting down"));
        }
    }
}

/// A lowered, validated yield request: the exact `pi yield` CLI recipe.
fn lower_yield(ctx: &NodeContext, r: &YieldRequest) -> Result<YieldQuery, String> {
    let length = parse_length_mm(r.length_mm)?;
    let spec = LineSpec::global(length, DesignStyle::SingleSpacing);
    let plan = ctx
        .plan_for(length)
        .ok_or("empty buffering search space for this length")?;
    if !(r.deadline_ps.is_finite() && r.deadline_ps > 0.0) {
        return Err(format!(
            "deadline_ps must be positive, got {}",
            r.deadline_ps
        ));
    }
    let mut variation = VariationModel::nominal();
    if let Some(rho) = r.rho {
        if !(0.0..=1.0).contains(&rho) {
            return Err(format!("rho must be in [0, 1], got {rho}"));
        }
        let regions = r.regions.unwrap_or(4);
        if regions == 0 {
            return Err("regions must be at least 1".to_owned());
        }
        variation = variation.with_regional(rho, length / regions as f64);
    }
    Ok(YieldQuery {
        spec,
        plan,
        variation,
        deadline: Time::ps(r.deadline_ps),
        config: estimator_config(&r.estimator, r.seed, r.ci_pct, r.cv)?,
    })
}

/// A lowered, validated size request: the exact `pi size` CLI recipe.
fn lower_size(ctx: &NodeContext, r: &SizeRequest) -> Result<SizeQuery, String> {
    let length = parse_length_mm(r.length_mm)?;
    let spec = LineSpec::global(length, DesignStyle::SingleSpacing);
    let plan = ctx
        .plan_for(length)
        .ok_or("empty buffering search space for this length")?;
    if !(r.deadline_ps.is_finite() && r.deadline_ps > 0.0) {
        return Err(format!(
            "deadline_ps must be positive, got {}",
            r.deadline_ps
        ));
    }
    if !(r.target_yield > 0.0 && r.target_yield <= 1.0) {
        return Err(format!(
            "target_yield must be in (0, 1], got {}",
            r.target_yield
        ));
    }
    Ok(SizeQuery {
        spec,
        plan,
        variation: VariationModel::nominal(),
        deadline: Time::ps(r.deadline_ps),
        target_yield: r.target_yield,
        config: estimator_config(&r.estimator, r.seed, r.ci_pct, false)?,
    })
}

fn parse_length_mm(mm: f64) -> Result<Length, String> {
    if mm.is_finite() && mm > 0.0 && mm <= 100.0 {
        Ok(Length::mm(mm))
    } else {
        Err(format!("length_mm must be in (0, 100], got {mm}"))
    }
}

fn estimator_config(
    name: &str,
    seed: u64,
    ci_pct: f64,
    cv: bool,
) -> Result<EstimatorConfig, String> {
    let method: Method = name.parse()?;
    if !(ci_pct.is_finite() && ci_pct > 0.0) {
        return Err(format!("ci_pct must be positive, got {ci_pct}"));
    }
    Ok(EstimatorConfig::new(method)
        .with_seed(seed)
        .with_target_half_width(ci_pct / 100.0)
        .with_control_variate(cv))
}

fn yield_response(est: &YieldEstimate) -> YieldResponse {
    YieldResponse {
        yield_fraction: est.yield_fraction,
        half_width: est.half_width,
        evals: est.evals as u64,
        method: est.method.name().to_owned(),
        surrogate_disagreement: est.surrogate_disagreement,
    }
}

fn size_response(sized: &YieldSizing) -> SizeResponse {
    SizeResponse {
        count: sized.plan.count as u64,
        wn_um: sized.plan.wn.as_um(),
        achieved_yield: sized.achieved_yield,
        steps: sized.steps as u64,
    }
}

/// Validated inputs of one net-yield request.
fn lower_net_yield(r: &NetYieldRequest) -> Result<(Freq, EstimatorConfig), String> {
    if !(r.clock_ghz.is_finite() && r.clock_ghz > 0.0 && r.clock_ghz <= 20.0) {
        return Err(format!("clock_ghz must be in (0, 20], got {}", r.clock_ghz));
    }
    Ok((
        Freq::ghz(r.clock_ghz),
        estimator_config(&r.estimator, r.seed, r.ci_pct, false)?,
    ))
}

/// Executes one drained batch: requests are grouped by `(technology
/// node, corner)` (and, for net-yield, by `(design, clock)`), each group
/// runs through the corresponding batch entry point, and every job is
/// answered on its responder. Invalid requests are answered `400`
/// without disturbing the rest of the batch.
pub fn execute_batch(store: &NodeStore, jobs: Vec<Job>, stats: &ServerStats) {
    if jobs.is_empty() {
        return;
    }
    let _span = pi_obs::span("serve.batch");
    crate::telemetry::counter("serve.batches", 1);
    crate::telemetry::hist("serve.batch_size", jobs.len() as f64);

    // Slots: response per job index; grouped work fills them in.
    let mut slots: Vec<Option<ApiResponse>> = Vec::with_capacity(jobs.len());

    // Group keys carry the node *and* corner so different technologies or
    // corners never share a sweep (their evaluators differ), per the
    // store's sharding.
    type Key = (TechNode, Corner);
    type NetKey = (TechNode, Corner, String, u64);
    type Grouped<V> = HashMap<Key, Vec<(usize, V)>>;
    let mut contexts: HashMap<Key, Arc<NodeContext>> = HashMap::new();
    let mut eval_groups: Grouped<(LineSpec, BufferingPlan)> = HashMap::new();
    let mut yield_groups: Grouped<YieldQuery> = HashMap::new();
    // Size jobs carry their engine choice: ladder (false) or GP (true).
    let mut size_groups: Grouped<(SizeQuery, bool)> = HashMap::new();
    let mut net_groups: HashMap<NetKey, Vec<(usize, EstimatorConfig)>> = HashMap::new();

    for (i, job) in jobs.iter().enumerate() {
        let outcome: Result<(), ApiResponse> = (|| {
            let (tech_spelling, corner) = match &job.request {
                ApiRequest::Eval(r) => (&r.tech, r.corner.as_deref()),
                ApiRequest::Yield(r) => (&r.tech, r.corner.as_deref()),
                ApiRequest::Size(r) => (&r.tech, r.corner.as_deref()),
                ApiRequest::NetYield(r) => (&r.tech, None),
            };
            let ctx = store
                .context_for(tech_spelling, corner)
                .map_err(|e| ApiResponse::error(400, e))?;
            let key = (ctx.tech.node(), ctx.corner());
            contexts.entry(key).or_insert_with(|| Arc::clone(&ctx));
            match &job.request {
                ApiRequest::Eval(r) => {
                    let length =
                        parse_length_mm(r.length_mm).map_err(|e| ApiResponse::error(400, e))?;
                    let spec = LineSpec::global(length, DesignStyle::SingleSpacing);
                    let mut plan = ctx.plan_for(length).ok_or_else(|| {
                        ApiResponse::error(400, "empty buffering search space for this length")
                    })?;
                    if let Some(count) = r.count {
                        if count == 0 || count > 256 {
                            return Err(ApiResponse::error(400, "count must be in [1, 256]"));
                        }
                        plan.count = count as usize;
                    }
                    if let Some(wn) = r.wn_um {
                        if !(wn.is_finite() && wn > 0.0 && wn <= 1000.0) {
                            return Err(ApiResponse::error(400, "wn_um must be in (0, 1000]"));
                        }
                        plan.wn = Length::um(wn);
                    }
                    eval_groups.entry(key).or_default().push((i, (spec, plan)));
                }
                ApiRequest::Yield(r) => {
                    let query = lower_yield(&ctx, r).map_err(|e| ApiResponse::error(400, e))?;
                    yield_groups.entry(key).or_default().push((i, query));
                }
                ApiRequest::Size(r) => {
                    let query = lower_size(&ctx, r).map_err(|e| ApiResponse::error(400, e))?;
                    size_groups.entry(key).or_default().push((i, (query, r.gp)));
                }
                ApiRequest::NetYield(r) => {
                    let (clock, config) =
                        lower_net_yield(r).map_err(|e| ApiResponse::error(400, e))?;
                    net_groups
                        .entry((key.0, key.1, r.design.clone(), clock.si().to_bits()))
                        .or_default()
                        .push((i, config));
                }
            }
            Ok(())
        })();
        slots.push(outcome.err());
    }

    let ctx_of = |key: &Key| -> &Arc<NodeContext> {
        contexts
            .get(key)
            .expect("every grouped job resolved a context")
    };

    // Coalesced model-eval sweeps, one per (node, corner).
    for (key, group) in eval_groups {
        let ctx = ctx_of(&key);
        let ev = ctx.evaluator();
        let items: Vec<(LineSpec, BufferingPlan)> = group.iter().map(|(_, it)| *it).collect();
        let timings = ev.timing_batch(&items);
        for ((i, (_, plan)), timing) in group.into_iter().zip(timings) {
            slots[i] = Some(ApiResponse::Eval(EvalResponse {
                delay_ps: timing.delay.as_ps(),
                slew_ps: timing.output_slew().as_ps(),
                count: plan.count as u64,
                wn_um: plan.wn.as_um(),
            }));
        }
    }

    // Coalesced yield sweeps, one per (node, corner).
    for (key, group) in yield_groups {
        let ctx = ctx_of(&key);
        let ev = ctx.evaluator();
        let queries: Vec<YieldQuery> = group.iter().map(|(_, q)| *q).collect();
        let estimates = ev.timing_yield_estimate_batch(&queries);
        for ((i, _), est) in group.into_iter().zip(estimates) {
            slots[i] = Some(ApiResponse::Yield(yield_response(&est)));
        }
    }

    // Coalesced sizing: every in-flight search advances its ladder
    // through shared `timing_yield_estimate_batch` sweeps instead of
    // running a private estimator loop per job. GP jobs split into their
    // own sub-batch through `size_for_yield_gp_batch`, which keeps the
    // same lock-step verification sweeps (and ladder fallback) — either
    // way every answer is bit-identical to the job sized as a batch of
    // one.
    fn fill_size_slots(
        slots: &mut [Option<ApiResponse>],
        group: &[(usize, SizeQuery)],
        results: Vec<Option<YieldSizing>>,
    ) {
        for (&(i, _), result) in group.iter().zip(results) {
            slots[i] = Some(match result {
                Some(sized) => ApiResponse::Size(size_response(&sized)),
                None => {
                    ApiResponse::error(400, "no plan in the search range reaches the target yield")
                }
            });
        }
    }
    for (key, group) in size_groups {
        let ctx = ctx_of(&key);
        let ev = ctx.evaluator();
        stats.size_sweeps.fetch_add(1, Ordering::Relaxed);
        stats
            .size_jobs
            .fetch_add(group.len() as u64, Ordering::Relaxed);
        crate::telemetry::hist("serve.size_batch", group.len() as f64);
        let ladder: Vec<(usize, SizeQuery)> = group
            .iter()
            .filter(|(_, (_, gp))| !gp)
            .map(|(i, (q, _))| (*i, *q))
            .collect();
        let gp: Vec<(usize, SizeQuery)> = group
            .iter()
            .filter(|(_, (_, gp))| *gp)
            .map(|(i, (q, _))| (*i, *q))
            .collect();
        if !ladder.is_empty() {
            let queries: Vec<SizeQuery> = ladder.iter().map(|(_, q)| *q).collect();
            fill_size_slots(&mut slots, &ladder, ev.size_for_yield_batch(&queries));
        }
        if !gp.is_empty() {
            crate::telemetry::hist("serve.gp_size_batch", gp.len() as f64);
            let queries: Vec<SizeQuery> = gp.iter().map(|(_, q)| *q).collect();
            fill_size_slots(&mut slots, &gp, ev.size_for_yield_gp_batch(&queries));
        }
    }

    // Net-yield: one network lowering per (node, corner, design, clock).
    for ((node, corner, design, clock_bits), group) in net_groups {
        let ctx = ctx_of(&(node, corner));
        let clock = Freq::hz(f64::from_bits(clock_bits));
        match ctx.network_for(&design, clock) {
            Err(e) => {
                for (i, _) in group {
                    slots[i] = Some(ApiResponse::error(400, e.clone()));
                }
            }
            Ok(net) => {
                let ev = ctx.evaluator();
                let configs: Vec<EstimatorConfig> = group.iter().map(|(_, c)| *c).collect();
                let estimates = pi_cosi::network_yield_estimates(
                    &net,
                    &ev,
                    DesignStyle::SingleSpacing,
                    &VariationModel::nominal(),
                    clock,
                    &configs,
                );
                for ((i, _), est) in group.into_iter().zip(estimates) {
                    let (limiting_channel, limiting_yield) = est
                        .channel_yield
                        .iter()
                        .copied()
                        .enumerate()
                        .min_by(|a, b| a.1.total_cmp(&b.1))
                        .unwrap_or((0, f64::NAN));
                    slots[i] = Some(ApiResponse::NetYield(NetYieldResponse {
                        yield_fraction: est.overall.yield_fraction,
                        half_width: est.overall.half_width,
                        evals: est.overall.evals as u64,
                        channels: net.channels.len() as u64,
                        limiting_channel: limiting_channel as u64,
                        limiting_yield,
                    }));
                }
            }
        }
    }

    for (job, slot) in jobs.into_iter().zip(slots) {
        let response =
            slot.unwrap_or_else(|| ApiResponse::error(500, "request fell through the batcher"));
        crate::telemetry::counter(
            if response.status() == 200 {
                "serve.responses_ok"
            } else {
                "serve.responses_err"
            },
            1,
        );
        job.respond(response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::EvalRequest;

    fn eval_request(mm: f64) -> ApiRequest {
        ApiRequest::Eval(EvalRequest {
            tech: "65nm".to_owned(),
            length_mm: mm,
            count: None,
            wn_um: None,
            corner: None,
        })
    }

    fn yield_request(seed: u64, est: &str) -> ApiRequest {
        ApiRequest::Yield(YieldRequest {
            tech: "65nm".to_owned(),
            length_mm: 5.0,
            deadline_ps: 600.0,
            estimator: est.to_owned(),
            seed,
            ci_pct: 2.0,
            cv: false,
            rho: None,
            regions: None,
            corner: None,
        })
    }

    fn size_request(seed: u64, est: &str, length_mm: f64, deadline_ps: f64) -> ApiRequest {
        ApiRequest::Size(SizeRequest {
            tech: "65nm".to_owned(),
            length_mm,
            deadline_ps,
            target_yield: 0.9,
            estimator: est.to_owned(),
            seed,
            ci_pct: 2.0,
            gp: false,
            corner: None,
        })
    }

    fn gp_size_request(seed: u64, est: &str, length_mm: f64, deadline_ps: f64) -> ApiRequest {
        let ApiRequest::Size(mut r) = size_request(seed, est, length_mm, deadline_ps) else {
            unreachable!()
        };
        r.gp = true;
        ApiRequest::Size(r)
    }

    #[test]
    fn queue_accumulates_then_drains_as_one_batch() {
        let q = Batcher::new(16);
        let mut receivers = Vec::new();
        for i in 0..5 {
            receivers.push(q.submit(eval_request(1.0 + i as f64)).expect("queued"));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.queue_depth_hwm(), 5);
        let batch = q.take_batch(Duration::ZERO).expect("open queue");
        assert_eq!(batch.len(), 5, "all queued jobs drain as one batch");
        assert!(q.is_empty());
        let store = NodeStore::default();
        execute_batch(&store, batch, &ServerStats::default());
        for rx in receivers {
            let (resp, timing) = rx.recv().expect("answered");
            assert_eq!(resp.status(), 200, "{resp:?}");
            assert!(timing.queue_us >= 0.0);
            assert!(timing.compute_us > 0.0, "drained jobs report compute time");
        }
    }

    #[test]
    fn dispatch_never_waits_on_a_timer_and_coalesces_behind_a_batch() {
        let q = Batcher::new(16);
        // An empty queue answers `None` at once, whatever window a caller
        // passes: the argument is ignored, so even an hour-long one holds
        // nothing back. (A timed or blocking wait would hang this test.)
        assert!(q.take_batch(Duration::from_secs(3600)).is_none());

        // A lone job leaves on the next call, alone.
        let lone = q.submit(eval_request(1.0)).expect("queued");
        let batch = q.take_batch(Duration::from_secs(3600)).expect("queued");
        assert_eq!(batch.len(), 1, "the lone job, alone");
        assert!(q.take_batch(Duration::ZERO).is_none(), "drained");
        execute_batch(&NodeStore::default(), batch, &ServerStats::default());
        assert_eq!(lone.recv().expect("answered").0.status(), 200);

        // Jobs submitted while a drained batch is still unanswered queue
        // behind it and come back together, in order, from the next call.
        let first = q.submit(eval_request(1.0)).expect("queued");
        let in_flight = q.take_batch(Duration::ZERO).expect("queued");
        assert_eq!(in_flight.len(), 1);
        let behind: Vec<_> = (2..=4)
            .map(|mm| q.submit(eval_request(f64::from(mm))).expect("queued"))
            .collect();
        let next = q.take_batch(Duration::ZERO).expect("queued");
        assert_eq!(next.len(), 3, "arrivals behind the in-flight batch");
        assert!(next.windows(2).all(|w| w[0].id < w[1].id), "FIFO order");
        assert!(q.is_empty());
        let store = NodeStore::default();
        let stats = ServerStats::default();
        execute_batch(&store, in_flight, &stats);
        execute_batch(&store, next, &stats);
        assert_eq!(first.recv().expect("answered").0.status(), 200);
        for rx in behind {
            assert_eq!(rx.recv().expect("answered").0.status(), 200);
        }
    }

    #[test]
    fn jobs_unwound_over_answer_500() {
        // The first job's responder panics, so `execute_batch` unwinds
        // with the rest of the batch still unanswered.
        let q = Batcher::new(16);
        q.submit_with(
            eval_request(1.0),
            0,
            Box::new(|_, _| panic!("a responder failing mid-batch")),
        )
        .expect("queued");
        let receivers: Vec<_> = (2..=4)
            .map(|mm| q.submit(eval_request(f64::from(mm))).expect("queued"))
            .collect();
        let batch = q.take_batch(Duration::ZERO).expect("queued");
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_batch(&NodeStore::default(), batch, &ServerStats::default());
        }));
        assert!(unwound.is_err());
        for rx in receivers {
            let (resp, timing) = rx.recv().expect("answered, not dropped");
            assert_eq!(resp.status(), 500, "{resp:?}");
            assert!(timing.compute_us > 0.0, "drained jobs report compute time");
        }
    }

    #[test]
    fn a_poisoned_queue_lock_is_recovered_not_cascaded() {
        let q = Batcher::new(16);
        let poisoner = Arc::clone(&q);
        let panicked = std::thread::spawn(move || {
            let _guard = poisoner.state.lock().expect("first lock");
            panic!("a panic while holding the queue lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(q.state.is_poisoned());

        // Submit, drain, execute and close all carry on as normal.
        let rx = q.submit(eval_request(5.0)).expect("queued");
        assert_eq!(q.len(), 1);
        let batch = q.take_batch(Duration::ZERO).expect("open queue");
        assert_eq!(batch.len(), 1);
        execute_batch(&NodeStore::default(), batch, &ServerStats::default());
        assert_eq!(rx.recv().expect("answered").0.status(), 200);
        let pending = q.submit(eval_request(6.0)).expect("queued");
        q.close();
        assert_eq!(pending.recv().expect("answered").0.status(), 503);
        assert!(q.take_batch(Duration::ZERO).is_none(), "closed and empty");
    }

    #[test]
    fn full_queue_answers_503_without_blocking() {
        let q = Batcher::new(2);
        let _a = q.submit(eval_request(1.0)).expect("fits");
        let _b = q.submit(eval_request(2.0)).expect("fits");
        let err = q.submit(eval_request(3.0)).expect_err("full");
        assert_eq!(err.status(), 503);
        assert!(err.retry_after().is_some(), "full queue hints Retry-After");
        // Draining frees the slots again.
        let _ = q.take_batch(Duration::ZERO);
        assert!(q.submit(eval_request(3.0)).is_ok());
    }

    #[test]
    fn overload_sheds_expensive_queries_before_cheap_evals() {
        let q = Batcher::with_admission(8);
        assert_eq!(q.shed_threshold(), 6, "75% of an 8-deep queue");
        let _held: Vec<_> = (0..6)
            .map(|i| q.submit(eval_request(1.0 + f64::from(i))).expect("fits"))
            .collect();
        // At the threshold: estimator queries shed, evals still flow.
        let shed = q.submit(yield_request(1, "naive")).expect_err("shed");
        assert_eq!(shed.status(), 503);
        assert_eq!(shed.retry_after(), Some(1));
        let shed = q
            .submit(size_request(1, "naive", 5.0, 700.0))
            .expect_err("shed");
        assert_eq!(shed.status(), 503);
        assert!(q.submit(eval_request(7.0)).is_ok(), "evals keep flowing");
        assert_eq!(q.shed_count(), 2);
        // Draining back below the threshold re-admits expensive queries.
        let _ = q.take_batch(Duration::ZERO);
        assert!(q.submit(yield_request(1, "naive")).is_ok());
        assert_eq!(q.queue_depth_hwm(), 7);
        // The threshold never reaches zero.
        assert_eq!(Batcher::with_admission(1).shed_threshold(), 1);
    }

    #[test]
    fn closed_queue_rejects_submits_and_ends_take_batch() {
        let q = Batcher::new(4);
        let rx = q.submit(eval_request(1.0)).expect("queued");
        q.close();
        assert_eq!(q.submit(eval_request(2.0)).unwrap_err().status(), 503);
        assert!(q.take_batch(Duration::ZERO).is_none(), "closed and empty");
        // The pending job was answered 503 on close, not dropped. It was
        // never drained, so its timing reports no compute.
        let (resp, timing) = rx.recv().expect("answered");
        assert_eq!(resp.status(), 503);
        assert_eq!(timing.compute_us, 0.0);
    }

    #[test]
    fn batched_yields_are_bit_identical_to_direct_estimates() {
        // Mixed batch: seeds and every estimator family, plus an eval —
        // the grouped execution must leave every per-query RNG stream
        // alone.
        let store = NodeStore::default();
        let q = Batcher::new(16);
        let specs = [
            (3u64, "naive"),
            (4, "naive"),
            (3, "sobol-scrambled"),
            (6, "importance"),
            (7, "surrogate-is"),
            (8, "analytic"),
        ];
        let receivers: Vec<_> = specs
            .iter()
            .map(|&(seed, est)| q.submit(yield_request(seed, est)).expect("queued"))
            .collect();
        let _extra = q.submit(eval_request(5.0)).expect("queued");
        execute_batch(
            &store,
            q.take_batch(Duration::ZERO).expect("open"),
            &ServerStats::default(),
        );

        let ctx = store.context(pi_tech::TechNode::N65);
        let ev = ctx.evaluator();
        let length = Length::mm(5.0);
        let spec = LineSpec::global(length, DesignStyle::SingleSpacing);
        let plan = ctx.plan_for(length).expect("plan");
        for (&(seed, est), rx) in specs.iter().zip(receivers) {
            let ApiResponse::Yield(got) = rx.recv().expect("answered").0 else {
                panic!("expected a yield response");
            };
            let config = estimator_config(est, seed, 2.0, false).expect("config");
            let direct = ev.timing_yield_estimate(
                &spec,
                &plan,
                &VariationModel::nominal(),
                Time::ps(600.0),
                &config,
            );
            assert_eq!(
                direct.yield_fraction.to_bits(),
                got.yield_fraction.to_bits()
            );
            assert_eq!(direct.half_width.to_bits(), got.half_width.to_bits());
            assert_eq!(direct.evals as u64, got.evals);
            assert_eq!(direct.method.name(), got.method);
        }
    }

    /// The answer a size request gets when sized alone: lowered exactly
    /// as the server lowers it, then run as a batch of one through the
    /// engine its `gp` flag selects.
    fn size_alone(store: &NodeStore, request: &ApiRequest) -> Option<YieldSizing> {
        let ApiRequest::Size(r) = request else {
            panic!("expected a size request");
        };
        let ctx = store.context(pi_tech::TechNode::N65);
        let query = lower_size(&ctx, r).expect("valid request");
        let ev = ctx.evaluator();
        if r.gp {
            ev.size_for_yield_gp_batch(&[query])
        } else {
            ev.size_for_yield_batch(&[query])
        }
        .remove(0)
    }

    /// Asserts a served size response carries exactly `direct`'s answer
    /// (a 400 when the ladder was exhausted).
    fn assert_serves(got: &ApiResponse, direct: Option<YieldSizing>, what: &str) {
        match (got, direct) {
            (ApiResponse::Size(got), Some(direct)) => {
                assert_eq!(direct.plan.count as u64, got.count, "{what}: count");
                assert_eq!(
                    direct.plan.wn.as_um().to_bits(),
                    got.wn_um.to_bits(),
                    "{what}: width"
                );
                assert_eq!(
                    direct.achieved_yield.to_bits(),
                    got.achieved_yield.to_bits(),
                    "{what}: yield bits"
                );
                assert_eq!(direct.steps as u64, got.steps, "{what}: steps");
            }
            (got, None) => assert_eq!(got.status(), 400, "{what}: exhausted ladder"),
            (got, Some(direct)) => panic!("{what}: served {got:?}, alone {direct:?}"),
        }
    }

    #[test]
    fn batched_sizes_are_bit_identical_to_direct_sizing() {
        // Size jobs over every estimator family plus a yield in one
        // batch: sizing coalesces into lock-step sweeps yet answers each
        // job exactly like a batch of one, exhausted ladders included.
        let store = NodeStore::default();
        let q = Batcher::new(16);
        let requests = [
            size_request(3, "naive", 5.0, 650.0),
            size_request(4, "sobol-scrambled", 8.0, 1100.0),
            size_request(5, "analytic", 3.0, 450.0),
            size_request(6, "importance", 5.0, 700.0),
            size_request(7, "sobol-scrambled", 2.0, 330.0),
            size_request(8, "surrogate-is", 8.0, 1150.0),
            // Hopeless: the whole ladder is walked and exhausted.
            size_request(9, "naive", 5.0, 10.0),
        ];
        let receivers: Vec<_> = requests
            .iter()
            .map(|r| q.submit(r.clone()).expect("queued"))
            .collect();
        let _extra = q.submit(yield_request(9, "naive")).expect("queued");
        let stats = ServerStats::default();
        execute_batch(&store, q.take_batch(Duration::ZERO).expect("open"), &stats);
        assert_eq!(stats.size_sweeps.load(Ordering::Relaxed), 1);
        assert_eq!(
            stats.size_jobs.load(Ordering::Relaxed),
            requests.len() as u64
        );

        let mut sized = 0;
        for (i, (request, rx)) in requests.iter().zip(receivers).enumerate() {
            let direct = size_alone(&store, request);
            sized += usize::from(direct.is_some());
            assert_serves(&rx.recv().expect("answered").0, direct, &format!("job {i}"));
        }
        assert!(sized >= 5, "only {sized} jobs reached the target");
    }

    #[test]
    fn batched_gp_sizes_are_bit_identical_to_direct_gp_sizing() {
        // A mixed group — GP and ladder jobs, one GP-infeasible — must
        // split into the two engines yet answer each exactly like a batch
        // of one through its engine.
        let store = NodeStore::default();
        let q = Batcher::new(16);
        let requests = [
            gp_size_request(5, "sobol-scrambled", 5.0, 650.0),
            size_request(5, "sobol-scrambled", 5.0, 650.0),
            gp_size_request(6, "analytic", 8.0, 1100.0),
            gp_size_request(7, "naive", 3.0, 450.0),
            size_request(8, "importance", 3.0, 450.0),
            // GP-infeasible: falls back to a ladder that exhausts.
            gp_size_request(9, "naive", 5.0, 10.0),
        ];
        let receivers: Vec<_> = requests
            .iter()
            .map(|r| q.submit(r.clone()).expect("queued"))
            .collect();
        let stats = ServerStats::default();
        execute_batch(&store, q.take_batch(Duration::ZERO).expect("open"), &stats);
        assert_eq!(
            stats.size_jobs.load(Ordering::Relaxed),
            requests.len() as u64
        );
        for (i, (request, rx)) in requests.iter().zip(receivers).enumerate() {
            let direct = size_alone(&store, request);
            assert_serves(&rx.recv().expect("answered").0, direct, &format!("job {i}"));
        }
    }

    #[test]
    fn malformed_size_lengths_answer_400_not_panic() {
        // NaN can't travel through JSON, but negative, zero and absurd
        // lengths can — all must be rejected at validation, on both the
        // ladder and the GP engine.
        let store = NodeStore::default();
        let q = Batcher::new(16);
        let mut receivers = Vec::new();
        for mm in [-5.0, 0.0, 1e6] {
            receivers.push(
                q.submit(size_request(1, "naive", mm, 700.0))
                    .expect("queued"),
            );
            receivers.push(
                q.submit(gp_size_request(1, "naive", mm, 700.0))
                    .expect("queued"),
            );
        }
        execute_batch(
            &store,
            q.take_batch(Duration::ZERO).expect("open"),
            &ServerStats::default(),
        );
        for rx in receivers {
            let resp = rx.recv().expect("answered").0;
            assert_eq!(resp.status(), 400, "{resp:?}");
            let ApiResponse::Error { message, .. } = resp else {
                panic!("expected an error response");
            };
            assert!(message.contains("length_mm"), "{message}");
        }
    }

    #[test]
    fn corner_requests_run_on_the_corner_model() {
        let store = NodeStore::default();
        let q = Batcher::new(16);
        let mut tt = eval_request(5.0);
        let mut ss = eval_request(5.0);
        if let ApiRequest::Eval(r) = &mut tt {
            r.corner = Some("tt".to_owned());
        }
        if let ApiRequest::Eval(r) = &mut ss {
            r.corner = Some("ss".to_owned());
        }
        let rx_tt = q.submit(tt).expect("queued");
        let rx_ss = q.submit(ss).expect("queued");
        execute_batch(
            &store,
            q.take_batch(Duration::ZERO).expect("open"),
            &ServerStats::default(),
        );
        let ApiResponse::Eval(tt) = rx_tt.recv().expect("answered").0 else {
            panic!("expected an eval response");
        };
        let ApiResponse::Eval(ss) = rx_ss.recv().expect("answered").0 else {
            panic!("expected an eval response");
        };
        assert!(
            ss.delay_ps > tt.delay_ps,
            "slow-slow must be slower than typical: {} vs {}",
            ss.delay_ps,
            tt.delay_ps
        );
    }

    #[test]
    fn invalid_requests_fail_with_400_without_poisoning_the_batch() {
        let store = NodeStore::default();
        let q = Batcher::new(16);
        let bad_tech = q
            .submit(ApiRequest::Eval(EvalRequest {
                tech: "7nm".to_owned(),
                length_mm: 5.0,
                count: None,
                wn_um: None,
                corner: None,
            }))
            .expect("queued");
        let bad_len = q.submit(eval_request(-1.0)).expect("queued");
        let bad_est = q.submit(yield_request(1, "monte-zuma")).expect("queued");
        let bad_corner = q
            .submit(ApiRequest::Eval(EvalRequest {
                tech: "65nm".to_owned(),
                length_mm: 5.0,
                count: None,
                wn_um: None,
                corner: Some("sf".to_owned()),
            }))
            .expect("queued");
        let good = q.submit(eval_request(5.0)).expect("queued");
        execute_batch(
            &store,
            q.take_batch(Duration::ZERO).expect("open"),
            &ServerStats::default(),
        );
        for rx in [bad_tech, bad_len, bad_est, bad_corner] {
            assert_eq!(rx.recv().expect("answered").0.status(), 400);
        }
        assert_eq!(good.recv().expect("answered").0.status(), 200);
    }
}
