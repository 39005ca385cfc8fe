//! The planner's pruned, probe-then-confirm search driver.
//!
//! # Search order
//!
//! Resource levels — total replica counts — are walked cheapest
//! first, so the first level with a confirmed-feasible candidate *is*
//! the minimum-resource answer and no larger cluster is ever probed.
//! Within a level:
//!
//! 1. every mix of that total is bounded analytically
//!    ([`super::bound`]); a mix whose optimistic bound misses the
//!    target is pruned together with all of its scheduler × admission
//!    variants, before any DES run;
//! 2. the survivors expand into concrete candidates, ranked
//!    best-bound-first (ties broken by the total candidate order:
//!    counts, then scheduler, then admission — all indices into the
//!    caller's `PlanSpace`, so the schedule is a pure function of the
//!    lattice);
//! 3. candidates are probed one by one in schedule order with short
//!    capped-request DES runs; the first probe that clears the target
//!    is re-run at full length, and a confirmed run ends the search.
//!    A probe-feasible candidate that *fails* confirmation is skipped
//!    deterministically and the scan continues.
//!
//! # Cut runs
//!
//! A probe's report feeds exactly two comparisons — `attainment >=
//! target` (confirm it?) and `attainment > best_probe` (the new best
//! effort?) — and a confirmation's feeds one, `attainment >= target`.
//! Every run offers all `n` of its arrivals, so a run that has
//! recorded `m` certain misses (rejections, expiries, SLO violations)
//! ends at an attainment of at most `(n - m) / n`, and that bound only
//! falls as `m` grows (integer-to-`f64` conversion and division are
//! both monotone). Once the bound fails both comparisons the run's
//! outcome is settled, so [`miss_budget`] hands the cluster engine
//! the largest `m` at which it is not yet settled and the engine cuts
//! the run one miss later. A cut probe still counts as evaluated; a
//! cut confirmation is a failed one. The first probe sets
//! `best_probe` whatever it scores, so it — and the fallback's own
//! probe and confirmation, whose reports are returned — always run to
//! the end. Every counter and report is byte-identical to the uncut
//! scan (pinned by the oracle in this module's tests).
//!
//! # Determinism
//!
//! The search runs on the calling thread, and every probe is a pure
//! function of its candidate: it replays the identical arrival prefix
//! from the traffic seed, and every template's model is calibrated
//! once before the first probe, so probes and confirmations only read
//! it.
//!
//! # Fallback
//!
//! When no candidate confirms — the target is unreachable inside the
//! lattice — the planner still returns a deterministic best effort:
//! the highest-probe-attainment candidate seen (first in schedule
//! order on ties), or, if the bound pruned everything, the
//! highest-bound mix under the first scheduler/admission variant. The
//! report marks the result infeasible rather than failing the search.

// lint: allow(wall-clock-in-sim): SearchStats.wall_ms reports real search cost, never simulated time
use std::time::Instant;

use super::bound::{bound_over, TrafficRealization};
use super::{
    Candidate, GroupTemplate, PlanReport, PlanSpace, PlanTarget, SearchBudget, SearchStats,
    TrafficSpec,
};
use crate::error::HelmError;
use crate::exec::RecordMode;
use crate::online::{
    run_cluster_engine, CalibrationCache, ClusterReport, ClusterSpec, PoissonArrivals, ServiceModel,
};
use crate::server::Server;
use workload::WorkloadSpec;

/// Every replica-count vector of length `templates` summing to
/// `total`, in lexicographic order — the deterministic mix
/// enumeration one resource level schedules.
pub(super) fn mixes_of(total: usize, templates: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = vec![0usize; templates];
    fill(&mut out, &mut current, 0, total);
    out
}

fn fill(out: &mut Vec<Vec<usize>>, current: &mut Vec<usize>, idx: usize, remaining: usize) {
    if idx + 1 == current.len() {
        current[idx] = remaining;
        out.push(current.clone());
        current[idx] = 0;
        return;
    }
    for take in 0..=remaining {
        current[idx] = take;
        fill(out, current, idx + 1, remaining - take);
    }
    current[idx] = 0;
}

/// The miss budget of a run over `n` requests whose outcome stops
/// mattering once its best reachable attainment `(n - m) / n` is
/// `settled`: the largest miss count `m` at which it is not yet
/// settled (`u64::MAX` when no `m <= n` settles it). `settled` must be
/// monotone — once true for some bound, true for every lower one —
/// so a binary search over `m` finds the threshold. When even zero
/// misses settle the run the budget is zero: a run with no miss
/// returns its report, which the settled outcome ignores.
fn miss_budget(n: usize, settled: impl Fn(f64) -> bool) -> u64 {
    let reachable = |m: usize| (n - m) as f64 / n as f64;
    if !settled(reachable(n)) {
        return u64::MAX;
    }
    // Smallest `m` in `0..=n` whose bound is settled.
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if settled(reachable(mid)) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    (lo as u64).saturating_sub(1)
}

/// One schedulable candidate: its mix, the analytical bound it
/// inherited from the mix, and its variant indices into the plan
/// space (the tie-break key).
struct Ranked {
    counts: Vec<usize>,
    bound: f64,
    scheduler: usize,
    admission: usize,
}

/// One capacity-planning search.
pub(super) struct PlanEngine<'a> {
    server: &'a Server,
    workload: &'a WorkloadSpec,
    traffic: &'a TrafficSpec,
    target: PlanTarget,
    space: &'a PlanSpace,
    budget: SearchBudget,
}

impl<'a> PlanEngine<'a> {
    pub(super) fn new(
        server: &'a Server,
        workload: &'a WorkloadSpec,
        traffic: &'a TrafficSpec,
        target: PlanTarget,
        space: &'a PlanSpace,
        budget: SearchBudget,
    ) -> Self {
        PlanEngine {
            server,
            workload,
            traffic,
            target,
            space,
            budget,
        }
    }

    /// Builds the candidate from its schedule entry.
    fn candidate(&self, ranked: &Ranked) -> Candidate {
        Candidate {
            counts: ranked.counts.clone(),
            scheduler: self.space.schedulers[ranked.scheduler],
            admission: self.space.admissions[ranked.admission],
        }
    }

    /// Runs one DES simulation of `ranked`'s cluster over the first
    /// `num_requests` arrivals of the traffic sequence, cut — `None` —
    /// past `budget` certain misses. Pure in the candidate: arrivals
    /// restart from the traffic seed, and every template's model was
    /// calibrated before the first probe.
    fn simulate(
        &self,
        models: &[ServiceModel],
        ranked: &Ranked,
        num_requests: usize,
        budget: u64,
    ) -> Result<Option<ClusterReport>, HelmError> {
        let groups: Vec<(ServiceModel, usize)> = models
            .iter()
            .zip(&ranked.counts)
            .filter(|(_, &count)| count > 0)
            .map(|(model, &count)| (model.clone(), count))
            .collect();
        let spec = ClusterSpec::default()
            .with_scheduler(self.space.schedulers[ranked.scheduler])
            .with_admission(self.space.admissions[ranked.admission])
            .with_deadlines(self.traffic.deadlines)
            .with_continuous(self.space.continuous)
            .with_granularity(self.space.granularity)
            .with_record(RecordMode::Aggregate);
        let mut arrivals = PoissonArrivals::new(self.traffic.lambda, self.traffic.seed);
        run_cluster_engine(
            groups,
            self.workload,
            &mut arrivals,
            num_requests,
            spec,
            None,
            budget,
        )
    }

    /// [`Self::simulate`] run to the end.
    fn simulate_full(
        &self,
        models: &[ServiceModel],
        ranked: &Ranked,
        num_requests: usize,
    ) -> Result<ClusterReport, HelmError> {
        Ok(self
            .simulate(models, ranked, num_requests, u64::MAX)?
            .unwrap_or_else(|| unreachable!("an unbudgeted run is never cut")))
    }

    pub(super) fn run(self) -> Result<PlanReport, HelmError> {
        let started = Instant::now(); // lint: allow(wall-clock-in-sim): feeds SearchStats.wall_ms run metadata only
        let probe_requests = self
            .space
            .probe_requests
            .max(1)
            .min(self.traffic.num_requests);
        // One service model per template, calibrated before the first
        // probe: two pipeline runs per distinct template for the
        // entire search, and every run takes its models from here.
        let mut cache = CalibrationCache::new();
        let models = self
            .space
            .templates
            .iter()
            .map(|t| {
                let server = self.server.reconfigured(t.placement, t.batch)?;
                cache.get_or_calibrate(&server, self.workload)
            })
            .collect::<Result<Vec<ServiceModel>, _>>()?;
        let realization = TrafficRealization::realize(self.traffic);
        let target = self.target.attainment;
        // A failed confirmation is discarded, so one is settled as
        // soon as it cannot reach the target.
        let confirm_budget = miss_budget(self.traffic.num_requests, |reachable| reachable < target);

        let mut stats = SearchStats::default();
        let mut candidates_total = 0usize;
        let mut confirmations = 0usize;
        let mut confirm_wall_ms = 0.0f64;
        // Best probe attainment seen, for the infeasible fallback
        // (strict improvement keeps the earliest on ties — the
        // schedule order is deterministic, so this is too).
        let mut best_probe: Option<(Candidate, f64)> = None;
        // Best analytical bound seen, for the everything-pruned
        // fallback.
        let mut best_bound: Option<(f64, Vec<usize>)> = None;
        let mut outcome: Option<(Candidate, f64, ClusterReport)> = None;
        let variants = self.space.schedulers.len() * self.space.admissions.len();

        'levels: for total in 1..=self.space.max_replicas {
            // Bound every mix of this resource level; the bound is
            // scheduler/admission-independent, so one pruned mix
            // removes all of its variants at once.
            let mut survivors: Vec<(Vec<usize>, f64)> = Vec::new();
            for counts in mixes_of(total, self.space.templates.len()) {
                candidates_total += variants;
                let groups: Vec<(&ServiceModel, usize)> =
                    models.iter().zip(counts.iter().copied()).collect();
                let bound = bound_over(&realization, &groups, self.space.continuous);
                if best_bound.as_ref().is_none_or(|(b, _)| bound > *b) {
                    best_bound = Some((bound, counts.clone()));
                }
                if bound < self.target.attainment {
                    stats.pruned += variants;
                } else {
                    survivors.push((counts, bound));
                }
            }
            let mut ranked: Vec<Ranked> = Vec::with_capacity(survivors.len() * variants);
            for (counts, bound) in &survivors {
                for scheduler in 0..self.space.schedulers.len() {
                    for admission in 0..self.space.admissions.len() {
                        ranked.push(Ranked {
                            counts: counts.clone(),
                            bound: *bound,
                            scheduler,
                            admission,
                        });
                    }
                }
            }
            ranked.sort_by(|a, b| {
                b.bound
                    .total_cmp(&a.bound)
                    .then_with(|| a.counts.cmp(&b.counts))
                    .then_with(|| a.scheduler.cmp(&b.scheduler))
                    .then_with(|| a.admission.cmp(&b.admission))
            });
            for ranked_candidate in &ranked {
                if self.budget.max_evals > 0 && stats.evaluated >= self.budget.max_evals {
                    break 'levels;
                }
                // Settled once the probe can neither confirm nor beat
                // the best probe (strict improvement: a tie loses).
                let probe_budget = match &best_probe {
                    None => u64::MAX,
                    Some((_, best)) => miss_budget(probe_requests, |reachable| {
                        reachable < target && reachable <= *best
                    }),
                };
                let report =
                    self.simulate(&models, ranked_candidate, probe_requests, probe_budget)?;
                stats.evaluated += 1;
                let Some(report) = report else { continue };
                let attainment = report.slo_attainment();
                if best_probe.as_ref().is_none_or(|(_, b)| attainment > *b) {
                    best_probe = Some((self.candidate(ranked_candidate), attainment));
                }
                if attainment >= target {
                    confirmations += 1;
                    // lint: allow(wall-clock-in-sim): feeds PlanReport.confirm_wall_ms run metadata only
                    let confirm_started = Instant::now();
                    let confirmed = self.simulate(
                        &models,
                        ranked_candidate,
                        self.traffic.num_requests,
                        confirm_budget,
                    )?;
                    confirm_wall_ms += confirm_started.elapsed().as_secs_f64() * 1000.0;
                    if let Some(confirmed) = confirmed.filter(|run| run.slo_attainment() >= target)
                    {
                        outcome = Some((self.candidate(ranked_candidate), attainment, confirmed));
                        break 'levels;
                    }
                    // Probe-feasible but not confirmed: the short
                    // prefix was too optimistic. Skip it and keep
                    // scanning — deterministically, since the
                    // schedule and this rejection are both pure
                    // in the lattice.
                }
            }
        }

        let (chosen, probe_attainment, confirmed) = match outcome {
            Some(found) => found,
            None => {
                // Best effort: the strongest candidate seen, confirmed
                // at full length so the report is honest about what
                // the lattice actually delivers.
                let (candidate, probe_attainment) = match best_probe {
                    Some(best) => best,
                    None => {
                        let counts = best_bound
                            .map(|(_, counts)| counts)
                            .unwrap_or_else(|| unreachable!("plan() validates a nonempty lattice"));
                        let ranked = Ranked {
                            counts,
                            bound: 0.0,
                            scheduler: 0,
                            admission: 0,
                        };
                        let report = self.simulate_full(&models, &ranked, probe_requests)?;
                        stats.evaluated += 1;
                        (self.candidate(&ranked), report.slo_attainment())
                    }
                };
                let ranked = Ranked {
                    counts: candidate.counts.clone(),
                    bound: 0.0,
                    scheduler: self
                        .space
                        .schedulers
                        .iter()
                        .position(|s| *s == candidate.scheduler)
                        .unwrap_or(0),
                    admission: self
                        .space
                        .admissions
                        .iter()
                        .position(|a| *a == candidate.admission)
                        .unwrap_or(0),
                };
                confirmations += 1;
                // lint: allow(wall-clock-in-sim): feeds PlanReport.confirm_wall_ms run metadata only
                let confirm_started = Instant::now();
                let confirmed = self.simulate_full(&models, &ranked, self.traffic.num_requests)?;
                confirm_wall_ms += confirm_started.elapsed().as_secs_f64() * 1000.0;
                (candidate, probe_attainment, confirmed)
            }
        };

        let attainment = confirmed.slo_attainment();
        let groups: Vec<(GroupTemplate, usize)> = self
            .space
            .templates
            .iter()
            .zip(&chosen.counts)
            .filter(|(_, &count)| count > 0)
            .map(|(template, &count)| (*template, count))
            .collect();
        stats.wall_ms = started.elapsed().as_secs_f64() * 1000.0;
        Ok(PlanReport {
            feasible: attainment >= self.target.attainment,
            chosen,
            groups,
            probe_attainment,
            attainment,
            attribution: confirmed.attribution,
            confirmed,
            stats,
            candidates: candidates_total,
            confirmations,
            calibrations: cache.calibrations(),
            confirm_wall_ms,
            probe_requests,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{
        run_cluster_mix_cached, AdmissionPolicy, DeadlineSpec, SchedulerKind, StepGranularity,
    };
    use crate::placement::PlacementKind;
    use crate::policy::Policy;
    use crate::system::SystemConfig;
    use hetmem::HostMemoryConfig;
    use llm::ModelConfig;
    use simcore::rng::SimRng;
    use simcore::time::SimDuration;

    fn server(placement: PlacementKind, batch: u32) -> Server {
        let model = ModelConfig::opt_1_3b();
        let memory = HostMemoryConfig::dram();
        let policy = Policy::paper_default(&model, memory.kind())
            .with_placement(placement)
            .with_batch_size(batch);
        Server::new(SystemConfig::paper_platform(memory), model, policy).unwrap()
    }

    /// Reference DES run: the public cluster entry over the template
    /// servers, run to the end.
    fn oracle_simulate(
        engine: &PlanEngine<'_>,
        servers: &[Server],
        ranked: &Ranked,
        num_requests: usize,
        cache: &mut CalibrationCache,
    ) -> ClusterReport {
        let groups: Vec<(&Server, usize)> = servers
            .iter()
            .zip(&ranked.counts)
            .filter(|(_, &count)| count > 0)
            .map(|(server, &count)| (server, count))
            .collect();
        let spec = ClusterSpec::default()
            .with_scheduler(engine.space.schedulers[ranked.scheduler])
            .with_admission(engine.space.admissions[ranked.admission])
            .with_deadlines(engine.traffic.deadlines)
            .with_continuous(engine.space.continuous)
            .with_granularity(engine.space.granularity)
            .with_record(RecordMode::Aggregate);
        let mut arrivals = PoissonArrivals::new(engine.traffic.lambda, engine.traffic.seed);
        run_cluster_mix_cached(
            &groups,
            engine.workload,
            &mut arrivals,
            num_requests,
            spec,
            cache,
        )
        .unwrap()
    }

    /// Reference search: the probe-then-confirm scan with every probe
    /// and confirmation run to the end — no miss budget — and every
    /// run's models taken from the calibration cache.
    fn oracle_plan(engine: &PlanEngine<'_>) -> PlanReport {
        let probe_requests = engine
            .space
            .probe_requests
            .max(1)
            .min(engine.traffic.num_requests);
        let servers: Vec<Server> = engine
            .space
            .templates
            .iter()
            .map(|t| engine.server.reconfigured(t.placement, t.batch).unwrap())
            .collect();
        let mut cache = CalibrationCache::new();
        let models: Vec<ServiceModel> = servers
            .iter()
            .map(|s| cache.get_or_calibrate(s, engine.workload).unwrap())
            .collect();
        let realization = TrafficRealization::realize(engine.traffic);
        let target = engine.target.attainment;
        let mut stats = SearchStats::default();
        let mut candidates_total = 0usize;
        let mut confirmations = 0usize;
        let mut best_probe: Option<(Candidate, f64)> = None;
        let mut best_bound: Option<(f64, Vec<usize>)> = None;
        let mut outcome: Option<(Candidate, f64, ClusterReport)> = None;
        let variants = engine.space.schedulers.len() * engine.space.admissions.len();
        'levels: for total in 1..=engine.space.max_replicas {
            let mut ranked: Vec<Ranked> = Vec::new();
            for counts in mixes_of(total, engine.space.templates.len()) {
                candidates_total += variants;
                let groups: Vec<(&ServiceModel, usize)> =
                    models.iter().zip(counts.iter().copied()).collect();
                let bound = bound_over(&realization, &groups, engine.space.continuous);
                if best_bound.as_ref().is_none_or(|(b, _)| bound > *b) {
                    best_bound = Some((bound, counts.clone()));
                }
                if bound < target {
                    stats.pruned += variants;
                    continue;
                }
                for scheduler in 0..engine.space.schedulers.len() {
                    for admission in 0..engine.space.admissions.len() {
                        ranked.push(Ranked {
                            counts: counts.clone(),
                            bound,
                            scheduler,
                            admission,
                        });
                    }
                }
            }
            ranked.sort_by(|a, b| {
                b.bound
                    .total_cmp(&a.bound)
                    .then_with(|| a.counts.cmp(&b.counts))
                    .then_with(|| a.scheduler.cmp(&b.scheduler))
                    .then_with(|| a.admission.cmp(&b.admission))
            });
            for candidate in &ranked {
                if engine.budget.max_evals > 0 && stats.evaluated >= engine.budget.max_evals {
                    break 'levels;
                }
                let report =
                    oracle_simulate(engine, &servers, candidate, probe_requests, &mut cache);
                stats.evaluated += 1;
                let attainment = report.slo_attainment();
                if best_probe.as_ref().is_none_or(|(_, b)| attainment > *b) {
                    best_probe = Some((engine.candidate(candidate), attainment));
                }
                if attainment >= target {
                    confirmations += 1;
                    let confirmed = oracle_simulate(
                        engine,
                        &servers,
                        candidate,
                        engine.traffic.num_requests,
                        &mut cache,
                    );
                    if confirmed.slo_attainment() >= target {
                        outcome = Some((engine.candidate(candidate), attainment, confirmed));
                        break 'levels;
                    }
                }
            }
        }
        let (chosen, probe_attainment, confirmed) = outcome.unwrap_or_else(|| {
            let (candidate, probe_attainment) = best_probe.unwrap_or_else(|| {
                let ranked = Ranked {
                    counts: best_bound.unwrap().1,
                    bound: 0.0,
                    scheduler: 0,
                    admission: 0,
                };
                let report = oracle_simulate(engine, &servers, &ranked, probe_requests, &mut cache);
                stats.evaluated += 1;
                (engine.candidate(&ranked), report.slo_attainment())
            });
            let ranked = Ranked {
                counts: candidate.counts.clone(),
                bound: 0.0,
                scheduler: engine
                    .space
                    .schedulers
                    .iter()
                    .position(|s| *s == candidate.scheduler)
                    .unwrap(),
                admission: engine
                    .space
                    .admissions
                    .iter()
                    .position(|a| *a == candidate.admission)
                    .unwrap(),
            };
            confirmations += 1;
            let confirmed = oracle_simulate(
                engine,
                &servers,
                &ranked,
                engine.traffic.num_requests,
                &mut cache,
            );
            (candidate, probe_attainment, confirmed)
        });
        let attainment = confirmed.slo_attainment();
        let groups = engine
            .space
            .templates
            .iter()
            .zip(&chosen.counts)
            .filter(|(_, &count)| count > 0)
            .map(|(template, &count)| (*template, count))
            .collect();
        PlanReport {
            feasible: attainment >= target,
            chosen,
            groups,
            probe_attainment,
            attainment,
            attribution: confirmed.attribution,
            confirmed,
            stats,
            candidates: candidates_total,
            confirmations,
            calibrations: cache.calibrations(),
            confirm_wall_ms: 0.0,
            probe_requests,
        }
    }

    /// A plan report's Debug rendering with the wall clocks zeroed.
    fn fingerprint(report: &PlanReport) -> String {
        let mut clone = report.clone();
        clone.stats.wall_ms = 0.0;
        clone.confirm_wall_ms = 0.0;
        format!("{clone:?}")
    }

    #[test]
    fn miss_budget_is_the_last_unsettled_miss_count() {
        // Settled below 0.9: 10 requests reach 0.9 with one miss, so
        // the budget is one miss and the second settles the run.
        assert_eq!(miss_budget(10, |reachable| reachable < 0.9), 1);
        // Nothing settles: the run is never cut.
        assert_eq!(miss_budget(10, |_| false), u64::MAX);
        // Even a clean run is settled: cut at the first miss.
        assert_eq!(miss_budget(10, |_| true), 0);
        // Strict-improvement tie: a probe that can at best tie the
        // best probe (0.5) cannot replace it, so two misses in four
        // settle it.
        let (target, best) = (0.8, 0.5);
        assert_eq!(
            miss_budget(4, |reachable| reachable < target && reachable <= best),
            1
        );
        for n in 1..=64usize {
            for target in [0.0, 0.3, 0.5, 0.75, 0.9, 0.97, 1.0] {
                let budget = miss_budget(n, |reachable| reachable < target);
                let settled = |m: usize| ((n - m) as f64 / n as f64) < target;
                match usize::try_from(budget) {
                    Ok(m) if m <= n => {
                        assert!(!settled(m), "n {n}, target {target}: budget {m} settled");
                        assert!(settled(m + 1), "n {n}, target {target}: {m} + 1 unsettled");
                    }
                    _ => assert!(!settled(n), "n {n}, target {target}: never cut"),
                }
            }
        }
    }

    #[test]
    fn cut_search_matches_the_uncut_oracle() {
        let mut rng = SimRng::from_seed_and_stream(16, "planner-cut-oracle");
        let workload = WorkloadSpec::new(32, 3, 1);
        let base = server(PlacementKind::Baseline, 1);
        let templates = vec![
            GroupTemplate::new(PlacementKind::Helm, 2),
            GroupTemplate::new(PlacementKind::AllCpu, 4),
            GroupTemplate::new(PlacementKind::Baseline, 1),
        ];
        // Traffic scales with the slowest template's lone-request
        // service time, so queues build and deadlines bite.
        let unit = templates
            .iter()
            .map(|t| {
                let s = base.reconfigured(t.placement, t.batch).unwrap();
                ServiceModel::calibrate(&s, &workload)
                    .unwrap()
                    .total(1)
                    .as_secs()
            })
            .fold(0.0, f64::max);
        let mut feasible = [0usize; 2];
        for case in 0..24 {
            let grid = |rng: &mut SimRng, lo: f64, hi: f64| {
                lo + (hi - lo) * rng.uniform_usize(0, 100) as f64 / 100.0
            };
            let lambda = grid(&mut rng, 0.5, 6.0) / unit;
            let tight = SimDuration::from_secs(unit * grid(&mut rng, 0.5, 4.0));
            let loose = SimDuration::from_secs(unit * grid(&mut rng, 4.0, 12.0));
            let deadlines = match rng.uniform_usize(0, 2) {
                0 => DeadlineSpec::Fixed(tight),
                _ => DeadlineSpec::Bimodal {
                    tight,
                    loose,
                    tight_fraction: grid(&mut rng, 0.0, 1.0),
                    seed: case,
                },
            };
            let traffic =
                TrafficSpec::new(lambda, rng.uniform_usize(20, 60), case).with_deadlines(deadlines);
            // 1.0 is often unreachable, which exercises the best-probe
            // fallback; every run is judged against the same oracle.
            let target =
                PlanTarget::attainment([0.5, 0.8, 0.9, 0.97, 1.0][rng.uniform_usize(0, 4)]);
            let space = PlanSpace {
                templates: templates.clone(),
                max_replicas: rng.uniform_usize(1, 4),
                schedulers: vec![
                    SchedulerKind::JoinShortestQueue,
                    SchedulerKind::LeastFinishTime,
                    SchedulerKind::DeadlineAware,
                ],
                admissions: vec![
                    AdmissionPolicy::AcceptAll,
                    AdmissionPolicy::DeadlineFeasible,
                ],
                continuous: rng.uniform_usize(0, 1) == 1,
                granularity: if rng.uniform_usize(0, 1) == 1 {
                    StepGranularity::PerStep
                } else {
                    StepGranularity::Coalesced
                },
                probe_requests: rng.uniform_usize(5, 30),
            };
            let budget = SearchBudget {
                max_evals: [0, 0, 3][rng.uniform_usize(0, 2)],
                ..SearchBudget::default()
            };
            let engine = PlanEngine::new(&base, &workload, &traffic, target, &space, budget);
            let want = fingerprint(&oracle_plan(&engine));
            let got = engine.run().unwrap();
            feasible[usize::from(got.feasible)] += 1;
            assert_eq!(fingerprint(&got), want, "case {case}");
        }
        // The draws must reach both the confirmed and the fallback
        // outcome.
        assert!(feasible.iter().all(|&n| n > 0), "{feasible:?}");
    }
}
