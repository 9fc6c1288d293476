#include "sweep/sweep_engine.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>
#include <utility>

#include "check/invariant_auditor.h"
#include "obs/counters.h"
#include "parallel/thread_pool.h"
#include "util/check.h"

namespace grefar {
namespace sweep {

namespace {

AuditMode resolve_audit(AuditMode audit) {
  if (audit != AuditMode::kAuto) return audit;
#ifdef NDEBUG
  return AuditMode::kOff;
#else
  return AuditMode::kThrow;
#endif
}

}  // namespace

SweepEngine::SweepEngine(SweepOptions options) : options_(options) {}

SweepRunStats SweepEngine::run(
    const SweepSpec& spec,
    const std::function<void(std::size_t leg, SimulationEngine& engine)>& collect,
    const std::function<void(std::size_t leg, SimulationEngine& engine)>& pre_run) {
  spec.validate();
  GREFAR_CHECK(collect != nullptr);
  GREFAR_CHECK(options_.audit_stride >= 1);
  const auto run_start = std::chrono::steady_clock::now();
  const std::size_t num_legs = spec.num_legs();

  // Phase 1 (serial, leg order): resolve every plan and materialize every
  // unique scenario in first-reference order. Scenario construction is the
  // only step that consumes model RNG streams; doing it here means the
  // parallel phase below touches immutable artifacts only.
  std::vector<LegPlan> plans;
  plans.reserve(num_legs);
  std::vector<std::shared_ptr<const ScenarioArtifacts>> artifacts(num_legs);
  std::unordered_set<std::string> unique_keys;
  for (std::size_t leg = 0; leg < num_legs; ++leg) {
    const SweepPoint point = spec.point(leg);
    LegPlan plan = spec.plan(point);
    GREFAR_CHECK_MSG(plan.grefar.has_value() != (plan.make_scheduler != nullptr),
                     "leg " << leg
                            << " must set exactly one of grefar / make_scheduler");
    GREFAR_CHECK_MSG(!plan.scenario_key.empty(),
                     "leg " << leg << " has an empty scenario key");
    unique_keys.insert(plan.scenario_key);
    artifacts[leg] = cache_.get_or_build(plan.scenario_key, [&] {
      return materialize_scenario(spec.scenario(point), spec.horizon);
    });
    // Table models wrap modulo their length — running past the materialized
    // horizon would silently replay the prefix instead of fresh draws.
    GREFAR_CHECK_MSG(spec.horizon <= artifacts[leg]->horizon,
                     "scenario '" << plan.scenario_key << "' materialized over "
                                  << artifacts[leg]->horizon
                                  << " slots but the sweep runs " << spec.horizon);
    plans.push_back(std::move(plan));
  }

  // Phase 2: chunked parallel execution.
  const std::size_t jobs =
      options_.jobs == 0 ? ThreadPool::default_concurrency() : options_.jobs;
  const std::size_t chunk = std::max<std::size_t>(options_.chunk_size, 1);
  const std::size_t num_ranges = (num_legs + chunk - 1) / chunk;
  const std::size_t workers = std::max<std::size_t>(
      1, std::min(jobs, num_ranges));  // for_each_index_tasked's task count
  if (arenas_.size() != workers) {
    arenas_.clear();
    arenas_.resize(workers);
  }
  const AuditMode audit = resolve_audit(options_.audit);

  std::vector<double> leg_ms(num_legs, 0.0);
  for_each_index_tasked(
      num_legs, jobs, chunk,
      [&](std::size_t task, std::size_t leg) {
        WorkerArena& arena = arenas_[task];
        const LegPlan& plan = plans[leg];
        const ScenarioArtifacts& art = *artifacts[leg];

        std::shared_ptr<Scheduler> scheduler;
        if (plan.grefar.has_value()) {
          const bool reuse_sched = options_.reuse_engines &&
                                   arena.grefar != nullptr &&
                                   arena.grefar_config == art.config.get();
          if (reuse_sched) {
            arena.grefar->begin_run(*plan.grefar);
            obs::count("sweep.scheduler_reuses");
          } else {
            arena.grefar = std::make_shared<GreFarScheduler>(art.config, *plan.grefar);
            arena.grefar_config = art.config.get();
            obs::count("sweep.scheduler_builds");
          }
          scheduler = arena.grefar;
        } else {
          scheduler = plan.make_scheduler(art);
          GREFAR_CHECK_MSG(scheduler != nullptr,
                           "leg " << leg << " make_scheduler returned null");
        }

        if (options_.reuse_engines && arena.engine != nullptr) {
          arena.engine->reset(art.config, art.prices, art.availability,
                              art.arrivals, std::move(scheduler));
          obs::count("sweep.engine_reuses");
        } else {
          arena.engine = std::make_unique<SimulationEngine>(
              art.config, art.prices, art.availability, art.arrivals,
              std::move(scheduler));
          obs::count("sweep.engine_builds");
        }
        SimulationEngine& engine = *arena.engine;

        std::shared_ptr<AdmissionPolicy> admission =
            plan.make_admission != nullptr ? plan.make_admission(art)
                                           : art.admission;
        if (admission != nullptr) {
          engine.set_admission_policy(std::move(admission));
        }
        if (audit != AuditMode::kOff && leg % options_.audit_stride == 0) {
          InvariantAuditorOptions auditor_options;
          auditor_options.throw_on_violation = audit == AuditMode::kThrow;
          engine.set_inspector(
              std::make_shared<InvariantAuditor>(art.config, auditor_options));
        }
        if (pre_run != nullptr) pre_run(leg, engine);

        const auto t0 = std::chrono::steady_clock::now();
        engine.run(spec.horizon);
        leg_ms[leg] = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        collect(leg, engine);
      });

  stats_ = SweepRunStats{};
  stats_.legs = num_legs;
  stats_.unique_scenarios = unique_keys.size();
  stats_.workers = workers;
  stats_.chunk = chunk;
  stats_.leg_ms = std::move(leg_ms);
  stats_.total_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - run_start)
                        .count();
  return stats_;
}

std::vector<SweepLegResult> SweepEngine::run_collect(
    const SweepSpec& spec,
    const std::function<void(std::size_t leg, SimulationEngine& engine)>& pre_run) {
  std::vector<SweepLegResult> results(spec.num_legs());
  run(
      spec,
      [&results](std::size_t leg, SimulationEngine& engine) {
        results[leg].metrics = engine.metrics();
        results[leg].scheduler_name = engine.scheduler().name();
      },
      pre_run);
  for (std::size_t leg = 0; leg < results.size(); ++leg) {
    results[leg].leg_ms = stats_.leg_ms[leg];
  }
  return results;
}

}  // namespace sweep
}  // namespace grefar
