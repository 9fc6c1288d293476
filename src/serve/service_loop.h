// ServiceLoop: the long-lived serve mode — a three-stage pipeline that
// ingests slot t+1 while the engine solves slot t while the flush
// inspectors (TraceSink tracer, invariant auditor, ...) consume slot t-1.
//
//   [ingest thread]  --input queue-->  [solve: caller thread]
//        StreamingJobTraceSource            StagedTraceFeed + engine.step()
//        StreamingPriceTraceSource              |
//   [flush thread]  <--flush queue--        copied SlotRecord
//        flush inspectors, in attach order
//
// Stages are connected by bounded SPSC queues (serve/spsc_queue.h) with
// blocking backpressure, and slot buffers are pooled and recycled through
// the queues, so steady-state memory is O(queue_depth) regardless of trace
// length and the hot loop allocates nothing once capacities are warm.
//
// Determinism (DESIGN.md §11 contract, same argument as intra-slot
// sharding): the engine only ever steps on the caller thread, in slot
// order, on inputs that are pure functions of the trace bytes — the worker
// threads move bytes and copies around but never touch engine state. So
// decisions, energy and fairness series are bit-identical to a batch replay
// of the materialized trace at any queue depth, pipelined or serial; the
// flush queue is FIFO, so inspectors also observe slots in order. Counters
// follow the TaskRegistries ordered-merge discipline.
//
// Slot latency (solve-stage residence: staging + engine step + flush
// handoff, excluding time blocked waiting for input) is tracked with
// P2Quantile estimators and reported as p50/p99 — the serve-mode SLO metric.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "stats/p2_quantile.h"
#include "workload/admission.h"
#include "trace/stream_source.h"
#include "util/annotations.h"
#include "util/result.h"

namespace grefar {

class StagedTraceFeed;

struct ServiceLoopOptions {
  /// Capacity of each inter-stage queue (>= 1). Total buffered slots are
  /// O(queue_depth); deeper queues absorb burstier stage-time variance.
  std::size_t queue_depth = 4;
  /// False runs the same three stages serially on the caller thread —
  /// identical results, no overlap — the baseline bench/serve_latency
  /// compares against.
  bool pipelined = true;
  /// Stop after this many slots (0 = run to the end of the traces; the run
  /// ends at whichever of the two traces ends first).
  std::int64_t max_slots = 0;
  /// Optional admission policy screening each staged arrival batch before
  /// it enters the central queues (nullptr = admit everything). Consulted
  /// by the engine on the solve thread, so stateful policies need no
  /// synchronization.
  std::shared_ptr<AdmissionPolicy> admission;
  EngineOptions engine;
};

struct ServiceStats {
  std::int64_t slots = 0;
  double wall_seconds = 0.0;
  double slots_per_second = 0.0;
  /// Solve-stage residence per slot, milliseconds (NaN when no slots ran).
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;
  /// Times the solve stage waited for ingest (input queue empty).
  std::uint64_t ingest_stalls = 0;
  /// Total time the solve stage spent blocked on the input queue, ms (0 in
  /// serial mode, which has no queue: there ingest runs inline).
  double ingest_wait_ms = 0.0;
  /// Times any stage blocked on a full queue or an exhausted buffer pool.
  std::uint64_t backpressure_blocks = 0;
  std::size_t input_queue_high_water = 0;
  std::size_t flush_queue_high_water = 0;
};

class ServiceLoop {
 public:
  /// Takes ownership of the streaming sources. The job source must have
  /// config->job_types.size() types and the price source
  /// config->data_centers.size() DCs.
  ServiceLoop(std::shared_ptr<const ClusterConfig> config,
              std::shared_ptr<const AvailabilityModel> availability,
              std::shared_ptr<Scheduler> scheduler,
              std::unique_ptr<StreamingJobTraceSource> jobs,
              std::unique_ptr<StreamingPriceTraceSource> prices,
              ServiceLoopOptions options = {});
  ~ServiceLoop();

  ServiceLoop(const ServiceLoop&) = delete;
  ServiceLoop& operator=(const ServiceLoop&) = delete;

  /// Registers an inspector to run in the flush stage, in registration
  /// order, over a copied SlotRecord (safe off-thread: no pointers into
  /// engine scratch). Call before run(). An inspector throw (e.g. the
  /// auditor's strict mode) surfaces as run()'s error.
  void add_flush_inspector(std::shared_ptr<SlotInspector> inspector);

  /// Runs the loop to completion (trace end, max_slots, or first error).
  /// Single-shot: a ServiceLoop instance runs once.
  Result<ServiceStats> run();

  /// The engine's accumulated metrics (valid after run(); bit-identical to
  /// a batch replay of the same trace).
  const SimMetrics& metrics() const;
  std::int64_t slots_processed() const;

 private:
  struct SlotInput {
    std::int64_t slot = 0;
    std::vector<std::int64_t> arrivals;    // counts mode (v1 traces)
    std::vector<ArrivalBatch> batches;     // valued mode (v2 traces)
    std::vector<double> prices;
  };
  struct FlushCopy;          // deep copy of one SlotRecord (service_loop.cc)
  class PipelineInspector;   // engine hook that fills FlushCopy buffers
  struct Pipeline;           // queues + pools + worker state (pipelined mode)

  /// Pulls the next slot from both sources into `in`. Returns false at
  /// clean end of stream.
  Result<bool> ingest_one(SlotInput& in);

  /// Stages `in` and steps the engine exactly once. The flush handoff
  /// happens inside the step via the attached PipelineInspector.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void solve_slot(const SlotInput& in);

  /// Runs the flush inspectors over one copied record; returns their error
  /// (a throwing inspector is converted, not propagated).
  Status flush_record(const FlushCopy& copy);

  Result<ServiceStats> run_serial();
  Result<ServiceStats> run_pipelined();

  std::shared_ptr<const ClusterConfig> config_;
  std::unique_ptr<StreamingJobTraceSource> jobs_;
  std::unique_ptr<StreamingPriceTraceSource> prices_;
  ServiceLoopOptions options_;
  /// Fixed at construction from the job trace's detected schema: valued
  /// traces flow through the feed as annotated batches (v2), plain traces
  /// as dense counts (v1) — so v1 serve runs stay byte-identical to before.
  bool valued_ = false;
  std::unique_ptr<StagedTraceFeed> feed_;
  std::unique_ptr<SimulationEngine> engine_;
  std::shared_ptr<PipelineInspector> inspector_;
  std::vector<std::shared_ptr<SlotInspector>> flush_inspectors_;
  P2Quantile latency_p50_{0.50};
  P2Quantile latency_p99_{0.99};
  double latency_max_ms_ = 0.0;
  std::int64_t slots_ = 0;
  bool ran_ = false;
};

}  // namespace grefar
