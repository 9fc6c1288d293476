// ServiceLoop: the long-lived serve mode — a three-stage pipeline that
// ingests slot t+1 while the engine solves slot t while the flush
// inspectors (TraceSink tracer, invariant auditor, ...) consume slot t-1.
//
//   [ingest thread]  --input queue-->  [solve: caller thread]
//        StreamingJobTraceSource            engine.step(SlotInput)
//        StreamingPriceTraceSource              |
//        (fill a pooled SlotInput)              |
//   [flush thread]  <--flush queue--        copied SlotRecord
//        flush inspectors, in attach order
//
// Ingest parses each slot straight into a pooled engine SlotInput (counts
// for v1 traces, annotated batches for v2) and the solve stage pushes it
// into the engine's one per-slot entry — the same step(in) a batch run
// drives from its models. Stages are connected by bounded SPSC queues
// (serve/spsc_queue.h) with blocking backpressure, and slot buffers are
// pooled and recycled through the queues, so steady-state memory is
// O(queue_depth) regardless of trace length and the hot loop allocates
// nothing once capacities are warm.
//
// Determinism (DESIGN.md §14): the engine only ever steps on the caller
// thread, in slot order, on inputs that are pure functions of the trace
// bytes — the worker threads move bytes and copies around but never touch
// engine state. So decisions, energy and fairness series are bit-identical
// to a batch replay of the materialized trace at any queue depth, pipelined
// or serial; the flush queue is FIFO, so inspectors also observe slots in
// order. Counters follow the TaskRegistries ordered-merge discipline.
//
// Slot latency (solve-stage residence: engine step + flush handoff,
// excluding time blocked waiting for input) is tracked with
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

struct ServiceLoopOptions {
  /// Capacity of each inter-stage queue (>= 1). Total buffered slots are
  /// O(queue_depth); deeper queues absorb burstier stage-time variance.
  std::size_t queue_depth = 4;
  /// False runs the same three stages serially on the caller thread —
  /// identical results, no overlap — the baseline bench/serve_latency
  /// compares against. Serial flushes read the engine's own SlotRecord
  /// after each step; only the pipelined loop copies it.
  bool pipelined = true;
  /// Optional admission policy screening each ingested arrival batch before
  /// it enters the central queues (nullptr = admit everything). Consulted
  /// by the engine on the solve thread, so stateful policies need no
  /// synchronization.
  std::shared_ptr<AdmissionPolicy> admission;
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
  /// order: pipelined over a copied SlotRecord (safe off-thread: no
  /// pointers into engine scratch), serial over the engine's own record
  /// between two steps. Call before run(). After the last slot, run() calls
  /// each inspector's finish() (a TracingInspector flushes its sink there).
  /// An inspector throw (e.g. the auditor's strict mode, a failed slot-log
  /// write) surfaces as run()'s error.
  void add_flush_inspector(std::shared_ptr<SlotInspector> inspector);

  /// Runs the loop to completion (the end of the shorter trace, or the
  /// first error).
  /// An ingest, solve-stage (engine or scheduler throw) or flush error ends
  /// the run in both modes and is returned naming its slot; the worker
  /// threads are shut down first. Single-shot: a ServiceLoop instance runs
  /// once.
  Result<ServiceStats> run();

  /// The engine's accumulated metrics (valid after run(); bit-identical to
  /// a batch replay of the same trace).
  const SimMetrics& metrics() const;
  std::int64_t slots_processed() const;

 private:
  struct FlushCopy;          // deep copy of one SlotRecord (service_loop.cc)
  class PipelineInspector;   // engine hook that hands records to the flush

  /// Pulls the next slot from both sources into `in`. Returns false at
  /// clean end of stream.
  Result<bool> ingest_one(SlotInput& in);

  /// Steps the engine exactly once on `in`. The flush handoff happens
  /// inside the step via the attached PipelineInspector. A throw from the
  /// engine or the scheduler is converted into an error naming the slot.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  Status solve_slot(const SlotInput& in);

  /// Runs the flush inspectors over one record (a pipelined loop's copy,
  /// or the serial loop's view of the engine's own); returns their error
  /// (a throwing inspector is converted, not propagated).
  Status flush_record(const SlotRecord& record);

  /// Calls finish() on the flush inspectors once every record has gone
  /// through them; returns the first throw as an error.
  Status finish_flush_inspectors();

  Result<ServiceStats> run_serial();
  Result<ServiceStats> run_pipelined();

  std::shared_ptr<const ClusterConfig> config_;
  std::unique_ptr<StreamingJobTraceSource> jobs_;
  std::unique_ptr<StreamingPriceTraceSource> prices_;
  ServiceLoopOptions options_;
  /// Fixed at construction from the job trace's detected schema: valued
  /// traces are ingested as annotated batches (v2), plain traces as dense
  /// counts (v1) — so v1 serve runs expand counts exactly as a batch run.
  bool valued_ = false;
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
