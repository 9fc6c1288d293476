// Shared helpers for the figure/table reproduction binaries.
//
// Every bench binary: builds the paper scenario, runs one or more schedulers
// through the job-level engine, prints the paper's y-axes as ASCII charts
// and summary tables, and (with --csv-dir) drops the raw series as CSV for
// external plotting.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "obs/profile.h"
#include "obs/trace_sink.h"
#include "scenario/paper_scenario.h"
#include "sim/engine.h"
#include "stats/time_series.h"
#include "sweep/sweep_engine.h"
#include "util/cli.h"

namespace grefar::bench {

/// Registers the options shared by all experiment binaries (including
/// --jobs for the sweep binaries; see run_sweep_spec, and the observability
/// flags --trace/--counters/--profile; see ObsSession).
void add_common_options(CliParser& cli, const std::string& default_horizon = "2000");

/// One binary's observability session, driven by the common flags:
///
///   --trace=<path>  write one JSONL slot record per simulated slot (the
///                   tracer attaches to leg 0 of a sweep / the reference
///                   engine of a comparison run),
///   --counters      collect solver/engine counters and print them as a
///                   JSON block at exit,
///   --profile       collect per-phase wall times and print the breakdown
///                   table at exit.
///
/// Constructing the session installs the counter/profile registries on the
/// calling thread (the parallel loop gives worker threads private ones and
/// merges them at the join, so counter totals are identical at any --jobs
/// value).
/// With none of the flags given every member stays null and the run is
/// untouched. finish() prints the requested reports and throws
/// ContractViolation if the --trace file cannot be written; the destructor
/// calls it as a fallback and reports such a failure on stderr.
class ObsSession {
 public:
  explicit ObsSession(const CliParser& cli);
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  bool tracing() const { return sink_ != nullptr; }
  bool counting() const { return counters_ != nullptr; }
  bool profiling() const { return profile_ != nullptr; }
  bool any() const { return tracing() || counting() || profiling(); }

  /// Attaches a TracingInspector to `engine`, tee-ing with any inspector
  /// already attached (the invariant auditor). No-op when --trace is off.
  void attach_tracer(SimulationEngine& engine) const;

  /// Prints the --counters JSON block and the --profile table, flushes and
  /// reports the trace file. Idempotent; deactivates the registries first
  /// so the reporting itself is never measured.
  void finish();

  const obs::CounterRegistry* counters() const { return counters_.get(); }
  const obs::TraceSink* sink() const { return sink_.get(); }

 private:
  std::shared_ptr<obs::TraceSink> sink_;
  std::unique_ptr<obs::CounterRegistry> counters_;
  std::unique_ptr<obs::ProfileRegistry> profile_;
  std::optional<obs::CountersScope> counters_scope_;
  std::optional<obs::ProfileScope> profile_scope_;
  bool finished_ = false;
};

/// Parses --jobs, the worker count of a sweep: 0 (the default) means all
/// usable CPUs, 1 runs every leg inline in leg order, N caps the workers at
/// N. A negative value exits through exit_usage naming --jobs.
std::size_t jobs_from_cli(const CliParser& cli);

/// Parses --audit into the scenario AuditMode ("auto" | "off" | "throw" |
/// "record"); exits with a usage error on anything else. "auto" keeps the
/// build-type default: every-slot invariant auditing in Debug, none in
/// Release (see AuditMode in scenario/paper_scenario.h).
AuditMode audit_from_cli(const CliParser& cli);

/// Runs a declarative SweepSpec on the shared-artifact sweep engine
/// (src/sweep/): scenarios materialize once per unique key, each worker
/// reuses one persistent engine/scheduler across its legs, and legs are
/// chunk-scheduled — same bitwise output at any `jobs` per DESIGN.md §16.
/// When `obs` is given and tracing is on, leg 0 gets the TracingInspector
/// attached (tee-ing with the leg's auditor) before it runs.
std::vector<sweep::SweepLegResult> run_sweep_spec(const sweep::SweepSpec& spec,
                                                  std::size_t jobs, AuditMode audit,
                                                  const ObsSession* obs = nullptr);

/// Parses argv; exits the process on --help (status 0) or bad flags (1).
void parse_or_exit(CliParser& cli, int argc, char** argv);

/// Prints "error: <message>" and the usage text to stderr, then exits 1.
[[noreturn]] void exit_usage(const CliParser& cli, const std::string& message);

/// The integer option `name`; a value below `min` exits through exit_usage
/// naming the option, before a caller can cast it to an unsigned size.
std::int64_t int_at_least(const CliParser& cli, const std::string& name,
                          std::int64_t min);

/// Renders `series` (already running-averaged if desired) as an ASCII chart.
std::string render_chart(const std::string& title, const std::string& y_label,
                         std::vector<TimeSeries> series, std::int64_t horizon);

/// Writes the series to `<csv_dir>/<name>.csv` when csv_dir is non-empty.
void maybe_write_csv(const std::string& csv_dir, const std::string& name,
                     const std::vector<TimeSeries>& series);

/// Writes an SVG rendering of the series to `<svg_dir>/<name>.svg` when
/// svg_dir (--svg-dir) is non-empty.
void maybe_write_svg(const std::string& svg_dir, const std::string& name,
                     const std::string& title, const std::string& y_label,
                     const std::vector<TimeSeries>& series, std::int64_t horizon);

/// Names a time series after its scheduler ("GreFar(V=7.50, beta=0.0)").
TimeSeries named(TimeSeries series, std::string name);

/// Standard header printed at the top of every experiment.
void print_header(const std::string& experiment, const std::string& paper_ref,
                  std::uint64_t seed, std::int64_t horizon);

}  // namespace grefar::bench
