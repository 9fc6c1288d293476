// JSON parsing for cluster and scheduler configuration.
//
// Lets deployments and experiments be described as data instead of code:
//
//   {
//     "server_types": [{"name": "gen-a", "speed": 1.0, "busy_power": 1.0}],
//     "data_centers": [{"name": "dc1", "installed": [120, 0, 0]}],
//     "accounts":     [{"name": "org1", "gamma": 0.4}],
//     "job_types":    [{"name": "org1-small", "work": 1.5,
//                       "eligible_dcs": [0, 1, 2], "account": 0}],
//     "grefar":       {"V": 7.5, "beta": 100}
//   }
//
// Parsing is strict: unknown fields are rejected so typos in experiment
// configs fail loudly rather than silently falling back to defaults.
#pragma once

#include <string>

#include "core/grefar.h"
#include "sim/cluster.h"
#include "util/json.h"
#include "util/result.h"

namespace grefar {

/// Parses a ClusterConfig from its JSON object form; validates the result.
Result<ClusterConfig> cluster_config_from_json(const JsonValue& json);

/// Parses GreFarParams from a JSON object ({"V": 7.5, "beta": 100, ...});
/// missing fields keep their defaults, unknown fields fail.
Result<GreFarParams> grefar_params_from_json(const JsonValue& json);

/// Reads a document holding {"cluster": ..., "grefar": ...}. The "grefar"
/// key is optional (defaults apply).
struct ExperimentConfig {
  ClusterConfig cluster;
  GreFarParams grefar;
};
Result<ExperimentConfig> experiment_config_from_json(const JsonValue& json);
Result<ExperimentConfig> load_experiment_config(const std::string& path);

}  // namespace grefar
