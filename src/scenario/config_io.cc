#include "scenario/config_io.h"

#include <set>

namespace grefar {

namespace {

/// Rejects object keys outside `allowed` (strict parsing).
Status check_keys(const JsonValue& obj, const std::set<std::string>& allowed,
                  const std::string& context) {
  if (!obj.is_object()) return Error::make(context + " must be a JSON object");
  for (const auto& [key, value] : obj.as_object()) {
    (void)value;
    if (allowed.find(key) == allowed.end()) {
      return Error::make(context + ": unknown field '" + key + "'");
    }
  }
  return {};
}

Result<double> require_number(const JsonValue& obj, const std::string& key,
                              const std::string& context) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return Error::make(context + ": missing field '" + key + "'");
  if (!v->is_number()) return Error::make(context + ": '" + key + "' must be a number");
  return v->as_number();
}

Result<std::string> require_string(const JsonValue& obj, const std::string& key,
                                   const std::string& context) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return Error::make(context + ": missing field '" + key + "'");
  if (!v->is_string()) return Error::make(context + ": '" + key + "' must be a string");
  return v->as_string();
}

Result<const JsonArray*> require_array(const JsonValue& obj, const std::string& key,
                                       const std::string& context) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return Error::make(context + ": missing field '" + key + "'");
  if (!v->is_array()) return Error::make(context + ": '" + key + "' must be an array");
  return &v->as_array();
}

}  // namespace

Result<ClusterConfig> cluster_config_from_json(const JsonValue& json) {
  if (auto st = check_keys(
          json, {"server_types", "data_centers", "accounts", "job_types", "tariffs"},
          "cluster");
      !st.ok()) {
    return st.error();
  }
  ClusterConfig config;

  auto server_types = require_array(json, "server_types", "cluster");
  if (!server_types.ok()) return server_types.error();
  for (const auto& entry : *server_types.value()) {
    if (auto st = check_keys(entry, {"name", "speed", "busy_power"}, "server_type");
        !st.ok()) {
      return st.error();
    }
    ServerType st_out;
    auto name = require_string(entry, "name", "server_type");
    auto speed = require_number(entry, "speed", "server_type");
    auto power = require_number(entry, "busy_power", "server_type");
    if (!name.ok()) return name.error();
    if (!speed.ok()) return speed.error();
    if (!power.ok()) return power.error();
    st_out.name = name.value();
    st_out.speed = speed.value();
    st_out.busy_power = power.value();
    config.server_types.push_back(std::move(st_out));
  }

  auto data_centers = require_array(json, "data_centers", "cluster");
  if (!data_centers.ok()) return data_centers.error();
  for (const auto& entry : *data_centers.value()) {
    if (auto st = check_keys(entry, {"name", "installed"}, "data_center"); !st.ok()) {
      return st.error();
    }
    DataCenterConfig dc;
    auto name = require_string(entry, "name", "data_center");
    if (!name.ok()) return name.error();
    dc.name = name.value();
    auto installed = require_array(entry, "installed", "data_center");
    if (!installed.ok()) return installed.error();
    for (const auto& count : *installed.value()) {
      if (!count.is_number()) {
        return Error::make("data_center '" + dc.name + "': installed counts must be numbers");
      }
      dc.installed.push_back(static_cast<std::int64_t>(count.as_number()));
    }
    config.data_centers.push_back(std::move(dc));
  }

  auto accounts = require_array(json, "accounts", "cluster");
  if (!accounts.ok()) return accounts.error();
  for (const auto& entry : *accounts.value()) {
    if (auto st = check_keys(entry, {"name", "gamma"}, "account"); !st.ok()) {
      return st.error();
    }
    Account account;
    auto name = require_string(entry, "name", "account");
    auto gamma = require_number(entry, "gamma", "account");
    if (!name.ok()) return name.error();
    if (!gamma.ok()) return gamma.error();
    account.name = name.value();
    account.gamma = gamma.value();
    config.accounts.push_back(std::move(account));
  }

  auto job_types = require_array(json, "job_types", "cluster");
  if (!job_types.ok()) return job_types.error();
  for (const auto& entry : *job_types.value()) {
    if (auto st = check_keys(entry,
                             {"name", "work", "eligible_dcs", "account", "max_rate"},
                             "job_type");
        !st.ok()) {
      return st.error();
    }
    JobType jt;
    auto name = require_string(entry, "name", "job_type");
    auto work = require_number(entry, "work", "job_type");
    auto account = require_number(entry, "account", "job_type");
    if (!name.ok()) return name.error();
    if (!work.ok()) return work.error();
    if (!account.ok()) return account.error();
    jt.name = name.value();
    jt.work = work.value();
    jt.account = static_cast<AccountId>(account.value());
    if (const JsonValue* max_rate = entry.find("max_rate"); max_rate != nullptr) {
      if (!max_rate->is_number()) {
        return Error::make("job_type '" + jt.name + "': max_rate must be a number");
      }
      jt.max_rate = max_rate->as_number();
    }
    auto eligible = require_array(entry, "eligible_dcs", "job_type");
    if (!eligible.ok()) return eligible.error();
    for (const auto& dc : *eligible.value()) {
      if (!dc.is_number()) {
        return Error::make("job_type '" + jt.name + "': eligible_dcs must be numbers");
      }
      jt.eligible_dcs.push_back(static_cast<DataCenterId>(dc.as_number()));
    }
    config.job_types.push_back(std::move(jt));
  }

  if (const JsonValue* tariffs = json.find("tariffs"); tariffs != nullptr) {
    if (!tariffs->is_array()) return Error::make("cluster: 'tariffs' must be an array");
    for (const auto& entry : tariffs->as_array()) {
      if (!entry.is_array()) {
        return Error::make("tariffs: each data center's tariff must be a tier array");
      }
      std::vector<TieredTariff::Tier> tiers;
      for (const auto& tier_json : entry.as_array()) {
        if (auto st = check_keys(tier_json, {"upto", "rate"}, "tariff tier"); !st.ok()) {
          return st.error();
        }
        TieredTariff::Tier tier;
        auto rate = require_number(tier_json, "rate", "tariff tier");
        if (!rate.ok()) return rate.error();
        tier.rate = rate.value();
        if (const JsonValue* upto = tier_json.find("upto"); upto != nullptr) {
          if (!upto->is_number()) {
            return Error::make("tariff tier: 'upto' must be a number (omit for inf)");
          }
          tier.upto = upto->as_number();
        }
        tiers.push_back(tier);
      }
      try {
        config.tariffs.emplace_back(std::move(tiers));
      } catch (const ContractViolation& violation) {
        return Error::make(std::string("invalid tariff: ") + violation.what());
      }
    }
  }

  try {
    config.validate();
  } catch (const ContractViolation& violation) {
    return Error::make(std::string("invalid cluster config: ") + violation.what());
  }
  return config;
}

Result<GreFarParams> grefar_params_from_json(const JsonValue& json) {
  if (auto st = check_keys(json,
                           {"V", "beta", "r_max", "h_max", "clamp_to_queue",
                            "process_after_routing"},
                           "grefar");
      !st.ok()) {
    return st.error();
  }
  GreFarParams params;
  params.V = json.number_or("V", params.V);
  params.beta = json.number_or("beta", params.beta);
  params.r_max = json.number_or("r_max", params.r_max);
  params.h_max = json.number_or("h_max", params.h_max);
  params.clamp_to_queue = json.bool_or("clamp_to_queue", params.clamp_to_queue);
  params.process_after_routing =
      json.bool_or("process_after_routing", params.process_after_routing);
  if (params.V < 0.0 || params.beta < 0.0 || params.r_max < 0.0 || params.h_max < 0.0) {
    return Error::make("grefar: V/beta/r_max/h_max must be >= 0");
  }
  return params;
}

Result<ExperimentConfig> experiment_config_from_json(const JsonValue& json) {
  if (auto st = check_keys(json, {"cluster", "grefar"}, "experiment"); !st.ok()) {
    return st.error();
  }
  const JsonValue* cluster = json.find("cluster");
  if (cluster == nullptr) return Error::make("experiment: missing field 'cluster'");
  auto parsed_cluster = cluster_config_from_json(*cluster);
  if (!parsed_cluster.ok()) return parsed_cluster.error();

  ExperimentConfig config;
  config.cluster = std::move(parsed_cluster).value();
  if (const JsonValue* grefar = json.find("grefar"); grefar != nullptr) {
    auto parsed_params = grefar_params_from_json(*grefar);
    if (!parsed_params.ok()) return parsed_params.error();
    config.grefar = parsed_params.value();
  }
  return config;
}

Result<ExperimentConfig> load_experiment_config(const std::string& path) {
  auto json = parse_json_file(path);
  if (!json.ok()) return json.error();
  return experiment_config_from_json(json.value());
}

}  // namespace grefar
