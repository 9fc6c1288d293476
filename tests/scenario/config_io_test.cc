#include "scenario/config_io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "scenario/paper_scenario.h"
#include "util/csv.h"

namespace grefar {
namespace {

const char* kMinimalConfig = R"({
  "server_types": [{"name": "std", "speed": 1.0, "busy_power": 0.9}],
  "data_centers": [{"name": "dc1", "installed": [10]},
                   {"name": "dc2", "installed": [20]}],
  "accounts": [{"name": "a", "gamma": 0.6}, {"name": "b", "gamma": 0.4}],
  "job_types": [{"name": "j0", "work": 2.0, "eligible_dcs": [0, 1], "account": 0},
                {"name": "j1", "work": 1.0, "eligible_dcs": [1], "account": 1}]
})";

// kMinimalConfig with its first occurrence of `from` replaced by `to`.
JsonValue minimal_config_with(const std::string& from, const std::string& to) {
  std::string text = kMinimalConfig;
  const auto at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  text.replace(at, from.size(), to);
  return parse_json(text).value();
}

TEST(ClusterConfigJson, ParsesMinimalConfig) {
  auto parsed = cluster_config_from_json(parse_json(kMinimalConfig).value());
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const auto& config = parsed.value();
  EXPECT_EQ(config.num_server_types(), 1u);
  EXPECT_EQ(config.num_data_centers(), 2u);
  EXPECT_EQ(config.num_accounts(), 2u);
  EXPECT_EQ(config.num_job_types(), 2u);
  EXPECT_DOUBLE_EQ(config.server_types[0].busy_power, 0.9);
  EXPECT_EQ(config.data_centers[1].installed[0], 20);
  EXPECT_DOUBLE_EQ(config.accounts[0].gamma, 0.6);
  EXPECT_EQ(config.job_types[0].eligible_dcs, (std::vector<DataCenterId>{0, 1}));
  EXPECT_EQ(config.job_types[1].account, 1u);
}

// configs/paper_experiment.json is the paper scenario's cluster as JSON; it
// must parse back to the cluster the code builds.
TEST(ClusterConfigJson, RoundTripsPaperScenario) {
  auto original = make_paper_scenario(1).config;
  auto loaded = load_experiment_config(GREFAR_PAPER_CONFIG);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  const auto& config = loaded.value().cluster;
  ASSERT_EQ(config.num_job_types(), original.num_job_types());
  for (std::size_t j = 0; j < config.num_job_types(); ++j) {
    EXPECT_EQ(config.job_types[j].name, original.job_types[j].name);
    EXPECT_DOUBLE_EQ(config.job_types[j].work, original.job_types[j].work);
    EXPECT_EQ(config.job_types[j].eligible_dcs, original.job_types[j].eligible_dcs);
    EXPECT_EQ(config.job_types[j].account, original.job_types[j].account);
  }
  ASSERT_EQ(config.num_data_centers(), original.num_data_centers());
  for (std::size_t i = 0; i < config.num_data_centers(); ++i) {
    EXPECT_EQ(config.data_centers[i].installed, original.data_centers[i].installed);
  }
}

TEST(ClusterConfigJson, RejectsUnknownFields) {
  auto json =
      minimal_config_with(R"("server_types")", R"("typo_field": 1, "server_types")");
  auto parsed = cluster_config_from_json(json);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("typo_field"), std::string::npos);
}

TEST(ClusterConfigJson, RejectsUnknownNestedFields) {
  auto json = minimal_config_with(R"("speed": 1.0)", R"("speed": 1.0, "speeed": 1.0)");
  auto parsed = cluster_config_from_json(json);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("speeed"), std::string::npos);
}

TEST(ClusterConfigJson, RejectsMissingFields) {
  auto json = minimal_config_with(R"({"name": "a", "gamma": 0.6})", R"({"name": "a"})");
  EXPECT_FALSE(cluster_config_from_json(json).ok());
}

TEST(ClusterConfigJson, RejectsWrongTypes) {
  auto json = minimal_config_with(R"("speed": 1.0)", R"("speed": "fast")");
  EXPECT_FALSE(cluster_config_from_json(json).ok());
}

TEST(ClusterConfigJson, RejectsSemanticallyInvalidConfig) {
  // Job type referencing a nonexistent DC fails validation.
  auto json = minimal_config_with(R"("eligible_dcs": [0, 1])", R"("eligible_dcs": [7])");
  auto parsed = cluster_config_from_json(json);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("invalid cluster config"), std::string::npos);
}

TEST(ClusterConfigJson, RejectsNonObject) {
  EXPECT_FALSE(cluster_config_from_json(JsonValue(JsonArray{})).ok());
  EXPECT_FALSE(cluster_config_from_json(JsonValue(1.0)).ok());
}

TEST(GreFarParamsJson, DefaultsApplyWhenOmitted) {
  auto parsed = grefar_params_from_json(parse_json("{}").value());
  ASSERT_TRUE(parsed.ok());
  GreFarParams defaults;
  EXPECT_DOUBLE_EQ(parsed.value().V, defaults.V);
  EXPECT_DOUBLE_EQ(parsed.value().beta, defaults.beta);
  EXPECT_EQ(parsed.value().clamp_to_queue, defaults.clamp_to_queue);
}

TEST(GreFarParamsJson, ParsesAllFields) {
  auto parsed = grefar_params_from_json(parse_json(
      R"({"V": 7.5, "beta": 100, "r_max": 50, "h_max": 60,
          "clamp_to_queue": false, "process_after_routing": false})")
                                            .value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed.value().V, 7.5);
  EXPECT_DOUBLE_EQ(parsed.value().beta, 100.0);
  EXPECT_DOUBLE_EQ(parsed.value().r_max, 50.0);
  EXPECT_DOUBLE_EQ(parsed.value().h_max, 60.0);
  EXPECT_FALSE(parsed.value().clamp_to_queue);
  EXPECT_FALSE(parsed.value().process_after_routing);
}

TEST(GreFarParamsJson, RejectsNegativeAndUnknown) {
  EXPECT_FALSE(grefar_params_from_json(parse_json(R"({"V": -1})").value()).ok());
  EXPECT_FALSE(grefar_params_from_json(parse_json(R"({"vee": 1})").value()).ok());
}

TEST(ExperimentConfig, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/grefar_experiment.json";
  ASSERT_TRUE(write_file(path, std::string("{\"cluster\": ") + kMinimalConfig +
                                   R"(, "grefar": {"V": 7.5, "beta": 100}})")
                  .ok());
  auto loaded = load_experiment_config(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded.value().cluster.num_job_types(), 2u);
  EXPECT_DOUBLE_EQ(loaded.value().grefar.V, 7.5);
  EXPECT_DOUBLE_EQ(loaded.value().grefar.beta, 100.0);
  std::remove(path.c_str());
}

TEST(ExperimentConfig, GrefarSectionIsOptional) {
  std::string doc = std::string("{\"cluster\": ") + kMinimalConfig + "}";
  auto parsed = experiment_config_from_json(parse_json(doc).value());
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  GreFarParams defaults;
  EXPECT_DOUBLE_EQ(parsed.value().grefar.V, defaults.V);
}

TEST(ExperimentConfig, MissingClusterFails) {
  EXPECT_FALSE(experiment_config_from_json(parse_json("{}").value()).ok());
}

TEST(ExperimentConfig, MissingFileFails) {
  EXPECT_FALSE(load_experiment_config("/no/such/config.json").ok());
}

// Every malformed-file case must come back as a clean Result error — never
// an exception, crash, or partially populated config.
class ExperimentConfigBadFile : public ::testing::Test {
 protected:
  std::string write_config(const std::string& name, const std::string& content) {
    std::string path = ::testing::TempDir() + "/" + name;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    if (!content.empty()) {
      EXPECT_EQ(std::fwrite(content.data(), 1, content.size(), f), content.size());
    }
    std::fclose(f);
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }

  std::vector<std::string> paths_;
};

TEST_F(ExperimentConfigBadFile, EmptyFileFails) {
  auto loaded = load_experiment_config(write_config("empty.json", ""));
  ASSERT_FALSE(loaded.ok());
  EXPECT_FALSE(loaded.error().message.empty());
}

TEST_F(ExperimentConfigBadFile, TruncatedDocumentFails) {
  // A valid document cut off mid-stream, as a partial download or an
  // interrupted save would leave it.
  std::string doc = std::string("{\"cluster\": ") + kMinimalConfig + "}";
  for (std::size_t cut : {doc.size() / 4, doc.size() / 2, doc.size() - 2}) {
    auto path = write_config("truncated.json", doc.substr(0, cut));
    auto loaded = load_experiment_config(path);
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut << " parsed successfully";
    EXPECT_FALSE(loaded.error().message.empty());
  }
}

TEST_F(ExperimentConfigBadFile, BinaryGarbageFails) {
  std::string garbage = "\x00\xff\x13\x37PK\x03\x04 not json at all";
  garbage[0] = '\0';
  auto loaded = load_experiment_config(write_config("garbage.json", garbage));
  ASSERT_FALSE(loaded.ok());
}

TEST_F(ExperimentConfigBadFile, UnterminatedStringFails) {
  auto loaded = load_experiment_config(
      write_config("unterminated.json", R"({"cluster": {"server_types": ["oops})"));
  ASSERT_FALSE(loaded.ok());
}

TEST_F(ExperimentConfigBadFile, WrongRootTypeFails) {
  EXPECT_FALSE(load_experiment_config(write_config("array.json", "[1, 2, 3]")).ok());
  EXPECT_FALSE(load_experiment_config(write_config("scalar.json", "42")).ok());
}

TEST_F(ExperimentConfigBadFile, WrongSectionTypeFails) {
  auto loaded = load_experiment_config(
      write_config("bad_section.json", R"({"cluster": "not an object"})"));
  ASSERT_FALSE(loaded.ok());
  auto loaded2 = load_experiment_config(write_config(
      "bad_grefar.json",
      std::string("{\"cluster\": ") + kMinimalConfig + ", \"grefar\": [1]}"));
  ASSERT_FALSE(loaded2.ok());
}

TEST_F(ExperimentConfigBadFile, DirectoryPathFails) {
  EXPECT_FALSE(load_experiment_config(::testing::TempDir()).ok());
}

TEST(ExperimentConfig, LoadedConfigDrivesScheduler) {
  // The loaded config must be directly usable to build a scheduler.
  auto json = parse_json(std::string("{\"cluster\": ") + kMinimalConfig +
                         ", \"grefar\": {\"V\": 3.0}}")
                  .value();
  auto config = experiment_config_from_json(json);
  ASSERT_TRUE(config.ok());
  GreFarScheduler scheduler(config.value().cluster, config.value().grefar);
  EXPECT_EQ(scheduler.name(), "GreFar(V=3.00, beta=0.0)");
}

}  // namespace
}  // namespace grefar
