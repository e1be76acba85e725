// Seeded mutation fuzz over the two parsers that read files back in:
// obs::ParseJournal (run journals, also read by tracecat) and
// core::LoadModel (saved HUNTER models). The seeds are real artifacts — the
// journal of a short fixed-seed HUNTER run and the model it exports — and
// every mutant must come back as a plain true/false: no exception, no crash,
// no undefined behaviour (the UBSan and ASan builds run this test too).
//
// Mutations: truncation at sampled offsets, single-bit flips, and a numeric
// length/count/index field replaced by a huge, negative or non-integral
// value. A saved model's state_dim replaced by a non-count must load as
// false.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cdb/cdb_instance.h"
#include "cdb/knob_catalog.h"
#include "common/rng.h"
#include "controller/controller.h"
#include "hunter/hunter.h"
#include "hunter/model_io.h"
#include "obs/journal.h"
#include "tuners/tuner.h"
#include "workload/workloads.h"

namespace hunter {
namespace {

struct Seeds {
  std::string journal;
  std::string model;
};

// One short HUNTER run (2 clones, 0.6 simulated hours): its journal and the
// model it exports, both serialized.
const Seeds& SeedArtifacts() {
  static const Seeds seeds = [] {
    constexpr uint64_t kSeed = 42;
    cdb::KnobCatalog catalog = cdb::MySqlCatalog();
    auto user_instance = std::make_unique<cdb::CdbInstance>(
        &catalog, cdb::MySqlEvaluationInstance(), cdb::MySqlEngineTuning(),
        kSeed);
    controller::ControllerOptions controller_options;
    controller_options.num_clones = 2;
    controller_options.seed = kSeed;
    controller_options.concurrent_actors = false;
    controller::Controller controller(std::move(user_instance),
                                      workload::Tpcc(), controller_options);
    core::HunterOptions hunter_options;
    hunter_options.ga.target_samples = 8;
    // Small networks keep the saved model, and so every load, short.
    hunter_options.recommender.ddpg.actor_hidden = {8};
    hunter_options.recommender.ddpg.critic_hidden = {8};
    core::HunterTuner hunter(&catalog, core::Rules(), hunter_options,
                             kSeed + 1);
    tuners::HarnessOptions harness;
    harness.budget_hours = 0.6;
    tuners::RunTuning(&hunter, &controller, harness);

    Seeds out;
    std::ostringstream journal;
    controller.journal().Write(journal);
    out.journal = journal.str();
    const std::optional<core::HunterModel> model = hunter.ExportModel();
    if (model.has_value()) {
      std::ostringstream text;
      core::SaveModel(*model, text);
      out.model = text.str();
    }
    return out;
  }();
  return seeds;
}

std::string Truncate(const std::string& text, common::Rng* rng) {
  return text.substr(0, static_cast<size_t>(rng->UniformInt(
                            0, static_cast<int64_t>(text.size()) - 1)));
}

std::string FlipBit(std::string text, common::Rng* rng) {
  const size_t at = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(text.size()) - 1));
  text[at] = static_cast<char>(text[at] ^ (1 << rng->UniformInt(0, 7)));
  return text;
}

// Offsets just past each occurrence of `prefix`: where the numeric fields a
// mutation rewrites begin.
std::vector<size_t> NumberFieldsAfter(const std::string& text,
                                      const std::string& prefix) {
  std::vector<size_t> fields;
  for (size_t at = text.find(prefix); at != std::string::npos;
       at = text.find(prefix, at + 1)) {
    fields.push_back(at + prefix.size());
  }
  return fields;
}

// Replaces the number starting at `begin` (up to the next separator).
std::string ReplaceNumberAt(std::string text, size_t begin,
                            const std::string& value) {
  size_t end = begin;
  while (end < text.size() && text[end] != ' ' && text[end] != ',' &&
         text[end] != '\n' && text[end] != '}') {
    ++end;
  }
  return text.replace(begin, end - begin, value);
}

const std::vector<std::string>& HostileNumbers() {
  static const std::vector<std::string> values = {
      "100000000000000", "18446744073709551615", "18446744073709551616",
      "-1", "1e300", "-1e300", "2.5", "0"};
  return values;
}

bool ParsesCleanly(const std::string& text) {
  std::istringstream in(text);
  obs::ParsedJournal parsed;
  std::string error;
  try {
    const bool ok = obs::ParseJournal(in, &parsed, &error);
    if (!ok && error.empty()) ADD_FAILURE() << "false without an error";
  } catch (...) {
    return false;
  }
  return true;
}

bool LoadsCleanly(const std::string& text) {
  std::istringstream in(text);
  core::HunterModel model;
  try {
    core::LoadModel(in, &model);
  } catch (...) {
    return false;
  }
  return true;
}

// True when the model text loads: no exception and LoadModel says true.
bool Loads(const std::string& text) {
  std::istringstream in(text);
  core::HunterModel model;
  try {
    return core::LoadModel(in, &model);
  } catch (...) {
    return false;
  }
}

TEST(ParserFuzzTest, JournalMutantsFailCleanly) {
  const std::string& seed = SeedArtifacts().journal;
  ASSERT_FALSE(seed.empty());
  ASSERT_TRUE(ParsesCleanly(seed));
  common::Rng rng(0xF022);
  for (int i = 0; i < 60; ++i) {
    EXPECT_TRUE(ParsesCleanly(Truncate(seed, &rng))) << "truncation " << i;
  }
  for (int i = 0; i < 120; ++i) {
    EXPECT_TRUE(ParsesCleanly(FlipBit(seed, &rng))) << "bit flip " << i;
  }
  // Histogram counts are the journal's only count fields; times and
  // durations get the same treatment.
  for (const std::string prefix : {"\"count\":", "\"t\":", "\"dur\":"}) {
    const std::vector<size_t> fields = NumberFieldsAfter(seed, prefix);
    ASSERT_FALSE(fields.empty()) << prefix;
    for (const std::string& value : HostileNumbers()) {
      const size_t at = fields[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(fields.size()) - 1))];
      EXPECT_TRUE(ParsesCleanly(ReplaceNumberAt(seed, at, value)))
          << prefix << value;
    }
  }
}

TEST(ParserFuzzTest, ModelMutantsFailCleanly) {
  const std::string& seed = SeedArtifacts().model;
  ASSERT_FALSE(seed.empty()) << "the seed run exported no model";
  ASSERT_TRUE(LoadsCleanly(seed));
  common::Rng rng(0xF023);
  for (int i = 0; i < 60; ++i) {
    EXPECT_TRUE(LoadsCleanly(Truncate(seed, &rng))) << "truncation " << i;
  }
  for (int i = 0; i < 120; ++i) {
    EXPECT_TRUE(LoadsCleanly(FlipBit(seed, &rng))) << "bit flip " << i;
  }
  // Every vector's element count, the first knob index, and the PCA state's
  // leading dimension.
  for (const std::string prefix :
       {"state_dim ", "selected_knobs ", "knob_importance ", "pca_state ",
        "ddpg_parameters ", "base_config "}) {
    const std::vector<size_t> fields = NumberFieldsAfter(seed, prefix);
    ASSERT_EQ(fields.size(), 1u) << prefix;
    for (const std::string& value : HostileNumbers()) {
      EXPECT_TRUE(LoadsCleanly(ReplaceNumberAt(seed, fields[0], value)))
          << prefix << value;
    }
  }
  // A state_dim that is not a count must not load. (The seed run saves no
  // PCA; ModelIoTest covers a state_dim its PCA cannot project to.)
  ASSERT_TRUE(Loads(seed));
  const size_t state_dim_at = NumberFieldsAfter(seed, "state_dim ")[0];
  for (const std::string value :
       {"-1", "+1", "1.0", "1e0", "0x1", "18446744073709551616"}) {
    EXPECT_FALSE(Loads(ReplaceNumberAt(seed, state_dim_at, value)))
        << "state_dim " << value;
  }
  for (const std::string prefix : {"selected_knobs ", "pca_state "}) {
    const size_t count_at = NumberFieldsAfter(seed, prefix)[0];
    const size_t first_value_at = seed.find(' ', count_at) + 1;
    for (const std::string& value : HostileNumbers()) {
      EXPECT_TRUE(LoadsCleanly(ReplaceNumberAt(seed, first_value_at, value)))
          << prefix << "value " << value;
    }
  }
}

}  // namespace
}  // namespace hunter
