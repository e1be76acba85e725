#include "hunter/model_io.h"

#include <charconv>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <system_error>

#include "common/text.h"

namespace hunter::core {

namespace {

constexpr char kMagic[] = "HUNTER_MODEL_V1";

void WriteVector(std::ostream& os, const char* tag,
                 const std::vector<double>& values) {
  os << tag << " " << values.size();
  for (double v : values) os << " " << v;
  os << "\n";
}

// Reads one token as a count: decimal digits only, within size_t. A plain
// `is >> size_t` would accept a sign and wrap "-1" to 2^64 - 1.
bool ReadCount(std::istream& is, size_t* value) {
  std::string token;
  if (!(is >> token)) return false;
  for (const char ch : token) {
    if (ch < '0' || ch > '9') return false;
  }
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *value);
  return ec == std::errc() && ptr == end;
}

bool ReadVector(std::istream& is, const std::string& expected_tag,
                std::vector<double>* values) {
  std::string tag;
  size_t count = 0;
  if (!(is >> tag) || tag != expected_tag || !ReadCount(is, &count)) {
    return false;
  }
  // `count` is untrusted: values are appended as they parse, so a corrupt
  // count runs out of input instead of sizing an allocation.
  values->clear();
  for (size_t i = 0; i < count; ++i) {
    double v = 0.0;
    if (!(is >> v)) return false;
    values->push_back(v);
  }
  return true;
}

}  // namespace

bool SaveModel(const HunterModel& model, std::ostream& os) {
  // Model files must be byte-stable across hosts: pin the "C" locale for
  // the duration of the write (a caller-imbued locale would otherwise
  // render decimal commas) alongside round-trip precision.
  common::ScopedClassicLocale pin(os);
  os << kMagic << "\n";
  os << std::setprecision(17);
  os << "state_dim " << model.space.state_dim << "\n";
  os << "use_pca " << (model.space.use_pca ? 1 : 0) << "\n";
  os << "signature " << (model.signature.empty() ? "-" : model.signature)
     << "\n";
  std::vector<double> knobs(model.space.selected_knobs.begin(),
                            model.space.selected_knobs.end());
  WriteVector(os, "selected_knobs", knobs);
  WriteVector(os, "knob_importance", model.space.knob_importance);
  WriteVector(os, "pca_state",
              model.space.use_pca ? model.space.pca.SaveState()
                                  : std::vector<double>{});
  WriteVector(os, "ddpg_parameters", model.ddpg_parameters);
  WriteVector(os, "base_config", model.base_config);
  return static_cast<bool>(os);
}

bool SaveModelToFile(const HunterModel& model, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  return SaveModel(model, os);
}

bool LoadModel(std::istream& is, HunterModel* model) {
  common::ScopedClassicLocale pin(is);  // parse "1.5" under any host locale
  std::string magic;
  if (!(is >> magic) || magic != kMagic) return false;
  std::string tag;
  size_t state_dim = 0;
  int use_pca = 0;
  std::string signature;
  if (!(is >> tag) || tag != "state_dim" || !ReadCount(is, &state_dim)) {
    return false;
  }
  if (!(is >> tag >> use_pca) || tag != "use_pca") return false;
  if (!(is >> tag >> signature) || tag != "signature") return false;

  std::vector<double> knobs, importance, pca_state, params, base;
  if (!ReadVector(is, "selected_knobs", &knobs)) return false;
  if (!ReadVector(is, "knob_importance", &importance)) return false;
  if (!ReadVector(is, "pca_state", &pca_state)) return false;
  if (!ReadVector(is, "ddpg_parameters", &params)) return false;
  if (!ReadVector(is, "base_config", &base)) return false;

  model->space = OptimizedSpace();
  model->space.state_dim = state_dim;
  model->space.use_pca = use_pca != 0;
  for (const double knob : knobs) {
    size_t index = 0;
    if (!common::DoubleToSize(knob, &index)) return false;
    model->space.selected_knobs.push_back(index);
  }
  model->space.knob_importance = std::move(importance);
  if (model->space.use_pca) {
    // The state is the PCA's projection onto its first state_dim
    // components, so state_dim counts at least one and at most all of them.
    if (!model->space.pca.LoadState(pca_state) || state_dim == 0 ||
        state_dim > model->space.pca.input_dim()) {
      return false;
    }
  }
  model->ddpg_parameters = std::move(params);
  model->base_config = std::move(base);
  model->signature = signature == "-" ? std::string() : signature;
  return true;
}

bool LoadModelFromFile(const std::string& path, HunterModel* model) {
  std::ifstream is(path);
  if (!is) return false;
  return LoadModel(is, model);
}

}  // namespace hunter::core
