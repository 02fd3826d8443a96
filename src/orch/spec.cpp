#include "orch/spec.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "util/strings.hpp"
#include "util/time.hpp"

namespace microedge {

namespace {

StatusOr<std::map<std::string, std::string>> readStringMap(
    const YamlNode& node, const char* what) {
  if (!node.isMapping()) {
    return invalidArgument(strCat(what, " must be a mapping"));
  }
  std::map<std::string, std::string> out;
  for (const auto& [key, value] : node.entries()) {
    if (!value.isScalar()) {
      return invalidArgument(
          strCat(what, ".", key, " must be a scalar value"));
    }
    out[key] = value.scalar();
  }
  return out;
}

// False for NaN, infinity and anything a long cannot hold.
bool fitsLong(double v) {
  return v >= static_cast<double>(std::numeric_limits<long>::min()) &&
         v < static_cast<double>(std::numeric_limits<long>::max());
}

}  // namespace

bool validTpuUnits(double units) {
  return units > 0.0 && fitsLong(units * 1000.0);
}

StatusOr<long> parseCpuMillicores(const std::string& text) {
  if (text.empty()) return invalidArgument("cpu: empty value");
  if (text.back() == 'm') {
    const std::string digits = text.substr(0, text.size() - 1);
    char* end = nullptr;
    errno = 0;
    long v = std::strtol(digits.c_str(), &end, 10);
    if (end == digits.c_str() || *end != '\0' || v < 0 || errno == ERANGE) {
      return invalidArgument(strCat("cpu: bad millicore value '", text, "'"));
    }
    return v;
  }
  char* end = nullptr;
  double cores = std::strtod(text.c_str(), &end);
  const double millicores = cores * 1000.0 + 0.5;
  if (end == text.c_str() || *end != '\0' || cores < 0 ||
      !fitsLong(millicores)) {
    return invalidArgument(strCat("cpu: bad value '", text, "'"));
  }
  return static_cast<long>(millicores);
}

StatusOr<long> parseMemoryMb(const std::string& text) {
  if (text.empty()) return invalidArgument("memory: empty value");
  double multiplier = 1.0;
  std::string digits = text;
  if (text.size() > 2) {
    std::string suffix = text.substr(text.size() - 2);
    if (suffix == "Mi") {
      digits = text.substr(0, text.size() - 2);
    } else if (suffix == "Gi") {
      multiplier = 1024.0;
      digits = text.substr(0, text.size() - 2);
    }
  }
  char* end = nullptr;
  double v = std::strtod(digits.c_str(), &end);
  const double mb = v * multiplier + 0.5;
  if (end == digits.c_str() || *end != '\0' || v < 0 || !fitsLong(mb)) {
    return invalidArgument(strCat("memory: bad value '", text, "'"));
  }
  return static_cast<long>(mb);
}

StatusOr<PodSpec> podSpecFromYaml(const std::string& yamlText) {
  auto root = parseYaml(yamlText);
  if (!root.isOk()) return root.status();
  return podSpecFromYaml(*root);
}

StatusOr<PodSpec> podSpecFromYaml(const YamlNode& root) {
  if (!root.isMapping()) {
    return invalidArgument("pod spec: document must be a mapping");
  }
  PodSpec spec;

  const YamlNode* name = root.find("name");
  if (name == nullptr || !name->isScalar() || name->scalar().empty()) {
    return invalidArgument("pod spec: 'name' is required");
  }
  spec.name = name->scalar();

  if (const YamlNode* image = root.find("image"); image != nullptr) {
    if (!image->isScalar()) return invalidArgument("pod spec: bad 'image'");
    spec.image = image->scalar();
  }

  if (const YamlNode* fps = root.find("fps"); fps != nullptr) {
    auto v = fps->asDouble();
    if (!v.isOk()) return v.status();
    if (*v != 0.0 && !fitsFramePeriod(*v)) {
      return invalidArgument("pod spec: fps must be 0 (unset) or in (0, 1e9]");
    }
    spec.fps = *v;
  }

  if (const YamlNode* res = root.find("resources"); res != nullptr) {
    if (!res->isMapping()) {
      return invalidArgument("pod spec: 'resources' must be a mapping");
    }
    if (const YamlNode* cpu = res->find("cpu"); cpu != nullptr) {
      auto v = parseCpuMillicores(cpu->scalar());
      if (!v.isOk()) return v.status();
      spec.resources.cpuMillicores = *v;
    }
    if (const YamlNode* mem = res->find("memory"); mem != nullptr) {
      auto v = parseMemoryMb(mem->scalar());
      if (!v.isOk()) return v.status();
      spec.resources.memoryMb = *v;
    }
    const YamlNode* units = res->find("tpu-units");
    const YamlNode* model = res->find("model");
    if ((units == nullptr) != (model == nullptr)) {
      return invalidArgument(
          "pod spec: 'tpu-units' and 'model' must be given together");
    }
    if (units != nullptr) {
      auto v = units->asDouble();
      if (!v.isOk()) return v.status();
      if (!validTpuUnits(*v)) {
        return invalidArgument(
            "pod spec: tpu-units must be positive and fit int64 milli-units");
      }
      if (!model->isScalar() || model->scalar().empty()) {
        return invalidArgument("pod spec: bad 'model'");
      }
      spec.tpu = TpuRequest{model->scalar(), *v};
    }
  }

  if (const YamlNode* labels = root.find("labels"); labels != nullptr) {
    auto m = readStringMap(*labels, "labels");
    if (!m.isOk()) return m.status();
    spec.labels = std::move(m).value();
  }
  if (const YamlNode* sel = root.find("nodeSelector"); sel != nullptr) {
    auto m = readStringMap(*sel, "nodeSelector");
    if (!m.isOk()) return m.status();
    spec.nodeSelector = std::move(m).value();
  }
  if (const YamlNode* anti = root.find("antiAffinity"); anti != nullptr) {
    if (!anti->isScalar()) {
      return invalidArgument("pod spec: bad 'antiAffinity'");
    }
    spec.antiAffinityKey = anti->scalar();
  }
  return spec;
}

std::string podSpecToYaml(const PodSpec& spec) {
  std::string out = strCat("name: ", spec.name, "\n");
  if (!spec.image.empty()) out += strCat("image: ", spec.image, "\n");
  if (spec.fps > 0) out += strCat("fps: ", fmtDouble(spec.fps, 2), "\n");
  out += "resources:\n";
  out += strCat("  cpu: ", spec.resources.cpuMillicores, "m\n");
  out += strCat("  memory: ", spec.resources.memoryMb, "Mi\n");
  if (spec.tpu.has_value()) {
    out += strCat("  tpu-units: ", fmtDouble(spec.tpu->tpuUnits, 4), "\n");
    out += strCat("  model: ", spec.tpu->model, "\n");
  }
  if (!spec.labels.empty()) {
    out += "labels:\n";
    for (const auto& [k, v] : spec.labels) out += strCat("  ", k, ": ", v, "\n");
  }
  if (!spec.nodeSelector.empty()) {
    out += "nodeSelector:\n";
    for (const auto& [k, v] : spec.nodeSelector) {
      out += strCat("  ", k, ": ", v, "\n");
    }
  }
  if (!spec.antiAffinityKey.empty()) {
    out += strCat("antiAffinity: ", spec.antiAffinityKey, "\n");
  }
  return out;
}

}  // namespace microedge
