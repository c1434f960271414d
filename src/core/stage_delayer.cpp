#include "core/stage_delayer.h"

#include <sstream>

#include "util/check.h"
#include "util/strings.h"

namespace ds::core {

namespace {
constexpr std::string_view kKeyPrefix = "spark.delaystage.stage.";
}

std::string to_properties(const std::vector<Seconds>& delay) {
  std::ostringstream os;
  for (std::size_t k = 0; k < delay.size(); ++k) {
    os << kKeyPrefix << k << "=" << delay[k] << "\n";
  }
  return os.str();
}

DelaySchedule from_properties(const std::string& text) {
  DelaySchedule out;
  for (const std::string& raw : split(text, '\n')) {
    const std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#') continue;
    if (!starts_with(line, kKeyPrefix)) continue;
    const std::size_t eq = line.find('=');
    DS_CHECK_MSG(eq != std::string_view::npos, "malformed property: " << line);
    std::uint64_t stage = 0;
    DS_CHECK_MSG(parse_u64(trim(line.substr(kKeyPrefix.size(),
                                            eq - kKeyPrefix.size())),
                           stage),
                 "bad stage id in: " << line);
    double value = 0;
    DS_CHECK_MSG(parse_double(trim(line.substr(eq + 1)), value),
                 "bad delay in: " << line);
    DS_CHECK_MSG(value >= 0, "negative delay in: " << line);
    if (stage >= out.delay.size()) out.delay.resize(stage + 1, 0.0);
    out.delay[stage] = value;
  }
  return out;
}

}  // namespace ds::core
