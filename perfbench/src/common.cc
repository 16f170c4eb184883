#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "mln/io.h"
#include "mln/parser.h"
#include "util/timer.h"

namespace perfbench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Report::Ops(uint64_t attempted, uint64_t failed,
                 const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::fprintf(stderr, "FAILED (%llu): %s\n",
                 static_cast<unsigned long long>(failed), what.c_str());
  }
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  checks_ok_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Report::Print() const {
  const bool correct = checks_ok_ && failed_ == 0 && attempted_ > 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, v] : metrics_) {
    // Non-finite values are not JSON; they mean a broken measurement.
    double value = std::isfinite(v.value) ? v.value : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           v.unit + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

void ResetPeakRss() {
  // "5" resets the VmHWM peak-RSS mark (Linux >= 4.0).
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::unique_ptr<Input> ParseInput(const std::string& dir, ParseTimes* times) {
  auto program_text = tuffy::ReadFileToString(dir + "/program.mln");
  auto evidence_text = tuffy::ReadFileToString(dir + "/evidence.db");
  if (!program_text.ok() || !evidence_text.ok()) {
    std::fprintf(stderr, "cannot read the workload text in %s\n",
                 dir.c_str());
    return nullptr;
  }
  std::unique_ptr<Input> input;
  tuffy::Timer budget;
  for (int rep = 0; rep < kSetupMinReps ||
                    (rep < kSetupMaxReps && budget.ElapsedSeconds() < kSetupSeconds);
       ++rep) {
    input.reset();  // one parsed copy resident at a time
    tuffy::Timer total;
    auto program = tuffy::ParseProgram(program_text.value());
    if (!program.ok()) {
      std::fprintf(stderr, "program parse: %s\n",
                   program.status().ToString().c_str());
      return nullptr;
    }
    input = std::make_unique<Input>();
    input->program = program.TakeValue();
    tuffy::Timer ev;
    tuffy::Status st = tuffy::ParseEvidence(
        evidence_text.value(), &input->program, &input->evidence);
    if (!st.ok()) {
      std::fprintf(stderr, "evidence parse: %s\n", st.ToString().c_str());
      return nullptr;
    }
    times->evidence_s.push_back(ev.ElapsedSeconds());
    times->total_s.push_back(total.ElapsedSeconds());
  }
  return input;
}

std::map<std::string, double> RegistryValues() {
  std::map<std::string, double> out;
  for (const tuffy::MetricSample& s :
       tuffy::MetricsRegistry::Global().Snapshot()) {
    out[s.name] = s.value;
  }
  return out;
}

double RegistryDelta(const std::map<std::string, double>& before,
                     const std::map<std::string, double>& after,
                     const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

}  // namespace perfbench
