#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared plumbing of the repo benchmark: the run configuration, the
// result line, order statistics, peak-RSS probes, and the timed parse of
// a workload's MLN/evidence text (the benchmark's set-up phase).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mln/model.h"
#include "obs/metrics.h"

namespace perfbench {

/// Engine and session seed. Fixed, so that only the generated input
/// changes with the workload seed.
constexpr uint64_t kEngineSeed = 42;

/// Set-up is repeated at least kSetupMinReps times and until
/// kSetupSeconds have passed (at most kSetupMaxReps); setup_s is the
/// median.
constexpr int kSetupMinReps = 3;
constexpr int kSetupMaxReps = 100;
constexpr double kSetupSeconds = 1.5;

/// Command-line settings of one `perfbench run` invocation.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Holds program.mln and evidence.db (written by `perfbench gen`);
  /// also the scratch root for WAL directories.
  std::string dir;
};

/// The run's last stdout line: correctness, operation accounting, and
/// named metrics with units.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Counts `attempted` operations, `failed` of them failed; failures
  /// are logged to stderr with `what`.
  void Ops(uint64_t attempted, uint64_t failed, const std::string& what);
  /// Counts one operation.
  void Op(bool ok, const std::string& what) { Ops(1, ok ? 0 : 1, what); }
  /// A failed output check that is not tied to one operation.
  void Check(bool ok, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  void Print() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool checks_ok_ = true;
};

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
double Median(std::vector<double> v);
/// Nearest-rank quantile q in [0, 1]; 0 when empty.
double Quantile(std::vector<double> v, double q);

/// Resets the kernel's peak-RSS mark so PeakRssMb covers only what runs
/// afterwards.
void ResetPeakRss();
/// Peak resident set size since the last ResetPeakRss, in MiB.
double PeakRssMb();

/// Parsed workload input. Heap-held so the engine's references stay
/// valid however the owner moves.
struct Input {
  tuffy::MlnProgram program;
  tuffy::EvidenceDb evidence;
};

/// Set-up timings of the workload text.
struct ParseTimes {
  std::vector<double> evidence_s;
  std::vector<double> total_s;
};

/// Parses `<dir>/program.mln` and `<dir>/evidence.db` repeatedly (see
/// kSetupMinReps; the file reads are not timed), keeping the last parse. Null on a read
/// or parse error, which is logged.
std::unique_ptr<Input> ParseInput(const std::string& dir, ParseTimes* times);

/// Registry counters/gauges (and histogram .count/.sum_seconds) by name.
std::map<std::string, double> RegistryValues();
/// `after[name] - before[name]`, 0 for an absent name.
double RegistryDelta(const std::map<std::string, double>& before,
                     const std::map<std::string, double>& after,
                     const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
