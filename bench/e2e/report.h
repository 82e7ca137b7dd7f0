#ifndef CYCLEQR_BENCH_E2E_REPORT_H_
#define CYCLEQR_BENCH_E2E_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cyqr::e2e {

/// What one benchmark process measured: named metrics with units, the
/// operations it attempted and how many failed, and every failed output
/// check. Json() renders the one-line result object the runner and the
/// comparison script read.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);

  /// Records a failed output check; the run is then not correct.
  void Fail(const std::string& what);

  void AddOperations(int64_t attempted, int64_t failed);

  /// Reported metric names in report order, and the unit of one of them
  /// ("" when not reported).
  std::vector<std::string> names() const;
  std::string unit(const std::string& name) const;

  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  /// One "name value unit" line per metric, for people.
  std::string Table() const;

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  std::string Json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; +inf entries
/// (refused requests) sort last. 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

double Mean(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Shortest round-trip decimal rendering of `value`; non-finite values
/// render as the largest finite double so the output stays valid JSON.
std::string JsonNumber(double value);

/// JSON string literal with quotes and escapes.
std::string JsonString(const std::string& text);

}  // namespace cyqr::e2e

#endif  // CYCLEQR_BENCH_E2E_REPORT_H_
