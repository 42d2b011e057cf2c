// The four workloads; each runs set-up, its timed phase(s) and its
// correctness gates, and returns every metric it measured.
#pragma once

#include "common.hpp"

namespace perfbench {

Outcome run_kv_point(const Options& opt);
Outcome run_kv_scan(const Options& opt);
Outcome run_of_contended(const Options& opt);
Outcome run_history_check(const Options& opt);

}  // namespace perfbench
