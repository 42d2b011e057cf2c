// Static-dispatch backend factory: construct the TM a recipe names as its
// *concrete* type and hand it to a generic lambda. Where make_tm() returns
// a type-erased core::TransactionalMemory (one virtual call per operation),
// visit_tm() lets the driver and benches instantiate their hot loops per
// backend — reads, writes and commits devirtualize and inline, so harness
// overhead stops masking the backend deltas the repo exists to measure.
//
//   workload::visit_tm(name, num_tvars, [&](auto& tm) {
//     result = workload::run_workload(tm, config);  // concrete overload
//   });
//
// Both entry points construct from the one recipe table below
// (detail::build_recipe), so they accept the same names with the same
// options and the same errors; a drift test in session_reuse_test.cpp
// still pins them against each other. The TM lives for the duration of
// the call; the lambda's return value (if any) is passed through.
#pragma once

#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "cm/managers.hpp"
#include "core/region.hpp"
#include "dstm/dstm.hpp"
#include "foctm/foctm.hpp"
#include "lock/coarse.hpp"
#include "lock/tl.hpp"
#include "lock/tl2.hpp"
#include "norec/norec.hpp"

namespace oftm::workload {
namespace detail {

template <typename Tm>
inline constexpr std::type_identity<Tm> kBackend{};

// The recipe table (grammar in workload/factory.hpp): parses `name` once
// and returns build(kBackend<Tm>, constructor arguments...) for the
// concrete backend it names. `for_containers` selects
// make_tm_for_containers's arena sizing for the region recipes.
template <typename Build>
auto build_recipe(const std::string& name, std::size_t num_tvars,
                  bool for_containers, Build&& build) {
  std::string base = name;
  std::string cm_name = "polite";
  bool has_cm = false;
  if (const auto colon = name.find(':'); colon != std::string::npos) {
    base = name.substr(0, colon);
    cm_name = name.substr(colon + 1);
    has_cm = true;
  }
  const bool is_dstm =
      base == "dstm" || base == "dstm-collapse" || base == "dstm-visible";
  // Only the DSTM family takes a contention manager; a ':<cm>' suffix on
  // any other backend is a recipe typo and must fail loudly, not silently
  // run the base backend.
  if (has_cm && !is_dstm) {
    throw std::invalid_argument("backend does not take a contention manager: " +
                                name);
  }

  using CasFoctm =
      foctm::Foctm<core::HwPlatform, foc::CasFocPolicy<core::HwPlatform>>;
  using StrictFoctm =
      foctm::Foctm<core::HwPlatform, foc::StrictFocPolicy<core::HwPlatform>>;
  // Region recipes run containers over the same t-var word array plus the
  // containers' statics (≈ the same words again), node churn, and slack
  // for size-class rounding; plain recipes size the arena from num_tvars.
  core::RegionOptions region;
  if (for_containers) {
    region.capacity_bytes =
        3 * num_tvars * sizeof(core::Value) + (std::size_t{2} << 20);
  }

  if (is_dstm) {
    dstm::DstmOptions options;
    options.eager_collapse = (base == "dstm-collapse");
    options.visible_reads = (base == "dstm-visible");
    return build(kBackend<dstm::HwDstm>, num_tvars, cm::make_manager(cm_name),
                 options);
  }
  if (base == "foctm") {
    return build(kBackend<CasFoctm>, num_tvars,
                 foctm::FoctmOptions{/*use_hints=*/false});
  }
  if (base == "foctm-hinted") {
    return build(kBackend<CasFoctm>, num_tvars,
                 foctm::FoctmOptions{/*use_hints=*/true});
  }
  if (base == "foctm-strict") {
    return build(kBackend<StrictFoctm>, num_tvars,
                 foctm::FoctmOptions{/*use_hints=*/true});
  }
  if (base == "tl") return build(kBackend<lock::HwTl>, num_tvars);
  if (base == "tl2") return build(kBackend<lock::HwTl2>, num_tvars);
  if (base == "tl2-ext") {
    lock::Tl2Options options;
    options.rv_extension = true;
    return build(kBackend<lock::HwTl2>, num_tvars, options);
  }
  if (base == "coarse") return build(kBackend<lock::HwCoarse>, num_tvars);
  if (base == "norec") return build(kBackend<norec::HwNorec>, num_tvars);
  if (base == "norec-bloom") {
    norec::NorecOptions options;
    options.bloom_reads = true;
    return build(kBackend<norec::HwNorec>, num_tvars, options);
  }
  if (base == "tl2-region") {
    return build(kBackend<lock::Tl2Region>, num_tvars, region);
  }
  if (base == "norec-region") {
    return build(kBackend<norec::NorecRegion>, num_tvars, region);
  }
  throw std::invalid_argument("unknown TM backend: " + name);
}

}  // namespace detail

template <typename F>
auto visit_tm(const std::string& name, std::size_t num_tvars, F&& f) {
  // All branches must agree on the return type; a generic lambda does.
  using R = std::invoke_result_t<F&, norec::HwNorec&>;
  return detail::build_recipe(
      name, num_tvars, /*for_containers=*/false,
      [&f](auto backend, auto&&... args) -> R {
        typename decltype(backend)::type tm(
            std::forward<decltype(args)>(args)...);
        return f(tm);
      });
}

}  // namespace oftm::workload
