#include "workload/factory.hpp"

#include <cstdio>
#include <stdexcept>

#include "workload/visit.hpp"

namespace oftm::workload {
namespace {

std::unique_ptr<core::TransactionalMemory> build(const std::string& name,
                                                 std::size_t num_tvars,
                                                 bool for_containers) {
  return detail::build_recipe(
      name, num_tvars, for_containers,
      [](auto backend, auto&&... args)
          -> std::unique_ptr<core::TransactionalMemory> {
        return std::make_unique<typename decltype(backend)::type>(
            std::forward<decltype(args)>(args)...);
      });
}

// The CLI error path: an unknown recipe prints the error and the recipe
// list, and yields nullptr for the caller to exit 2 on.
std::unique_ptr<core::TransactionalMemory> build_cli(const std::string& name,
                                                     std::size_t num_tvars,
                                                     bool for_containers) {
  try {
    return build(name, num_tvars, for_containers);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n\navailable backend recipes:\n",
                 e.what());
    for (const std::string& recipe : all_backends()) {
      std::fprintf(stderr, "  %s\n", recipe.c_str());
    }
    std::fprintf(stderr,
                 "(dstm-collapse/dstm-visible also accept a ':<cm>' "
                 "contention-manager suffix)\n");
    return nullptr;
  }
}

}  // namespace

std::unique_ptr<core::TransactionalMemory> make_tm(const std::string& name,
                                                   std::size_t num_tvars) {
  return build(name, num_tvars, /*for_containers=*/false);
}

std::unique_ptr<core::TransactionalMemory> make_tm_for_containers(
    const std::string& name, std::size_t words) {
  return build(name, words, /*for_containers=*/true);
}

std::unique_ptr<core::TransactionalMemory> make_tm_cli(const std::string& name,
                                                       std::size_t num_tvars) {
  return build_cli(name, num_tvars, /*for_containers=*/false);
}

std::unique_ptr<core::TransactionalMemory> make_tm_for_containers_cli(
    const std::string& name, std::size_t words) {
  return build_cli(name, words, /*for_containers=*/true);
}

const std::vector<std::string>& default_backends() {
  static const std::vector<std::string> names = {
      "dstm", "tl", "tl2", "coarse", "norec", "foctm-hinted"};
  return names;
}

const std::vector<std::string>& all_backends() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v = {
        "dstm",         "dstm-collapse", "dstm-visible", "foctm",
        "foctm-hinted", "foctm-strict",  "tl",           "tl2",
        "tl2-ext",      "coarse",        "norec",        "norec-bloom",
        "tl2-region",   "norec-region",
    };
    for (const std::string& cm_name : cm::manager_names()) {
      if (cm_name == "polite") continue;  // the plain "dstm" default
      v.push_back("dstm:" + cm_name);
    }
    return v;
  }();
  return names;
}

}  // namespace oftm::workload
