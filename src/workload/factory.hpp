// Backend factory: construct any TM in this repo by name. Used by benches,
// tests and examples so experiment code is backend-agnostic.
//
// Two entry points construct from one recipe table (workload/visit.hpp):
//   make_tm()  (here)                — type-erased core::TransactionalMemory,
//                                      the portability tier every checker and
//                                      the conformance harness drive.
//   visit_tm() (workload/visit.hpp)  — static dispatch to the concrete
//                                      backend type, for hot loops that must
//                                      not pay virtual dispatch per op.
//
// Names:
//   dstm[:<cm>]        DSTM with the given contention manager (default
//                      polite); "dstm-collapse[:<cm>]" enables eager
//                      descriptor collapsing; "dstm-visible[:<cm>]" enables
//                      visible reads (early reader aborts).
//   foctm              Algorithm 2 over CAS-backed fo-consensus (faithful).
//   foctm-hinted       Algorithm 2 with the resolved-prefix hint ablation.
//   foctm-strict       Algorithm 2 over strict (abortable) fo-consensus.
//   tl | tl2 | coarse  The lock-based baselines.
//   tl2-ext            TL2 with read-version extension.
//   norec              NOrec: single global sequence lock, invisible reads,
//                      commit-time value-based revalidation, lazy
//                      write-back. The minimal *progressive* (blocking) TM
//                      the cost-of-obstruction-freedom comparison is
//                      anchored against (see src/norec/norec.hpp).
//   norec-bloom        NOrec with a Bloom-filter write-set gate on the
//                      read path (the classic hot-path ablation).
//   tl2-region         TL2 over the word-granular region layout
//                      (lock::RegionLayout in src/lock/layout.hpp): raw-
//                      memory heap, lock words in a global stripe table,
//                      t-variables laid out as contiguous heap words.
//   norec-region       NOrec over the region layout (no per-word metadata;
//                      the region baseline the stripe sweep compares to).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/tm.hpp"

namespace oftm::workload {

std::unique_ptr<core::TransactionalMemory> make_tm(const std::string& name,
                                                   std::size_t num_tvars);

// Container-sizing entry point: `words` is the ds:: layer's tvars_needed
// total. Boxed recipes need exactly that many t-variables; region recipes
// keep the same scratch t-var array but must also fit the containers'
// statics and node churn in the region heap, so their arena is derived
// from `words` with extra headroom instead of the plain num_tvars formula.
std::unique_ptr<core::TransactionalMemory> make_tm_for_containers(
    const std::string& name, std::size_t words);

// CLI front ends shared by the examples and the service tools: same as
// make_tm / make_tm_for_containers, but an unknown recipe prints the error
// plus the full recipe list to stderr and returns nullptr instead of
// throwing — the caller exits 2. Keeps every binary's usage message in
// sync with the factory grammar.
std::unique_ptr<core::TransactionalMemory> make_tm_cli(const std::string& name,
                                                       std::size_t num_tvars);
std::unique_ptr<core::TransactionalMemory> make_tm_for_containers_cli(
    const std::string& name, std::size_t words);

// Backends every comparative bench sweeps by default.
const std::vector<std::string>& default_backends();

// One recipe per distinct backend configuration: each base backend and
// ablation variant, plus plain DSTM under every registered non-default
// contention manager (cm suffixes on the dstm-collapse/-visible ablations
// are accepted by make_tm but not enumerated). The conformance suite
// instantiates over this list, so a backend added to make_tm must be
// added here to ship.
const std::vector<std::string>& all_backends();

}  // namespace oftm::workload
