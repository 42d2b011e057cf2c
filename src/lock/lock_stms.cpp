#include "lock/coarse.hpp"
#include "lock/tl.hpp"
#include "lock/tl2.hpp"
#include "sim/platform.hpp"

namespace oftm::lock {

template class Tl<core::HwPlatform>;
template class Tl<sim::SimPlatform>;
template class LayoutTm<Tl2Protocol<BoxedLayout<core::HwPlatform>>>;
template class LayoutTm<Tl2Protocol<BoxedLayout<sim::SimPlatform>>>;
template class LayoutTm<Tl2Protocol<RegionLayout>>;
template class Coarse<core::HwPlatform>;
template class Coarse<sim::SimPlatform>;

}  // namespace oftm::lock
