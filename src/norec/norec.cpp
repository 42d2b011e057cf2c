#include "norec/norec.hpp"

#include "sim/platform.hpp"

namespace oftm {

template class lock::LayoutTm<
    norec::NorecProtocol<lock::BoxedLayout<core::HwPlatform>>>;
template class lock::LayoutTm<
    norec::NorecProtocol<lock::BoxedLayout<sim::SimPlatform>>>;
template class lock::LayoutTm<norec::NorecProtocol<lock::RegionLayout>>;

}  // namespace oftm
