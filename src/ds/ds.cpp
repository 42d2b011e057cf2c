#include "ds/thashmap.hpp"
#include "ds/tlist.hpp"
#include "ds/tqueue.hpp"
#include "ds/tskiplist.hpp"

// Header-only container templates; this TU anchors the library target and
// force-compiles every container over both memory models so a layout
// regression breaks the library build, not the first client.

namespace oftm::ds {

template class TListSetT<core::BoxedMemory>;
template class TListSetT<core::RegionMemory>;
template class TSkipListSetT<core::BoxedMemory>;
template class TSkipListSetT<core::RegionMemory>;
template class THashMapT<core::BoxedMemory>;
template class THashMapT<core::RegionMemory>;
template class TQueueT<core::BoxedMemory>;
template class TQueueT<core::RegionMemory>;

}  // namespace oftm::ds
