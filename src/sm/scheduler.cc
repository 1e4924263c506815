#include "sm/scheduler.h"

#include "common/check.h"

namespace grs {

WarpScheduler::WarpScheduler(SchedulerKind kind, std::uint32_t total_slots,
                             std::uint32_t group_size)
    : kind_(kind), group_size_(group_size) {
  GRS_CHECK(total_slots >= 1);
  GRS_CHECK(group_size >= 1);
  n_groups_ = (total_slots + group_size - 1) / group_size;
}

}  // namespace grs
