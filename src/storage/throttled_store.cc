#include "storage/throttled_store.h"

#include <thread>

#include "common/clock.h"

namespace qox {

Status ThrottledStore::Scan(size_t batch_size, const FanOut& fan_out,
                            const Consumer& consumer) const {
  if (bytes_per_second_ <= 0) {
    return inner_->Scan(batch_size, fan_out, consumer);
  }
  const int64_t start = NowMicros();
  size_t bytes_seen = 0;
  return inner_->Scan(batch_size, fan_out, [&](RowBatch& batch) -> Status {
    bytes_seen += batch.ByteSize();
    // Pace delivery: this batch may not arrive before the channel could
    // have transferred its bytes.
    const int64_t earliest =
        start + static_cast<int64_t>(static_cast<double>(bytes_seen) /
                                     bytes_per_second_ * 1e6);
    const int64_t now = NowMicros();
    if (now < earliest) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(earliest - now));
    }
    return consumer(batch);
  });
}

}  // namespace qox
