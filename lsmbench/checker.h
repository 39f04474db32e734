// The benchmark's answer oracle. Every loaded key starts at version 0,
// whose value is the load's DeriveValue; each update writes the next
// version, whose value encodes that version. A read is correct when it
// returns the value of a version it may observe: exactly the last one
// written when one thread both writes and reads, or one inside the range
// [acked before the call, pending after it] when another thread may be
// writing the key concurrently.
#ifndef LSMBENCH_CHECKER_H_
#define LSMBENCH_CHECKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lsm/db_iter.h"

namespace lsmbench {

using lilsm::Key;

/// lilsm's default entry geometry, which the benchmark leaves unchanged.
inline constexpr size_t kKeyBytes = 24;
inline constexpr size_t kValueSize = 100;
inline constexpr size_t kEntryBytes = kKeyBytes + kValueSize;

/// The value the benchmark writes for `key` at `version` (kValueSize
/// bytes into `out`).
void FillValue(Key key, uint32_t version, char* out);

class Oracle {
 public:
  /// `keys` are the loaded keys, strictly increasing.
  explicit Oracle(std::vector<Key> keys);

  size_t size() const { return keys_.size(); }
  Key key(size_t i) const { return keys_[i]; }
  const std::vector<Key>& keys() const { return keys_; }

  uint32_t acked(size_t i) const { return acked_[i].load(); }
  uint32_t pending(size_t i) const { return pending_[i].load(); }

  /// Forgets every update: all keys back at version 0 (a fresh load).
  void Reset();

  /// Reserves the next version of key i before it is sent. Each key has
  /// one writing thread.
  uint32_t BeginWrite(size_t i);
  /// Records that `version` of key i was acknowledged.
  void Ack(size_t i, uint32_t version) { acked_[i].store(version); }

 private:
  std::vector<Key> keys_;
  std::unique_ptr<std::atomic<uint32_t>[]> acked_;
  std::unique_ptr<std::atomic<uint32_t>[]> pending_;
};

/// Each Check* returns "" when the answer is correct, else what is wrong.

/// A point read of `key` that returned OK with `value`, which must hold a
/// version in [lo, hi].
std::string CheckValue(Key key, uint32_t lo, uint32_t hi,
                       const lilsm::Slice& value);

/// A full pass of `it` after all writers stopped: exactly the loaded keys,
/// each holding a version in [acked, pending].
std::string CheckFullPass(const Oracle& oracle, lilsm::Iterator* it);

}  // namespace lsmbench

#endif  // LSMBENCH_CHECKER_H_
