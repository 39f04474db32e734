#include "checker.h"

#include <algorithm>
#include <cstring>

#include "workload/dataset.h"

namespace lsmbench {

using lilsm::Slice;

void FillValue(Key key, uint32_t version, char* out) {
  if (version == 0) {
    const std::string loaded = lilsm::DeriveValue(key, kValueSize);
    std::memcpy(out, loaded.data(), kValueSize);
    return;
  }
  // The version leads, so a reader can tell which update it saw; the
  // rest is a key- and version-dependent pattern.
  std::memcpy(out, &version, sizeof(version));
  uint64_t x = (key ^ (uint64_t{version} << 32)) * 0xC2B2AE3D27D4EB4Full + 7;
  for (size_t i = sizeof(version); i < kValueSize; i += 8) {
    x ^= x >> 29;
    x *= 0x94D049BB133111EBull;
    std::memcpy(out + i, &x, std::min<size_t>(8, kValueSize - i));
  }
}

Oracle::Oracle(std::vector<Key> keys)
    : keys_(std::move(keys)),
      acked_(new std::atomic<uint32_t>[keys_.size()]),
      pending_(new std::atomic<uint32_t>[keys_.size()]) {
  Reset();
}

void Oracle::Reset() {
  for (size_t i = 0; i < keys_.size(); i++) {
    acked_[i].store(0, std::memory_order_relaxed);
    pending_[i].store(0, std::memory_order_relaxed);
  }
}

uint32_t Oracle::BeginWrite(size_t i) {
  const uint32_t version = pending_[i].load() + 1;
  pending_[i].store(version);
  return version;
}

namespace {

bool HoldsVersion(Key key, uint32_t version, const Slice& value) {
  char expected[kValueSize];
  FillValue(key, version, expected);
  return value.size() == kValueSize &&
         std::memcmp(value.data(), expected, kValueSize) == 0;
}

std::string Describe(const char* what, Key key, uint32_t lo, uint32_t hi) {
  return std::string(what) + " for key " + std::to_string(key) +
         " (expected version " + std::to_string(lo) +
         (lo == hi ? "" : ".." + std::to_string(hi)) + ")";
}

}  // namespace

std::string CheckValue(Key key, uint32_t lo, uint32_t hi, const Slice& value) {
  if (lo == hi) {
    return HoldsVersion(key, lo, value) ? "" : Describe("wrong value", key, lo, hi);
  }
  if (lo == 0 && HoldsVersion(key, 0, value)) return "";
  uint32_t seen = 0;
  if (value.size() == kValueSize) std::memcpy(&seen, value.data(), sizeof(seen));
  if (seen >= std::max<uint32_t>(lo, 1) && seen <= hi &&
      HoldsVersion(key, seen, value)) {
    return "";
  }
  return Describe("wrong value", key, lo, hi);
}

std::string CheckFullPass(const Oracle& oracle, lilsm::Iterator* it) {
  size_t i = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next(), i++) {
    if (i >= oracle.size()) {
      return "full pass: extra key " + std::to_string(it->key());
    }
    if (it->key() != oracle.key(i)) {
      return "full pass: key " + std::to_string(it->key()) + " at position " +
             std::to_string(i) + ", expected " + std::to_string(oracle.key(i));
    }
    std::string err =
        CheckValue(oracle.key(i), oracle.acked(i), oracle.pending(i), it->value());
    if (!err.empty()) return "full pass: " + err;
  }
  if (!it->status().ok()) return "full pass: " + it->status().ToString();
  if (i != oracle.size()) {
    return "full pass: " + std::to_string(i) + " keys, expected " +
           std::to_string(oracle.size());
  }
  return "";
}

}  // namespace lsmbench
