#include "core/admission_ledger.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace microedge {

void AdmissionLedger::reconfigure(const TargetCapacity* targets,
                                  std::size_t count, double overcommit) {
  // Zombie pass: every existing entry loses its capacity; those re-named
  // below get the fresh value, the rest only drain.
  for (Entry& e : entries_) e.capacityMilli = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t capacity = static_cast<std::int64_t>(
        std::llround(static_cast<double>(targets[i].shareMilli) * overcommit));
    const std::uint32_t idx = entryFor(targets[i].tpu);
    if (idx == kNoEntry) {
      Entry e;
      e.tpu = targets[i].tpu;
      e.capacityMilli = capacity;
      entries_.push_back(e);
    } else {
      // A weight split across duplicate entries never happens (configure
      // emits one weight per TPU), but accumulate defensively.
      entries_[idx].capacityMilli += capacity;
    }
  }
}

std::uint32_t AdmissionLedger::entryFor(TpuId tpu) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].tpu == tpu) return static_cast<std::uint32_t>(i);
  }
  return kNoEntry;
}

// The ledger's checks hold in every build, as SLEdge panics on the same
// underflow: a bad entry index or a credit without a charge is a pipeline
// bug, and a silently negative charge would skew every later admission
// decision on that target. Each prints its context and aborts.
AdmissionLedger::Entry& AdmissionLedger::checkedEntry(
    const char* op, std::uint32_t entry, std::uint32_t estimateMilli) {
  if (entry >= entries_.size()) {
    std::fprintf(stderr,
                 "AdmissionLedger: %s: entry %u out of range (%zu entries, "
                 "estimate=%u milli)\n",
                 op, entry, entries_.size(), estimateMilli);
    std::abort();
  }
  return entries_[entry];
}

bool AdmissionLedger::tryCharge(std::uint32_t entry,
                                std::uint32_t estimateMilli) {
  Entry& e = checkedEntry("charge", entry, estimateMilli);
  // Progress rule: an idle target always takes one frame, however large the
  // estimate; otherwise the charge must fit under the capacity line.
  if (e.chargedMilli != 0 &&
      e.chargedMilli + static_cast<std::int64_t>(estimateMilli) >
          e.capacityMilli) {
    ++rejected_;
    return false;
  }
  e.chargedMilli += static_cast<std::int64_t>(estimateMilli);
  ++accepted_;
  return true;
}

void AdmissionLedger::credit(std::uint32_t entry,
                             std::uint32_t estimateMilli) {
  Entry& e = checkedEntry("credit", entry, estimateMilli);
  if (e.chargedMilli < static_cast<std::int64_t>(estimateMilli)) {
    std::fprintf(stderr,
                 "AdmissionLedger: credit without charge (entry=%u tpu=%s "
                 "estimate=%u charged=%lld, milli units)\n",
                 entry, tpuName(e.tpu).c_str(), estimateMilli,
                 static_cast<long long>(e.chargedMilli));
    std::abort();
  }
  e.chargedMilli -= static_cast<std::int64_t>(estimateMilli);
  ++credited_;
}

std::int64_t AdmissionLedger::chargedMilli() const {
  std::int64_t total = 0;
  for (const Entry& e : entries_) total += e.chargedMilli;
  return total;
}

std::int64_t AdmissionLedger::capacityMilli() const {
  std::int64_t total = 0;
  for (const Entry& e : entries_) total += e.capacityMilli;
  return total;
}

}  // namespace microedge
