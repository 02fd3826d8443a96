#pragma once

// Interned dense identifiers for control-plane hot paths.
//
// Admission, reclamation and routing used to key every per-TPU and per-model
// probe on heap-allocated std::string ids (map<string, ...> in TpuState, the
// registry and the LB service). At 100k-TPU scale those string compares and
// node allocations dominate the scan. A process-wide symbol table interns
// each distinct id once and hands out a dense u32 handle; all hot state is
// then vectors indexed (or small dense lists keyed) by handle. Names are
// resolved only where they enter or leave the system (registry lookups, pod
// specs, Load commands, fault targets, reports); placements, LB weights and
// every per-frame hop carry the handle alone.
//
// Handles are append-only for the lifetime of their *domain*, so a
// ModelId/TpuId can be cached freely (in allocations, LB configs, benchmark
// fixtures) and never dangles. The tables are mutex-guarded: interning
// happens on the control plane (admission, registration), never per frame.
//
// Domains: by default every thread resolves modelInterner()/tpuInterner()/
// nodeInterner() to one process-wide InternDomain — the seed behaviour.
// That shared table is hidden global state for the sweep runner: two
// concurrent Simulator runs interleave their intern calls, so the dense
// value a name receives depends on what other threads did first, and any
// tie-break or iteration keyed on handle values diverges from a solo run
// (the tables also grow without bound across a long sweep, dragging every
// handle-indexed vector with them). An InternScope pushes a fresh domain
// for the current thread; a sweep worker wraps each grid point in one so
// handle assignment is a pure function of that run's own intern sequence —
// bit-identical to the same seed running alone in a fresh process. Handles
// must not be cached across a scope boundary.

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace microedge {

class Interner {
 public:
  static constexpr std::uint32_t kInvalid = 0xffffffffu;

  // Returns the existing handle for `name` or assigns the next dense one.
  std::uint32_t intern(std::string_view name);
  // Returns kInvalid if `name` was never interned (no insertion).
  std::uint32_t lookup(std::string_view name) const;
  // Precondition: `id` was returned by intern(). The reference is stable for
  // the process lifetime.
  const std::string& name(std::uint32_t id) const;
  std::size_t size() const;

 private:
  // Heterogeneous lookup: probing with a string_view must not materialize a
  // temporary std::string.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::uint32_t, StringHash, std::equal_to<>>
      ids_;
  // Pointers into ids_ keys: stable across rehash (node-based buckets).
  std::vector<const std::string*> names_;
};

// Typed u32 handles so a TPU handle cannot be used where a model handle is
// expected. Default-constructed handles are invalid ("no id").
struct ModelId {
  std::uint32_t value = Interner::kInvalid;
  constexpr bool valid() const { return value != Interner::kInvalid; }
  friend constexpr bool operator==(ModelId a, ModelId b) {
    return a.value == b.value;
  }
  friend constexpr bool operator!=(ModelId a, ModelId b) {
    return a.value != b.value;
  }
};

struct TpuId {
  std::uint32_t value = Interner::kInvalid;
  constexpr bool valid() const { return value != Interner::kInvalid; }
  friend constexpr bool operator==(TpuId a, TpuId b) {
    return a.value == b.value;
  }
  friend constexpr bool operator!=(TpuId a, TpuId b) {
    return a.value != b.value;
  }
};

// Cluster node (RPi) handle: the data plane resolves transfer latencies by
// comparing/indexing these instead of probing string node names per frame.
struct NodeId {
  std::uint32_t value = Interner::kInvalid;
  constexpr bool valid() const { return value != Interner::kInvalid; }
  friend constexpr bool operator==(NodeId a, NodeId b) {
    return a.value == b.value;
  }
  friend constexpr bool operator!=(NodeId a, NodeId b) {
    return a.value != b.value;
  }
};

// One symbol table per id kind. A domain is the unit of handle validity.
struct InternDomain {
  Interner model;
  Interner tpu;
  Interner node;
};

// The domain the calling thread currently resolves ids against: the
// innermost live InternScope on this thread, else the process-wide default.
InternDomain& currentInternDomain();

// RAII: swaps a fresh, empty InternDomain in for the current thread and
// restores the previous one on destruction. Scopes nest. Everything that
// interns or resolves ids (Testbed, Simulator runs, reports) must live and
// die strictly inside the scope.
class InternScope {
 public:
  InternScope();
  ~InternScope();
  InternScope(const InternScope&) = delete;
  InternScope& operator=(const InternScope&) = delete;

  InternDomain& domain() { return fresh_; }

 private:
  InternDomain fresh_;
  InternDomain* prev_;
};

// RAII: makes the calling thread resolve ids against a domain owned
// elsewhere, restoring the previous binding on destruction. The sharded
// simulator's worker threads adopt the harness thread's domain so the dense
// handles minted at setup stay valid on every shard (the Interner itself is
// mutex-guarded, and handle *assignment* only happens on the single-threaded
// setup path, so adoption adds no ordering hazard).
class InternDomainAdopt {
 public:
  explicit InternDomainAdopt(InternDomain& domain);
  ~InternDomainAdopt();
  InternDomainAdopt(const InternDomainAdopt&) = delete;
  InternDomainAdopt& operator=(const InternDomainAdopt&) = delete;

 private:
  InternDomain* prev_;
};

// Symbol tables of the current thread's domain, one per id kind.
Interner& modelInterner();
Interner& tpuInterner();
Interner& nodeInterner();

inline ModelId internModel(std::string_view name) {
  return ModelId{modelInterner().intern(name)};
}
inline ModelId lookupModel(std::string_view name) {
  return ModelId{modelInterner().lookup(name)};
}
inline const std::string& modelName(ModelId id) {
  return modelInterner().name(id.value);
}

inline TpuId internTpu(std::string_view name) {
  return TpuId{tpuInterner().intern(name)};
}
inline TpuId lookupTpu(std::string_view name) {
  return TpuId{tpuInterner().lookup(name)};
}
inline const std::string& tpuName(TpuId id) {
  return tpuInterner().name(id.value);
}

inline NodeId internNode(std::string_view name) {
  return NodeId{nodeInterner().intern(name)};
}
inline NodeId lookupNode(std::string_view name) {
  return NodeId{nodeInterner().lookup(name)};
}
inline const std::string& nodeName(NodeId id) {
  return nodeInterner().name(id.value);
}

}  // namespace microedge
