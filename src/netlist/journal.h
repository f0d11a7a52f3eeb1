// Mutation journal: the netlist's record of what changed since any observer
// last looked.
//
// Every Netlist mutator appends entries describing the cells whose timing
// could be affected by the edit, instead of silently invalidating the whole
// design. Consumers (the incremental STA) keep a cursor — the sequence
// number up to which they have already reacted — and ask for `since(cursor)`
// to obtain exactly the pending mutations. Multiple independent consumers
// are supported; each owns its own cursor.
//
// Entries are tiny (kind + cell id) and the journal only ever grows within
// one optimization session, so recording is a single push_back on the hot
// mutation path. `collapse()` discards the backlog while keeping sequence
// numbers monotone; a consumer whose cursor predates the collapse point is
// told so (`Underflow`) and must fall back to a full recompute.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"

namespace rlccd {

enum class MutationKind : std::uint8_t {
  // The cell's own arcs or the loads of its connected nets changed
  // (resize, sink-capacitance change, wire-parasitic refresh).
  Electrical,
  // The cell moved: wire delays of every net it touches changed.
  Moved,
  // Connectivity around the cell changed (new cell, sink re-targeted,
  // input nets swapped) — the timing-graph topology must be patched.
  Structural,
};

struct Mutation {
  MutationKind kind;
  CellId cell;
};

class MutationJournal {
 public:
  // Sequence number one past the newest entry; strictly monotone across
  // record() and collapse().
  [[nodiscard]] std::uint64_t seq() const { return base_ + entries_.size(); }

  void record(MutationKind kind, CellId cell) {
    entries_.push_back(Mutation{kind, cell});
  }

  // Entries in [from, seq()). `underflow` (when non-null) is set when `from`
  // predates the retained window, in which case the full backlog is returned
  // and the caller must treat everything as dirty.
  [[nodiscard]] std::span<const Mutation> since(std::uint64_t from,
                                                bool* underflow = nullptr) const {
    if (from < base_) {
      if (underflow != nullptr) *underflow = true;
      return entries_;
    }
    if (underflow != nullptr) *underflow = false;
    std::uint64_t offset = from - base_;
    if (offset >= entries_.size()) return {};
    return std::span<const Mutation>(entries_).subspan(
        static_cast<std::size_t>(offset));
  }

  // Drops the backlog (e.g. after design construction) without disturbing
  // sequence numbering.
  void collapse() {
    base_ += entries_.size();
    entries_.clear();
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::vector<Mutation> entries_;
  std::uint64_t base_ = 0;
};

}  // namespace rlccd
