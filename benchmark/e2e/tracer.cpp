#include <cstdio>

#include "bench.hpp"

namespace nnbench {

Tracer::Tracer(std::size_t log_cap) : log_cap_(log_cap), origin_(now_ns()) {
  log_.reserve(log_cap);
  stack_.reserve(16);
}

std::size_t Tracer::intern(const char* name) {
  // Span names are string literals: pointer identity finds the usual
  // case without comparing strings.
  for (std::size_t i = 0; i < name_ptrs_.size(); ++i) {
    if (name_ptrs_[i] == name) return i;
  }
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  name_ptrs_.push_back(name);
  names_.emplace_back(name);
  totals_.push_back({});
  return names_.size() - 1;
}

void Tracer::begin(const char* name) {
  const std::size_t id = intern(name);
  std::size_t index = kNoIndex;
  if (log_.size() < log_cap_) {
    const std::uint32_t parent =
        stack_.empty() || stack_.back().log_index == kNoIndex
            ? UINT32_MAX
            : static_cast<std::uint32_t>(stack_.back().log_index);
    index = log_.size();
    log_.push_back({static_cast<std::uint32_t>(id), parent, burst_, 0, 0, 0});
  }
  stack_.push_back({id, 0, 0, index, alloc_count()});
  stack_.back().start = now_ns();  // last, so setup is not timed
}

void Tracer::end(std::uint64_t items) {
  const std::int64_t stop = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const AllocCount a = alloc_count();
  const std::int64_t dur = stop - open.start;
  const std::int64_t self = dur - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;

  Totals& t = totals_[open.name];
  ++t.count;
  t.items += items;
  t.total_ns += dur;
  t.self_ns += self;
  t.allocs += a.calls - open.alloc_at_start.calls;
  t.alloc_bytes += a.bytes - open.alloc_at_start.bytes;

  if (open.log_index != kNoIndex) {
    Logged& l = log_[open.log_index];
    l.start = open.start;
    l.end = stop;
    l.self = self;
  }
}

Tracer::Totals Tracer::totals(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals_[i];
  }
  return {};
}

double Tracer::ns_per_item(const std::string& name) const {
  const Totals t = totals(name);
  return t.items == 0 ? 0.0
                      : static_cast<double>(t.self_ns) /
                            static_cast<double>(t.items);
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,burst,name,start_ns,end_ns,self_ns\n");
  for (std::size_t i = 0; i < log_.size(); ++i) {
    const Logged& l = log_[i];
    if (l.end == 0) continue;  // still open when the run ended
    std::fprintf(f, "%zu,%lld,%llu,%s,%lld,%lld,%lld\n", i,
                 l.parent == UINT32_MAX ? -1LL
                                        : static_cast<long long>(l.parent),
                 static_cast<unsigned long long>(l.burst),
                 names_[l.name].c_str(),
                 static_cast<long long>(l.start - origin_),
                 static_cast<long long>(l.end - origin_),
                 static_cast<long long>(l.self));
  }
  return std::fclose(f) == 0;
}

}  // namespace nnbench
