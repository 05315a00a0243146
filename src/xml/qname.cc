#include "xml/qname.h"

#include <string>

namespace xqdb {

namespace {

uint64_t PairKey(NsId ns, LocalId local) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(ns)) << 32) |
         static_cast<uint32_t>(local);
}

}  // namespace

NamePool::NamePool() {
  WriterMutexLock lock(mu_);
  InternTextLocked("");  // kNoNamespace
}

int32_t NamePool::InternTextLocked(std::string_view text) {
  auto it = text_ids_.find(text);
  if (it != text_ids_.end()) return it->second;
  const size_t id = texts_.size();
  if (id >= capacity_ || !texts_.EmplaceBack(text)) return kInvalidName;
  text_ids_.emplace(std::string(text), static_cast<int32_t>(id));
  return static_cast<int32_t>(id);
}

Result<int32_t> NamePool::InternPart(std::string_view text) {
  {
    ReaderMutexLock lock(mu_);
    auto it = text_ids_.find(text);
    if (it != text_ids_.end()) return it->second;
  }
  WriterMutexLock lock(mu_);
  const int32_t id = InternTextLocked(text);
  if (id == kInvalidName) return FullError();
  return id;
}

Status NamePool::FullError() {
  return Status::ResourceExhausted(
      "name pool exhausted: no room for another distinct name (limit " +
      std::to_string(kCapacity) + " per table)");
}

NameId NamePool::Intern(std::string_view ns_uri, std::string_view local) {
  {
    ReaderMutexLock lock(mu_);
    auto ns = text_ids_.find(ns_uri);
    auto lo = text_ids_.find(local);
    if (ns != text_ids_.end() && lo != text_ids_.end()) {
      auto it = lookup_.find(PairKey(ns->second, lo->second));
      if (it != lookup_.end()) return it->second;
    }
  }
  WriterMutexLock lock(mu_);
  const NsId ns = InternTextLocked(ns_uri);
  const LocalId lo = InternTextLocked(local);
  if (ns == kInvalidName || lo == kInvalidName) return kInvalidName;
  auto it = lookup_.find(PairKey(ns, lo));  // re-check: raced another Intern
  if (it != lookup_.end()) return it->second;
  const size_t id = entries_.size();
  if (id >= capacity_ || !entries_.EmplaceBack(NameParts{ns, lo})) {
    return kInvalidName;
  }
  lookup_.emplace(PairKey(ns, lo), static_cast<NameId>(id));
  return static_cast<NameId>(id);
}

NameId NamePool::Find(std::string_view ns_uri, std::string_view local) const {
  ReaderMutexLock lock(mu_);
  auto ns = text_ids_.find(ns_uri);
  auto lo = text_ids_.find(local);
  if (ns == text_ids_.end() || lo == text_ids_.end()) return kInvalidName;
  auto it = lookup_.find(PairKey(ns->second, lo->second));
  return it == lookup_.end() ? kInvalidName : it->second;
}

std::string_view NamePool::NamespaceText(NsId ns) const {
  return texts_[static_cast<size_t>(ns)];
}

std::string_view NamePool::LocalText(LocalId local) const {
  return texts_[static_cast<size_t>(local)];
}

std::string_view NamePool::NamespaceOf(NameId id) const {
  return NamespaceText(PartsOf(id).ns);
}

std::string_view NamePool::LocalOf(NameId id) const {
  return LocalText(PartsOf(id).local);
}

std::string NamePool::ToString(NameId id) const {
  if (id == kInvalidName) return "<invalid>";
  std::string_view ns = NamespaceOf(id);
  if (ns.empty()) return std::string(LocalOf(id));
  return "{" + std::string(ns) + "}" + std::string(LocalOf(id));
}

void NamePool::SetCapacityForTesting(size_t max_entries) {
  WriterMutexLock lock(mu_);
  capacity_ = max_entries;
}

}  // namespace xqdb
