#include "index/index_manager.h"

namespace xqdb {

Status IndexManager::AddXmlIndex(const std::string& column, XmlIndex index) {
  WriterMutexLock lock(mu_);
  if (FindXmlIndexByNameLocked(index.name()) != nullptr) {
    return Status::AlreadyExists("index " + index.name() + " already exists");
  }
  xml_indexes_[column].push_back(
      std::make_unique<XmlIndex>(std::move(index)));
  return Status::OK();
}

std::vector<const XmlIndex*> IndexManager::XmlIndexesOn(
    const std::string& column) const {
  ReaderMutexLock lock(mu_);
  std::vector<const XmlIndex*> out;
  auto it = xml_indexes_.find(column);
  if (it == xml_indexes_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& idx : it->second) out.push_back(idx.get());
  return out;
}

std::vector<XmlIndex*> IndexManager::XmlIndexesOn(const std::string& column) {
  ReaderMutexLock lock(mu_);
  std::vector<XmlIndex*> out;
  auto it = xml_indexes_.find(column);
  if (it == xml_indexes_.end()) return out;
  for (const auto& idx : it->second) out.push_back(idx.get());
  return out;
}

const XmlIndex* IndexManager::FindXmlIndexByNameLocked(
    const std::string& name) const {
  for (const auto& [column, list] : xml_indexes_) {
    for (const auto& idx : list) {
      if (idx->name() == name) return idx.get();
    }
  }
  return nullptr;
}

const XmlIndex* IndexManager::FindXmlIndexByName(
    const std::string& name) const {
  ReaderMutexLock lock(mu_);
  return FindXmlIndexByNameLocked(name);
}

}  // namespace xqdb
