#include "storage/atom_store.h"

#include <mutex>

#include "common/crc32.h"

namespace turbdb {

VerifyReport AtomStore::Verify(const std::function<void(uint64_t)>& pace) {
  // Volatile stores have no medium to rot: a content sweep over the
  // digest rows counts every atom clean.
  VerifyReport report;
  std::vector<AtomDigest> rows;
  if (!DigestRows(&rows).ok()) return report;
  for (const AtomDigest& row : rows) {
    ++report.atoms_verified;
    report.bytes_verified += row.bytes;
    if (pace) pace(row.bytes);
  }
  return report;
}

Status AtomStore::Visit(const AtomKey& key,
                       const std::function<void(const Atom&)>& fn) const {
  TURBDB_ASSIGN_OR_RETURN(Atom atom, Get(key));
  fn(atom);
  return Status::OK();
}

Status InMemoryAtomStore::Put(const Atom& atom) {
  std::unique_lock lock(mutex_);
  auto [it, inserted] = atoms_.emplace(atom.key, atom);
  if (!inserted) {
    return Status::AlreadyExists("atom already stored");
  }
  total_bytes_ += atom.SizeBytes();
  return Status::OK();
}

Result<Atom> InMemoryAtomStore::Get(const AtomKey& key) const {
  Atom atom;
  TURBDB_RETURN_NOT_OK(Visit(key, [&](const Atom& stored) { atom = stored; }));
  return atom;
}

Status InMemoryAtomStore::Visit(
    const AtomKey& key, const std::function<void(const Atom&)>& fn) const {
  std::shared_lock lock(mutex_);
  auto it = atoms_.find(key);
  if (it == atoms_.end()) {
    return Status::NotFound("atom not found");
  }
  fn(it->second);
  return Status::OK();
}

bool InMemoryAtomStore::Contains(const AtomKey& key) const {
  std::shared_lock lock(mutex_);
  return atoms_.count(key) > 0;
}

Status InMemoryAtomStore::Scan(
    int32_t timestep, const MortonRange& range,
    const std::function<void(const Atom&)>& fn) const {
  std::shared_lock lock(mutex_);
  auto it = atoms_.lower_bound(AtomKey{timestep, range.lo});
  for (; it != atoms_.end(); ++it) {
    if (it->first.timestep != timestep || it->first.zindex >= range.hi) break;
    fn(it->second);
  }
  return Status::OK();
}

uint64_t InMemoryAtomStore::AtomCount() const {
  std::shared_lock lock(mutex_);
  return atoms_.size();
}

uint64_t InMemoryAtomStore::TotalBytes() const {
  std::shared_lock lock(mutex_);
  return total_bytes_;
}

Status InMemoryAtomStore::DigestRows(std::vector<AtomDigest>* rows) const {
  std::shared_lock lock(mutex_);
  rows->reserve(rows->size() + atoms_.size());
  for (const auto& [key, atom] : atoms_) {
    AtomDigest row;
    row.timestep = key.timestep;
    row.zindex = key.zindex;
    row.bytes = atom.data.size() * sizeof(float);
    row.crc = Crc32(atom.data.data(), row.bytes);
    rows->push_back(row);
  }
  return Status::OK();
}

Status InMemoryAtomStore::Repair(const Atom& atom) {
  std::unique_lock lock(mutex_);
  auto it = atoms_.find(atom.key);
  if (it != atoms_.end()) {
    total_bytes_ -= it->second.SizeBytes();
    it->second = atom;
  } else {
    atoms_.emplace(atom.key, atom);
  }
  total_bytes_ += atom.SizeBytes();
  return Status::OK();
}

}  // namespace turbdb
