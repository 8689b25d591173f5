#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <shared_mutex>
#include <vector>

#include "array/atom.h"
#include "array/morton.h"
#include "common/result.h"
#include "common/status.h"

namespace turbdb {

/// One atom's content digest for anti-entropy comparison. `crc` is
/// recomputed from the payload bytes as stored *now* — not copied from
/// the record header — so a bit-flipped payload (whose header CRC still
/// describes the original bytes) yields a different row than a healthy
/// replica's copy.
struct AtomDigest {
  int32_t timestep = 0;
  uint64_t zindex = 0;
  uint32_t crc = 0;    ///< CRC32 of the payload contents as stored.
  uint64_t bytes = 0;  ///< Payload bytes.
};

/// Outcome of one full verification sweep over a store.
struct VerifyReport {
  uint64_t atoms_verified = 0;  ///< Atoms whose checksum matched.
  uint64_t atoms_corrupt = 0;   ///< Atoms that failed (now quarantined).
  uint64_t bytes_verified = 0;  ///< Payload bytes read and checked.
  /// Keys that failed verification this sweep, in key order.
  std::vector<AtomKey> corrupt;
};

/// Ordered storage for the atoms of one (dataset, field) pair, keyed by
/// (timestep, zindex) — the clustered primary key of the paper's data
/// tables. Implementations must support concurrent readers.
class AtomStore {
 public:
  virtual ~AtomStore() = default;

  /// Inserts an atom; kAlreadyExists if the key is present (simulation
  /// output is immutable once ingested).
  virtual Status Put(const Atom& atom) = 0;

  /// Point lookup by exact key.
  virtual Result<Atom> Get(const AtomKey& key) const = 0;

  /// Calls `fn` once with the atom stored under `key`, without copying
  /// it where the store can: the in-memory store visits under its shared
  /// lock, so `fn` must not call back into the store. The default reads a
  /// copy with Get(). Fails as Get() does, without calling `fn`.
  virtual Status Visit(const AtomKey& key,
                       const std::function<void(const Atom&)>& fn) const;

  virtual bool Contains(const AtomKey& key) const = 0;

  /// Ordered scan of all atoms of `timestep` whose z-index lies in
  /// `range`; `fn` is invoked in increasing z-index order.
  virtual Status Scan(int32_t timestep, const MortonRange& range,
                      const std::function<void(const Atom&)>& fn) const = 0;

  virtual uint64_t AtomCount() const = 0;

  /// Total payload bytes stored.
  virtual uint64_t TotalBytes() const = 0;

  /// Flushes accepted writes to stable storage. A no-op for volatile
  /// stores; durable stores fsync so atoms acknowledged before Sync()
  /// returns survive a crash. Called once per ingest batch, not per Put.
  virtual Status Sync() { return Status::OK(); }

  /// Re-reads every atom and re-checks its payload checksum, off the
  /// query read path. Durable stores quarantine atoms that fail (reads
  /// of a quarantined key fast-fail kCorruption instead of serving bad
  /// bytes); an atom that verifies clean again is un-quarantined.
  /// `pace`, when set, is invoked with the payload bytes just read so a
  /// caller can rate-limit the sweep.
  virtual VerifyReport Verify(const std::function<void(uint64_t)>& pace = {});

  /// Appends one AtomDigest row per stored atom in key order (all
  /// timesteps), with `crc` recomputed from the stored payload bytes.
  /// Quarantined/corrupt atoms still produce rows — their divergent
  /// digests are what lets a peer locate the damage.
  virtual Status DigestRows(std::vector<AtomDigest>* rows) const {
    (void)rows;
    return Status::NotSupported("store does not support digests");
  }

  /// Replaces (or inserts) the stored copy of `atom` with the supplied
  /// bytes — the healing path once a healthy peer provides a known-good
  /// copy. Unlike Put, an existing key is overwritten and any
  /// quarantine on it is cleared.
  virtual Status Repair(const Atom& atom) {
    (void)atom;
    return Status::NotSupported("store does not support repair");
  }

  /// Atoms currently quarantined (confirmed corrupt, reads fast-fail).
  virtual uint64_t QuarantinedCount() const { return 0; }
};

/// Heap-backed store: a sorted map guarded by a shared mutex. This is the
/// default substrate for benchmarks (device *time* comes from the cost
/// models, so the physical medium of the simulation data is irrelevant to
/// the measured shapes).
class InMemoryAtomStore : public AtomStore {
 public:
  Status Put(const Atom& atom) override;
  Result<Atom> Get(const AtomKey& key) const override;
  Status Visit(const AtomKey& key,
               const std::function<void(const Atom&)>& fn) const override;
  bool Contains(const AtomKey& key) const override;
  Status Scan(int32_t timestep, const MortonRange& range,
              const std::function<void(const Atom&)>& fn) const override;
  uint64_t AtomCount() const override;
  uint64_t TotalBytes() const override;
  Status DigestRows(std::vector<AtomDigest>* rows) const override;
  Status Repair(const Atom& atom) override;

 private:
  mutable std::shared_mutex mutex_;
  std::map<AtomKey, Atom> atoms_;
  uint64_t total_bytes_ = 0;
};

}  // namespace turbdb
