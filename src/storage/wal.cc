#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/logging.h"

namespace turbdb {

namespace {

constexpr uint32_t kWalMagic = 0x4C415754;  // 'TWAL'
constexpr size_t kFrameBytes = 12;          // magic + payload_bytes + crc.

Status ErrnoStatus(const std::string& op) {
  return Status::IOError(op + ": " + std::strerror(errno));
}

void PutU16(std::vector<uint8_t>* out, uint16_t value) {
  out->push_back(static_cast<uint8_t>(value));
  out->push_back(static_cast<uint8_t>(value >> 8));
}

void PutU32(std::vector<uint8_t>* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

void PutU64(std::vector<uint8_t>* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

bool GetU16(const uint8_t* data, size_t size, size_t* pos, uint16_t* value) {
  if (*pos + 2 > size) return false;
  *value = static_cast<uint16_t>(data[*pos] | (data[*pos + 1] << 8));
  *pos += 2;
  return true;
}

bool GetU32(const uint8_t* data, size_t size, size_t* pos, uint32_t* value) {
  if (*pos + 4 > size) return false;
  *value = 0;
  for (int i = 0; i < 4; ++i) {
    *value |= static_cast<uint32_t>(data[*pos + static_cast<size_t>(i)])
              << (8 * i);
  }
  *pos += 4;
  return true;
}

bool GetU64(const uint8_t* data, size_t size, size_t* pos, uint64_t* value) {
  if (*pos + 8 > size) return false;
  *value = 0;
  for (int i = 0; i < 8; ++i) {
    *value |= static_cast<uint64_t>(data[*pos + static_cast<size_t>(i)])
              << (8 * i);
  }
  *pos += 8;
  return true;
}

/// Serializes one record's payload (everything the frame CRC covers).
std::vector<uint8_t> EncodePayload(const std::string& dataset,
                                   const std::string& field,
                                   const Atom& atom) {
  std::vector<uint8_t> out;
  const uint32_t data_bytes =
      static_cast<uint32_t>(atom.data.size() * sizeof(float));
  out.reserve(dataset.size() + field.size() + 28 + data_bytes);
  PutU16(&out, static_cast<uint16_t>(dataset.size()));
  out.insert(out.end(), dataset.begin(), dataset.end());
  PutU16(&out, static_cast<uint16_t>(field.size()));
  out.insert(out.end(), field.begin(), field.end());
  PutU32(&out, static_cast<uint32_t>(atom.key.timestep));
  PutU64(&out, atom.key.zindex);
  PutU32(&out, static_cast<uint32_t>(atom.width));
  PutU32(&out, static_cast<uint32_t>(atom.ncomp));
  const size_t data_offset = out.size();
  out.resize(out.size() + data_bytes);
  std::memcpy(out.data() + data_offset, atom.data.data(), data_bytes);
  return out;
}

bool DecodePayload(const uint8_t* data, size_t size,
                   WriteAheadLog::Record* record) {
  size_t pos = 0;
  uint16_t len = 0;
  if (!GetU16(data, size, &pos, &len) || pos + len > size) return false;
  record->dataset.assign(reinterpret_cast<const char*>(data + pos), len);
  pos += len;
  if (!GetU16(data, size, &pos, &len) || pos + len > size) return false;
  record->field.assign(reinterpret_cast<const char*>(data + pos), len);
  pos += len;
  uint32_t timestep = 0;
  uint64_t zindex = 0;
  uint32_t width = 0;
  uint32_t ncomp = 0;
  if (!GetU32(data, size, &pos, &timestep) ||
      !GetU64(data, size, &pos, &zindex) ||
      !GetU32(data, size, &pos, &width) || !GetU32(data, size, &pos, &ncomp)) {
    return false;
  }
  record->atom.key.timestep = static_cast<int32_t>(timestep);
  record->atom.key.zindex = zindex;
  record->atom.width = static_cast<int32_t>(width);
  record->atom.ncomp = static_cast<int32_t>(ncomp);
  if (width == 0 || width > 256 || ncomp == 0 || ncomp > 64) return false;
  const size_t values = static_cast<size_t>(width) * width * width * ncomp;
  if (size - pos != values * sizeof(float)) return false;
  record->atom.data.resize(values);
  std::memcpy(record->atom.data.data(), data + pos, values * sizeof(float));
  return true;
}

}  // namespace

WriteAheadLog::WriteAheadLog(std::string path, int fd, WalFsyncPolicy policy)
    : path_(std::move(path)), fd_(fd), policy_(policy) {}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path, WalFsyncPolicy policy) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return ErrnoStatus("open " + path);
  std::unique_ptr<WriteAheadLog> wal(
      new WriteAheadLog(path, fd, policy));
  TURBDB_RETURN_NOT_OK(wal->Recover());
  return wal;
}

Status WriteAheadLog::Recover() {
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0) return ErrnoStatus("lseek " + path_);
  uint64_t offset = 0;
  uint64_t records = 0;
  while (offset + kFrameBytes <= static_cast<uint64_t>(end)) {
    uint8_t frame[kFrameBytes];
    if (::pread(fd_, frame, sizeof(frame), static_cast<off_t>(offset)) !=
        static_cast<ssize_t>(sizeof(frame))) {
      return ErrnoStatus("pread frame " + path_);
    }
    size_t pos = 0;
    uint32_t magic = 0;
    uint32_t payload_bytes = 0;
    uint32_t crc = 0;
    GetU32(frame, sizeof(frame), &pos, &magic);
    GetU32(frame, sizeof(frame), &pos, &payload_bytes);
    GetU32(frame, sizeof(frame), &pos, &crc);
    bool intact = magic == kWalMagic &&
                  offset + kFrameBytes + payload_bytes <=
                      static_cast<uint64_t>(end);
    std::vector<uint8_t> payload;
    if (intact) {
      payload.resize(payload_bytes);
      if (::pread(fd_, payload.data(), payload_bytes,
                  static_cast<off_t>(offset + kFrameBytes)) !=
          static_cast<ssize_t>(payload_bytes)) {
        return ErrnoStatus("pread payload " + path_);
      }
      intact = Crc32(payload.data(), payload.size()) == crc;
    }
    if (!intact) {
      // Torn or corrupt tail (crash mid-append): cut it and keep the
      // intact prefix. Anything after a bad record is unreachable anyway
      // since record boundaries are lost.
      TURBDB_LOG(Warning) << "wal " << path_ << ": truncating torn tail at "
                          << offset << " (" << (end - static_cast<off_t>(offset))
                          << " bytes dropped)";
      if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0) {
        return ErrnoStatus("ftruncate " + path_);
      }
      tail_truncated_ = true;
      break;
    }
    offset += kFrameBytes + payload_bytes;
    ++records;
  }
  if (!tail_truncated_ && offset != static_cast<uint64_t>(end)) {
    // A partial frame header at the very end is also a torn tail.
    TURBDB_LOG(Warning) << "wal " << path_
                        << ": truncating partial frame header at " << offset;
    if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0) {
      return ErrnoStatus("ftruncate " + path_);
    }
    tail_truncated_ = true;
  }
  file_size_ = offset;
  records_ = records;
  return Status::OK();
}

Status WriteAheadLog::Append(const std::string& dataset,
                             const std::string& field, const Atom& atom) {
  if (dataset.size() > UINT16_MAX || field.size() > UINT16_MAX) {
    return Status::InvalidArgument("wal record name too long");
  }
  const std::vector<uint8_t> payload = EncodePayload(dataset, field, atom);
  std::vector<uint8_t> buffer;
  buffer.reserve(kFrameBytes + payload.size());
  PutU32(&buffer, kWalMagic);
  PutU32(&buffer, static_cast<uint32_t>(payload.size()));
  PutU32(&buffer, Crc32(payload.data(), payload.size()));
  buffer.insert(buffer.end(), payload.begin(), payload.end());

  std::lock_guard<std::mutex> lock(mutex_);
  size_t write_bytes = buffer.size();
  if (const fault::Injected injected = fault::Check("wal.torn_tail")) {
    // Simulated crash mid-append: only a prefix of the record reaches the
    // file. The caller proceeds as if the write completed — recovery at
    // the next open must detect and drop the torn tail.
    write_bytes = std::min<size_t>(
        write_bytes, injected.action == fault::Action::kTruncate
                         ? static_cast<size_t>(injected.arg)
                         : write_bytes / 2);
  }
  const ssize_t n = ::pwrite(fd_, buffer.data(), write_bytes,
                             static_cast<off_t>(file_size_));
  if (n != static_cast<ssize_t>(write_bytes)) {
    return ErrnoStatus("pwrite " + path_);
  }
  file_size_ += write_bytes;
  if (write_bytes == buffer.size()) ++records_;
  if (policy_ == WalFsyncPolicy::kEveryAppend) {
    if (::fsync(fd_) != 0) return ErrnoStatus("fsync " + path_);
  }
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  if (policy_ == WalFsyncPolicy::kNever) return Status::OK();
  std::lock_guard<std::mutex> lock(mutex_);
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync " + path_);
  return Status::OK();
}

Status WriteAheadLog::Replay(
    const std::function<Status(const Record&)>& fn) const {
  uint64_t end = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    end = file_size_;
  }
  uint64_t offset = 0;
  while (offset + kFrameBytes <= end) {
    uint8_t frame[kFrameBytes];
    if (::pread(fd_, frame, sizeof(frame), static_cast<off_t>(offset)) !=
        static_cast<ssize_t>(sizeof(frame))) {
      return ErrnoStatus("pread frame " + path_);
    }
    size_t pos = 0;
    uint32_t magic = 0;
    uint32_t payload_bytes = 0;
    uint32_t crc = 0;
    GetU32(frame, sizeof(frame), &pos, &magic);
    GetU32(frame, sizeof(frame), &pos, &payload_bytes);
    GetU32(frame, sizeof(frame), &pos, &crc);
    if (magic != kWalMagic || offset + kFrameBytes + payload_bytes > end) {
      return Status::Corruption("wal " + path_ + ": bad record at offset " +
                                std::to_string(offset));
    }
    std::vector<uint8_t> payload(payload_bytes);
    if (::pread(fd_, payload.data(), payload_bytes,
                static_cast<off_t>(offset + kFrameBytes)) !=
        static_cast<ssize_t>(payload_bytes)) {
      return ErrnoStatus("pread payload " + path_);
    }
    if (Crc32(payload.data(), payload.size()) != crc) {
      return Status::Corruption("wal " + path_ +
                                ": checksum mismatch at offset " +
                                std::to_string(offset));
    }
    Record record;
    if (!DecodePayload(payload.data(), payload.size(), &record)) {
      return Status::Corruption("wal " + path_ +
                                ": undecodable record at offset " +
                                std::to_string(offset));
    }
    TURBDB_RETURN_NOT_OK(fn(record));
    offset += kFrameBytes + payload_bytes;
  }
  return Status::OK();
}

Status WriteAheadLog::Truncate() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (::ftruncate(fd_, 0) != 0) return ErrnoStatus("ftruncate " + path_);
  if (policy_ != WalFsyncPolicy::kNever && ::fsync(fd_) != 0) {
    return ErrnoStatus("fsync " + path_);
  }
  file_size_ = 0;
  records_ = 0;
  return Status::OK();
}

uint64_t WriteAheadLog::pending_records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

uint64_t WriteAheadLog::pending_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return file_size_;
}

}  // namespace turbdb
