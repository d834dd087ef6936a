#include "src/compress/container.hpp"

#include <algorithm>
#include <cstring>

#include "src/common/bitio.hpp"
#include "src/common/crc32.hpp"
#include "src/common/error.hpp"
#include "src/common/fs_fault.hpp"

namespace gsnp::compress {

namespace {

constexpr u64 kCrcBytes = 4;

}  // namespace

bool has_magic(const std::filesystem::path& path, const Magic& magic) {
  std::ifstream in(path, std::ios::binary);
  GSNP_CHECK_MSG(in.good(), "cannot open " << path);
  char found[sizeof(Magic)] = {};
  in.read(found, sizeof(found));
  return in.gcount() == sizeof(found) &&
         std::memcmp(found, magic, sizeof(found)) == 0;
}

// ---- writer -----------------------------------------------------------------

FrameWriter::FrameWriter(const std::filesystem::path& path, const Magic& magic,
                         std::string_view name)
    : out_(path, std::ios::binary), path_(path) {
  GSNP_CHECK_MSG(out_.good(), "cannot open " << path);
  std::vector<u8> header(magic, magic + sizeof(Magic));
  varint_append(header, name.size());
  header.insert(header.end(), name.begin(), name.end());
  put(header);
}

std::vector<u8> make_frame(std::span<const u8> payload) {
  std::vector<u8> frame;
  frame.reserve(10 + payload.size() + kCrcBytes);
  varint_append(frame, payload.size());
  frame.insert(frame.end(), payload.begin(), payload.end());
  const u32 crc = crc32(payload.data(), payload.size());
  for (u64 i = 0; i < kCrcBytes; ++i)
    frame.push_back(static_cast<u8>(crc >> (8 * i)));
  return frame;
}

void FrameWriter::write(std::span<const u8> payload) {
  put(make_frame(payload));
}

void FrameWriter::write_frame(std::span<const u8> frame) { put(frame); }

u64 FrameWriter::finish() {
  out_.flush();
  fsfault::check_stream(out_, path_, "flush");
  out_.close();
  return bytes_;
}

void FrameWriter::put(std::span<const u8> bytes) {
  fsfault::write(out_, path_,
                 std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                  bytes.size()));
  bytes_ += bytes.size();
}

// ---- reader -----------------------------------------------------------------

FrameReader::FrameReader(const std::filesystem::path& path, const Magic& magic)
    : in_(path, std::ios::binary), path_(path) {
  GSNP_CHECK_MSG(in_.good(), "cannot open " << path);
  in_.seekg(0, std::ios::end);
  file_bytes_ = static_cast<u64>(in_.tellg());
  in_.seekg(0);
  char found[sizeof(Magic)] = {};
  in_.read(found, sizeof(found));
  GSNP_CHECK_MSG(in_.gcount() == sizeof(found) &&
                     std::memcmp(found, magic, sizeof(found)) == 0,
                 "bad magic in " << path);
  offset_ = sizeof(found);
  u64 name_bytes = 0;
  GSNP_CHECK_MSG(read_varint(name_bytes) &&
                     name_bytes <= file_bytes_ - offset_,
                 "truncated header in " << path);
  name_.resize(name_bytes);
  read_exact(name_.data(), name_bytes);
}

bool FrameReader::next(std::vector<u8>& payload) {
  if (!peek(0, payload)) return false;
  read_rest(payload);
  return true;
}

bool FrameReader::peek(std::size_t n, std::vector<u8>& payload) {
  if (!read_varint(frame_bytes_)) return false;
  GSNP_CHECK_MSG(frame_bytes_ <= file_bytes_ - offset_ &&
                     kCrcBytes <= file_bytes_ - offset_ - frame_bytes_,
                 "truncated frame in " << path_);
  frame_end_ = offset_ + frame_bytes_ + kCrcBytes;
  payload.resize(std::min<u64>(n, frame_bytes_));
  read_exact(payload.data(), payload.size());
  return true;
}

void FrameReader::read_rest(std::vector<u8>& payload) {
  const std::size_t head = payload.size();
  payload.resize(frame_bytes_);
  read_exact(payload.data() + head, frame_bytes_ - head);
  u8 le[kCrcBytes];
  read_exact(le, kCrcBytes);
  u32 stored = 0;
  for (u64 i = 0; i < kCrcBytes; ++i)
    stored |= static_cast<u32>(le[i]) << (8 * i);
  GSNP_CHECK_MSG(crc32(payload.data(), payload.size()) == stored,
                 "frame CRC mismatch in " << path_ << " (corrupt file)");
}

void FrameReader::skip_rest() {
  in_.seekg(static_cast<std::streamoff>(frame_end_));
  offset_ = frame_end_;
}

/// A varint from the stream: false at the end of file before its first
/// byte; one cut short raises.
bool FrameReader::read_varint(u64& value) {
  value = 0;
  for (int shift = 0;; shift += 7) {
    const int c = in_.get();
    if (c == EOF) {
      GSNP_CHECK_MSG(shift == 0, "truncated varint in " << path_);
      return false;
    }
    ++offset_;
    GSNP_CHECK_MSG(shift < 64, "varint too long in " << path_);
    value |= static_cast<u64>(c & 0x7F) << shift;
    if (!(c & 0x80)) return true;
  }
}

void FrameReader::read_exact(void* dst, u64 bytes) {
  in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
  GSNP_CHECK_MSG(in_.gcount() == static_cast<std::streamsize>(bytes),
                 "truncated frame in " << path_);
  offset_ += bytes;
}

}  // namespace gsnp::compress
