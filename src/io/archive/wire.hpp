#pragma once
// Byte-level primitives of the bbx archive format.
//
// Everything in a bbx shard is little-endian: fixed-width u32/u64/f64
// fields, LEB128 varints for counts and dictionary indices, and zigzag
// varints for delta-encoded integer columns (deltas of a randomized
// plan's cell indices go negative about half the time).  Each field has
// a store_* form that writes through a pointer into a pre-sized buffer
// and a put_* form that appends to a std::string.  ByteReader is the matching
// bounds-checked cursor: every read that would run past the end throws,
// so a truncated or corrupt block surfaces as a clear error instead of
// undefined behavior.

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace cal::io::archive {

// Stores: write one field at `p` and return the byte past it.  The
// caller guarantees room (a varint takes at most 10 bytes); encoders
// that know their worst case up front write through these into a
// pre-sized buffer instead of growing a string byte by byte.

inline char* store_u32le(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return p + 4;
}

inline char* store_u64le(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return p + 8;
}

inline char* store_f64le(char* p, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return store_u64le(p, bits);
}

/// LEB128 unsigned varint (7 bits per byte, high bit = continuation).
inline char* store_varint(char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

/// Zigzag mapping so small-magnitude signed deltas stay short varints.
inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

inline char* store_svarint(char* p, std::int64_t v) {
  return store_varint(p, zigzag(v));
}

// Appends: the same fields grown onto a string buffer.

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void put_u32le(std::string& out, std::uint32_t v) {
  char buf[4];
  out.append(buf, store_u32le(buf, v));
}

inline void put_u64le(std::string& out, std::uint64_t v) {
  char buf[8];
  out.append(buf, store_u64le(buf, v));
}

inline void put_f64le(std::string& out, double v) {
  char buf[8];
  out.append(buf, store_f64le(buf, v));
}

inline void put_varint(std::string& out, std::uint64_t v) {
  char buf[10];
  out.append(buf, store_varint(buf, v));
}

inline void put_svarint(std::string& out, std::int64_t v) {
  put_varint(out, zigzag(v));
}

/// Bounds-checked forward cursor over an encoded byte range.
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::string& buf)
      : ByteReader(buf.data(), buf.size()) {}

  std::size_t remaining() const noexcept { return size_ - pos_; }
  std::size_t position() const noexcept { return pos_; }
  bool done() const noexcept { return pos_ == size_; }

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t u32le() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64le() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  double f64le() {
    const std::uint64_t bits = u64le();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t byte = u8();
      if (shift == 63 && byte > 1) {
        // Bits past 2^64 would silently wrap into the low word.
        throw std::runtime_error("bbx: varint overflows 64 bits");
      }
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if (!(byte & 0x80)) {
        if (byte == 0 && shift != 0) {
          // A zero terminator after continuation bytes encodes the
          // value non-canonically; the writer never emits it, so it
          // only appears in corrupt or adversarial input.
          throw std::runtime_error("bbx: non-canonical varint");
        }
        return v;
      }
    }
    throw std::runtime_error("bbx: varint longer than 10 bytes");
  }

  std::int64_t svarint() { return unzigzag(varint()); }

  /// Borrows `n` raw bytes (valid while the underlying buffer lives).
  const char* bytes(std::size_t n) {
    need(n);
    const char* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  /// The unread byte range, for bulk kernels that report their own
  /// consumption; pair with skip().
  const char* cursor() const noexcept { return data_ + pos_; }

  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) {
      throw std::runtime_error("bbx: encoded data truncated");
    }
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace cal::io::archive
