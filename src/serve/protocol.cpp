#include "serve/protocol.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "core/fault.hpp"
#include "io/archive/wire.hpp"
#include "obs/metrics.hpp"

namespace cal::serve {

namespace {

namespace wire = io::archive;

void put_string(std::string& out, const std::string& s) {
  wire::put_varint(out, s.size());
  out.append(s);
}

std::string get_string(wire::ByteReader& in) {
  const std::uint64_t n = in.varint();
  if (n > kMaxFrameBytes) {
    throw ProtocolError("serve: string length exceeds frame limit");
  }
  const char* p = in.bytes(static_cast<std::size_t>(n));
  return std::string(p, static_cast<std::size_t>(n));
}

void put_list(std::string& out, const std::vector<std::string>& items) {
  wire::put_varint(out, items.size());
  for (const std::string& item : items) put_string(out, item);
}

std::vector<std::string> get_list(wire::ByteReader& in) {
  const std::uint64_t n = in.varint();
  if (n > kMaxFrameBytes) {
    throw ProtocolError("serve: list length exceeds frame limit");
  }
  std::vector<std::string> items;
  items.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) items.push_back(get_string(in));
  return items;
}

/// ByteReader throws std::runtime_error on truncation; a payload codec
/// must surface that as the protocol violation it is.
template <typename Fn>
auto strict(Fn&& fn) {
  try {
    return fn();
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception& e) {
    throw ProtocolError(std::string("serve: malformed payload: ") +
                        e.what());
  }
}

void read_exact(int fd, char* data, std::size_t size, bool* clean_eof) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      if (clean_eof != nullptr && got == 0) {
        *clean_eof = true;
        return;
      }
      throw ProtocolError("serve: connection closed mid-frame");
    }
    if (errno == EINTR) continue;
    throw std::runtime_error(std::string("serve: recv failed: ") +
                             std::strerror(errno));
  }
}

void write_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
#ifdef MSG_NOSIGNAL
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
#else
    const ssize_t n = ::send(fd, data + sent, size - sent, 0);
#endif
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw std::runtime_error(std::string("serve: send failed: ") +
                             std::strerror(errno));
  }
}

}  // namespace

std::string encode_request(const Request& request) {
  std::string out;
  wire::put_u8(out, static_cast<std::uint8_t>(request.kind));
  put_string(out, request.bundle);
  put_string(out, request.where);
  put_list(out, request.group_by);
  put_list(out, request.aggregates);
  put_list(out, request.select);
  return out;
}

Request decode_request(const std::string& payload) {
  return strict([&] {
    wire::ByteReader in(payload);
    Request request;
    const std::uint8_t kind = in.u8();
    if (kind > static_cast<std::uint8_t>(RequestKind::kMetrics)) {
      throw ProtocolError("serve: unknown request kind " +
                          std::to_string(kind));
    }
    request.kind = static_cast<RequestKind>(kind);
    request.bundle = get_string(in);
    request.where = get_string(in);
    request.group_by = get_list(in);
    request.aggregates = get_list(in);
    request.select = get_list(in);
    if (!in.done()) {
      throw ProtocolError("serve: trailing bytes after request");
    }
    return request;
  });
}

std::string encode_response(const Response& response) {
  std::string out;
  wire::put_u8(out, static_cast<std::uint8_t>(response.status));
  put_string(out, response.body);
  return out;
}

Response decode_response(const std::string& payload) {
  return strict([&] {
    wire::ByteReader in(payload);
    Response response;
    const std::uint8_t status = in.u8();
    if (status > static_cast<std::uint8_t>(Status::kError)) {
      throw ProtocolError("serve: unknown response status " +
                          std::to_string(status));
    }
    response.status = static_cast<Status>(status);
    response.body = get_string(in);
    if (!in.done()) {
      throw ProtocolError("serve: trailing bytes after response");
    }
    return response;
  });
}

std::optional<std::string> read_frame(int fd) {
  char header[8];
  bool clean_eof = false;
  read_exact(fd, header, sizeof header, &clean_eof);
  if (clean_eof) return std::nullopt;
  wire::ByteReader in(header, sizeof header);
  const std::uint32_t magic = in.u32le();
  if (magic != kFrameMagic) {
    throw ProtocolError("serve: bad frame magic");
  }
  const std::uint32_t length = in.u32le();
  if (length > kMaxFrameBytes) {
    throw ProtocolError("serve: frame of " + std::to_string(length) +
                        " bytes exceeds the " +
                        std::to_string(kMaxFrameBytes) + " byte limit");
  }
  // The length is the peer's claim, so the payload grows one bounded
  // chunk at a time as bytes arrive: a peer that claims kMaxFrameBytes
  // and then hangs up costs one chunk, not the claimed length.
  constexpr std::size_t kReadChunk = 64u << 10;
  std::string payload;
  while (payload.size() < length) {
    const std::size_t at = payload.size();
    payload.resize(at + std::min<std::size_t>(kReadChunk, length - at));
    read_exact(fd, payload.data() + at, payload.size() - at, nullptr);
  }
  CAL_COUNT("serve.frames_read", 1);
  CAL_COUNT("serve.frame_bytes_read", sizeof header + payload.size());
  return payload;
}

void write_frame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw ProtocolError("serve: refusing to send oversized frame");
  }
  CAL_FAULT_POINT("serve.write_frame");
  std::string header;
  wire::put_u32le(header, kFrameMagic);
  wire::put_u32le(header, static_cast<std::uint32_t>(payload.size()));
  write_all(fd, header.data(), header.size());
  if (!payload.empty()) write_all(fd, payload.data(), payload.size());
  CAL_COUNT("serve.frames_written", 1);
  CAL_COUNT("serve.frame_bytes_written", header.size() + payload.size());
}

}  // namespace cal::serve
