#include "src/store/framed.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/store/codec.hpp"

namespace faucets::store {

namespace {

constexpr std::size_t kHeaderBytes = 8 + 4 + 4;  // magic, length, CRC

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("store: " + what + " " + path + ": " + std::strerror(errno));
}

/// The directory holding `path`, whose entry the rename changes.
std::string parent_dir(const std::string& path) {
  const auto slash = path.rfind('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

}  // namespace

void write_framed_file(const std::string& path, std::string_view magic,
                       std::string_view body) {
  Encoder frame;
  frame.put_u32(static_cast<std::uint32_t>(body.size()));
  frame.put_u32(crc32(body));
  std::string blob{magic};
  blob += frame.bytes();
  blob.append(body.data(), body.size());

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail("cannot write", tmp);
  const char* p = blob.data();
  std::size_t left = blob.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      errno = err;
      fail("write failed on", tmp);
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  ::fsync(fd);
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) fail("cannot publish", path);
  const int dir = ::open(parent_dir(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (dir >= 0) {
    ::fsync(dir);
    ::close(dir);
  }
}

FrameCheck read_framed_file(const std::string& path, std::string_view magic,
                            std::string& body) {
  body.clear();
  std::ifstream in{path, std::ios::binary};
  if (!in) return FrameCheck::kMissing;
  std::ostringstream raw;
  raw << in.rdbuf();
  const std::string data = raw.str();
  if (data.size() < kHeaderBytes || std::string_view(data).substr(0, 8) != magic) {
    return FrameCheck::kNotFramed;
  }
  Decoder header{std::string_view(data).substr(8, 8)};
  const std::uint32_t length = header.get_u32();
  const std::uint32_t crc = header.get_u32();
  const std::string_view framed = std::string_view(data).substr(kHeaderBytes);
  if (framed.size() != length || crc32(framed) != crc) return FrameCheck::kCorrupt;
  body.assign(framed);
  return FrameCheck::kOk;
}

}  // namespace faucets::store
