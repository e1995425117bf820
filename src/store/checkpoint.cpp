#include "src/store/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/store/codec.hpp"

namespace faucets::store {

namespace {
constexpr char kCkptMagic[8] = {'F', 'A', 'U', 'C', 'C', 'K', 'P', '\x01'};
}  // namespace

std::string Checkpoint::encode() const {
  Encoder e;
  e.put_u32(kVersion);
  e.put_string(scenario_text);
  e.put_u32(static_cast<std::uint32_t>(overrides.size()));
  for (const auto& [flag, value] : overrides) {
    e.put_string(flag);
    e.put_string(value);
  }
  e.put_f64(sim_time);
  e.put_u64(executed);
  e.put_string(state_image);
  return e.take();
}

Checkpoint Checkpoint::decode(const std::string& body) {
  Decoder d{body};
  Checkpoint out;
  const std::uint32_t version = d.get_u32();
  if (version != kVersion) {
    throw std::runtime_error("checkpoint: version " + std::to_string(version) +
                             " is not supported (expected " +
                             std::to_string(kVersion) + ")");
  }
  out.scenario_text = d.get_string();
  const std::uint32_t n_overrides = d.get_u32();
  for (std::uint32_t i = 0; i < n_overrides; ++i) {
    std::string flag = d.get_string();
    std::string value = d.get_string();
    out.overrides.emplace_back(std::move(flag), std::move(value));
  }
  out.sim_time = d.get_f64();
  out.executed = d.get_u64();
  out.state_image = d.get_string();
  return out;
}

void Checkpoint::write_file(const std::string& path) const {
  const std::string body = encode();
  Encoder header;
  header.put_u32(static_cast<std::uint32_t>(body.size()));
  header.put_u32(crc32(body));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) throw std::runtime_error("checkpoint: cannot write " + tmp);
    out.write(kCkptMagic, sizeof kCkptMagic);
    out.write(header.bytes().data(),
              static_cast<std::streamsize>(header.bytes().size()));
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    if (!out) throw std::runtime_error("checkpoint: write failed on " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("checkpoint: cannot publish " + path);
  }
}

Checkpoint Checkpoint::read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error("checkpoint: cannot open " + path);
  std::ostringstream raw;
  raw << in.rdbuf();
  const std::string data = raw.str();
  if (data.size() < sizeof kCkptMagic + 8 ||
      std::memcmp(data.data(), kCkptMagic, sizeof kCkptMagic) != 0) {
    throw std::runtime_error("checkpoint: " + path + " is not a checkpoint file");
  }
  Decoder header{std::string_view(data).substr(sizeof kCkptMagic, 8)};
  const std::uint32_t length = header.get_u32();
  const std::uint32_t crc = header.get_u32();
  const std::string body(std::string_view(data).substr(sizeof kCkptMagic + 8));
  if (body.size() != length || crc32(body) != crc) {
    throw std::runtime_error("checkpoint: " + path + " is torn or corrupt");
  }
  try {
    return decode(body);
  } catch (const CodecError& e) {
    throw std::runtime_error("checkpoint: " + path + " is malformed: " + e.what());
  }
}

}  // namespace faucets::store
