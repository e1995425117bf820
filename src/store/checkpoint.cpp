#include "src/store/checkpoint.hpp"

#include <stdexcept>

#include "src/store/codec.hpp"
#include "src/store/framed.hpp"

namespace faucets::store {

namespace {
constexpr std::string_view kCkptMagic{"FAUCCKP\x01", 8};
}  // namespace

std::string Checkpoint::encode() const {
  Encoder e;
  e.put_u32(kVersion);
  e.put_string(scenario_text);
  e.put_f64(until);
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
  out.until = d.get_f64();
  out.sim_time = d.get_f64();
  out.executed = d.get_u64();
  out.state_image = d.get_string();
  return out;
}

void Checkpoint::write_file(const std::string& path) const {
  write_framed_file(path, kCkptMagic, encode());
}

Checkpoint Checkpoint::read_file(const std::string& path) {
  std::string body;
  switch (read_framed_file(path, kCkptMagic, body)) {
    case FrameCheck::kOk:
      break;
    case FrameCheck::kMissing:
      throw std::runtime_error("checkpoint: cannot open " + path);
    case FrameCheck::kNotFramed:
      throw std::runtime_error("checkpoint: " + path + " is not a checkpoint file");
    case FrameCheck::kCorrupt:
      throw std::runtime_error("checkpoint: " + path + " is torn or corrupt");
  }
  try {
    return decode(body);
  } catch (const CodecError& e) {
    throw std::runtime_error("checkpoint: " + path + " is malformed: " + e.what());
  }
}

}  // namespace faucets::store
